// The differential-testing fleet runner.
//
// run_fleet() streams every instance of a scenario grid through a
// configurable set of DIFFERENTIAL ORACLES and folds the outcomes into
// FleetAggregates without ever holding more than one chunk of outcome PODs
// in memory:
//
//   baseline      serial analyze() (1 thread, lint kReport, certificate
//                 emitted) -- the reference every oracle compares against
//   parallel      multi-threaded analyze() must reproduce the baseline
//                 report + certificate BYTE-IDENTICALLY (engine options are
//                 normalized out of the report before comparison)
//   session       a warm AnalysisSession driven through a mutate/revert
//                 delta cycle must land back on the baseline bytes
//   certificate   the emitted certificate must survive JSON serialize ->
//                 parse byte-identically AND be re-judged valid by the
//                 independent checker (src/verify/checker.hpp)
//   lint          the standalone linter must agree with the in-pipeline
//                 gate's findings, and an instance with error findings must
//                 actually be refused at LintLevel::kErrors
//
// Any disagreement, checker failure, or unexpected exception becomes a
// DivergenceRecord carrying the full reproducer coordinates; when a repro
// directory is configured the runner additionally delta-minimizes the
// instance (greedy task removal while the failing oracle still fails) and
// writes the shrunken .rtlb next to the record.
//
// Scale-out happens on two levels. Within a shard, instances are evaluated
// by the existing ThreadPool with the repo's standard determinism
// discipline: workers write into per-index slots, the fold walks slots in
// index order. Across processes, --shards S / --shard k partitions the
// global index space by residue (instance g belongs to shard g % S); shard
// aggregates merge commutatively, so the merged report is byte-identical
// to a single-process run. Checkpointing writes the aggregates plus cursor
// atomically after every chunk; a killed run resumes from the last chunk
// boundary and produces byte-identical final aggregates.
#pragma once

#include <cstdint>
#include <string>

#include "src/fleet/aggregate.hpp"
#include "src/fleet/scenario.hpp"

namespace rtlb {

struct FleetOracles {
  bool parallel = true;
  bool session = true;
  bool certificate = true;
  bool lint = true;
  /// Worker count of the parallel-oracle engine (the point is a different
  /// decomposition, not speed; 4 exercises multi-chunk merges even on a
  /// single hardware thread).
  int parallel_threads = 4;
};

inline constexpr std::uint64_t kNoCorruption = ~std::uint64_t{0};

struct FleetOptions {
  FleetOracles oracles;

  /// Workers inside this shard (ThreadPool semantics: <= 0 means one per
  /// hardware thread).
  int threads = 1;

  /// Process-level sharding: this process evaluates global indices g with
  /// g % shards == shard.
  int shards = 1;
  int shard = 0;

  /// Checkpoint file; empty disables checkpointing. An existing, matching
  /// checkpoint is resumed; a checkpoint for a different spec/sharding is
  /// refused (ModelError) rather than silently restarted.
  std::string checkpoint_path;
  /// Instances folded between checkpoint writes (also the slot-buffer and
  /// progress granularity).
  std::size_t checkpoint_every = 512;

  /// Stop (after checkpointing) once this many instances were processed in
  /// THIS run; 0 = run to completion. This is the test hook standing in for
  /// kill -9: the state left behind is exactly a killed run's, since
  /// checkpoints are only written at chunk boundaries either way.
  std::uint64_t stop_after = 0;

  /// Directory for minimized divergence reproducers; empty disables
  /// minimization. At most max_reproducers files are written per run.
  std::string repro_dir;
  std::size_t max_reproducers = 16;

  /// Fault-injection hook for the oracle tests: corrupt the parallel
  /// engine's result for exactly this global instance index (bumps the
  /// first resource bound by one). The fleet must flag exactly this
  /// instance; kNoCorruption disables the hook.
  std::uint64_t corrupt_instance = kNoCorruption;

  /// Print a progress line to stderr after every chunk.
  bool progress = false;
};

struct FleetRunResult {
  FleetAggregates aggregates;
  /// False when stop_after cut the run short (aggregates cover only the
  /// instances processed so far; the checkpoint carries the cursor).
  bool complete = true;
  std::uint64_t processed_this_run = 0;
  bool resumed = false;
};

FleetRunResult run_fleet(const ScenarioSpec& spec, const FleetOptions& options);

/// The shard-exchange/report envelope around FleetAggregates: adds the spec
/// (verbatim), its fingerprint, and the shard coordinates, so merge can
/// refuse mismatched shards. `complete` mirrors FleetRunResult::complete.
/// Renders `spec` and `aggregates` by reference.
JsonRender fleet_report_json(const ScenarioSpec& spec, const FleetAggregates& aggregates,
                             int shards, int shard, bool complete);

/// The spec and summed aggregates of a set of shard reports.
struct MergedFleet {
  ScenarioSpec spec;
  FleetAggregates aggregates;

  /// The combined report: one complete shard of one.
  JsonRender json() const { return fleet_report_json(spec, aggregates, 1, 0, true); }
};

/// Merge shard reports (each produced by fleet_report_json, then parsed);
/// ModelError on fingerprint or shard-layout mismatches.
MergedFleet merge_fleet_reports(const std::vector<Json>& shard_reports);

}  // namespace rtlb
