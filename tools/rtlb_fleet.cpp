// rtlb_fleet: the differential-testing fleet runner.
//
//   $ rtlb_fleet run --spec examples/fleet/smoke.json --out report.json
//   $ rtlb_fleet run --spec grid.json --shards 4 --shard 0 \
//       --checkpoint shard0.ckpt --out shard0.json
//   $ rtlb_fleet merge --out merged.json shard0.json shard1.json ...
//   $ rtlb_fleet print-spec --spec grid.json
//
// `run` streams every instance of the scenario grid (generator family x
// task count x laxity x platform model) through the differential oracles
// documented in src/fleet/runner.hpp and writes the aggregate report JSON.
// With --checkpoint, progress is persisted atomically after every chunk;
// re-running the same command after a crash (or kill -9) resumes from the
// last chunk boundary and produces byte-identical final aggregates. With
// --shards S / --shard K, this process evaluates only global indices g with
// g % S == K; `merge` combines the per-shard reports into the exact bytes a
// single-process run would have produced.
//
// run flags:
//   --spec FILE           scenario spec JSON (required)
//   --out FILE            report JSON destination (default: stdout)
//   --threads N           ThreadPool workers (<=0: one per hardware thread)
//   --shards S --shard K  process-level sharding (defaults 1 / 0; S >= 1,
//                         0 <= K < S)
//   --checkpoint FILE     resumable checkpoint path
//   --checkpoint-every N  instances per checkpoint chunk (default 512)
//   --limit N             stop after N instances THIS run (kill -9 stand-in)
//   --repro-dir DIR       write minimized .rtlb reproducers for divergences
//   --no-parallel / --no-session / --no-certificate / --no-lint
//                         disable individual oracles
//   --parallel-threads N  worker count of the parallel oracle (default 4)
//   --progress            progress line per chunk on stderr
//
// Exit status: 0 = run complete and clean (no divergences); 1 = run
// complete but divergences were recorded (see the report); 2 = usage or
// input error; 3 = incomplete (--limit cut the run short; checkpoint holds
// the cursor).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/common/strings.hpp"
#include "src/fleet/runner.hpp"

using namespace rtlb;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run --spec FILE [--out FILE] [--threads N]\n"
               "          [--shards S --shard K] [--checkpoint FILE]\n"
               "          [--checkpoint-every N] [--limit N] [--repro-dir DIR]\n"
               "          [--no-parallel] [--no-session]\n"
               "          [--no-certificate] [--no-lint] [--parallel-threads N]\n"
               "          [--progress]\n"
               "       %s merge --out FILE shard-report.json...\n"
               "       %s print-spec --spec FILE\n",
               argv0, argv0, argv0);
  std::exit(2);
}

ScenarioSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("cannot open spec '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ScenarioSpec::from_text(buffer.str());
}

int write_report(const JsonRender& report, const std::string& out_path) {
  const std::string text = report.dump(2) + "\n";
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (!atomic_write_file(out_path, text)) {
    std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  return 0;
}

int long_arg(int argc, char** argv, int* i, const char* argv0) {
  if (++*i >= argc) usage(argv0);
  const std::optional<int> value = parse_int_arg(argv[*i]);
  if (!value) usage(argv0);
  return *value;
}

int run_command(int argc, char** argv) {
  std::string spec_path, out_path;
  FleetOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      if (++i >= argc) usage(argv[0]);
      spec_path = argv[i];
    } else if (arg == "--out") {
      if (++i >= argc) usage(argv[0]);
      out_path = argv[i];
    } else if (arg == "--threads") {
      opts.threads = long_arg(argc, argv, &i, argv[0]);
    } else if (arg == "--shards") {
      opts.shards = long_arg(argc, argv, &i, argv[0]);
    } else if (arg == "--shard") {
      opts.shard = long_arg(argc, argv, &i, argv[0]);
    } else if (arg == "--checkpoint") {
      if (++i >= argc) usage(argv[0]);
      opts.checkpoint_path = argv[i];
    } else if (arg == "--checkpoint-every") {
      const int n = long_arg(argc, argv, &i, argv[0]);
      if (n < 1) usage(argv[0]);
      opts.checkpoint_every = static_cast<std::size_t>(n);
    } else if (arg == "--limit") {
      const int n = long_arg(argc, argv, &i, argv[0]);
      if (n < 1) usage(argv[0]);
      opts.stop_after = static_cast<std::uint64_t>(n);
    } else if (arg == "--repro-dir") {
      if (++i >= argc) usage(argv[0]);
      opts.repro_dir = argv[i];
    } else if (arg == "--no-parallel") {
      opts.oracles.parallel = false;
    } else if (arg == "--no-session") {
      opts.oracles.session = false;
    } else if (arg == "--no-certificate") {
      opts.oracles.certificate = false;
    } else if (arg == "--no-lint") {
      opts.oracles.lint = false;
    } else if (arg == "--parallel-threads") {
      opts.oracles.parallel_threads = long_arg(argc, argv, &i, argv[0]);
    } else if (arg == "--progress") {
      opts.progress = true;
    } else {
      usage(argv[0]);
    }
  }
  if (spec_path.empty()) usage(argv[0]);
  if (opts.shards < 1 || opts.shard < 0 || opts.shard >= opts.shards) usage(argv[0]);

  const ScenarioSpec spec = load_spec(spec_path);
  const FleetRunResult result = run_fleet(spec, opts);
  const int write_rc = write_report(
      fleet_report_json(spec, result.aggregates, opts.shards, opts.shard, result.complete),
      out_path);
  if (write_rc != 0) return write_rc;

  std::fprintf(stderr, "rtlb_fleet: %s%llu instances, %llu analyses, %zu divergences%s\n",
               result.resumed ? "resumed; " : "",
               static_cast<unsigned long long>(result.aggregates.instances),
               static_cast<unsigned long long>(result.aggregates.analyses),
               result.aggregates.divergences.size(),
               result.complete ? "" : " (incomplete; --limit reached)");
  if (!result.complete) return 3;
  return result.aggregates.clean() ? 0 : 1;
}

int merge_command(int argc, char** argv) {
  std::string out_path;
  std::vector<Json> reports;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (++i >= argc) usage(argv[0]);
      out_path = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      std::ifstream in(arg);
      if (!in) throw ModelError("cannot open shard report '" + arg + "'");
      std::ostringstream buffer;
      buffer << in.rdbuf();
      reports.push_back(Json::parse(buffer.str()));
    }
  }
  if (reports.empty()) usage(argv[0]);

  const MergedFleet merged = merge_fleet_reports(reports);
  const int write_rc = write_report(merged.json(), out_path);
  if (write_rc != 0) return write_rc;
  return merged.aggregates.clean() ? 0 : 1;
}

int print_spec_command(int argc, char** argv) {
  std::string spec_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      if (++i >= argc) usage(argv[0]);
      spec_path = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (spec_path.empty()) usage(argv[0]);
  const ScenarioSpec spec = load_spec(spec_path);
  std::printf("%s\n", spec.to_json().dump(2).c_str());
  std::fprintf(stderr, "cells: %zu  instances: %llu  fingerprint: %llx\n", spec.num_cells(),
               static_cast<unsigned long long>(spec.total_instances()),
               static_cast<unsigned long long>(spec.fingerprint()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "run") return run_command(argc, argv);
    if (command == "merge") return merge_command(argc, argv);
    if (command == "print-spec") return print_spec_command(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtlb_fleet: %s\n", e.what());
    return 2;
  }
  usage(argv[0]);
}
