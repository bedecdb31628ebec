// Shared helpers for the benchmark binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/common/json.hpp"
#include "src/common/table.hpp"

namespace rtlb::benchutil {

/// When RTLB_CSV_DIR is set, mirror a report table to <dir>/<name>.csv so
/// the series can be replotted without scraping the ASCII output.
inline void export_csv(const Table& table, const char* name) {
  const char* dir = std::getenv("RTLB_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[csv] cannot write %s\n", path.c_str());
    return;
  }
  table.to_csv(out);
  std::printf("[csv] wrote %s\n", path.c_str());
}

/// Write a JSON document to <RTLB_CSV_DIR or .>/<name>.json -- used by the
/// benches that record machine-readable results (BENCH_lower_bound.json).
inline void export_json(const Json& root, const char* name) {
  const char* dir = std::getenv("RTLB_CSV_DIR");
  const std::string path = (dir ? std::string(dir) + "/" : std::string()) + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[json] cannot write %s\n", path.c_str());
    return;
  }
  out << root.dump(2) << "\n";
  std::printf("[json] wrote %s\n", path.c_str());
}

/// Repetitions per measurement: RTLB_BENCH_REPS when set to a positive
/// integer (the CI smoke legs use 1), else `fallback`.
inline int rep_count(int fallback) {
  if (const char* env = std::getenv("RTLB_BENCH_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return fallback;
}

/// Best-of-`reps` wall-clock milliseconds of fn().
template <typename Fn>
double time_ms(Fn&& fn, int reps = 3) {
  double best = -1.0;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(stop - start).count();
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace rtlb::benchutil
