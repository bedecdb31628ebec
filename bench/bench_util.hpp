// Shared helpers for the benchmark binaries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

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

/// Wall-clock milliseconds of `reps` (at least one) calls of fn(): the
/// fastest, which the benches report as their best, and the median and
/// slowest, which show how far the reps spread on a shared host.
struct RepSpread {
  double min_ms = 0;
  double median_ms = 0;
  double max_ms = 0;
};

template <typename Fn>
RepSpread time_spread_ms(Fn&& fn, int reps) {
  std::vector<double> ms;
  for (int i = 0; i < std::max(reps, 1); ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t mid = ms.size() / 2;
  const double median = ms.size() % 2 == 1 ? ms[mid] : (ms[mid - 1] + ms[mid]) / 2;
  return {ms.front(), median, ms.back()};
}

/// Best-of-`reps` wall-clock milliseconds of fn().
template <typename Fn>
double time_ms(Fn&& fn, int reps = 3) {
  return time_spread_ms(fn, reps).min_ms;
}

}  // namespace rtlb::benchutil
