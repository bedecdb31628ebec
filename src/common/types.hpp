// Basic scalar types and small helpers shared across the library.
//
// All times in rtlb are integer "ticks" (Time). The paper's analysis divides
// accumulated demand by interval widths; to keep every bound exact we never
// convert to floating point inside an algorithm -- see ratio.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace rtlb {

/// Integer time in ticks. Signed so that slack arithmetic (L - C - m) can go
/// negative and be detected, rather than wrapping.
using Time = std::int64_t;

/// Sentinel for "unconstrained deadline" style extremes.
inline constexpr Time kTimeMax = std::numeric_limits<Time>::max() / 4;
inline constexpr Time kTimeMin = -kTimeMax;

/// The safe range of an EST/LCT endpoint, [-kSafeTime, kSafeTime]:
/// compute_windows() refuses any window outside it (RTLB-E310), and the
/// lint's interval analysis proves instances safe against it. One more
/// chain step from inside adds a computation time plus a message, each at
/// most kTimeMax, so 2 * kTimeMax of int64 headroom is left above it.
inline constexpr Time kSafeTime = std::numeric_limits<Time>::max() / 2;

/// Index of a task within an Application. Dense, 0-based.
using TaskId = std::uint32_t;

/// Interned id of a resource *or* processor type (the paper's RES contains
/// both). Dense, 0-based, scoped to a ResourceCatalog.
using ResourceId = std::uint32_t;

inline constexpr TaskId kInvalidTask = static_cast<TaskId>(-1);
inline constexpr ResourceId kInvalidResource = static_cast<ResourceId>(-1);

/// ceil(a / b) for a >= 0, b > 0. Written with a remainder test rather than
/// the usual (a + b - 1) / b so that near-INT64_MAX numerators (demands over
/// windows beyond kTimeMax, which user input can produce) cannot overflow.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

/// The library-wide rule for scaling a tick count by a real factor (the
/// sensitivity sweeps, CCR rescaling): round to the nearest tick (half away
/// from zero, as std::llround) and saturate at [0, kTimeMax]. The saturation
/// matters: a bare static_cast<Time> of `factor * value` is undefined
/// behaviour once the product exceeds the int64 range, which large sweep
/// factors can produce.
inline Time scale_time(double factor, Time value) {
  const double scaled = factor * static_cast<double>(value);
  if (!(scaled > 0)) return 0;  // also maps NaN to 0
  if (scaled >= static_cast<double>(kTimeMax)) return kTimeMax;
  return static_cast<Time>(std::llround(scaled));
}

/// The paper's alpha(x): max(x, 0).
constexpr Time alpha(Time x) { return x > 0 ? x : 0; }

/// The paper's mu(x): 1 if x > 0 else 0.
constexpr int mu(Time x) { return x > 0 ? 1 : 0; }

/// Error type for model-construction and input violations.
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

/// Internal invariant check that is always on (the library is not
/// performance-critical enough to justify silent corruption in release).
#define RTLB_CHECK(cond, msg)                                        \
  do {                                                               \
    if (!(cond)) {                                                   \
      throw std::logic_error(std::string("rtlb internal error: ") +  \
                             (msg) + " [" #cond "]");                \
    }                                                                \
  } while (false)

}  // namespace rtlb
