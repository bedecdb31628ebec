#include "src/audit/registry.hpp"

#include <array>

namespace rtlb {

namespace {

// Keep in code order and in sync with docs/AUDIT.md. Codes are append-only.
// Every audit code is an error: a finding either gets fixed, carries an
// inline `audit-ok` justification, or lands in the committed audit.baseline
// with a comment -- there is no advisory tier for invariant violations.
constexpr std::array<DiagInfo, 9> kRegistry{{
    {"RTLB-A001", Severity::kError,
     "module include edge is not in the declared module DAG",
     "either the dependency is wrong (remove the include, or route it through a declared "
     "gateway file) or the architecture changed on purpose (add the edge to the `modules` "
     "map in audit/rules.json with a PR explaining why)"},
    {"RTLB-A002", Severity::kError,
     "independent-checker source reaches outside its declared module set",
     "src/verify/'s checker files re-judge certificates from the model alone; keep their "
     "includes within the rule's allowed_modules list, or move result-dependent code into "
     "a declared gateway file (emit.*)"},
    {"RTLB-A101", Severity::kError,
     "iteration over an unordered container in a determinism-critical module",
     "unordered_map/unordered_set iteration order varies across libc++/libstdc++ and even "
     "process runs; iterate a sorted view, or switch to std::map/std::set/a sorted vector"},
    {"RTLB-A102", Severity::kError,
     "wall-clock or randomness source in a determinism-critical module",
     "core/, fleet/ and verify/ must be bit-reproducible; clocks belong in src/obs/, "
     "seeded randomness in src/common/random.hpp (split_seed)"},
    {"RTLB-A103", Severity::kError,
     "ordered container keyed on a pointer type",
     "pointer order is allocation order, which varies run to run; key on a task/resource "
     "id or another value type instead"},
    {"RTLB-A104", Severity::kError,
     "floating-point type in exact bound arithmetic",
     "the listed files implement the I128/ceil_div exactness contract (src/common/ratio.hpp); "
     "use Time/__int128 arithmetic, or move approximate code out of the listed files"},
    {"RTLB-A201", Severity::kError,
     "by-reference capture written without a per-index slot in a ThreadPool body",
     "parallel_for gives no ordering guarantee; write each index's result into its own "
     "slot (results[i] = ...) and merge the slots in index order afterwards "
     "(src/common/thread_pool.hpp's determinism contract)"},
    {"RTLB-A301", Severity::kError,
     "raw multiplication on Time-typed operands in a listed hot file",
     "widen through __int128 first (static_cast<__int128>(a) * b, the src/common/ratio.hpp "
     "idiom) so near-kTimeMax products cannot overflow"},
    {"RTLB-A302", Severity::kError,
     "raw += accumulation into a Time-typed value in a listed hot file",
     "accumulate with __builtin_add_overflow (the demand-scan idiom) or prove the sum "
     "bounded and carry the proof in an `audit-ok` justification"},
}};

constexpr auto kByCode = index_by_code(kRegistry);

}  // namespace

std::span<const DiagInfo> all_audit_info() { return kRegistry; }

const DiagInfo* audit_info(std::string_view code) { return find_code(kByCode, code); }

}  // namespace rtlb
