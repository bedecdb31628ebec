#include "src/verify/checker.hpp"

#include <algorithm>
#include <cmath>
#include <span>

// NOTE: no src/core includes, by design (see checker.hpp). Everything the
// checks need is re-derived here from the paper against src/model only.

namespace rtlb {

std::string CheckReport::summary() const {
  std::string out;
  for (const CheckFailure& f : failures) {
    out += f.stage + "/" + f.rule + " " + f.subject + ": " + f.detail + "\n";
  }
  return out;
}

namespace {

/// Wide intermediate for every derived quantity: certificate values are
/// untrusted int64, so sums/differences are formed in 128 bits and compared
/// there — no overflow, no wraparound-driven false verdicts.
using I128 = __int128;

std::string i128_str(I128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  std::string digits;
  while (v != 0) {
    const int d = static_cast<int>(neg ? -(v % 10) : (v % 10));
    digits += static_cast<char>('0' + d);
    v /= 10;
  }
  if (neg) digits += '-';
  std::reverse(digits.begin(), digits.end());
  return digits;
}

I128 max0(I128 x) { return x > 0 ? x : 0; }

/// ceil(a / b) for a >= 0, b > 0, in 128 bits.
I128 ceil_div_wide(I128 a, I128 b) { return a / b + (a % b != 0 ? 1 : 0); }

class Checker {
 public:
  Checker(const Certificate& cert, const Application& app, const DedicatedPlatform* platform)
      : cert_(cert), app_(app), platform_(platform) {}

  CheckReport run() {
    if (check_meta()) {
      check_windows();
      check_partitions();
      check_bounds();
      check_joint();
      check_shared_cost();
      check_dedicated_cost();
    }
    report_.valid = report_.failures.empty();
    return std::move(report_);
  }

 private:
  void fail(std::string stage, std::string rule, std::string subject, std::string detail) {
    report_.failures.push_back(
        {std::move(stage), std::move(rule), std::move(subject), std::move(detail)});
  }

  std::string task_name(TaskId i) const {
    return "task " + std::to_string(i) +
           (app_.task(i).name.empty() ? "" : " (" + app_.task(i).name + ")");
  }

  std::string res_name(ResourceId r) const {
    return "resource " + std::to_string(r) + " (" + app_.catalog().name(r) + ")";
  }

  // ---- Definitions 1/2, re-derived from the model ------------------------

  /// A growing set under Definitions 1/2: merge_reset starts it at {seed},
  /// merge_add extends it by `t` if it stays mergeable; both say whether it
  /// is. Definition 2 keeps the AND of the members' host masks (one row of
  /// mask_words_ per task): a node type hosts the set iff its bit survives.
  bool merge_reset(TaskId seed) {
    merge_proc_ = app_.task(seed).proc;
    std::fill(merge_acc_.begin(), merge_acc_.end(), ~std::uint64_t{0});
    return merge_add(seed);
  }

  bool merge_add(TaskId t) {
    if (app_.task(t).proc != merge_proc_) return false;
    if (!cert_.dedicated) return true;
    const std::uint64_t* mask = host_masks_.data() + t * mask_words_;
    std::uint64_t common = 0;
    for (std::size_t w = 0; w < mask_words_; ++w) common |= merge_acc_[w] & mask[w];
    if (common == 0) return false;
    for (std::size_t w = 0; w < mask_words_; ++w) merge_acc_[w] &= mask[w];
    return true;
  }

  // ---- Section 4 over the CERTIFICATE windows ----------------------------
  //
  // Written for Figure 3 (EST). Figure 2 (LCT) is its mirror image under
  // time reversal t -> -t: L_j becomes an EST, lms the negated emr, lst(A)
  // the negated ect(A), and the maximum of Eq. 4.1 the negated minimum of
  // Eq. 4.5. A Side names the view; at() reads a window in it.

  struct Side {
    int sign;                  ///< +1 EST (Figure 3), -1 LCT (Figure 2)
    const char* rule;          ///< "T1" / "T2"
    const char* source_rule;   ///< "T1.source" / "T2.sink"
    const char* source_name;   ///< "the release time" / "the deadline"
    const char* neighbours;    ///< "predecessors" / "successors"
    const char* value;         ///< "E" / "L"
    const char* set;           ///< "M" / "G"
    const char* equation;      ///< "4.5" / "4.1"
    const char* optimum;       ///< "minimum" / "maximum"
  };
  static constexpr Side kEst{+1, "T1", "T1.source", "the release time", "predecessors",
                             "E", "M", "4.5", "minimum"};
  static constexpr Side kLct{-1, "T2", "T2.sink", "the deadline", "successors",
                             "L", "G", "4.1", "maximum"};

  I128 at(const Side& s, TaskId j) const {
    return s.sign > 0 ? static_cast<I128>(est_[j]) : -static_cast<I128>(lct_[j]);
  }

  /// The ect order of a side: by window time, ties by id.
  bool before(const Side& s, TaskId a, TaskId b) const {
    return at(s, a) != at(s, b) ? at(s, a) < at(s, b) : a < b;
  }

  /// ect(A) of a side for A in `before` order: the earliest completion of A
  /// run sequentially, each task starting no earlier than its window time.
  I128 ect(const Side& s, std::span<const TaskId> order) const {
    I128 completion = at(s, order[0]) + app_.task(order[0]).comp;
    for (std::size_t k = 1; k < order.size(); ++k) {
      completion = std::max(completion, at(s, order[k])) + app_.task(order[k]).comp;
    }
    return completion;
  }

  /// Insert `t` into order_, kept in `before` order.
  void insert_ordered(const Side& s, TaskId t) {
    order_.insert(std::upper_bound(order_.begin(), order_.end(), t,
                                   [&](TaskId a, TaskId b) { return before(s, a, b); }),
                  t);
  }

  /// A Figure 2/3 candidate: its emr (or negated lms) term, computed once,
  /// and the task.
  struct Keyed {
    I128 key;
    TaskId id;
  };

  // ---- Theorems 3/4 over the certificate windows -------------------------

  I128 psi(TaskId i, I128 t1, I128 t2) const {
    const I128 c = app_.task(i).comp;
    const I128 e = est_[i];
    const I128 l = lct_[i];
    if (l - t1 <= 0 || t2 - e <= 0) return 0;  // the mu(.)mu(.) guard
    if (app_.task(i).preemptive) {
      // Equation 6.1.
      return std::min(std::min(c, max0(c - (t1 - e))),
                      std::min(max0(c - (l - t2)), max0(c - (l - t2) - (t1 - e))));
    }
    // Equation 6.2.
    return std::min(std::min(c, max0(c - (t1 - e))),
                    std::min(max0(c - (l - t2)), t2 - t1));
  }

  // ---- stage checks ------------------------------------------------------

  /// Structural fit between certificate and instance. Returns false when the
  /// mismatch is so fundamental that value checks would be meaningless.
  bool check_meta() {
    if (cert_.num_tasks != app_.num_tasks()) {
      fail("meta", "meta.num-tasks", "certificate",
           "claims " + std::to_string(cert_.num_tasks) + " tasks, instance has " +
               std::to_string(app_.num_tasks()));
      return false;
    }
    if (cert_.dedicated && platform_ == nullptr) {
      fail("meta", "meta.platform", "certificate",
           "claims the dedicated model but no platform was supplied");
      return false;
    }
    if (cert_.dedicated_cost && platform_ == nullptr) {
      fail("meta", "meta.platform", "certificate",
           "carries a dedicated cost section but no platform was supplied");
      return false;
    }
    if (cert_.windows.size() != app_.num_tasks()) {
      fail("meta", "meta.windows", "certificate",
           "expected one window fact per task, got " + std::to_string(cert_.windows.size()));
      return false;
    }
    est_.resize(app_.num_tasks());
    lct_.resize(app_.num_tasks());
    for (TaskId i = 0; i < app_.num_tasks(); ++i) {
      const WindowFact& w = cert_.windows[i];
      if (w.task != i) {
        fail("meta", "meta.windows", "windows[" + std::to_string(i) + "]",
             "facts must be sorted by task id");
        return false;
      }
      if (w.est < -kSafeTime || w.est > kSafeTime || w.lct < -kSafeTime || w.lct > kSafeTime) {
        fail("meta", "meta.range", task_name(i),
             "window endpoint outside [-kSafeTime, kSafeTime]");
        return false;
      }
      est_[i] = w.est;
      lct_[i] = w.lct;
    }
    return true;
  }

  /// Figure 3 (EST) or, mirrored, Figure 2 (LCT) re-judged for one task:
  /// the certified E_i must be the minimum of Eq. 4.5 over the mergeable
  /// PREFIXES of the candidate order, which (strict-rise argument, see
  /// est_lct.cpp) equals what the greedy committed to. Theorems 1/2 ride on
  /// exactly this optimum.
  void check_side(TaskId i, const Side& s) {
    const bool est_side = s.sign > 0;
    const auto& nb = est_side ? app_.predecessors(i) : app_.successors(i);
    const auto msg = est_side ? app_.predecessor_messages(i) : app_.successor_messages(i);
    const std::vector<TaskId>& merged =
        est_side ? cert_.windows[i].merged_pred : cert_.windows[i].merged_succ;
    const Time source = est_side ? app_.task(i).release : app_.task(i).deadline;
    const I128 claimed = at(s, i);
    const std::string rule = s.rule;
    if (nb.empty()) {
      if (claimed != s.sign * static_cast<I128>(source)) {
        fail("windows", s.source_rule, task_name(i),
             std::string("no ") + s.neighbours + ": " + s.value + " must equal " +
                 s.source_name + " " + std::to_string(source));
      }
      if (!merged.empty()) {
        fail("windows", rule + ".merge-set", task_name(i),
             std::string("no ") + s.neighbours + ": " + s.set + " must be empty");
      }
      return;
    }

    // Candidate order: individually mergeable neighbours by decreasing key
    // (emr of j -> i; mirrored, increasing lms of i -> j), ties by id.
    std::vector<Keyed> cand;
    I128 e0 = s.sign * static_cast<I128>(source);
    for (std::size_t k = 0; k < nb.size(); ++k) {
      const TaskId j = nb[k];
      const I128 key = at(s, j) + app_.task(j).comp + msg[k];
      if (merge_reset(i) && merge_add(j)) {
        cand.push_back({key, j});
      } else {
        e0 = std::max(e0, key);
      }
    }
    std::sort(cand.begin(), cand.end(), [](const Keyed& a, const Keyed& b) {
      if (a.key != b.key) return a.key > b.key;
      return a.id < b.id;
    });
    // unmerged[k] = e0 folded with every key not in the prefix P_k.
    std::vector<I128> unmerged(cand.size() + 1, e0);
    for (std::size_t k = cand.size(); k-- > 0;) {
      unmerged[k] = std::max(unmerged[k + 1], cand[k].key);
    }

    // Eq. 4.5 over every mergeable prefix P_k (mergeability is subset-closed
    // for both oracles, so prefixes past the first non-mergeable one are out).
    // The running merge test includes i; order_ holds P_k in ect order.
    I128 best = unmerged[0];
    merge_reset(i);
    order_.clear();
    for (std::size_t k = 1; k <= cand.size(); ++k) {
      if (!merge_add(cand[k - 1].id)) break;
      insert_ordered(s, cand[k - 1].id);
      best = std::min(best, std::max(unmerged[k], ect(s, order_)));
    }
    if (claimed != best) {
      fail("windows", rule + ".min-prefix", task_name(i),
           std::string(s.value) + " = " + i128_str(s.sign * claimed) + " but the " + s.optimum +
               " of Eq. " + s.equation + " over mergeable merge-set prefixes is " +
               i128_str(s.sign * best));
    }

    // The recorded merge set must itself be a mergeable neighbour subset
    // whose Eq. 4.5 value attains the claimed window.
    std::vector<TaskId> sorted_nb(nb.begin(), nb.end());
    std::sort(sorted_nb.begin(), sorted_nb.end());
    std::vector<TaskId> sorted_merged(merged.begin(), merged.end());
    std::sort(sorted_merged.begin(), sorted_merged.end());
    if (std::adjacent_find(sorted_merged.begin(), sorted_merged.end()) != sorted_merged.end() ||
        !std::includes(sorted_nb.begin(), sorted_nb.end(), sorted_merged.begin(),
                       sorted_merged.end())) {
      fail("windows", rule + ".merge-set", task_name(i),
           std::string(s.set) + " is not a duplicate-free subset of the " + s.neighbours);
      return;
    }
    bool mergeable = merge_reset(i);
    order_.clear();
    for (TaskId j : merged) {
      mergeable = mergeable && merge_add(j);
      insert_ordered(s, j);
    }
    if (!mergeable) {
      fail("windows", rule + ".merge-set", task_name(i),
           std::string(s.set) + " u {i} is not mergeable (Definition 1/2)");
      return;
    }
    I128 attained = e0;
    for (const Keyed& c : cand) {
      if (!std::binary_search(sorted_merged.begin(), sorted_merged.end(), c.id)) {
        attained = std::max(attained, c.key);
      }
    }
    if (!merged.empty()) attained = std::max(attained, ect(s, order_));
    if (attained != claimed) {
      fail("windows", rule + ".attained", task_name(i),
           std::string("Eq. ") + s.equation + " over the recorded " + s.set + " gives " +
               i128_str(s.sign * attained) + ", not " + s.value + " = " +
               i128_str(s.sign * claimed));
    }
  }

  void check_windows() {
    if (cert_.dedicated) {
      mask_words_ = platform_->mask_words();
      for (TaskId i = 0; i < app_.num_tasks(); ++i) {
        const std::vector<std::uint64_t> mask =
            platform_->host_mask(app_.task(i).proc, app_.task(i).resources);
        host_masks_.insert(host_masks_.end(), mask.begin(), mask.end());
      }
    }
    merge_acc_.resize(mask_words_);
    for (TaskId i = 0; i < app_.num_tasks(); ++i) {
      check_side(i, kEst);
      check_side(i, kLct);
    }
  }

  void check_partitions() {
    const std::vector<ResourceId> res = app_.resource_set();
    if (cert_.partitions.size() != res.size()) {
      fail("partition", "T5.resources", "certificate",
           "expected one partition per analyzed resource (" + std::to_string(res.size()) +
               "), got " + std::to_string(cert_.partitions.size()));
      return;
    }
    for (std::size_t k = 0; k < res.size(); ++k) {
      const PartitionCert& p = cert_.partitions[k];
      if (p.resource != res[k]) {
        fail("partition", "T5.resources", "partitions[" + std::to_string(k) + "]",
             "resources must appear in RES order; expected " + res_name(res[k]));
        continue;
      }

      // Conditions (i)+(ii) of Section 5: the blocks cover ST_r exactly,
      // each task once.
      std::vector<TaskId> st = app_.tasks_using(p.resource);
      std::vector<TaskId> listed;
      bool empty_block = false;
      for (const std::vector<TaskId>& b : p.blocks) {
        if (b.empty()) empty_block = true;
        listed.insert(listed.end(), b.begin(), b.end());
      }
      if (empty_block) {
        fail("partition", "T5.cover", res_name(p.resource), "partition contains an empty block");
      }
      std::sort(listed.begin(), listed.end());
      if (std::adjacent_find(listed.begin(), listed.end()) != listed.end()) {
        fail("partition", "T5.disjoint", res_name(p.resource),
             "a task appears in more than one block");
        continue;
      }
      if (listed != st) {
        fail("partition", "T5.cover", res_name(p.resource),
             "the blocks do not cover ST_r exactly");
        continue;
      }

      // Condition (iii) / Theorem 5: every block boundary is separated --
      // all earlier tasks complete before any later task may start.
      I128 running_finish = 0;
      bool have_finish = false;
      for (std::size_t b = 0; b + 1 < p.blocks.size(); ++b) {
        for (TaskId t : p.blocks[b]) {
          const I128 l = lct_[t];
          running_finish = have_finish ? std::max(running_finish, l) : l;
          have_finish = true;
        }
        I128 next_start = 0;
        bool have_start = false;
        for (TaskId t : p.blocks[b + 1]) {
          const I128 e = est_[t];
          next_start = have_start ? std::min(next_start, e) : e;
          have_start = true;
        }
        const SeparationFact& s = p.separations[b];
        const std::string subject = res_name(p.resource) + " boundary " + std::to_string(b);
        if (!have_finish || !have_start) continue;  // empty block already failed
        if (s.earlier_finish != running_finish || s.later_start != next_start) {
          fail("partition", "T5.separation-fact", subject,
               "recorded (finish " + std::to_string(s.earlier_finish) + ", start " +
                   std::to_string(s.later_start) + ") but the windows give (finish " +
                   i128_str(running_finish) + ", start " + i128_str(next_start) + ")");
          continue;
        }
        if (running_finish > next_start) {
          fail("partition", "T5.separation", subject,
               "blocks are not separated: an earlier task may still run at " +
                   i128_str(running_finish) + " after a later task may start at " +
                   i128_str(next_start));
        }
      }
    }
  }

  /// One witness interval (Eq. 6.3) against a task universe: every Psi term
  /// re-derived from Theorems 3/4, the sum re-added, the ceiling re-taken.
  /// `universe` is sorted; `stage` is "bound" or "joint".
  void check_witness(const std::string& stage, const std::string& subject,
                     std::int64_t claimed_bound, const IntervalWitness& w,
                     const std::vector<TaskId>& universe) {
    if (w.t1 >= w.t2) {
      fail(stage, "E6.3.interval", subject,
           "witness interval [" + std::to_string(w.t1) + ", " + std::to_string(w.t2) +
               ") is empty");
      return;
    }
    std::vector<TaskId> seen;
    I128 sum = 0;
    bool terms_ok = true;
    for (const PsiTerm& term : w.terms) {
      if (term.task >= app_.num_tasks() ||
          !std::binary_search(universe.begin(), universe.end(), term.task)) {
        fail(stage, "E6.3.term-task", subject,
             "Psi term for task " + std::to_string(term.task) +
                 " which is outside the bound's task set");
        terms_ok = false;
        continue;
      }
      seen.push_back(term.task);
      const I128 expect = psi(term.task, w.t1, w.t2);
      if (term.psi != expect) {
        fail(stage, app_.task(term.task).preemptive ? "T3.psi" : "T4.psi",
             subject + ", " + task_name(term.task),
             "recorded Psi = " + std::to_string(term.psi) + " but Eq. 6." +
                 (app_.task(term.task).preemptive ? "1" : "2") + " gives " + i128_str(expect));
        terms_ok = false;
      }
      sum += term.psi;
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      fail(stage, "E6.3.term-dup", subject, "a task contributes two Psi terms");
      terms_ok = false;
    }
    if (!terms_ok) return;
    if (sum != w.demand) {
      fail(stage, "E6.3.theta-sum", subject,
           "witness demand " + std::to_string(w.demand) + " but the Psi terms sum to " +
               i128_str(sum));
      return;
    }
    if (w.demand < 0) {
      fail(stage, "E6.3.theta-sum", subject, "witness demand is negative");
      return;
    }
    const I128 width = static_cast<I128>(w.t2) - w.t1;
    const I128 forced = ceil_div_wide(w.demand, width);
    if (forced != claimed_bound) {
      fail(stage, "E6.3.ceil", subject,
           "bound " + std::to_string(claimed_bound) + " but ceil(" +
               std::to_string(w.demand) + " / " + i128_str(width) + ") = " + i128_str(forced));
    }
  }

  void check_bounds() {
    const std::vector<ResourceId> res = app_.resource_set();
    if (cert_.bounds.size() != res.size()) {
      fail("bound", "E6.3.resources", "certificate",
           "expected one bound per analyzed resource (" + std::to_string(res.size()) +
               "), got " + std::to_string(cert_.bounds.size()));
      return;
    }
    for (std::size_t k = 0; k < res.size(); ++k) {
      const BoundCert& b = cert_.bounds[k];
      if (b.resource != res[k]) {
        fail("bound", "E6.3.resources", "bounds[" + std::to_string(k) + "]",
             "resources must appear in RES order; expected " + res_name(res[k]));
        continue;
      }
      if (b.bound < 0) {
        fail("bound", "E6.3.negative", res_name(b.resource), "LB must be non-negative");
        continue;
      }
      if (b.bound == 0) continue;  // claims nothing; no evidence needed
      if (!b.witness) {
        fail("bound", "E6.3.witness-missing", res_name(b.resource),
             "LB = " + std::to_string(b.bound) + " requires a witness interval");
        continue;
      }
      check_witness("bound", res_name(b.resource), b.bound, *b.witness,
                    app_.tasks_using(b.resource));
    }
  }

  void check_joint() {
    if (!cert_.has_joint) return;
    for (std::size_t k = 0; k < cert_.joint.size(); ++k) {
      const JointCert& j = cert_.joint[k];
      const std::string subject =
          "pair (" + std::to_string(j.a) + ", " + std::to_string(j.b) + ")";
      if (j.a >= j.b) {
        fail("joint", "E6.3.pair", subject, "pair must be ordered a < b");
        continue;
      }
      if (j.bound <= 0) {
        fail("joint", "E6.3.negative", subject, "joint bounds are only recorded when positive");
        continue;
      }
      if (!j.witness) {
        fail("joint", "E6.3.witness-missing", subject,
             "LB = " + std::to_string(j.bound) + " requires a witness interval");
        continue;
      }
      // The task universe is ST_a intersect ST_b: only a task using BOTH
      // members occupies a pair-capable node for its whole execution.
      std::vector<TaskId> both;
      for (TaskId i = 0; i < app_.num_tasks(); ++i) {
        if (app_.task(i).uses(j.a) && app_.task(i).uses(j.b)) both.push_back(i);
      }
      check_witness("joint", subject, j.bound, *j.witness, both);
    }
  }

  void check_shared_cost() {
    const SharedCostCert& s = cert_.shared_cost;
    if (s.terms.size() != cert_.bounds.size()) {
      fail("cost", "E7.1.term", "shared cost",
           "expected one term per bound, got " + std::to_string(s.terms.size()));
      return;
    }
    I128 sum = 0;
    bool ok = true;
    for (std::size_t k = 0; k < s.terms.size(); ++k) {
      const SharedCostTerm& t = s.terms[k];
      const BoundCert& b = cert_.bounds[k];
      const std::string subject = "shared cost term " + std::to_string(k);
      if (t.resource != b.resource || t.units != b.bound) {
        fail("cost", "E7.1.term", subject,
             "term (" + res_name(t.resource) + ", " + std::to_string(t.units) +
                 " units) does not restate the certified bound (" + res_name(b.resource) +
                 ", " + std::to_string(b.bound) + ")");
        ok = false;
        continue;
      }
      if (t.unit_cost != app_.catalog().cost(t.resource)) {
        fail("cost", "E7.1.cost", subject,
             "unit cost " + std::to_string(t.unit_cost) + " but CostR(" + res_name(t.resource) +
                 ") = " + std::to_string(app_.catalog().cost(t.resource)));
        ok = false;
        continue;
      }
      sum += static_cast<I128>(t.units) * t.unit_cost;
    }
    if (ok && sum != s.total) {
      fail("cost", "E7.1.sum", "shared cost",
           "total " + std::to_string(s.total) + " but the Eq. 7.1 terms sum to " + i128_str(sum));
    }
  }

  // ---- Eq. 7.2 rows, re-derived canonically ------------------------------

  struct Row {
    std::vector<I128> coeffs;  // one per node type
    I128 rhs = 0;
    std::string label;
  };

  /// Rebuild the Section-7 constraint rows in the producer's canonical
  /// order: per-resource covering rows (bounds order, bound > 0), then the
  /// conjunctive pair rows (joint order, when the program used them), then
  /// the hosting rows (task id order, first-seen deduplication of identical
  /// eta sets). Returns std::nullopt after reporting if a row cannot be
  /// built (which the certificate must then claim as infeasibility).
  std::optional<std::vector<Row>> build_rows(bool joint_rows) {
    const std::size_t num_types = platform_->num_node_types();
    std::vector<Row> rows;
    for (const BoundCert& b : cert_.bounds) {
      if (b.bound <= 0) continue;
      Row row;
      row.coeffs.assign(num_types, 0);
      bool any = false;
      for (std::size_t n = 0; n < num_types; ++n) {
        const int units = platform_->node_type(n).units_of(b.resource);
        if (units > 0) {
          row.coeffs[n] = units;
          any = true;
        }
      }
      if (!any) return std::nullopt;
      row.rhs = b.bound;
      row.label = "covering row for " + res_name(b.resource);
      rows.push_back(std::move(row));
    }
    if (joint_rows) {
      for (const JointCert& j : cert_.joint) {
        Row row;
        row.coeffs.assign(num_types, 0);
        bool any = false;
        for (std::size_t n = 0; n < num_types; ++n) {
          const NodeType& node = platform_->node_type(n);
          if (node.units_of(j.a) > 0 && node.units_of(j.b) > 0) {
            row.coeffs[n] = 1;
            any = true;
          }
        }
        if (!any) return std::nullopt;
        row.rhs = j.bound;
        row.label = "pair row (" + std::to_string(j.a) + ", " + std::to_string(j.b) + ")";
        rows.push_back(std::move(row));
      }
    }
    std::vector<std::vector<std::size_t>> seen;
    for (TaskId i = 0; i < app_.num_tasks(); ++i) {
      std::vector<std::size_t> eta = platform_->hosts_for(app_.task(i));
      if (eta.empty()) return std::nullopt;
      if (std::find(seen.begin(), seen.end(), eta) != seen.end()) continue;
      Row row;
      row.coeffs.assign(num_types, 0);
      for (std::size_t n : eta) row.coeffs[n] = 1;
      row.rhs = 1;
      row.label = "hosting row for " + task_name(i);
      rows.push_back(std::move(row));
      seen.push_back(std::move(eta));
    }
    return rows;
  }

  void check_dedicated_infeasible(const DedicatedCostCert& d) {
    const std::string& reason = d.infeasible_reason;
    if (reason == "no-node-types") {
      if (platform_->num_node_types() != 0) {
        fail("cost", "E7.2.reason", "dedicated cost",
             "claims an empty node-type menu but the platform has " +
                 std::to_string(platform_->num_node_types()) + " types");
      }
      return;
    }
    if (reason == "task-unhostable") {
      if (d.detail_task >= app_.num_tasks()) {
        fail("cost", "E7.2.unhostable", "dedicated cost", "detail_task is out of range");
        return;
      }
      if (!platform_->hosts_for(app_.task(d.detail_task)).empty()) {
        fail("cost", "E7.2.unhostable", task_name(d.detail_task),
             "claimed unhostable but eta is non-empty");
      }
      return;
    }
    if (reason == "uncovered-resource") {
      bool positive = false;
      for (const BoundCert& b : cert_.bounds) {
        if (b.resource == d.detail_resource && b.bound > 0) positive = true;
      }
      if (!positive) {
        fail("cost", "E7.2.uncovered", res_name(d.detail_resource),
             "claimed uncovered but its certified bound is not positive");
        return;
      }
      for (std::size_t n = 0; n < platform_->num_node_types(); ++n) {
        if (platform_->node_type(n).units_of(d.detail_resource) > 0) {
          fail("cost", "E7.2.uncovered", res_name(d.detail_resource),
               "claimed uncovered but node type " + std::to_string(n) + " supplies it");
          return;
        }
      }
      return;
    }
    if (reason == "uncovered-pair") {
      bool listed = false;
      for (const JointCert& j : cert_.joint) {
        if (j.a == d.detail_resource && j.b == d.detail_resource_b && j.bound > 0) listed = true;
      }
      if (!d.joint_rows || !listed) {
        fail("cost", "E7.2.uncovered", "dedicated cost",
             "claimed uncovered pair is not a certified positive joint bound");
        return;
      }
      for (std::size_t n = 0; n < platform_->num_node_types(); ++n) {
        const NodeType& node = platform_->node_type(n);
        if (node.units_of(d.detail_resource) > 0 && node.units_of(d.detail_resource_b) > 0) {
          fail("cost", "E7.2.uncovered", "dedicated cost",
               "claimed uncovered pair but node type " + std::to_string(n) + " carries both");
          return;
        }
      }
      return;
    }
    // Anything else -- e.g. a branch-and-bound node-limit abort -- is not a
    // checkable fact about the instance.
    fail("cost", "E7.2.reason", "dedicated cost",
         "infeasibility reason \"" + reason + "\" is not certifiable");
  }

  void check_dedicated_cost() {
    if (!cert_.dedicated_cost) return;
    const DedicatedCostCert& d = *cert_.dedicated_cost;
    if (d.joint_rows && !cert_.has_joint) {
      fail("cost", "E7.2.rows", "dedicated cost",
           "claims joint-strengthened rows but the certificate has no joint section");
      return;
    }
    if (!d.feasible) {
      check_dedicated_infeasible(d);
      return;
    }

    const std::size_t num_types = platform_->num_node_types();
    if (d.node_counts.size() != num_types) {
      fail("cost", "E7.2.primal-shape", "dedicated cost",
           "node_counts has " + std::to_string(d.node_counts.size()) + " entries for " +
               std::to_string(num_types) + " node types");
      return;
    }
    std::optional<std::vector<Row>> rows = build_rows(d.joint_rows);
    if (!rows) {
      fail("cost", "E7.2.row", "dedicated cost",
           "the program is infeasible (a row has no supplier) yet the certificate claims "
           "feasibility");
      return;
    }

    // Primal witness: an integral assembly satisfying every row, with
    // objective exactly `total` -- proof the claimed optimum is attainable.
    for (std::int64_t x : d.node_counts) {
      if (x < 0) {
        fail("cost", "E7.2.primal-feasible", "dedicated cost", "negative node count");
        return;
      }
    }
    for (std::size_t r = 0; r < rows->size(); ++r) {
      const Row& row = (*rows)[r];
      I128 lhs = 0;
      for (std::size_t n = 0; n < num_types; ++n) lhs += row.coeffs[n] * d.node_counts[n];
      if (lhs < row.rhs) {
        fail("cost", "E7.2.primal-feasible", row.label,
             "assembly provides " + i128_str(lhs) + " < required " + i128_str(row.rhs));
      }
    }
    I128 objective = 0;
    for (std::size_t n = 0; n < num_types; ++n) {
      objective += static_cast<I128>(platform_->node_type(n).cost) * d.node_counts[n];
    }
    if (objective != d.total) {
      fail("cost", "E7.2.primal-value", "dedicated cost",
           "assembly costs " + i128_str(objective) + " but the certificate claims " +
               std::to_string(d.total));
    }

    // Dual witness: y >= 0 with A^T y <= c proves every x >= 0 satisfying
    // Ax >= b costs at least y.b -- the Eq. 7.2 relaxation, certified
    // without trusting the solver.
    if (d.dual.size() != rows->size()) {
      fail("cost", "E7.2.dual-shape", "dedicated cost",
           "dual has " + std::to_string(d.dual.size()) + " entries for " +
               std::to_string(rows->size()) + " rows");
      return;
    }
    const auto tol = [](double scale) { return 1e-6 * std::max(1.0, std::fabs(scale)); };
    for (std::size_t r = 0; r < rows->size(); ++r) {
      if (!(d.dual[r] >= -1e-9) || !std::isfinite(d.dual[r])) {
        fail("cost", "E7.2.dual-sign", (*rows)[r].label, "dual multiplier must be >= 0");
        return;
      }
    }
    for (std::size_t n = 0; n < num_types; ++n) {
      double reduced = 0;
      for (std::size_t r = 0; r < rows->size(); ++r) {
        reduced += d.dual[r] * static_cast<double>((*rows)[r].coeffs[n]);
      }
      const double cost_n = static_cast<double>(platform_->node_type(n).cost);
      if (reduced > cost_n + tol(cost_n)) {
        fail("cost", "E7.2.dual-feasible", "node type " + std::to_string(n),
             "dual column value " + std::to_string(reduced) + " exceeds the node cost " +
                 std::to_string(cost_n));
      }
    }
    double dual_value = 0;
    for (std::size_t r = 0; r < rows->size(); ++r) {
      dual_value += d.dual[r] * static_cast<double>((*rows)[r].rhs);
    }
    if (std::fabs(dual_value - d.relaxation) > tol(d.relaxation)) {
      fail("cost", "E7.2.dual-value", "dedicated cost",
           "dual objective " + std::to_string(dual_value) +
               " does not match the claimed relaxation " + std::to_string(d.relaxation));
    }
    if (d.relaxation > static_cast<double>(d.total) + tol(static_cast<double>(d.total))) {
      fail("cost", "E7.2.gap", "dedicated cost",
           "claimed relaxation " + std::to_string(d.relaxation) +
               " exceeds the integral total " + std::to_string(d.total));
    }
  }

  const Certificate& cert_;
  const Application& app_;
  const DedicatedPlatform* platform_;
  std::vector<Time> est_, lct_;
  /// Definition 2: one host-mask row of mask_words_ per task, and the
  /// running set of merge_reset/merge_add.
  std::size_t mask_words_ = 0;
  std::vector<std::uint64_t> host_masks_, merge_acc_;
  ResourceId merge_proc_ = kInvalidResource;
  std::vector<TaskId> order_;  ///< a merge set in ect order
  CheckReport report_;
};

}  // namespace

CheckReport check_certificate(const Certificate& cert, const Application& app,
                              const DedicatedPlatform* platform) {
  return Checker(cert, app, platform).run();
}

}  // namespace rtlb
