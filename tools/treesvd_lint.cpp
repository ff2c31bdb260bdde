// treesvd_lint — offline linter for parallel Jacobi orderings.
//
// Enumerates every ordering in the registry across a range of n and checks
// the paper's invariants (core/validate.hpp) ahead of any runtime use:
//   pair-coverage        every unordered index pair rotated exactly once
//   step-disjoint        within each step the active pairs are pairwise
//                        disjoint (no index rotated by two leaves at once —
//                        the static form of a data race on a column)
//   sequence-validity    4 consecutive sweeps chained through final layouts
//   steps-contract       Sweep::steps() matches Ordering::steps(n)
//   rotation-count       n(n-1)/2 active rotations per sweep
//   move-consistency     declared ColumnMoves reproduce the layout sequence
//   restoration          index order restored after at most two sweeps
//   comm-levels          level histogram bounded by the tree height and
//                        consistent with the per-index move accounting
//   one-way-ring         new-ring traffic moves one hop in one direction
//   rr-equivalence       ring orderings are round-robin under relabelling
//   inner-recursion      reused recursively as the block driver's *inner*
//                        ordering (svd/block_jacobi.hpp inner_ordering) the
//                        schedule stays pair-disjoint at the inner panel
//                        widths 4/8/16 across chained sweeps
//
// --corrupt=<kind> wraps each ordering in a deliberately broken adapter (the
// linter must then exit 1), and --self-test runs both directions in-process.
// Flags, JSON report and exit codes follow the gate runner (gate.hpp).

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/ordering.hpp"
#include "core/round_robin.hpp"
#include "core/validate.hpp"
#include "gate.hpp"

namespace treesvd::lint {
namespace {

// ---------------------------------------------------------------------------
// Corruption adapters: orderings broken in exactly the ways the linter must
// detect. Used by --corrupt and the self-test.

enum class Corruption {
  kNone,
  kDuplicatePair,
  kNoRestore,
  kReversedTraffic,
  kOverlappingPair
};

std::optional<Corruption> parse_corruption(const std::string& kind) {
  if (kind.empty()) return Corruption::kNone;
  if (kind == "duplicate-pair") return Corruption::kDuplicatePair;
  if (kind == "no-restore") return Corruption::kNoRestore;
  if (kind == "reversed-traffic") return Corruption::kReversedTraffic;
  if (kind == "overlapping-pair") return Corruption::kOverlappingPair;
  return std::nullopt;
}

/// Wraps an ordering and tampers with its canonical layout sequence.
class CorruptedOrdering final : public Ordering {
 public:
  CorruptedOrdering(OrderingPtr inner, Corruption kind)
      : inner_(std::move(inner)), kind_(kind) {}

  std::string name() const override { return inner_->name() + "+corrupt"; }
  bool supports(int n) const override { return inner_->supports(n); }
  int steps(int n) const override { return inner_->steps(n); }

 protected:
  Canonical canonical(int n, int sweep_index) const override {
    Canonical c = detail_canonical(*inner_, n, sweep_index);
    switch (kind_) {
      case Corruption::kNone:
        break;
      case Corruption::kDuplicatePair: {
        // Swapping two occupants of one mid-sweep layout repeats one pair and
        // omits another — breaks pair coverage without touching the shape.
        if (c.layouts.size() > 2 && n >= 4) {
          auto& mid = c.layouts[c.layouts.size() / 2];
          std::swap(mid[0], mid[2]);
        }
        break;
      }
      case Corruption::kNoRestore: {
        // Tampering with the final layout leaves the sweep itself valid but
        // derails the sweep chain: restoration and sequence validity fail.
        auto& fin = c.layouts.back();
        std::swap(fin.front(), fin.back());
        break;
      }
      case Corruption::kReversedTraffic: {
        // Rotating one intermediate layout the wrong way around the ring
        // sends columns clockwise — the one-way-traffic property breaks.
        if (c.layouts.size() > 2) {
          auto& mid = c.layouts[c.layouts.size() / 2];
          std::rotate(mid.begin(), mid.begin() + 2, mid.end());
        }
        break;
      }
      case Corruption::kOverlappingPair: {
        // Duplicating one occupant into another leaf's slot makes two leaves
        // rotate the same column in the same step. The layout stops being a
        // permutation, so Sweep's constructor rejects it and the linter
        // records the throw as a no-exception violation; the disjointness
        // checker itself is probed on raw StepPairs views in the self-test.
        if (c.layouts.size() > 2 && n >= 4) {
          auto& mid = c.layouts[c.layouts.size() / 2];
          mid[2] = mid[0];
        }
        break;
      }
    }
    return c;
  }

 private:
  // Ordering::canonical is protected; a sibling class may access it through a
  // helper of its own type.
  struct Access : Ordering {
    using Ordering::canonical;
  };
  static Canonical detail_canonical(const Ordering& o, int n, int sweep_index) {
    return (o.*(&Access::canonical))(n, sweep_index);
  }

  OrderingPtr inner_;
  Corruption kind_;
};

// ---------------------------------------------------------------------------
// Checks. Each returns an empty string on success, a diagnostic on failure.

struct CheckResult {
  std::string name;
  bool pass = false;
  std::string detail;  ///< diagnostic on failure, empty on success
};

std::string check_pair_coverage(const Sweep& s) {
  const SweepValidation v = validate_sweep(s);
  return v.valid ? std::string{} : v.error;
}

/// Disjointness of one step's concurrent pairs, on the raw StepPairs view.
/// Factored out of check_step_disjointness so the self-test can exercise the
/// checker on a hand-built overlapping view: a full Sweep cannot carry the
/// violation, because its constructor already rejects non-permutation
/// layouts (the corruption adapter's overlapping-pair tamper throws there).
std::string check_pairs_disjoint(const StepPairs& pairs, int n, int t) {
  std::vector<int> uses(static_cast<std::size_t>(n), 0);
  for (int leaf = 0; leaf < pairs.leaves(); ++leaf) {
    if (!pairs.active_at(leaf)) continue;
    const IndexPair p = pairs.at(leaf);
    if (p.even == p.odd)
      return "step " + std::to_string(t) + ": leaf " + std::to_string(leaf) + " pairs index " +
             std::to_string(p.even) + " with itself";
    for (const int idx : {p.even, p.odd}) {
      if (idx < 0 || idx >= n)
        return "step " + std::to_string(t) + ": leaf " + std::to_string(leaf) +
               " rotates out-of-range index " + std::to_string(idx);
      if (++uses[static_cast<std::size_t>(idx)] > 1)
        return "step " + std::to_string(t) + ": index " + std::to_string(idx) +
               " appears in more than one concurrent pair";
    }
  }
  return {};
}

std::string check_step_disjointness(const Sweep& s, int n) {
  // A step's active pairs execute concurrently (one rotation per leaf); if
  // any column index appeared in two pairs — or twice within one pair — two
  // processors would read and write the same column in the same step. This
  // is the schedule-level statement of data-race freedom: the dynamic
  // detector (treesvd_race) can then trust that same-step rotations touch
  // disjoint columns.
  for (int t = 0; t < s.steps(); ++t) {
    std::string detail = check_pairs_disjoint(s.step_pairs(t), n, t);
    if (!detail.empty()) return detail;
  }
  return {};
}

std::string check_sequence(const Ordering& ord, int n, int sweeps) {
  const SweepValidation v = validate_sweep_sequence(ord, n, sweeps);
  return v.valid ? std::string{} : v.error;
}

std::string check_steps_contract(const Ordering& ord, const Sweep& s, int n) {
  if (s.steps() == ord.steps(n)) return {};
  return "sweep has " + std::to_string(s.steps()) + " steps, contract says " +
         std::to_string(ord.steps(n));
}

std::string check_rotation_count(const Sweep& s, int n) {
  const auto want = static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
  if (s.rotation_count() == want) return {};
  return "rotation count " + std::to_string(s.rotation_count()) + ", expected " +
         std::to_string(want);
}

std::string check_move_consistency(const Sweep& s) {
  for (int t = 0; t < s.steps(); ++t) {
    const auto from = s.layout(t);
    const auto to = s.layout(t + 1);
    std::vector<int> applied(from.begin(), from.end());
    for (const ColumnMove& mv : s.moves(t)) {
      if (from[static_cast<std::size_t>(mv.from_slot)] != mv.index)
        return "step " + std::to_string(t) + ": move of index " + std::to_string(mv.index) +
               " does not originate from slot " + std::to_string(mv.from_slot);
      applied[static_cast<std::size_t>(mv.to_slot)] = mv.index;
    }
    if (!std::equal(applied.begin(), applied.end(), to.begin(), to.end()))
      return "step " + std::to_string(t) + ": applying declared moves does not yield next layout";
  }
  return {};
}

std::string check_restoration(const Ordering& ord, int n) {
  // Every ordering in the paper restores index order after at most two
  // sweeps (fat-tree after one; rings, odd-even and LLB after two).
  SweepChain chain(ord, n);
  for (int k = 0; k < 2; ++k) chain.next();
  // A permutation of 0..n-1 is the identity exactly when it is sorted.
  if (std::is_sorted(chain.layout().begin(), chain.layout().end())) return {};
  return "index order not restored after two sweeps";
}

std::string check_comm_levels(const Sweep& s) {
  // The histogram must fit inside the tree (no transfer can cross more than
  // ceil(log2(leaves)) levels) and agree with the per-index move accounting:
  // both derive from the same layout deltas, so a mismatch means the sweep's
  // move declarations are internally inconsistent.
  const auto hist = level_histogram(s);
  int height = 0;
  while ((1 << height) < s.leaves()) ++height;
  if (hist.size() != static_cast<std::size_t>(height) + 1)
    return "level histogram has " + std::to_string(hist.size()) + " buckets, tree height is " +
           std::to_string(height);
  const auto per_index = moves_per_index(s);
  const std::size_t inter_leaf =
      std::accumulate(hist.begin() + 1, hist.end(), static_cast<std::size_t>(0));
  const std::size_t from_indices =
      std::accumulate(per_index.begin(), per_index.end(), static_cast<std::size_t>(0));
  if (inter_leaf != from_indices)
    return "histogram counts " + std::to_string(inter_leaf) + " inter-leaf transfers, per-index " +
           "accounting counts " + std::to_string(from_indices);
  return {};
}

std::string check_one_way_ring(const Sweep& s) {
  if (unidirectional_ring_moves(s)) return {};
  return "a column moved against the ring direction (or by more than one hop)";
}

std::string check_inner_recursion(const Ordering& ord) {
  // Level-2 recursion contract (svd/block_jacobi.hpp): the block driver can
  // reuse any registered ordering *inside* an encounter, over a met pair's
  // 2b local columns, chaining the local layout across the encounter's inner
  // sweeps exactly as the outer driver chains block layouts. This replays
  // that usage at the supported inner panel widths (2b in {4, 8, 16}, two
  // chained sweeps of a SweepChain) and checks what the inner engines assume:
  // every inner step's concurrent pairs are disjoint, and each inner sweep
  // still rotates every local pair exactly once.
  for (const int w : {4, 8, 16}) {
    if (!ord.supports(w)) continue;
    SweepChain chain(ord, w);
    for (int k = 0; k < 2; ++k) {
      const Sweep s = chain.next();
      for (int t = 0; t < s.steps(); ++t) {
        std::string detail = check_pairs_disjoint(s.step_pairs(t), w, t);
        if (!detail.empty())
          return "inner width " + std::to_string(w) + ", sweep " + std::to_string(k) + ": " +
                 detail;
      }
      const auto want = static_cast<std::size_t>(w) * static_cast<std::size_t>(w - 1) / 2;
      if (s.rotation_count() != want)
        return "inner width " + std::to_string(w) + ", sweep " + std::to_string(k) +
               ": rotation count " + std::to_string(s.rotation_count()) + ", expected " +
               std::to_string(want);
    }
  }
  return {};
}

std::string check_rr_equivalence(const Sweep& s, int n) {
  const Sweep rr = RoundRobinOrdering().sweep(n);
  if (find_equivalence_relabelling(s, rr).has_value()) return {};
  return "no relabelling maps this sweep onto round-robin";
}

// ---------------------------------------------------------------------------

struct CaseReport {
  std::string ordering;
  int n = 0;
  std::vector<CheckResult> checks;
  bool pass = true;
};

/// Runs every check on one ordering at one n. The one-way-traffic theorem
/// applies to new-ring, round-robin equivalence to new-ring and
/// modified-ring; both are about the canonical schedule, and corrupted runs
/// still exercise them so the linter can flag the break.
CaseReport run_case(const std::string& name, const std::string& display, const Ordering& ord,
                    int n, int sweeps) {
  CaseReport report;
  report.ordering = display;
  report.n = n;
  const auto add = [&report](const std::string& check, std::string detail) {
    const bool pass = detail.empty();
    report.pass = report.pass && pass;
    report.checks.push_back({check, pass, std::move(detail)});
  };
  try {
    const Sweep s = ord.sweep(n);
    add("pair-coverage", check_pair_coverage(s));
    add("step-disjoint", check_step_disjointness(s, n));
    add("sequence-validity", check_sequence(ord, n, sweeps));
    add("steps-contract", check_steps_contract(ord, s, n));
    add("rotation-count", check_rotation_count(s, n));
    add("move-consistency", check_move_consistency(s));
    add("restoration", check_restoration(ord, n));
    add("comm-levels", check_comm_levels(s));
    add("inner-recursion", check_inner_recursion(ord));
    if (name == "new-ring") add("one-way-ring", check_one_way_ring(s));
    if (name == "new-ring" || name == "modified-ring")
      add("rr-equivalence", check_rr_equivalence(s, n));
  } catch (const std::exception& e) {
    // A throwing ordering is itself a violation, not a linter crash.
    report.checks.assign(1, {"no-exception", false, e.what()});
    report.pass = false;
  }
  return report;
}

std::vector<CaseReport> run_all(const std::vector<std::string>& names, int min_n, int max_n,
                                int sweeps, Corruption corruption) {
  std::vector<CaseReport> out;
  for (const std::string& name : names) {
    OrderingPtr ord = make_ordering(name);
    if (corruption != Corruption::kNone)
      ord = std::make_shared<CorruptedOrdering>(std::move(ord), corruption);
    const std::string display = corruption == Corruption::kNone ? name : ord->name();
    for (int n = min_n; n <= max_n; ++n)
      if (ord->supports(n)) out.push_back(run_case(name, display, *ord, n, sweeps));
  }
  return out;
}

bool all_pass(const std::vector<CaseReport>& reports) {
  return std::all_of(reports.begin(), reports.end(), [](const CaseReport& r) { return r.pass; });
}

gate::Report self_test() {
  gate::Report report;
  report.summary = "self-test: clean registry accepted, all corruption kinds detected";
  // Direction 1: the clean registry must pass.
  if (!all_pass(run_all(ordering_names({2, 4}), 4, 16, 3, Corruption::kNone)))
    report.fail("clean registry reported violations");
  // Direction 2: every corruption kind must be caught on every ordering it
  // structurally applies to (all sweeps have >= 3 layouts for n >= 4).
  const Corruption kinds[] = {Corruption::kDuplicatePair, Corruption::kNoRestore,
                              Corruption::kReversedTraffic, Corruption::kOverlappingPair};
  const char* kind_names[] = {"duplicate-pair", "no-restore", "reversed-traffic",
                              "overlapping-pair"};
  for (std::size_t k = 0; k < std::size(kinds); ++k)
    if (all_pass(run_all({"fat-tree", "new-ring", "round-robin"}, 8, 8, 3, kinds[k])))
      report.fail(std::string("corruption '") + kind_names[k] + "' slipped past every check");
  // Direction 3: the disjointness checker itself must flag an overlapping
  // step, a self-pair, and an out-of-range index on a raw StepPairs view
  // (a full Sweep cannot carry these — its constructor rejects them — so
  // the checker is probed directly; see check_pairs_disjoint).
  const std::vector<int> overlapping = {0, 1, 0, 3, 4, 5, 6, 7};
  const std::vector<int> self_pair = {0, 0, 2, 3, 4, 5, 6, 7};
  const std::vector<int> out_of_range = {0, 1, 2, 3, 4, 5, 6, 9};
  for (const auto* bad : {&overlapping, &self_pair, &out_of_range})
    if (check_pairs_disjoint(StepPairs(std::span<const int>(*bad), {}), 8, 0).empty())
      report.fail("corrupt step layout not caught by the step-disjoint check");
  const std::vector<int> clean_step = {0, 1, 2, 3, 4, 5, 6, 7};
  if (!check_pairs_disjoint(StepPairs(std::span<const int>(clean_step), {}), 8, 0).empty())
    report.fail("step-disjoint check flagged a clean step");
  return report;
}

constexpr gate::Flag kFlags[] = {
    {"min-n", "4", "smallest n to lint"},
    {"max-n", "64", "largest n to lint"},
    {"orderings", "", "registry orderings to lint (default: all, hybrid g=2,4,8)"},
    {"sweeps", "4", "chained sweeps for sequence validity"},
    {"corrupt", "", "break every ordering: duplicate-pair | no-restore | reversed-traffic | "
                    "overlapping-pair"},
    {"self-test", "", "prove the linter accepts the registry and catches every corruption"},
    {"json", "", "write the report here instead of stdout"},
};

gate::Report run(const gate::Args& args) {
  if (args.has("self-test")) return self_test();
  const int min_n = static_cast<int>(args.integer("min-n"));
  const int max_n = static_cast<int>(args.integer("max-n"));
  const int sweeps = static_cast<int>(args.integer("sweeps"));
  gate::require(min_n >= 4 && max_n >= min_n, "invalid n range [" + std::to_string(min_n) +
                                                  ", " + std::to_string(max_n) + "]");
  const std::string corrupt = args.str("corrupt");
  const auto corruption = parse_corruption(corrupt);
  gate::require(corruption.has_value(), "unknown corruption kind '" + corrupt + "'");
  const std::vector<std::string> names = args.orderings("orderings", ordering_names({2, 4, 8}));

  gate::Report report;
  std::vector<JsonObject> results;
  std::size_t violations = 0;
  for (const CaseReport& r : run_all(names, min_n, max_n, sweeps, *corruption)) {
    std::vector<JsonObject> checks;
    for (const CheckResult& c : r.checks) {
      JsonObject check;
      check.add("name", c.name).add("pass", c.pass);
      if (!c.pass) {
        check.add("detail", c.detail);
        ++violations;
        report.fail("violation: " + r.ordering + " n=" + std::to_string(r.n) + " " + c.name +
                    ": " + c.detail);
      }
      checks.push_back(check);
    }
    JsonObject row;
    row.add("ordering", r.ordering).add("n", r.n).add("pass", r.pass).add_array("checks", checks);
    results.push_back(row);
  }
  report.json.add("tool", "treesvd_lint")
      .add("version", 1)
      .add("min_n", min_n)
      .add("max_n", max_n)
      .add("corruption", corrupt)
      .add("violations", violations)
      .add_array("results", results);
  report.summary = std::to_string(results.size()) + " ordering/size cases";
  return report;
}

}  // namespace
}  // namespace treesvd::lint

int main(int argc, char** argv) {
  return treesvd::gate::run("treesvd_lint",
                            "Checks every registry ordering against the paper's invariants.",
                            treesvd::lint::kFlags, argc, argv, treesvd::lint::run);
}
