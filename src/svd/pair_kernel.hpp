#pragma once
// Level 0 of the three-level engine hierarchy (DESIGN.md §14): rotate (and
// optionally sort-swap) one column pair. Used by the serial, thread-parallel,
// cyclic, block, and SPMD Jacobi drivers; the batched engine mirrors the same
// decisions across lanes.
//
// The PairKernel class binds the options to a resolved CPU-dispatch kernel
// table (linalg/dispatch.hpp) once per driver run (once per rank under SPMD),
// so the per-pair cost pays no dispatch resolution at all. Two flavours:
//  * process — classical: one gram_pair pass (three accumulations) decides
//    the rotation, one rotation pass applies it.
//  * process_cached — the fast path: the caller supplies the cached squared
//    norms app/aqq, so deciding the rotation costs a single x.y accumulation,
//    and the fused rotate_and_norms pass returns the new norms for the cache.
//    See norm_cache.hpp for the invariants.

#include <cmath>
#include <span>

#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rotation.hpp"
#include "svd/jacobi.hpp"
#include "svd/norm_cache.hpp"
#include "svd/recovery.hpp"

namespace treesvd::detail {

/// Drift guard: when |apq| lands within this factor of the rotation
/// threshold tol*sqrt(app*aqq) — the only regime where cached-norm error
/// could flip the skip/rotate decision — both norms are re-reduced from the
/// data before deciding.
inline constexpr double kNormDriftGuard = 8.0;

struct PairOutcome {
  bool rotated = false;
  bool swapped = false;
};

/// process (classical flavour) plus the squared norms now stored at x's /
/// y's position, for the caller's cache.
struct CachedPairOutcome {
  PairOutcome outcome;
  double app = 0.0;
  double aqq = 0.0;
};

/// One column-pair rotation engine: options plus a resolved kernel table.
/// Copyable and cheap (two pointers); thread-safe across disjoint pairs —
/// concurrent drivers share one instance. The bound table fixes the ISA tier
/// for the whole run; results are bitwise identical on every tier.
class PairKernel {
 public:
  PairKernel(const KernelTable& table, const JacobiOptions& opt) noexcept
      : table_(&table), opt_(&opt) {}

  /// Binds the process-wide resolved table (after any TREESVD_ISA /
  /// set_isa_override adjustment).
  explicit PairKernel(const JacobiOptions& opt) noexcept : PairKernel(kernels(), opt) {}

  const KernelTable& table() const noexcept { return *table_; }
  IsaTier tier() const noexcept { return table_->tier; }
  const JacobiOptions& options() const noexcept { return *opt_; }

  /// Classical kernel on raw column views. `x` must be the column of the
  /// smaller index, `y` of the larger (the sort rule keeps the larger norm
  /// at the smaller index). vx/vy are the matching V columns, or empty spans.
  PairOutcome process(std::span<double> x, std::span<double> y, std::span<double> vx,
                      std::span<double> vy, KernelCounters* counters = nullptr) const {
    GramPair g;
    table_->gram_pair(x.data(), y.data(), x.size(), &g.app, &g.aqq, &g.apq);
    if (counters != nullptr) {
      counters->add_pair();
      counters->add_gram();
    }
    const JacobiRotation rot = compute_rotation(g, opt_->tol);
    const bool want_swap = opt_->sort == SortMode::kDescending && g.app < g.aqq;

    PairOutcome out;
    if (rot.identity && !want_swap) return out;

    const double c = rot.identity ? 1.0 : rot.c;
    const double s = rot.identity ? 0.0 : rot.s;
    if (counters != nullptr) counters->add_rotate();
    if (want_swap) {
      // Paper eq. (3): fused rotate-and-swap — the interchange costs nothing.
      apply_rotation_swapped(x, y, c, s);
      if (!vx.empty()) apply_rotation_swapped(vx, vy, c, s);
      out.swapped = true;
      out.rotated = !rot.identity;
    } else {
      apply_rotation(x, y, c, s);
      if (!vx.empty()) apply_rotation(vx, vy, c, s);
      out.rotated = true;
    }
    return out;
  }

  /// Cached-norm fast path: app/aqq are the caller's cached squared norms of
  /// x/y. Exactly one accumulation pass (the x.y dot) is made per call; a
  /// rotation adds one fused rotate+norms pass whose sums refresh the cache.
  CachedPairOutcome process_cached(std::span<double> x, std::span<double> y,
                                   std::span<double> vx, std::span<double> vy, double app,
                                   double aqq, KernelCounters& counters) const {
    counters.add_pair();
    double apq = table_->dot(x.data(), y.data(), x.size());
    counters.add_dot();
    // Overflowed dot accumulation (entries beyond ~1e154): retry with the
    // exact power-of-two prescaled form before deciding anything from it.
    if (!std::isfinite(apq)) apq = dot_scaled(x, y);

    // An implausible cached norm (non-finite or negative — an overflowed
    // accumulation or a corrupted payload) cannot support any decision:
    // re-reduce from the data before using it.
    if (!cached_norm_plausible(app) || !cached_norm_plausible(aqq)) {
      app = robust_sumsq(x);
      aqq = robust_sumsq(y);
      counters.add_norm_refresh(2);
    }

    double thresh = opt_->tol * std::sqrt(app) * std::sqrt(aqq);
    const double mag = std::fabs(apq);
    // Drift guard, relative to the cached scale: re-examine the decision
    // exactly when mag/thresh lies in [1/kNormDriftGuard, kNormDriftGuard].
    // The ratio form keeps the window meaningful at extreme column scales,
    // where the absolute products kNormDriftGuard*thresh / mag*kNormDriftGuard
    // can overflow — and when thresh underflows to zero outright (tiny
    // columns), a nonzero coupling now always re-reduces instead of silently
    // skipping the guard.
    bool near_threshold = false;
    if (mag > 0.0) {
      if (thresh > 0.0 && std::isfinite(thresh)) {
        const double ratio = mag / thresh;
        near_threshold = ratio <= kNormDriftGuard && ratio * kNormDriftGuard >= 1.0;
      } else {
        near_threshold = true;  // degenerate threshold: decide from fresh data
      }
    }
    if (near_threshold) {
      // Near the threshold the decision is sensitive to norm error: re-reduce.
      app = robust_sumsq(x);
      aqq = robust_sumsq(y);
      counters.add_norm_refresh(2);
      thresh = opt_->tol * std::sqrt(app) * std::sqrt(aqq);
    }

    const GramPair g{app, aqq, apq};
    const JacobiRotation rot = compute_rotation(g, opt_->tol);
    const bool want_swap = opt_->sort == SortMode::kDescending && app < aqq;

    CachedPairOutcome out;
    out.app = app;
    out.aqq = aqq;
    if (rot.identity && !want_swap) return out;

    const double c = rot.identity ? 1.0 : rot.c;
    const double s = rot.identity ? 0.0 : rot.s;
    counters.add_rotate();
    RotatedNorms rn{};
    if (want_swap) {
      table_->rotate_and_norms_swapped(x.data(), y.data(), x.size(), c, s, &rn.app, &rn.aqq);
      if (!vx.empty()) apply_rotation_swapped(vx, vy, c, s);
      out.outcome.swapped = true;
      out.outcome.rotated = !rot.identity;
    } else {
      table_->rotate_and_norms(x.data(), y.data(), x.size(), c, s, &rn.app, &rn.aqq);
      if (!vx.empty()) apply_rotation(vx, vy, c, s);
      out.outcome.rotated = true;
    }
    out.app = rn.app;
    out.aqq = rn.aqq;
    return out;
  }

  /// Matrix-column convenience wrapper: rotates columns (i, j), i < j, of A
  /// (and V when non-null). Thread-safe across disjoint pairs.
  PairOutcome process(Matrix& a, Matrix* v, int i, int j,
                      KernelCounters* counters = nullptr) const {
    const std::span<double> none;
    return process(a.col(static_cast<std::size_t>(i)), a.col(static_cast<std::size_t>(j)),
                   v != nullptr ? v->col(static_cast<std::size_t>(i)) : none,
                   v != nullptr ? v->col(static_cast<std::size_t>(j)) : none, counters);
  }

  /// Cached-norm wrapper over a NormCache keyed by column index. Thread-safe
  /// across disjoint pairs (distinct cache slots, atomic counters).
  PairOutcome process_cached(Matrix& a, Matrix* v, int i, int j, NormCache& cache) const {
    const std::span<double> none;
    const auto ui = static_cast<std::size_t>(i);
    const auto uj = static_cast<std::size_t>(j);
    const CachedPairOutcome r = process_cached(
        a.col(ui), a.col(uj), v != nullptr ? v->col(ui) : none,
        v != nullptr ? v->col(uj) : none, cache.sq(ui), cache.sq(uj), cache.counters());
    cache.set(ui, r.app);
    cache.set(uj, r.aqq);
    return r.outcome;
  }

 private:
  /// sumsq_robust through the bound table: the fast unscaled reduction uses
  /// the table's kernel (bitwise equal to the free sumsq on every tier); the
  /// non-finite retry takes the scalar scaled form, as before.
  double robust_sumsq(std::span<const double> x) const noexcept {
    const double fast = table_->sumsq(x.data(), x.size());
    if (std::isfinite(fast)) return fast;
    return sumsq_scaled(x).value();
  }

  const KernelTable* table_;
  const JacobiOptions* opt_;
};

}  // namespace treesvd::detail
