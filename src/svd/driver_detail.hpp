#pragma once
// Shared internals of the one-sided Jacobi engines.
//
// Every one-sided engine runs the same sweep cadence and ends in the same
// finalize:
//  * the serial, threaded and cyclic drivers (jacobi.cpp) and the block
//    driver (block_jacobi.cpp) run their sweeps through sweep_loop below;
//  * the batched many-SVD engine (batch.cpp) replays the cadence lane by
//    lane with one SweepGuards per lane;
//  * the SPMD engine (spmd.cpp) replicates it on every rank and gathers the
//    ranks' columns into one finalize.
// They must agree bit-for-bit on everything outside the pair work: column
// padding, the per-run robustness guards, the scheduled cache refresh
// cadence, and the finalisation that turns the rotated working matrix into
// (U, sigma, V) plus the status contract. Keeping one definition here is what
// makes "batched lane b == sequential run b == SPMD run" a structural property
// instead of a maintenance promise.

#include <algorithm>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"
#include "svd/equilibrate.hpp"
#include "svd/jacobi.hpp"
#include "svd/norm_cache.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"

namespace treesvd::detail {

/// Pads A with zero columns to `width` (padded_width for the element-wise
/// engines, a whole number of blocks for the block engine).
inline Matrix pad_columns(const Matrix& a, int width) {
  const auto w = static_cast<std::size_t>(width);
  if (w == a.cols()) return a;
  Matrix p(a.rows(), w);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const auto src = a.col(j);
    const auto dst = p.col(j);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return p;
}

/// Per-driver robustness state: the equilibration record plus the (always
/// observational) stall classifier and (opt-in) watchdog, threaded through
/// finalize so every result carries the status contract.
struct SweepGuards {
  Equilibration eq;
  StallDetector stall;
  ConvergenceWatchdog watchdog{0};
  std::size_t watchdog_trips = 0;

  explicit SweepGuards(const JacobiOptions& opt)
      : stall(opt.stall_window), watchdog(opt.watchdog_sweeps) {}

  /// Feeds one sweep's activity; returns true when the watchdog demands a
  /// norm re-reduction (the caller refreshes its cache).
  bool observe(double activity) {
    stall.observe(activity);
    if (!watchdog.observe(activity)) return false;
    ++watchdog_trips;
    watchdog.reset();
    return true;
  }
};

inline SvdResult finalize(Matrix h, Matrix v, const Matrix& a, const JacobiOptions& opt,
                          const SweepGuards& guards, SvdResult partial) {
  const std::size_t n = a.cols();
  SvdResult r = std::move(partial);
  // Sigma, smax and the U division all happen at the equilibrated scale (h
  // still carries the 2^e factor, and so do the norms); the common factor
  // cancels bitwise in every ratio, and sigma is unscaled exactly at the end.
  r.sigma.resize(n);
  for (std::size_t j = 0; j < n; ++j) r.sigma[j] = nrm2(h.col(j));
  const double smax = *std::max_element(r.sigma.begin(), r.sigma.end());

  r.u = Matrix(h.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    if (r.sigma[j] > opt.rank_tol * smax && r.sigma[j] > 0.0)
      copy_div(h.col(j), r.sigma[j], r.u.col(j));
  }
  if (opt.compute_v) {
    r.v = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto src = v.col(j);
      const auto dst = r.v.col(j);
      std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n), dst.begin());
    }
  }
  unscale_sigma(r.sigma, guards.eq);

  r.status = r.converged ? SvdStatus::kConverged
                         : (guards.stall.stalled() ? SvdStatus::kStalled
                                                   : SvdStatus::kMaxSweeps);
  r.diagnostics.input_scale = guards.eq.stats;
  r.diagnostics.equilibrated = guards.eq.applied;
  r.diagnostics.equilibration_exponent = guards.eq.exponent;
  r.diagnostics.watchdog_trips = guards.watchdog_trips;
  r.diagnostics.stalled_sweeps = guards.stall.streak();
  if (!r.converged || opt.full_diagnostics)
    assess_quality(a, r, guards.eq.exponent, opt.rank_tol);
  return r;
}

/// True exactly when the drivers' scheduled drift control re-reduces the
/// whole norm cache before processing sweep `sweep` (the near-threshold
/// guard in the pair kernel handles the decision-critical cases in between).
inline bool scheduled_refresh_due(int sweep, const JacobiOptions& opt) noexcept {
  return sweep > 0 && opt.norm_recompute_sweeps > 0 && sweep % opt.norm_recompute_sweeps == 0;
}

/// Scheduled drift control: full cache re-reduction every
/// norm_recompute_sweeps sweeps.
inline void maybe_refresh(NormCache* cache, const Matrix& h, int sweep,
                          const JacobiOptions& opt) {
  if (cache == nullptr || cache->empty()) return;
  if (scheduled_refresh_due(sweep, opt)) cache->refresh(h);
}

/// One sweep's activity: rotations above the threshold and sort swaps.
struct SweepTally {
  std::size_t rotations = 0;
  std::size_t swaps = 0;
};

/// A one-sided solve's working state: the padded working matrix H
/// (equilibrated on construction), the accumulated V, the norm cache, the
/// counters the uncached kernels tick, and the guards.
struct SweepState {
  SweepState(Matrix padded, const JacobiOptions& opt) : h(std::move(padded)), guards(opt) {
    guards.eq = equilibrate(h, opt.equilibrate);
    if (opt.compute_v) v = Matrix::identity(h.cols());
    if (opt.cache_norms) cache.refresh(h);
  }

  Matrix* vp() noexcept { return v.empty() ? nullptr : &v; }

  Matrix h;
  Matrix v;
  NormCache cache;
  KernelCounters plain_counters;
  SweepGuards guards;
};

/// The sweep loop: per sweep the scheduled cache refresh, the sweep itself,
/// the counters, the optional off(AᵀA) trace (over `pool` when non-null),
/// convergence on a sweep that neither rotates nor swaps, and the guards,
/// whose watchdog trip re-reduces the cache; then finalize.
/// `run_sweep(sweep)` performs one sweep on `st` and returns its SweepTally.
template <typename RunSweep>
SvdResult sweep_loop(const Matrix& a, SweepState& st, const JacobiOptions& opt, IsaTier tier,
                     ThreadPool* pool, RunSweep&& run_sweep) {
  NormCache* cache = opt.cache_norms ? &st.cache : nullptr;
  SvdResult r;
  for (int sweep = 0; sweep < opt.max_sweeps; ++sweep) {
    maybe_refresh(cache, st.h, sweep, opt);
    const SweepTally t = run_sweep(sweep);
    r.rotations += t.rotations;
    r.swaps += t.swaps;
    r.sweeps = sweep + 1;
    if (opt.track_off) r.off_history.push_back(off_diagonal_measure(st.h, pool, cache));
    if (t.rotations == 0 && t.swaps == 0) {
      r.converged = true;
      break;
    }
    if (st.guards.observe(static_cast<double>(t.rotations + t.swaps)) && cache != nullptr)
      cache->refresh(st.h);
  }
  r.kernel_stats = cache != nullptr ? cache->counters().snapshot() : st.plain_counters.snapshot();
  r.kernel_stats.isa_tier = static_cast<int>(tier);
  return finalize(std::move(st.h), std::move(st.v), a, opt, st.guards, std::move(r));
}

}  // namespace treesvd::detail
