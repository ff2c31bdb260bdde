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
// They must agree bit-for-bit on everything outside the pair work: the
// staging step (equilibration, QR preconditioning, column padding), the
// per-run robustness guards, the scheduled cache refresh cadence, and the
// finalisation that turns the rotated working matrix into (U, sigma, V) plus
// the status contract. Keeping one definition here is what makes "batched
// lane b == sequential run b == SPMD run" a structural property instead of a
// maintenance promise.

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "svd/equilibrate.hpp"
#include "svd/jacobi.hpp"
#include "svd/norm_cache.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"

namespace treesvd::detail {

/// True when an m x n solve under `mode` is QR-preconditioned.
inline bool preconditions(std::size_t m, std::size_t n, PreconditionMode mode) noexcept {
  return mode == PreconditionMode::kAlways || (mode == PreconditionMode::kAuto && m >= 2 * n);
}

/// Rows of the working matrix: n when preconditioned (H = Rᵀ), else m.
inline std::size_t working_rows(std::size_t m, std::size_t n, const JacobiOptions& opt) noexcept {
  return preconditions(m, n, opt.precondition) ? n : m;
}

/// Whether the engine accumulates V: always when preconditioned, because
/// U = Q·[V′; 0] needs the rotations even when the caller wants no V.
inline bool accumulates_v(std::size_t m, std::size_t n, const JacobiOptions& opt) noexcept {
  return opt.compute_v || preconditions(m, n, opt.precondition);
}

/// The preconditioner of a staged solve: A·P = Q·R, P the static column
/// pivoting by descending norm (Drmač–Veselić), the working matrix Rᵀ.
struct Preconditioner {
  HouseholderQr qr;
  std::vector<std::size_t> perm;  ///< column k of A·P is column perm[k] of A
};

/// Per-driver robustness state: the equilibration record plus the (always
/// observational) stall classifier and (opt-in) watchdog, threaded through
/// finalize so every result carries the status contract.
struct SweepGuards {
  Equilibration eq;
  std::optional<Preconditioner> pre;
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

/// The one staging step of every one-sided driver. Equilibrates A by an
/// exact power of two; then, when preconditioning applies, pivots its columns
/// by descending norm, factors A·P = Q·R on the reduction tree and stages
/// H = Rᵀ, else stages H = A. `h` is the working matrix, already shaped
/// working_rows x width (width >= n); columns past n are zeroed. The records
/// finalize needs to undo the staging land in `guards`.
inline void stage(const Matrix& a, Matrix& h, const JacobiOptions& opt, SweepGuards& guards) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  TREESVD_REQUIRE(h.rows() == working_rows(m, n, opt) && h.cols() >= n,
                  "staging matrix has the wrong shape");
  for (std::size_t j = n; j < h.cols(); ++j) std::fill(h.col(j).begin(), h.col(j).end(), 0.0);
  guards.pre.reset();
  if (!preconditions(m, n, opt.precondition)) {
    for (std::size_t j = 0; j < n; ++j)
      std::copy(a.col(j).begin(), a.col(j).end(), h.col(j).begin());
    guards.eq = equilibrate(h, opt.equilibrate);
    return;
  }
  std::vector<double> norms(n);
  for (std::size_t j = 0; j < n; ++j) norms[j] = nrm2(a.col(j));
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t x, std::size_t y) { return norms[x] > norms[y]; });
  Matrix ap(m, n);
  for (std::size_t k = 0; k < n; ++k)
    std::copy(a.col(perm[k]).begin(), a.col(perm[k]).end(), ap.col(k).begin());
  guards.eq = equilibrate(ap, opt.equilibrate);
  guards.pre.emplace(Preconditioner{HouseholderQr(std::move(ap)), std::move(perm)});
  const Matrix r = guards.pre->qr.r();
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) h(j, i) = i <= j ? r(i, j) : 0.0;
}

/// Completes the columns of `v` that `keep` marks false to an orthonormal
/// basis, deterministically: each takes the unit vector e_i least covered
/// by the basis so far (largest 1 - Σ v(i,c)², lowest i on ties), with two
/// Gram–Schmidt passes against it.
inline void complete_basis(Matrix& v, std::vector<char> keep) {
  const std::size_t n = v.rows();
  for (std::size_t j = 0; j < v.cols(); ++j) {
    if (keep[j]) continue;
    std::size_t best = 0;
    double best_gap = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      double covered = 0.0;
      for (std::size_t c = 0; c < v.cols(); ++c)
        if (keep[c]) covered += v(i, c) * v(i, c);
      if (1.0 - covered > best_gap) {
        best_gap = 1.0 - covered;
        best = i;
      }
    }
    const auto x = v.col(j);
    std::fill(x.begin(), x.end(), 0.0);
    x[best] = 1.0;
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t c = 0; c < v.cols(); ++c)
        if (keep[c]) axpy(-dot(v.col(c), x), v.col(c), x);
    scal(1.0 / nrm2(x), x);
    keep[j] = 1;
  }
}

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

  std::vector<char> keep(n);
  for (std::size_t j = 0; j < n; ++j)
    keep[j] = r.sigma[j] > opt.rank_tol * smax && r.sigma[j] > 0.0;

  if (guards.pre) {
    // Undo the preconditioning: Rᵀ·V′ = H, so A·P = Q·V′·Σ·(H/Σ)ᵀ. U is
    // Q·[V′; 0], formed in place in the m x n result (null columns stay
    // exactly zero through Q); V is P·(H/Σ), its null columns completed.
    r.u = Matrix(a.rows(), n);
    for (std::size_t j = 0; j < n; ++j)
      if (keep[j]) std::copy_n(v.col(j).begin(), n, r.u.col(j).begin());
    guards.pre->qr.apply_q(r.u);
    if (opt.compute_v) {
      r.v = Matrix(n, n);
      const std::vector<std::size_t>& perm = guards.pre->perm;
      for (std::size_t j = 0; j < n; ++j)
        if (keep[j])
          for (std::size_t k = 0; k < n; ++k) r.v(perm[k], j) = h(k, j) / r.sigma[j];
      complete_basis(r.v, keep);
    }
  } else {
    r.u = Matrix(h.rows(), n);
    for (std::size_t j = 0; j < n; ++j)
      if (keep[j]) copy_div(h.col(j), r.sigma[j], r.u.col(j));
    if (opt.compute_v) {
      r.v = Matrix(n, n);
      for (std::size_t j = 0; j < n; ++j) std::copy_n(v.col(j).begin(), n, r.v.col(j).begin());
    }
  }
  unscale_sigma(r.sigma, guards.eq);

  r.status = r.converged ? SvdStatus::kConverged
                         : (guards.stall.stalled() ? SvdStatus::kStalled
                                                   : SvdStatus::kMaxSweeps);
  r.diagnostics.input_scale = guards.eq.stats;
  r.diagnostics.equilibrated = guards.eq.applied;
  r.diagnostics.equilibration_exponent = guards.eq.exponent;
  r.diagnostics.preconditioned = guards.pre.has_value();
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

/// A one-sided solve's working state: the staged working matrix H (padded
/// A or Rᵀ, equilibrated), the accumulated V, the norm cache, the
/// counters the uncached kernels tick, and the guards.
struct SweepState {
  SweepState(const Matrix& a, int width, const JacobiOptions& opt)
      : h(working_rows(a.rows(), a.cols(), opt), static_cast<std::size_t>(width)), guards(opt) {
    stage(a, h, opt, guards);
    if (accumulates_v(a.rows(), a.cols(), opt)) v = Matrix::identity(h.cols());
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
