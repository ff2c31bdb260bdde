#pragma once
// Hestenes one-sided Jacobi SVD driven by a parallel ordering.
//
// The method generates an orthogonal V as a product of plane rotations with
// A V = H, H's nonzero columns orthogonal; normalising H gives U and the
// singular values. Rotations are organised in sweeps drawn from an Ordering
// (treesvd::core); the serial cyclic method is available as a baseline.

#include <cstddef>
#include <optional>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/matrix.hpp"
#include "svd/norm_cache.hpp"
#include "svd/status.hpp"

namespace treesvd {

class ThreadPool;

/// Sorting behaviour during the iteration.
enum class SortMode {
  kNone,        ///< leave the singular values wherever they converge
  kDescending,  ///< keep the larger-norm column at the smaller index: the
                ///< singular values emerge in nonincreasing order (using the
                ///< fused rotate-and-swap of eq. (3), never an explicit
                ///< column interchange)
};

struct JacobiOptions {
  /// Relative orthogonality threshold: a pair with
  /// |a_i.a_j| <= tol*||a_i||*||a_j|| is skipped (threshold strategy).
  double tol = 1e-13;
  int max_sweeps = 60;
  SortMode sort = SortMode::kDescending;
  bool compute_v = true;
  /// Record off(A^T A) = sqrt(sum_{i<j} (a_i.a_j)^2) after every sweep
  /// (costs an extra O(n^2 m) pass per sweep).
  bool track_off = false;
  /// Singular values below rank_tol * sigma_max are treated as zero when
  /// forming U (their U columns are left zero).
  double rank_tol = 1e-12;
  /// Cached-norm fast path: keep per-column squared norms in a NormCache so
  /// each pair costs one dot-product accumulation instead of a full
  /// three-element gram_pair (see norm_cache.hpp for the invariants).
  bool cache_norms = true;
  /// Drift control: fully re-reduce the NormCache every this many sweeps
  /// (<= 0 disables the scheduled refresh; the near-threshold guard in the
  /// pair kernel still applies).
  int norm_recompute_sweeps = 8;
  /// Threaded driver: pairs per ThreadPool scheduling chunk; 0 = automatic
  /// (tiny steps run inline on the calling thread).
  std::size_t grain = 0;
  /// Exact power-of-two input equilibration (svd/equilibrate.hpp). kAuto
  /// rescales only when the entry magnitudes endanger the squared-norm
  /// pipeline (a no-op on well-scaled inputs); the scaling is bitwise
  /// transparent — sigma, U, V and sweep counts match the unequilibrated run
  /// exactly whenever that run stays in range.
  EquilibrateMode equilibrate = EquilibrateMode::kAuto;
  /// Engine-level convergence watchdog (svd/recovery.hpp): when > 0, a
  /// sweep-activity plateau of this many sweeps forces a full norm
  /// re-reduction (the only repairable source of stagnation). 0 disables the
  /// active repair; the *observational* stall classifier below still runs.
  int watchdog_sweeps = 0;
  /// Trailing window of the always-on stall classifier: a non-converged run
  /// whose activity failed to decrease for this many final sweeps reports
  /// SvdStatus::kStalled instead of kMaxSweeps. Purely diagnostic — it never
  /// changes the iteration.
  int stall_window = 4;
  /// Compute the heavy quality diagnostics (scaled residual, orthonormality
  /// defects; an extra O(mn^2)) even when the run converged. They are always
  /// computed for non-converged runs.
  bool full_diagnostics = false;
};

struct SvdResult {
  Matrix u;                  ///< m x n; columns with sigma ~ 0 are zero
  std::vector<double> sigma; ///< n singular values (descending when sorted)
  Matrix v;                  ///< n x n (empty when compute_v is false)
  int sweeps = 0;            ///< sweeps actually performed
  bool converged = false;    ///< a full sweep passed with no rotation/swap
  std::size_t rotations = 0; ///< rotations above the threshold
  std::size_t swaps = 0;     ///< sorting interchanges (fused into rotations)
  std::vector<double> off_history;  ///< off(A^T A) per sweep when tracked
  KernelStats kernel_stats;  ///< debug pass counters from the pair kernels
  /// Machine-readable classification of how the iteration ended; kConverged
  /// iff `converged`. Non-converged results are still best-effort
  /// factorizations — consult `diagnostics` for how much to trust them.
  SvdStatus status = SvdStatus::kMaxSweeps;
  /// Quality/provenance diagnostics (see svd/status.hpp for which fields are
  /// filled in when).
  SvdDiagnostics diagnostics;

  /// Number of singular values above rank_tol * sigma_max.
  std::size_t rank(double rank_tol = 1e-12) const;
};

/// One-sided Jacobi SVD of an m x n matrix (m >= n) using the given parallel
/// ordering. If the ordering does not support n directly (e.g. fat-tree needs
/// a power of two), the matrix is padded with zero columns up to the nearest
/// supported width; padding is removed from the result.
SvdResult one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                           const JacobiOptions& options = {});

/// Serial cyclic baseline (row-cyclic pair order), same semantics.
SvdResult cyclic_jacobi(const Matrix& a, const JacobiOptions& options = {});

/// Thread-parallel variant: the disjoint pairs of each step run concurrently
/// on a thread pool (threads == 0 selects hardware concurrency). Identical
/// results to one_sided_jacobi — rotations within a step commute because the
/// pairs are disjoint.
SvdResult one_sided_jacobi_threaded(const Matrix& a, const Ordering& ordering,
                                    const JacobiOptions& options = {}, unsigned threads = 0);

/// off(A^T A) relative to ||A||_F^2: the convergence measure of the paper's
/// quadratic-convergence claim.
double off_diagonal_measure(const Matrix& a);

/// Same measure, with the O(n^2 m) pair products spread over `pool` (nullptr
/// runs serially) and the diagonal terms taken from `cache` when non-null
/// (saving one dot per column). The drivers use this form when track_off is
/// set.
double off_diagonal_measure(const Matrix& a, ThreadPool* pool, const NormCache* cache);

}  // namespace treesvd
