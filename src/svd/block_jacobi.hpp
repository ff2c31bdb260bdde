#pragma once
// Block one-sided Jacobi SVD.
//
// The element-wise engine sends one column per message; on machines where
// latency dominates (the CM-5's alpha is large), the classical remedy —
// reference [1] of the paper (Bischof's block Jacobi) and the block ring of
// Section 5 — is to treat b columns as one unit: the same parallel orderings
// drive *blocks*, and when two blocks meet, their 2b columns are mutually
// orthogonalised by an inner (local, communication-free) Jacobi pass.
// Fewer, larger messages; fewer outer sweeps.
//
// Two inner solvers are available (BlockJacobiOptions::inner_mode):
//
//  * kGram (default, DESIGN.md §8): per encounter, form the 2b x 2b Gram
//    matrix G = PᵀP once (one O(m·b²) pass), run the inner cyclic Jacobi
//    sweeps entirely on the small Gram problem while accumulating every
//    rotation and sort-swap into a 2b x 2b orthogonal W, then apply
//    P <- P·W (and the V panel <- V·W) as one blocked matrix product each.
//    O(m·b²) total per encounter — compute-dense BLAS-3.
//  * kElementwise: the historical path — every inner rotation streams the
//    full m-length columns (O(m) per rotation, memory-bound BLAS-1). Kept
//    bitwise-identical to its pre-BLAS-3 behaviour for cross-checks.
//
// Threading (DESIGN.md §8): each outer step is the paper's set of disjoint
// leaf pairs, so the driver runs the step's block encounters at once — one
// task per leaf through gemm_parallel_for on the shared gemm_pool(), with
// the step's work estimate active_pairs·m·(2b)² deciding whether the step
// forks at all. An encounter reads and writes only its own 2b columns of H
// and V, its own NormCache entries and the relaxed-atomic counters, so the
// result is bitwise identical on every dispatch route. A step is parallel
// either across its encounters or, when it has a single active pair, inside
// that encounter's Gram build and applies — never both.

#include <cstddef>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "linalg/matrix.hpp"
#include "svd/jacobi.hpp"

namespace treesvd {

class ThreadPool;

/// Inner panel solver of the block driver.
enum class InnerMode {
  kElementwise,  ///< rotate full m-length columns pair by pair (historical)
  kGram,         ///< solve the 2b x 2b Gram problem, apply one blocked update
};

struct BlockJacobiOptions {
  /// Columns per block (>= 1). The ordering runs over ceil(n/b) blocks
  /// (padded with zero columns to a supported block count).
  int block_width = 4;
  /// Inner cyclic sweeps over a met block pair's 2b columns per encounter.
  int inner_sweeps = 2;
  double tol = 1e-13;
  int max_outer_sweeps = 60;
  SortMode sort = SortMode::kDescending;
  bool compute_v = true;
  double rank_tol = 1e-12;
  /// Inner panel solver; see the header comment. kGram is the fast path,
  /// kElementwise the bitwise-stable reference.
  InnerMode inner_mode = InnerMode::kGram;
  /// Cached-norm fast path for the kElementwise inner sweeps (see
  /// norm_cache.hpp). Under kGram the cache is not consulted for decisions
  /// (the fresh Gram matrix is), but it is kept coherent: the blocked apply
  /// returns each updated column's squared norm from its own write pass.
  bool cache_norms = true;
  /// Full NormCache re-reduction every this many *outer* sweeps (<= 0
  /// disables the scheduled refresh).
  int norm_recompute_sweeps = 8;
  /// Same robustness knobs as JacobiOptions (svd/status.hpp /
  /// svd/equilibrate.hpp): exact power-of-two input equilibration, opt-in
  /// stagnation watchdog, observational stall window, and forced heavy
  /// diagnostics.
  EquilibrateMode equilibrate = EquilibrateMode::kAuto;
  int watchdog_sweeps = 0;
  int stall_window = 4;
  bool full_diagnostics = false;
  /// Level-2 recursion (DESIGN.md §14): ordering for the *inner* pass over a
  /// met pair's 2b local columns — any registered ordering name
  /// (core/registry.hpp, e.g. "round-robin", "fat-tree"), reused recursively
  /// at the inner level. The local layout chains across the encounter's
  /// inner sweeps exactly as the outer driver chains block layouts. Empty
  /// (default) keeps the historical serial cyclic pass; a named ordering
  /// that does not support 2b columns also falls back to cyclic. Unknown
  /// names throw std::invalid_argument.
  std::string inner_ordering;
};

/// Block one-sided Jacobi SVD of an m x n matrix (m >= n) with the given
/// block-level parallel ordering. Semantics of the result match
/// one_sided_jacobi; `sweeps` counts outer (block) sweeps.
SvdResult block_one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                                 const BlockJacobiOptions& options = {});

namespace detail {

/// Per-encounter tallies of an inner panel solve.
struct InnerPanelStats {
  std::size_t rotations = 0;
  std::size_t swaps = 0;
};

class PairKernel;

/// Level-2 recursion: the local pair visits of an encounter's inner passes,
/// built once per solve and shared read-only by every (concurrent)
/// encounter. With an inner_ordering name the registered ordering is reused
/// recursively over the 2b *local* positions: pass k is the k-th sweep of a
/// SweepChain from the identity layout, so the local layout chains across an
/// encounter's inner sweeps exactly as the outer driver chains block
/// layouts, and each step's pairs are disjoint (checked by treesvd_lint's
/// inner-recursion rule). Every encounter starts from the identity, so the
/// passes are the same for all of them. An empty name, or an ordering that
/// does not support 2b, falls back to the historical serial cyclic pass.
class InnerSchedule {
 public:
  /// `passes` inner sweeps over `kw` local positions; unknown names throw.
  InnerSchedule(const std::string& name, std::size_t kw, int passes);

  /// Runs inner pass `k` (0 <= k < passes), invoking f(a, b) with local
  /// positions a < b.
  template <typename F>
  void pass(int k, F&& f) const {
    if (sweeps_.empty()) {
      for (std::size_t a = 0; a < kw_; ++a)
        for (std::size_t b = a + 1; b < kw_; ++b) f(a, b);
      return;
    }
    sweeps_[static_cast<std::size_t>(k)].for_each_pair(
        [&](int a, int b) { f(static_cast<std::size_t>(a), static_cast<std::size_t>(b)); });
  }

 private:
  std::size_t kw_;
  std::vector<Sweep> sweeps_;  ///< empty: cyclic
};

/// The element-level options a block solve runs under, built once per solve:
/// the block options' tolerances, sort rule, cache cadence, guards and
/// diagnostics, with max_sweeps = max_outer_sweeps.
JacobiOptions element_options(const BlockJacobiOptions& opt);

/// Elementwise inner pass: mutually orthogonalise the columns listed in
/// `cols` (global column ids of h/v) with plain cyclic one-sided Jacobi,
/// sort rule included, rotating through `kernel` (bound to
/// element_options(opt)). This is the pre-BLAS-3 code path, unchanged.
/// `schedule` is the solve's InnerSchedule; nullptr builds one for this
/// call from opt.inner_ordering.
InnerPanelStats inner_orthogonalise_elementwise(Matrix& h, Matrix* v,
                                                const std::vector<int>& cols,
                                                const BlockJacobiOptions& opt,
                                                const PairKernel& kernel, NormCache* cache,
                                                KernelCounters* plain_counters,
                                                const InnerSchedule* schedule = nullptr);

/// Gram inner pass: one Gram build, cyclic Jacobi sweeps on the small
/// problem accumulating rotations and sort-swaps into W, then at most one
/// blocked P·W apply per panel (h, and v when non-null). Keeps `cache`
/// coherent from the apply's fused norm reduction. `pool` (nullable) spreads
/// the Gram build and the blocked applies over row chunks. `schedule` as for
/// the elementwise pass.
InnerPanelStats inner_orthogonalise_gram(Matrix& h, Matrix* v, const std::vector<int>& cols,
                                         const BlockJacobiOptions& opt, NormCache* cache,
                                         KernelCounters& counters, ThreadPool* pool,
                                         const InnerSchedule* schedule = nullptr);

}  // namespace detail

}  // namespace treesvd
