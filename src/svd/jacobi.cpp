#include "svd/jacobi.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hooks.hpp"
#include "util/thread_pool.hpp"

#include "linalg/blas1.hpp"
#include "svd/driver_detail.hpp"
#include "svd/pair_kernel.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

using detail::PairKernel;
using detail::PairOutcome;
using detail::SweepState;
using detail::SweepTally;

/// The element-wise sweep loop behind one_sided_jacobi,
/// one_sided_jacobi_threaded and cyclic_jacobi. They differ in two things
/// only: where a sweep's pairs come from (the ordering's sweep chain over the
/// padded columns, or row-cyclic over the unpadded columns when `ordering` is
/// null), and how a step runs (inline, or over `pool` at options.grain).
/// Padding, guards, the refresh cadence and finalisation are shared with the
/// block and batched engines (svd/driver_detail.hpp).
SvdResult elementwise_jacobi(const Matrix& a, const Ordering* ordering, ThreadPool* pool,
                             const JacobiOptions& options, const char* who) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2,
                  std::string(who) + " expects m >= n >= 2");
  require_finite_columns(a, who);
  // Level 0 of the engine hierarchy: one PairKernel, bound once to the
  // resolved dispatch table, drives every pair of the run.
  const PairKernel kernel(options);
  const int n = ordering != nullptr ? padded_width(*ordering, static_cast<int>(a.cols()))
                                    : static_cast<int>(a.cols());
  SweepState st(detail::pad_columns(a, n), options);
  std::optional<SweepChain> chain;
  if (ordering != nullptr) chain.emplace(*ordering, n);
  // Threaded steps write each leaf's outcome to its own slot and tally after
  // the join, so no path counts through atomics.
  std::vector<PairOutcome> outcomes(pool != nullptr ? static_cast<std::size_t>(n / 2) : 0);

  const auto rotate = [&](int i, int j) {
    return options.cache_norms ? kernel.process_cached(st.h, st.vp(), i, j, st.cache)
                               : kernel.process(st.h, st.vp(), i, j, &st.plain_counters);
  };
  const auto run_sweep = [&]([[maybe_unused]] int sweep) {
    SweepTally tally;
    const auto count = [&](PairOutcome o) {
      tally.rotations += o.rotated ? 1 : 0;
      tally.swaps += o.swapped ? 1 : 0;
    };
    const auto rotate_inline = [&](int i, int j) { count(rotate(i, j)); };
    if (!chain) {
      for (int i = 0; i < n - 1; ++i)
        for (int j = i + 1; j < n; ++j) rotate_inline(i, j);
      return tally;
    }
    const Sweep s = chain->next();
    TREESVD_HB_SCOPED_FRAME(sweep_frame, [&] { return "sweep " + std::to_string(sweep); });
    for (int t = 0; t < s.steps(); ++t) {
      // The non-allocating view is shared read-only across the pool; tasks
      // are indexed by leaf, so the step's pair list is never copied.
      const StepPairs pairs = s.step_pairs(t);
      if (pool == nullptr) {
        pairs.for_each(rotate_inline);
        continue;
      }
      TREESVD_HB_SCOPED_FRAME(step_frame, [&] { return "step " + std::to_string(t); });
      pool->parallel_for(
          outcomes.size(),
          [&](std::size_t k) {
            pairs.visit(static_cast<int>(k), [&](int i, int j) { outcomes[k] = rotate(i, j); });
          },
          options.grain);
      for (PairOutcome& o : outcomes) count(std::exchange(o, PairOutcome{}));
    }
    return tally;
  };
  return detail::sweep_loop(a, st, options, kernel.tier(), pool, run_sweep);
}

}  // namespace

std::size_t SvdResult::rank(double rank_tol) const {
  if (sigma.empty()) return 0;
  const double smax = *std::max_element(sigma.begin(), sigma.end());
  std::size_t r = 0;
  for (double s : sigma)
    if (s > rank_tol * smax && s > 0.0) ++r;
  return r;
}

double off_diagonal_measure(const Matrix& a) { return off_diagonal_measure(a, nullptr, nullptr); }

double off_diagonal_measure(const Matrix& a, ThreadPool* pool, const NormCache* cache) {
  const std::size_t n = a.cols();
  // Column j's task owns all pairs (i, j), i < j — disjoint writes into the
  // partial-sum slots, so the parallel path needs no synchronisation.
  std::vector<double> off_partial(n, 0.0);
  std::vector<double> diag_partial(n, 0.0);
  const auto column_task = [&](std::size_t j) {
    const auto cj = a.col(j);
    double off = 0.0;
    for (std::size_t i = 0; i < j; ++i) {
      const double d = dot(a.col(i), cj);
      off += 2.0 * d * d;
    }
    off_partial[j] = off;
    const double djj = cache != nullptr && !cache->empty() ? cache->sq(j) : dot(cj, cj);
    diag_partial[j] = djj * djj;
  };
  if (pool != nullptr) {
    // Grain 1: task cost grows linearly with j, so fine-grained dynamic
    // scheduling is what balances the triangle.
    pool->parallel_for(n, column_task, 1);
  } else {
    for (std::size_t j = 0; j < n; ++j) column_task(j);
  }
  double off = 0.0;
  double diag = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    off += off_partial[j];
    diag += diag_partial[j];
  }
  // Relative measure: off(G) / ||G||_F with G = A^T A.
  const double norm_g = std::sqrt(diag + off);
  return norm_g == 0.0 ? 0.0 : std::sqrt(off) / norm_g;
}

SvdResult one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                           const JacobiOptions& options) {
  return elementwise_jacobi(a, &ordering, nullptr, options, "one_sided_jacobi");
}

SvdResult one_sided_jacobi_threaded(const Matrix& a, const Ordering& ordering,
                                    const JacobiOptions& options, unsigned threads) {
  ThreadPool pool(threads);
  return elementwise_jacobi(a, &ordering, &pool, options, "one_sided_jacobi_threaded");
}

SvdResult cyclic_jacobi(const Matrix& a, const JacobiOptions& options) {
  return elementwise_jacobi(a, nullptr, nullptr, options, "cyclic_jacobi");
}

}  // namespace treesvd
