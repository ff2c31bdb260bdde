#include "svd/block_jacobi.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/blas1.hpp"
#include "linalg/gemm.hpp"
#include "linalg/rotation.hpp"
#include "svd/driver_detail.hpp"
#include "svd/equilibrate.hpp"
#include "svd/pair_kernel.hpp"
#include "svd/recovery.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace detail {
namespace {

/// Level-2 recursion: the sequence of local pair visits of one encounter's
/// inner passes. With an inner_ordering name the registered ordering is
/// reused recursively over the 2b *local* positions — one SweepChain per
/// encounter, so the local layout chains across the encounter's inner sweeps
/// exactly as the outer driver chains block layouts — and each step's pairs
/// are disjoint (checked by treesvd_lint's inner-recursion rule). Empty name,
/// or an ordering that does not support 2b, falls back to the historical
/// serial cyclic pass.
class InnerSchedule {
 public:
  InnerSchedule(const std::string& name, std::size_t kw) : kw_(kw) {
    if (name.empty()) return;
    OrderingPtr ord = make_ordering(name);  // throws for unknown names
    if (!ord->supports(static_cast<int>(kw))) return;
    ord_ = std::move(ord);
    chain_.emplace(*ord_, static_cast<int>(kw));
  }

  /// Runs the next inner pass, invoking f(a, b) with local positions a < b.
  template <typename F>
  void pass(F&& f) {
    if (!chain_) {
      for (std::size_t a = 0; a < kw_; ++a)
        for (std::size_t b = a + 1; b < kw_; ++b) f(a, b);
      return;
    }
    chain_->next().for_each_pair(
        [&](int a, int b) { f(static_cast<std::size_t>(a), static_cast<std::size_t>(b)); });
  }

 private:
  std::size_t kw_;
  OrderingPtr ord_;
  std::optional<SweepChain> chain_;
};

}  // namespace

JacobiOptions element_options(const BlockJacobiOptions& opt) {
  JacobiOptions j;
  j.tol = opt.tol;
  j.max_sweeps = opt.max_outer_sweeps;
  j.sort = opt.sort;
  j.compute_v = opt.compute_v;
  j.rank_tol = opt.rank_tol;
  j.cache_norms = opt.cache_norms;
  j.norm_recompute_sweeps = opt.norm_recompute_sweeps;
  j.equilibrate = opt.equilibrate;
  j.watchdog_sweeps = opt.watchdog_sweeps;
  j.stall_window = opt.stall_window;
  j.full_diagnostics = opt.full_diagnostics;
  j.force_isa = opt.force_isa;
  return j;
}

InnerPanelStats inner_orthogonalise_elementwise(Matrix& h, Matrix* v,
                                                const std::vector<int>& cols,
                                                const BlockJacobiOptions& opt,
                                                const PairKernel& kernel, NormCache* cache,
                                                KernelCounters* plain_counters) {
  InnerSchedule schedule(opt.inner_ordering, cols.size());
  InnerPanelStats stats;
  for (int sweep = 0; sweep < opt.inner_sweeps; ++sweep) {
    std::size_t pass_rot = 0;
    std::size_t pass_swap = 0;
    schedule.pass([&](std::size_t a, std::size_t b) {
      const int i = std::min(cols[a], cols[b]);
      const int j = std::max(cols[a], cols[b]);
      const auto o = cache != nullptr ? kernel.process_cached(h, v, i, j, *cache)
                                      : kernel.process(h, v, i, j, plain_counters);
      pass_rot += o.rotated ? 1 : 0;
      pass_swap += o.swapped ? 1 : 0;
    });
    stats.rotations += pass_rot;
    stats.swaps += pass_swap;
    if (pass_rot == 0 && pass_swap == 0) break;  // panel already orthogonal
  }
  return stats;
}

namespace {

/// Two-sided update G <- JᵀGJ for the plane rotation (c, s) in plane (a, b),
/// preserving symmetry. The rotated diagonal uses the same stable
/// norm-transfer form as the column kernels (rotated_norms); the pivot
/// off-diagonal is zero by construction of the Jacobi rotation.
void rotate_gram(Matrix& g, std::size_t a, std::size_t b, const JacobiRotation& rot) {
  const double c = rot.c;
  const double s = rot.s;
  const GramPair gp{g(a, a), g(b, b), g(a, b)};
  const std::size_t kw = g.rows();
  for (std::size_t k = 0; k < kw; ++k) {
    if (k == a || k == b) continue;
    const double gka = g(k, a);
    const double gkb = g(k, b);
    const double na = c * gka - s * gkb;
    const double nb = s * gka + c * gkb;
    g(k, a) = na;
    g(a, k) = na;
    g(k, b) = nb;
    g(b, k) = nb;
  }
  const RotatedNorms rn = rotated_norms(gp, rot);
  g(a, a) = rn.app;
  g(b, b) = rn.aqq;
  g(a, b) = 0.0;
  g(b, a) = 0.0;
}

/// Symmetric interchange of indices a and b of G (columns, then rows).
void swap_gram(Matrix& g, std::size_t a, std::size_t b) {
  swap(g.col(a), g.col(b));
  for (std::size_t k = 0; k < g.rows(); ++k) {
    const double t = g(a, k);
    g(a, k) = g(b, k);
    g(b, k) = t;
  }
}

}  // namespace

InnerPanelStats inner_orthogonalise_gram(Matrix& h, Matrix* v, const std::vector<int>& cols,
                                         const BlockJacobiOptions& opt, NormCache* cache,
                                         KernelCounters& counters, ThreadPool* pool) {
  const std::size_t kw = cols.size();
  // One Gram build per encounter: every rotate/skip/swap decision below
  // reads this small matrix, never the m-length columns.
  Matrix g = gram_panel(h, cols, pool);
  counters.add_gram_build();
  Matrix w = Matrix::identity(kw);

  InnerSchedule schedule(opt.inner_ordering, kw);
  InnerPanelStats stats;
  for (int sweep = 0; sweep < opt.inner_sweeps; ++sweep) {
    std::size_t pass_rot = 0;
    std::size_t pass_swap = 0;
    schedule.pass([&](std::size_t a, std::size_t b) {
      const GramPair gp{g(a, a), g(b, b), g(a, b)};
      const JacobiRotation rot = compute_rotation(gp, opt.tol);
      const bool want_swap = opt.sort == SortMode::kDescending && gp.app < gp.aqq;
      if (rot.identity && !want_swap) return;
      if (!rot.identity) {
        rotate_gram(g, a, b, rot);
        // W <- W·J: same column convention as the data-side kernel.
        apply_rotation(w.col(a), w.col(b), rot.c, rot.s);
        ++pass_rot;
      }
      if (want_swap) {
        // Fused rotate-and-swap of paper eq. (3), in accumulator form:
        // interchange the two local indices of G and W.
        swap_gram(g, a, b);
        swap(w.col(a), w.col(b));
        ++pass_swap;
      }
    });
    stats.rotations += pass_rot;
    stats.swaps += pass_swap;
    if (pass_rot == 0 && pass_swap == 0) break;  // panel already orthogonal
  }
  counters.add_accum_rotations(stats.rotations);
  if (stats.rotations == 0 && stats.swaps == 0) return stats;  // W == I: skip the apply

  // The only O(m) work of the encounter: one blocked P·W per panel. The
  // fused squared-norm reduction of the apply pass keeps the NormCache on
  // the same "fresh reduction of stored values" contract as the elementwise
  // kernels (norm_cache.hpp).
  const std::vector<double> hsq = apply_panel_update(h, cols, w, pool);
  counters.add_blocked_apply();
  if (v != nullptr) {
    apply_panel_update(*v, cols, w, pool);
    counters.add_blocked_apply();
  }
  if (cache != nullptr)
    for (std::size_t j = 0; j < kw; ++j) cache->set(static_cast<std::size_t>(cols[j]), hsq[j]);
  return stats;
}

}  // namespace detail

SvdResult block_one_sided_jacobi(const Matrix& a, const Ordering& ordering,
                                 const BlockJacobiOptions& options) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2,
                  "block_one_sided_jacobi expects m >= n >= 2");
  require_finite_columns(a, "block_one_sided_jacobi");
  TREESVD_REQUIRE(options.block_width >= 1, "block width must be >= 1");
  TREESVD_REQUIRE(options.inner_sweeps >= 1, "need at least one inner sweep");
  // Validate the inner ordering name up front (unknown names throw here, not
  // in the middle of the first encounter).
  if (!options.inner_ordering.empty()) make_ordering(options.inner_ordering);
  const ScopedIsaOverride isa_guard(options.force_isa);
  // Built once per solve: the guards, the refresh cadence and finalize read
  // these options, and the elementwise inner solver's one PairKernel is bound
  // to them.
  const JacobiOptions jopt = detail::element_options(options);
  const detail::PairKernel kernel(jopt);

  const int n = static_cast<int>(a.cols());
  const int b = options.block_width;

  // Number of blocks the ordering will drive, by the drivers' padding rule;
  // the matrix is padded with zero columns to nb * b.
  const int nb = padded_width(ordering, (n + b - 1) / b, "block count",
                              "n=" + std::to_string(n) + ", block_width=" + std::to_string(b));
  detail::SweepState st(detail::pad_columns(a, nb * b), jopt);
  NormCache* cp = options.cache_norms ? &st.cache : nullptr;
  KernelCounters& counters = cp != nullptr ? st.cache.counters() : st.plain_counters;
  const bool gram_mode = options.inner_mode == InnerMode::kGram;
  ThreadPool* pool = gram_mode ? gemm_pool() : nullptr;

  // The outer ordering drives blocks; block k owns global columns
  // [k*b, (k+1)*b), and a met pair's panel lists both blocks' columns.
  SweepChain chain(ordering, nb);
  std::vector<int> cols(2 * static_cast<std::size_t>(b));
  const auto run_sweep = [&](int) {
    detail::SweepTally tally;
    chain.next().for_each_pair([&](int lo, int hi) {
      for (int i = 0; i < b; ++i) {
        cols[static_cast<std::size_t>(i)] = lo * b + i;
        cols[static_cast<std::size_t>(b + i)] = hi * b + i;
      }
      const detail::InnerPanelStats stats =
          gram_mode ? detail::inner_orthogonalise_gram(st.h, st.vp(), cols, options, cp, counters,
                                                       pool)
                    : detail::inner_orthogonalise_elementwise(st.h, st.vp(), cols, options,
                                                              kernel, cp, &st.plain_counters);
      tally.rotations += stats.rotations;
      tally.swaps += stats.swaps;
    });
    return tally;
  };
  return detail::sweep_loop(a, st, jopt, kernel.tier(), nullptr, run_sweep);
}

}  // namespace treesvd
