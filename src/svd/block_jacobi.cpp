#include "svd/block_jacobi.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/hooks.hpp"
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

InnerSchedule::InnerSchedule(const std::string& name, std::size_t kw, int passes) : kw_(kw) {
  if (name.empty()) return;
  const OrderingPtr ord = make_ordering(name);  // throws for unknown names
  if (!ord->supports(static_cast<int>(kw))) return;
  SweepChain chain(*ord, static_cast<int>(kw));
  for (int k = 0; k < passes; ++k) sweeps_.push_back(chain.next());
}

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
  return j;
}

InnerPanelStats inner_orthogonalise_elementwise(Matrix& h, Matrix* v,
                                                const std::vector<int>& cols,
                                                const BlockJacobiOptions& opt,
                                                const PairKernel& kernel, NormCache* cache,
                                                KernelCounters* plain_counters,
                                                const InnerSchedule* schedule) {
  std::optional<InnerSchedule> own;
  if (schedule == nullptr)
    schedule = &own.emplace(opt.inner_ordering, cols.size(), opt.inner_sweeps);
  InnerPanelStats stats;
  for (int sweep = 0; sweep < opt.inner_sweeps; ++sweep) {
    std::size_t pass_rot = 0;
    std::size_t pass_swap = 0;
    schedule->pass(sweep, [&](std::size_t a, std::size_t b) {
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
                                         KernelCounters& counters, ThreadPool* pool,
                                         const InnerSchedule* schedule) {
  const std::size_t kw = cols.size();
  std::optional<InnerSchedule> own;
  if (schedule == nullptr) schedule = &own.emplace(opt.inner_ordering, kw, opt.inner_sweeps);
  // One Gram build per encounter: every rotate/skip/swap decision below
  // reads this small matrix, never the m-length columns.
  Matrix g = gram_panel(h, cols, pool);
  counters.add_gram_build();
  Matrix w = Matrix::identity(kw);

  InnerPanelStats stats;
  for (int sweep = 0; sweep < opt.inner_sweeps; ++sweep) {
    std::size_t pass_rot = 0;
    std::size_t pass_swap = 0;
    schedule->pass(sweep, [&](std::size_t a, std::size_t b) {
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
  const int b = options.block_width;
  const std::size_t kw = 2 * static_cast<std::size_t>(b);
  // Built once per solve (unknown inner ordering names throw here, not in
  // the middle of the first encounter) and shared by every encounter.
  const detail::InnerSchedule schedule(options.inner_ordering, kw, options.inner_sweeps);
  // Built once per solve: the guards, the refresh cadence and finalize read
  // these options, and the elementwise inner solver's one PairKernel is bound
  // to them.
  const JacobiOptions jopt = detail::element_options(options);
  const detail::PairKernel kernel(jopt);

  const int n = static_cast<int>(a.cols());

  // Number of blocks the ordering will drive, by the drivers' padding rule;
  // the matrix is padded with zero columns to nb * b.
  const int nb = padded_width(ordering, (n + b - 1) / b, "block count",
                              "n=" + std::to_string(n) + ", block_width=" + std::to_string(b));
  detail::SweepState st(detail::pad_columns(a, nb * b), jopt);
  NormCache* cp = options.cache_norms ? &st.cache : nullptr;
  KernelCounters& counters = cp != nullptr ? st.cache.counters() : st.plain_counters;
  const bool gram_mode = options.inner_mode == InnerMode::kGram;
  ThreadPool* pool = gemm_pool();

  // The outer ordering drives blocks; block k owns global columns
  // [k*b, (k+1)*b), and a met pair's panel lists both blocks' columns. Each
  // leaf has its own panel buffer and tally slot, so a step's encounters run
  // concurrently and are tallied after the join.
  SweepChain chain(ordering, nb);
  const auto leaves = static_cast<std::size_t>(nb / 2);
  std::vector<std::vector<int>> cols(leaves, std::vector<int>(kw));
  std::vector<detail::InnerPanelStats> slots(leaves);
  const auto encounter = [&](std::size_t leaf, int lo, int hi, ThreadPool* inner_pool) {
    std::vector<int>& c = cols[leaf];
    for (int i = 0; i < b; ++i) {
      c[static_cast<std::size_t>(i)] = lo * b + i;
      c[static_cast<std::size_t>(b + i)] = hi * b + i;
    }
    const detail::InnerPanelStats stats =
        gram_mode ? detail::inner_orthogonalise_gram(st.h, st.vp(), c, options, cp, counters,
                                                     inner_pool, &schedule)
                  : detail::inner_orthogonalise_elementwise(st.h, st.vp(), c, options, kernel, cp,
                                                            &st.plain_counters, &schedule);
    slots[leaf].rotations += stats.rotations;
    slots[leaf].swaps += stats.swaps;
  };
  // Work estimate of one encounter, m·(2b)² (its Gram build); a step forks
  // only when its active encounters together clear the dispatch cutoff.
  const std::size_t encounter_flops = st.h.rows() * kw * kw;
  const auto run_sweep = [&]([[maybe_unused]] int sweep) {
    const Sweep s = chain.next();
    TREESVD_HB_SCOPED_FRAME(sweep_frame, [&] { return "block sweep " + std::to_string(sweep); });
    for (int t = 0; t < s.steps(); ++t) {
      const StepPairs pairs = s.step_pairs(t);
      const std::size_t active = pairs.count();
      TREESVD_HB_SCOPED_FRAME(step_frame, [&] { return "block step " + std::to_string(t); });
      if (active == 1) {
        // One level of parallelism per step: a lone encounter gets the pool
        // for its own Gram build and applies.
        pairs.for_each([&](int lo, int hi) { encounter(0, lo, hi, pool); });
        continue;
      }
      gemm_parallel_for(leaves, active * encounter_flops, pool, 1, [&](std::size_t leaf) {
        pairs.visit(static_cast<int>(leaf),
                    [&](int lo, int hi) { encounter(leaf, lo, hi, nullptr); });
      });
    }
    detail::SweepTally tally;
    for (detail::InnerPanelStats& slot : slots) {
      tally.rotations += std::exchange(slot.rotations, 0);
      tally.swaps += std::exchange(slot.swaps, 0);
    }
    return tally;
  };
  return detail::sweep_loop(a, st, jopt, kernel.tier(), nullptr, run_sweep);
}

}  // namespace treesvd
