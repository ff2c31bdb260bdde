// Block one-sided Jacobi and the QR-preconditioned path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "svd/jacobi.hpp"
#include "svd/preconditioned.hpp"

namespace treesvd {
namespace {

using Param = std::tuple<std::string, int>;  // ordering, block width

class BlockJacobi : public ::testing::TestWithParam<Param> {};

TEST_P(BlockJacobi, FactorisationAccurateAndSorted) {
  const auto& [name, width] = GetParam();
  Rng rng(808);
  const Matrix a = random_gaussian(64, 32, rng);
  BlockJacobiOptions opt;
  opt.block_width = width;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering(name), opt);
  ASSERT_TRUE(r.converged) << name << " b=" << width;
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
  EXPECT_LT(orthonormality_defect(r.v), 1e-11);
  for (std::size_t k = 1; k < r.sigma.size(); ++k)
    EXPECT_GE(r.sigma[k - 1], r.sigma[k] - 1e-10);
  const auto sv = singular_values_oracle(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsTimesWidths, BlockJacobi,
    ::testing::Combine(::testing::Values("round-robin", "fat-tree", "new-ring", "hybrid-g2"),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_b" + std::to_string(std::get<1>(param_info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(BlockJacobiExtra, FewerOuterSweepsThanElementwise) {
  Rng rng(809);
  const Matrix a = random_gaussian(96, 48, rng);
  const auto ord = make_ordering("round-robin");
  BlockJacobiOptions opt;
  opt.block_width = 8;
  const SvdResult blocked = block_one_sided_jacobi(a, *ord, opt);
  const SvdResult plain = one_sided_jacobi(a, *ord);
  ASSERT_TRUE(blocked.converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(blocked.sweeps, plain.sweeps);
}

TEST(BlockJacobiExtra, WidthOneMatchesElementwiseBehaviour) {
  Rng rng(810);
  const Matrix a = random_gaussian(24, 16, rng);
  BlockJacobiOptions opt;
  opt.block_width = 1;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  const auto sv = singular_values_oracle(a);
  for (std::size_t k = 0; k < sv.size(); ++k) EXPECT_NEAR(r.sigma[k], sv[k], 1e-8);

  // Width-one blocks with one elementwise inner pass per encounter are the
  // element-wise engine: both run one sweep chain, one guard cadence and
  // one finalize, so the results agree bit for bit.
  BlockJacobiOptions unit;
  unit.block_width = 1;
  unit.inner_mode = InnerMode::kElementwise;
  unit.inner_sweeps = 1;
  for (const char* name : {"round-robin", "odd-even", "fat-tree", "llb-fat-tree", "new-ring",
                           "modified-ring", "hybrid-g4"}) {
    SCOPED_TRACE(name);
    const auto ord = make_ordering(name);
    const SvdResult block = block_one_sided_jacobi(a, *ord, unit);
    const SvdResult serial = one_sided_jacobi(a, *ord);
    EXPECT_EQ(result_digest(block), result_digest(serial));
    EXPECT_EQ(block.status, serial.status);
  }
}

TEST(BlockJacobiExtra, NonDividingWidthPadsCleanly) {
  Rng rng(811);
  const Matrix a = random_gaussian(30, 18, rng);  // 18 cols, width 4 -> 5 blocks -> pad
  BlockJacobiOptions opt;
  opt.block_width = 4;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.sigma.size(), 18u);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
}

TEST(BlockJacobiExtra, RankDeficient) {
  Rng rng(812);
  const Matrix a = rank_deficient(40, 16, 6, rng);
  BlockJacobiOptions opt;
  opt.block_width = 4;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("fat-tree"), opt);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rank(1e-9), 6u);
}

TEST(BlockJacobiExtra, RejectsBadOptions) {
  Rng rng(813);
  const Matrix a = random_gaussian(8, 4, rng);
  BlockJacobiOptions opt;
  opt.block_width = 0;
  EXPECT_THROW(block_one_sided_jacobi(a, *make_ordering("round-robin"), opt),
               std::invalid_argument);
}

TEST(BlockJacobiGram, AgreesWithElementwiseAcrossAllOrderings) {
  // The Gram inner solver and the historical elementwise path must agree on
  // the factorisation to numerical tolerance on every registered ordering.
  Rng rng(820);
  const Matrix a = random_gaussian(96, 32, rng);
  const auto oracle = singular_values_oracle(a);
  for (const auto& name : ordering_names({2, 4})) {
    const auto ord = make_ordering(name);
    BlockJacobiOptions gram;
    gram.block_width = 4;
    gram.inner_mode = InnerMode::kGram;
    BlockJacobiOptions elem = gram;
    elem.inner_mode = InnerMode::kElementwise;
    const SvdResult rg = block_one_sided_jacobi(a, *ord, gram);
    const SvdResult re = block_one_sided_jacobi(a, *ord, elem);
    ASSERT_TRUE(rg.converged) << name;
    ASSERT_TRUE(re.converged) << name;
    const double smax = oracle[0];
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      EXPECT_NEAR(rg.sigma[k], re.sigma[k], 1e-10 * smax) << name << " sigma[" << k << "]";
      EXPECT_NEAR(rg.sigma[k], oracle[k], 1e-8 * smax) << name << " sigma[" << k << "]";
    }
    // Same order of magnitude on the quality measures.
    const double dg = orthonormality_defect(rg.v);
    const double de = orthonormality_defect(re.v);
    EXPECT_LT(dg, 1e-11) << name;
    EXPECT_LT(de, 1e-11) << name;
    EXPECT_LT(reconstruction_error(a, rg.u, rg.sigma, rg.v) / a.frobenius_norm(), 1e-11) << name;
  }
}

TEST(BlockJacobiGram, CountersShowOneGramOnePairOfAppliesPerEncounter) {
  // The one-GEMM-per-encounter contract, via the kernel_stats counters: no
  // pair kernels run at all under kGram, every encounter builds exactly one
  // Gram matrix, and at most one blocked apply per panel (H and V) follows.
  Rng rng(821);
  const Matrix a = random_gaussian(80, 32, rng);
  BlockJacobiOptions opt;
  opt.block_width = 8;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  const KernelStats& ks = r.kernel_stats;
  EXPECT_EQ(ks.pairs, 0u);
  EXPECT_EQ(ks.dot_passes, 0u);
  EXPECT_EQ(ks.gram_passes, 0u);
  EXPECT_EQ(ks.rotate_passes, 0u);
  EXPECT_GT(ks.gram_builds, 0u);
  EXPECT_EQ(ks.accum_rotations, r.rotations);
  // compute_v: one H apply + one V apply per non-clean encounter, none for
  // clean ones — so an even count bounded by twice the builds.
  EXPECT_EQ(ks.blocked_applies % 2, 0u);
  EXPECT_LE(ks.blocked_applies, 2 * ks.gram_builds);
  EXPECT_GT(ks.blocked_applies, 0u);
  // Encounters per outer sweep are fixed by the ordering: nb/2 pairs per
  // step, nb-1 steps for round-robin over nb = 4 blocks.
  EXPECT_EQ(ks.gram_builds % 6, 0u);

  BlockJacobiOptions no_v = opt;
  no_v.compute_v = false;
  const SvdResult rn = block_one_sided_jacobi(a, *make_ordering("round-robin"), no_v);
  EXPECT_LE(rn.kernel_stats.blocked_applies, rn.kernel_stats.gram_builds);
}

TEST(BlockJacobiGram, ElementwiseCountersUnchangedFromPairKernelLayer) {
  // The retained elementwise path must still drive the cached pair kernel:
  // one dot pass per pair, no gram passes, and none of the Gram-path
  // counters may tick.
  Rng rng(822);
  const Matrix a = random_gaussian(48, 24, rng);
  BlockJacobiOptions opt;
  opt.block_width = 4;
  opt.inner_mode = InnerMode::kElementwise;
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("round-robin"), opt);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.kernel_stats.pairs, 0u);
  EXPECT_EQ(r.kernel_stats.dot_passes, r.kernel_stats.pairs);
  EXPECT_EQ(r.kernel_stats.gram_builds, 0u);
  EXPECT_EQ(r.kernel_stats.accum_rotations, 0u);
  EXPECT_EQ(r.kernel_stats.blocked_applies, 0u);
}

TEST(BlockJacobiGram, CacheNormsOffStillAgrees) {
  Rng rng(823);
  const Matrix a = random_gaussian(64, 24, rng);
  BlockJacobiOptions with_cache;
  with_cache.block_width = 4;
  BlockJacobiOptions no_cache = with_cache;
  no_cache.cache_norms = false;
  const SvdResult rc = block_one_sided_jacobi(a, *make_ordering("fat-tree"), with_cache);
  const SvdResult ru = block_one_sided_jacobi(a, *make_ordering("fat-tree"), no_cache);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(ru.converged);
  for (std::size_t k = 0; k < rc.sigma.size(); ++k)
    EXPECT_NEAR(rc.sigma[k], ru.sigma[k], 1e-12 * rc.sigma[0]);
}

TEST(BlockJacobiGram, DigestIsTierInvariant) {
  // The panel kernels (Gram build and P·W apply) have one copy per ISA tier,
  // each reproducing the scalar chain canon; a whole kGram solve, with its
  // partial last row chunk (700 = 512 + 188) and 32-column panels, must
  // therefore be bit-identical whichever tier runs it.
  Rng rng(826);
  const Matrix a = random_gaussian(700, 96, rng);
  BlockJacobiOptions opt;
  opt.block_width = 16;
  opt.inner_mode = InnerMode::kGram;
  const auto ord = make_ordering("fat-tree");
  std::optional<std::uint64_t> first;
  for (int tier : {0, 1, 2}) {
    SCOPED_TRACE(tier);
    const ScopedIsaOverride pin(tier);
    const SvdResult r = block_one_sided_jacobi(a, *ord, opt);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.kernel_stats.blocked_applies, 0u);
    const std::uint64_t d = result_digest(r);
    if (!first) first = d;
    EXPECT_EQ(d, *first);
  }
}

TEST(BlockJacobiBlockCount, NonPowerOfTwoAndPaddedWidthsConverge) {
  // Regression for the block-count search: widths that do not divide n and
  // orderings that only support particular counts (fat-tree: powers of two)
  // must land on a supported count within the documented bound and still
  // produce the right factorisation.
  Rng rng(824);
  for (const auto& [n, width] : std::vector<std::pair<std::size_t, int>>{
           {18, 4}, {18, 16}, {19, 5}, {10, 3}, {33, 8}}) {
    const Matrix a = random_gaussian(2 * n + 5, n, rng);
    const auto oracle = singular_values_oracle(a);
    for (const char* name : {"round-robin", "fat-tree", "new-ring", "hybrid-g2"}) {
      BlockJacobiOptions opt;
      opt.block_width = width;
      const SvdResult r = block_one_sided_jacobi(a, *make_ordering(name), opt);
      ASSERT_TRUE(r.converged) << name << " n=" << n << " b=" << width;
      ASSERT_EQ(r.sigma.size(), n);
      for (std::size_t k = 0; k < oracle.size(); ++k)
        EXPECT_NEAR(r.sigma[k], oracle[k], 1e-7 * (1.0 + oracle[0])) << name;
    }
  }
}

TEST(BlockJacobiBlockCount, UnsupportableCountThrowsWithPreciseRange) {
  // hybrid-g16 needs a block count divisible into 16 groups; with n=8, b=4
  // the search range [2, 8] holds no supported count. The error must name
  // the ordering, the searched range, and the offending parameters.
  Rng rng(825);
  const Matrix a = random_gaussian(16, 8, rng);
  BlockJacobiOptions opt;
  opt.block_width = 4;
  try {
    block_one_sided_jacobi(a, *make_ordering("hybrid-g16"), opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("supports no block count in [2, 8]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n=8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("block_width=4"), std::string::npos) << msg;
  }
}

// --- Step-parallel outer loop ---------------------------------------------
//
// 3072 x 128 at b = 16 is 8 blocks: three or four encounters per step and
// 9.4-12.6 Mflop of estimated step work, above the 8.4 Mflop parallel
// cutoff, so every step forks across its encounters when the shared pool's
// gate is free.
// Under detail::ScopedGemmGateHold every step takes the serial route instead.

const Matrix& step_parallel_input() {
  static const Matrix a = [] {
    Rng rng(830);
    return random_gaussian(3072, 128, rng);
  }();
  return a;
}

BlockJacobiOptions step_parallel_options(InnerMode mode, bool compute_v) {
  BlockJacobiOptions opt;
  opt.block_width = 16;
  opt.inner_mode = mode;
  opt.compute_v = compute_v;
  opt.max_outer_sweeps = 1;  // route identity needs steps, not convergence
  return opt;
}

/// Solves with the gate free and with it held, checks the routes each took,
/// and checks the two results agree bit for bit.
void expect_routes_identical(const Ordering& ord, const BlockJacobiOptions& opt) {
  const Matrix& a = step_parallel_input();
  const auto steps = static_cast<std::size_t>(ord.steps(8));
  gemm_dispatch_stats_reset();
  const SvdResult pooled = block_one_sided_jacobi(a, ord, opt);
  const GemmDispatchStats free_routes = gemm_dispatch_stats();
  // Every step of every sweep forked: no silent degradation.
  EXPECT_GE(free_routes.pooled, steps * static_cast<std::size_t>(pooled.sweeps));
  EXPECT_EQ(free_routes.serial, 0u);

  SvdResult serial;
  {
    const detail::ScopedGemmGateHold hold;
    gemm_dispatch_stats_reset();
    serial = block_one_sided_jacobi(a, ord, opt);
    const GemmDispatchStats held_routes = gemm_dispatch_stats();
    EXPECT_EQ(held_routes.pooled, 0u);
    EXPECT_GE(held_routes.serial, steps * static_cast<std::size_t>(serial.sweeps));
  }
  EXPECT_EQ(result_digest(pooled), result_digest(serial));
  EXPECT_EQ(pooled.sweeps, serial.sweeps);
  EXPECT_EQ(pooled.rotations, serial.rotations);
  const KernelStats& kp = pooled.kernel_stats;
  const KernelStats& ks = serial.kernel_stats;
  EXPECT_EQ(kp.pairs, ks.pairs);
  EXPECT_EQ(kp.dot_passes, ks.dot_passes);
  EXPECT_EQ(kp.gram_builds, ks.gram_builds);
  EXPECT_EQ(kp.accum_rotations, ks.accum_rotations);
  EXPECT_EQ(kp.blocked_applies, ks.blocked_applies);
}

TEST(BlockJacobiStepParallel, PooledStepsMatchSerialStepsBitwise) {
  for (const auto& name : ordering_names()) {
    const auto ord = make_ordering(name);
    if (!ord->supports(8)) continue;
    for (const InnerMode mode : {InnerMode::kGram, InnerMode::kElementwise}) {
      for (const bool compute_v : {true, false}) {
        SCOPED_TRACE(name + (mode == InnerMode::kGram ? " kGram" : " kElementwise") +
                     (compute_v ? " with V" : " without V"));
        expect_routes_identical(*ord, step_parallel_options(mode, compute_v));
      }
    }
  }
}

TEST(BlockJacobiStepParallel, SharedInnerScheduleMatchesSerialStepsBitwise) {
  // The inner schedule is built once per solve and read by every concurrent
  // encounter.
  const auto ord = make_ordering("fat-tree");
  for (const char* inner : {"round-robin", "fat-tree", "odd-even"}) {
    for (const InnerMode mode : {InnerMode::kGram, InnerMode::kElementwise}) {
      SCOPED_TRACE(std::string(inner) + (mode == InnerMode::kGram ? " kGram" : " kElementwise"));
      BlockJacobiOptions opt = step_parallel_options(mode, true);
      opt.inner_ordering = inner;
      expect_routes_identical(*ord, opt);
    }
  }
}

TEST(BlockJacobiStepParallel, SmallSolveStaysInline) {
  // 512 x 64 at b = 16: two encounters per step, about 1 Mflop — below the
  // cutoff, so nothing forks (this is the benchmark's warm-up shape).
  Rng rng(831);
  const Matrix a = random_gaussian(512, 64, rng);
  BlockJacobiOptions opt;
  opt.block_width = 16;
  gemm_dispatch_stats_reset();
  const SvdResult r = block_one_sided_jacobi(a, *make_ordering("fat-tree"), opt);
  ASSERT_TRUE(r.converged);
  const GemmDispatchStats s = gemm_dispatch_stats();
  EXPECT_EQ(s.pooled, 0u);
  EXPECT_EQ(s.fallback, 0u);
  EXPECT_EQ(s.serial, 0u);
  EXPECT_GT(s.inline_small, 0u);
}

TEST(BlockJacobiInnerSchedule, PassesReplayAFreshChainFromTheIdentity) {
  // Pass k of the once-per-solve schedule is the k-th sweep of a chain from
  // the identity layout: what every encounter used to build for itself.
  using Visits = std::vector<std::pair<std::size_t, std::size_t>>;
  constexpr int kPasses = 3;
  for (const std::size_t kw : {4u, 8u, 16u, 32u}) {
    Visits cyclic;
    for (std::size_t a = 0; a < kw; ++a)
      for (std::size_t b = a + 1; b < kw; ++b) cyclic.emplace_back(a, b);
    std::vector<std::string> names = ordering_names({2, 4});
    names.emplace_back();  // empty name: the cyclic pass
    for (const auto& name : names) {
      SCOPED_TRACE(name + " kw=" + std::to_string(kw));
      const detail::InnerSchedule schedule(name, kw, kPasses);
      const OrderingPtr ord = name.empty() ? nullptr : make_ordering(name);
      std::optional<SweepChain> chain;
      if (ord != nullptr && ord->supports(static_cast<int>(kw)))
        chain.emplace(*ord, static_cast<int>(kw));
      for (int k = 0; k < kPasses; ++k) {
        Visits got;
        schedule.pass(k, [&](std::size_t a, std::size_t b) { got.emplace_back(a, b); });
        Visits want = cyclic;
        if (chain) {
          want.clear();
          chain->next().for_each_pair([&](int a, int b) {
            want.emplace_back(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
          });
        }
        EXPECT_EQ(got, want) << "pass " << k;
      }
    }
  }
  EXPECT_THROW(detail::InnerSchedule("no-such-ordering", 8, 1), std::invalid_argument);
}

TEST(Preconditioned, MatchesDirectJacobi) {
  Rng rng(814);
  const Matrix a = random_gaussian(200, 24, rng);
  const auto ord = make_ordering("fat-tree");
  const SvdResult direct = one_sided_jacobi(a, *ord);
  const SvdResult pre = qr_preconditioned_jacobi(a, *ord);
  ASSERT_TRUE(pre.converged);
  for (std::size_t k = 0; k < direct.sigma.size(); ++k)
    EXPECT_NEAR(pre.sigma[k], direct.sigma[k], 1e-9);
  EXPECT_LT(reconstruction_error(a, pre.u, pre.sigma, pre.v) / a.frobenius_norm(), 1e-12);
  EXPECT_LT(orthonormality_defect(pre.u), 1e-10);
}

TEST(Preconditioned, TallAndSkinny) {
  Rng rng(815);
  const Matrix a = with_spectrum(500, 12, geometric_spectrum(12, 1e5), rng);
  const SvdResult r = qr_preconditioned_jacobi(a, *make_ordering("new-ring"));
  ASSERT_TRUE(r.converged);
  const auto sv = singular_values_oracle(a);
  for (std::size_t k = 0; k < sv.size(); ++k)
    EXPECT_NEAR(r.sigma[k], sv[k], 1e-7 * sv[0]);
}

TEST(Preconditioned, RankDeficientTall) {
  Rng rng(816);
  const Matrix a = rank_deficient(120, 16, 4, rng);
  const SvdResult r = qr_preconditioned_jacobi(a, *make_ordering("round-robin"));
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rank(1e-9), 4u);
  EXPECT_LT(reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm(), 1e-11);
}

}  // namespace
}  // namespace treesvd
