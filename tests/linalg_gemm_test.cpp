// Tests for the BLAS-3 layer: the tiled/packed GEMM against a naive
// reference over random shapes (tile multiples and not, tall panels, 1 x k
// edge cases), syrk_t, the gathered-panel Gram, the fused blocked panel
// apply, and threaded-vs-serial bitwise determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

/// Plain jki reference product (the seed's Matrix::operator* loop).
Matrix naive_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double bkj = b(k, j);
      for (std::size_t i = 0; i < a.rows(); ++i) c(i, j) += a(i, k) * bkj;
    }
  return c;
}

void expect_close(const Matrix& got, const Matrix& want, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const double scale = 1.0 + want.max_abs();
  for (std::size_t j = 0; j < want.cols(); ++j)
    for (std::size_t i = 0; i < want.rows(); ++i)
      EXPECT_NEAR(got(i, j), want(i, j), 1e-12 * scale) << what << " (" << i << "," << j << ")";
}

TEST(Gemm, MatchesNaiveOverShapes) {
  // m, k, n triples: tiny, non-tile-multiples, tall panels (m >> n), wide,
  // and 1 x k degenerate shapes.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},   {1, 7, 1},    {5, 1, 9},    {17, 3, 29},  {64, 64, 64},
      {100, 37, 53}, {130, 67, 41}, {513, 32, 8}, {1025, 16, 16}, {3, 200, 5},
      {2, 257, 31},  {33, 129, 65}};
  Rng rng(42);
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    expect_close(gemm(a, b), naive_product(a, b),
                 "gemm " + std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n));
  }
}

TEST(Gemm, SmallTilingExercisesEveryEdge) {
  // A deliberately tiny tiling forces many partial tiles and packed-buffer
  // edges even at modest sizes.
  Rng rng(43);
  GemmTiling tiny;
  tiny.mc = 8;
  tiny.kc = 8;
  tiny.nc = 8;
  for (const std::size_t m : {std::size_t{9}, std::size_t{16}, std::size_t{23}}) {
    const Matrix a = random_matrix(m, 13, rng);
    const Matrix b = random_matrix(13, m + 3, rng);
    expect_close(gemm(a, b, nullptr, tiny), naive_product(a, b), "tiny tiling");
  }
}

TEST(Gemm, ThreadedBitwiseEqualsSerial) {
  // Tiles own disjoint C regions and run identical code, so threading must
  // not change a single bit.
  Rng rng(44);
  const Matrix a = random_matrix(301, 157, rng);
  const Matrix b = random_matrix(157, 203, rng);
  ThreadPool pool(4);
  const Matrix serial = gemm(a, b, nullptr);
  const Matrix threaded = gemm(a, b, &pool);
  EXPECT_EQ(serial, threaded);
}

TEST(Gemm, OperatorRoutesThroughTiledPath) {
  Rng rng(45);
  const Matrix a = random_matrix(140, 90, rng);
  const Matrix b = random_matrix(90, 70, rng);
  expect_close(a * b, naive_product(a, b), "operator*");
  // Identity must be exact.
  const Matrix i = Matrix::identity(90);
  EXPECT_EQ(a * i, a);
}

TEST(Gemm, IntoRejectsShapeMismatch) {
  const Matrix a(4, 3);
  const Matrix b(3, 5);
  Matrix wrong(4, 4);
  EXPECT_THROW(gemm_into(wrong, a, b), std::invalid_argument);
  Matrix bad_inner(5, 4);
  EXPECT_THROW(gemm_into(bad_inner, b, a), std::invalid_argument);
}

TEST(SyrkT, MatchesTransposedProduct) {
  Rng rng(46);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{50, 7},
                            {513, 32},
                            {64, 64},
                            {9, 17}}) {
    const Matrix a = random_matrix(m, n, rng);
    const Matrix ref = naive_product(a.transposed(), a);
    const Matrix g = syrk_t(a);
    expect_close(g, ref, "syrk_t");
    // Exact symmetry by construction (mirrored, not recomputed).
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(g(i, j), g(j, i));
  }
}

TEST(SyrkT, ThreadedBitwiseEqualsSerial) {
  Rng rng(47);
  const Matrix a = random_matrix(700, 90, rng);
  ThreadPool pool(4);
  EXPECT_EQ(syrk_t(a, nullptr), syrk_t(a, &pool));
}

TEST(GramPanel, MatchesGatheredReference) {
  Rng rng(48);
  const Matrix a = random_matrix(777, 24, rng);
  const std::vector<int> cols = {3, 0, 17, 9, 21, 4, 11};
  const Matrix g = gram_panel(a, cols);
  ASSERT_EQ(g.rows(), cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i)
    for (std::size_t j = 0; j < cols.size(); ++j) {
      double ref = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r)
        ref += a(r, static_cast<std::size_t>(cols[i])) * a(r, static_cast<std::size_t>(cols[j]));
      EXPECT_NEAR(g(i, j), ref, 1e-10 * (1.0 + std::fabs(ref))) << i << "," << j;
      EXPECT_EQ(g(i, j), g(j, i));
    }
}

TEST(GramPanel, ThreadedBitwiseEqualsSerial) {
  Rng rng(49);
  const Matrix a = random_matrix(4096, 40, rng);
  std::vector<int> cols(32);
  std::iota(cols.begin(), cols.end(), 5);
  ThreadPool pool(4);
  EXPECT_EQ(gram_panel(a, cols, nullptr), gram_panel(a, cols, &pool));
}

TEST(ApplyPanelUpdate, MatchesReferenceAndReturnsFreshNorms) {
  Rng rng(50);
  Matrix a = random_matrix(611, 20, rng);
  const Matrix orig = a;
  const std::vector<int> cols = {2, 7, 3, 15, 9, 0};
  const std::size_t kw = cols.size();
  const Matrix w = random_matrix(kw, kw, rng);
  const std::vector<double> sq = apply_panel_update(a, cols, w);
  ASSERT_EQ(sq.size(), kw);
  for (std::size_t j = 0; j < kw; ++j) {
    double ssq = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
      double ref = 0.0;
      for (std::size_t k = 0; k < kw; ++k)
        ref += orig(r, static_cast<std::size_t>(cols[k])) * w(k, j);
      EXPECT_NEAR(a(r, static_cast<std::size_t>(cols[j])), ref, 1e-11 * (1.0 + std::fabs(ref)));
      const double stored = a(r, static_cast<std::size_t>(cols[j]));
      ssq += stored * stored;
    }
    // The returned norm is a reduction of the *stored* values.
    EXPECT_NEAR(sq[j], ssq, 1e-10 * (1.0 + ssq)) << j;
  }
  // Untouched columns must be bitwise untouched.
  for (std::size_t j = 0; j < a.cols(); ++j) {
    if (std::find(cols.begin(), cols.end(), static_cast<int>(j)) != cols.end()) continue;
    for (std::size_t r = 0; r < a.rows(); ++r) EXPECT_EQ(a(r, j), orig(r, j));
  }
}

TEST(ApplyPanelUpdate, IdentityIsExact) {
  Rng rng(51);
  Matrix a = random_matrix(100, 8, rng);
  const Matrix orig = a;
  const std::vector<int> cols = {1, 4, 6};
  apply_panel_update(a, cols, Matrix::identity(3));
  EXPECT_EQ(a, orig);
}

TEST(ApplyPanelUpdate, ThreadedBitwiseEqualsSerial) {
  Rng rng(52);
  Matrix a1 = random_matrix(5000, 16, rng);
  Matrix a2 = a1;
  std::vector<int> cols(16);
  std::iota(cols.begin(), cols.end(), 0);
  Matrix w(16, 16);
  for (double& v : w.data()) v = rng.normal();
  ThreadPool pool(4);
  const auto s1 = apply_panel_update(a1, cols, w, nullptr);
  const auto s2 = apply_panel_update(a2, cols, w, &pool);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(s1, s2);
}

// --- Panel kernels pinned to the per-pair composition ---------------------

// The composition gram_panel and apply_panel_update used before the panel
// kernels: per 512-row chunk one dispatched dot per upper-triangle entry
// (resp. a zero fill, one axpy per nonzero w(k, j) in k order and a sumsq of
// the stored column), reduced over chunks in chunk order. The kernels must
// reproduce it bit for bit on every tier.
constexpr std::size_t kPanelChunk = 512;

void expect_bitwise(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t e = 0; e < want.data().size(); ++e)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[e]),
              std::bit_cast<std::uint64_t>(want.data()[e]))
        << "element " << e;
}

Matrix gram_per_pair_dots(const Matrix& a, const std::vector<int>& cols) {
  const std::size_t kw = cols.size();
  const std::size_t m = a.rows();
  Matrix g(kw, kw);
  for (std::size_t r0 = 0; r0 < m; r0 += kPanelChunk) {
    const std::size_t len = std::min(kPanelChunk, m - r0);
    for (std::size_t i = 0; i < kw; ++i) {
      const auto ci = a.col(static_cast<std::size_t>(cols[i])).subspan(r0, len);
      for (std::size_t j = i; j < kw; ++j)
        g(i, j) += dot(ci, a.col(static_cast<std::size_t>(cols[j])).subspan(r0, len));
    }
  }
  for (std::size_t i = 0; i < kw; ++i)
    for (std::size_t j = i + 1; j < kw; ++j) g(j, i) = g(i, j);
  return g;
}

std::vector<double> apply_per_column_axpy(Matrix& a, const std::vector<int>& cols,
                                          const Matrix& w) {
  const std::size_t kw = cols.size();
  const std::size_t m = a.rows();
  std::vector<double> sums(kw, 0.0);
  for (std::size_t r0 = 0; r0 < m; r0 += kPanelChunk) {
    const std::size_t len = std::min(kPanelChunk, m - r0);
    std::vector<double> buf(len * kw);
    for (std::size_t k = 0; k < kw; ++k) {
      const auto src = a.col(static_cast<std::size_t>(cols[k])).subspan(r0, len);
      std::copy(src.begin(), src.end(), buf.begin() + static_cast<std::ptrdiff_t>(k * len));
    }
    for (std::size_t j = 0; j < kw; ++j) {
      const auto out = a.col(static_cast<std::size_t>(cols[j])).subspan(r0, len);
      std::fill(out.begin(), out.end(), 0.0);
      for (std::size_t k = 0; k < kw; ++k) {
        const double wkj = w(k, j);
        if (wkj == 0.0) continue;
        axpy(wkj, {buf.data() + k * len, len}, out);
      }
      sums[j] += sumsq(out);
    }
  }
  return sums;
}

// Every host tier, widths on and off the register tiles, heights with and
// without a partial last chunk.
template <class F>
void for_each_panel_case(F&& f) {
  for (int tier : {0, 1, 2}) {
    const ScopedIsaOverride isa(tier);
    for (std::size_t kw : {std::size_t{7}, std::size_t{32}, std::size_t{40}}) {
      for (std::size_t m : {std::size_t{515}, std::size_t{2048}, std::size_t{5000}}) {
        SCOPED_TRACE(std::string(isa_name(resolved_isa())) + " kw=" + std::to_string(kw) +
                     " m=" + std::to_string(m));
        f(kw, m);
      }
    }
  }
}

TEST(GramPanel, BitwiseMatchesPerPairDots) {
  for_each_panel_case([](std::size_t kw, std::size_t m) {
    Rng rng(53 + kw + m);
    const Matrix a = random_matrix(m, kw + 5, rng);
    std::vector<int> cols(kw);
    for (std::size_t i = 0; i < kw; ++i) cols[i] = static_cast<int>(kw + 4 - i);
    expect_bitwise(gram_panel(a, cols), gram_per_pair_dots(a, cols));
  });
}

TEST(ApplyPanelUpdate, BitwiseMatchesPerColumnAxpy) {
  for_each_panel_case([](std::size_t kw, std::size_t m) {
    Rng rng(54 + kw + m);
    Matrix a1 = random_matrix(m, kw + 3, rng);
    Matrix a2 = a1;
    std::vector<int> cols(kw);
    for (std::size_t i = 0; i < kw; ++i) cols[i] = static_cast<int>(kw + 2 - i);
    // Exact zeros and -0.0, as an accumulated rotation leaves them.
    Matrix w = random_matrix(kw, kw, rng);
    for (std::size_t e = 0; e < w.data().size(); ++e) {
      if (e % 4 == 1) w.data()[e] = 0.0;
      if (e % 7 == 3) w.data()[e] = -0.0;
    }
    const std::vector<double> s1 = apply_panel_update(a1, cols, w);
    const std::vector<double> s2 = apply_per_column_axpy(a2, cols, w);
    expect_bitwise(a1, a2);
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t j = 0; j < kw; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s1[j]), std::bit_cast<std::uint64_t>(s2[j])) << j;
  });
}

// --- Dispatch routing: shared-pool gate, fallback pool, stats ------------

// Big enough to clear the internal parallel-flops threshold with several
// C tiles, so dispatch genuinely decides between routes.
Matrix big_lhs() {
  Rng rng(61);
  return random_matrix(256, 128, rng);
}
Matrix big_rhs() {
  Rng rng(62);
  return random_matrix(128, 192, rng);
}

TEST(GemmDispatch, GateHeldRoutesToRegisteredFallbackPool) {
  const Matrix a = big_lhs();
  const Matrix b = big_rhs();
  const Matrix ref = gemm(a, b, nullptr);
  gemm_dispatch_stats_reset();
  detail::ScopedGemmGateHold hold;  // simulate a sibling shard owning the gate
  ThreadPool fb(2);
  Matrix c;
  {
    ScopedGemmFallbackPool reg(fb);
    c = gemm(a, b, gemm_pool());
  }
  const GemmDispatchStats s = gemm_dispatch_stats();
  EXPECT_GE(s.fallback, 1u);  // rescued, not degraded
  EXPECT_EQ(s.serial, 0u);
  EXPECT_EQ(c, ref);  // every route is bitwise-identical
}

TEST(GemmDispatch, GateHeldWithoutFallbackDegradesToSerial) {
  const Matrix a = big_lhs();
  const Matrix b = big_rhs();
  const Matrix ref = gemm(a, b, nullptr);
  gemm_dispatch_stats_reset();
  detail::ScopedGemmGateHold hold;
  const Matrix c = gemm(a, b, gemm_pool());
  const GemmDispatchStats s = gemm_dispatch_stats();
  EXPECT_GE(s.serial, 1u);
  EXPECT_EQ(s.fallback, 0u);
  EXPECT_EQ(c, ref);
}

TEST(GemmDispatch, CallerOwnedPoolBypassesGate) {
  const Matrix a = big_lhs();
  const Matrix b = big_rhs();
  const Matrix ref = gemm(a, b, nullptr);
  gemm_dispatch_stats_reset();
  detail::ScopedGemmGateHold hold;  // gate held: only a bypass can go pooled
  ThreadPool own(2);
  const Matrix c = gemm(a, b, &own);
  const GemmDispatchStats s = gemm_dispatch_stats();
  EXPECT_GE(s.pooled, 1u);
  EXPECT_EQ(s.serial, 0u);
  EXPECT_EQ(c, ref);
}

TEST(GemmDispatch, FallbackRegistrationNestsAndRestores) {
  const Matrix a = big_lhs();
  const Matrix b = big_rhs();
  detail::ScopedGemmGateHold hold;
  ThreadPool outer(2);
  ThreadPool inner(2);
  gemm_dispatch_stats_reset();
  {
    ScopedGemmFallbackPool reg_outer(outer);
    {
      ScopedGemmFallbackPool reg_inner(inner);
      (void)gemm(a, b, gemm_pool());
    }
    (void)gemm(a, b, gemm_pool());  // outer registration restored
  }
  EXPECT_EQ(gemm_dispatch_stats().fallback, 2u);
  (void)gemm(a, b, gemm_pool());  // no registration left
  EXPECT_EQ(gemm_dispatch_stats().serial, 1u);
}

TEST(GemmDispatch, SmallWorkCountsInline) {
  Rng rng(63);
  const Matrix a = random_matrix(16, 16, rng);
  const Matrix b = random_matrix(16, 16, rng);
  gemm_dispatch_stats_reset();
  (void)gemm(a, b, gemm_pool());
  EXPECT_GE(gemm_dispatch_stats().inline_small, 1u);
  EXPECT_EQ(gemm_dispatch_stats().pooled, 0u);
}

TEST(Gemm, OrthonormalityDefectAgreesWithDefinition) {
  Rng rng(53);
  const Matrix q = random_orthonormal(120, 30, rng);
  EXPECT_LT(orthonormality_defect(q), 1e-13);
  const Matrix a = random_matrix(40, 10, rng);
  const Matrix g = a.transposed() * a;
  const double direct = (g - Matrix::identity(10)).frobenius_norm();
  EXPECT_NEAR(orthonormality_defect(a), direct, 1e-10 * (1.0 + direct));
}

}  // namespace
}  // namespace treesvd
