// Householder QR tests: the blocked reduction-tree factor (linalg/qr.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/dispatch.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "linalg/qr.hpp"

namespace treesvd {
namespace {

/// Shapes on both sides of one leaf (a leaf holds max(2n, 256) rows): a
/// single leaf, a single leaf with a partial last panel, and multi-leaf
/// trees whose row count is not a multiple of the leaf height — including
/// an odd leaf count, whose last leaf passes a level up unmerged.
struct Shape {
  std::size_t m;
  std::size_t n;
  std::size_t leaves;
};
const Shape kShapes[] = {
    {20, 8, 1}, {300, 40, 1}, {1000, 8, 3}, {700, 96, 2}, {1300, 37, 5}, {2100, 64, 8},
};

/// Q·[R; 0], the reconstruction of A.
Matrix q_times_r(const HouseholderQr& qr) {
  const Matrix r = qr.r();
  Matrix out(qr.rows(), qr.cols());
  for (std::size_t j = 0; j < qr.cols(); ++j)
    for (std::size_t i = 0; i <= j; ++i) out(i, j) = r(i, j);
  qr.apply_q(out);
  return out;
}

TEST(Qr, ReconstructsA) {
  Rng rng(61);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n));
    const Matrix a = random_gaussian(s.m, s.n, rng);
    const HouseholderQr qr(a);
    EXPECT_EQ(qr.leaves(), s.leaves);
    EXPECT_LT((a - q_times_r(qr)).frobenius_norm() / a.frobenius_norm(), 1e-13);
  }
}

TEST(Qr, RIsUpperTriangular) {
  Rng rng(62);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n));
    const Matrix r = HouseholderQr(random_gaussian(s.m, s.n, rng)).r();
    for (std::size_t j = 0; j < s.n; ++j)
      for (std::size_t i = j + 1; i < s.n; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(Qr, ThinQHasOrthonormalColumns) {
  Rng rng(63);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n));
    const Matrix q = HouseholderQr(random_gaussian(s.m, s.n, rng)).thin_q();
    EXPECT_EQ(q.rows(), s.m);
    EXPECT_EQ(q.cols(), s.n);
    EXPECT_LT(orthonormality_defect(q), 1e-13);
  }
}

TEST(Qr, QtQIsIdentityAction) {
  Rng rng(64);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n));
    const HouseholderQr qr(random_gaussian(s.m, s.n, rng));
    Matrix b = random_gaussian(s.m, 3, rng);
    const Matrix b0 = b;
    qr.apply_q(b);
    qr.apply_qt(b);
    EXPECT_LT((b - b0).frobenius_norm() / b0.frobenius_norm(), 1e-13);
    // Qᵀ·A = [R; 0] in the tree's coordinates: R sits in the top n rows.
    const Matrix a = random_gaussian(s.m, s.n, rng);
    const HouseholderQr qa(a);
    Matrix qta = a;
    qa.apply_qt(qta);
    const Matrix r = qa.r();
    double err = 0.0;
    for (std::size_t j = 0; j < s.n; ++j)
      for (std::size_t i = 0; i < s.m; ++i)
        err = std::max(err, std::fabs(qta(i, j) - (i < s.n ? r(i, j) : 0.0)));
    EXPECT_LT(err, 1e-13 * a.frobenius_norm());
  }
}

TEST(Qr, SquareMatrix) {
  Rng rng(65);
  for (const std::size_t n : {7u, 33u, 70u}) {
    const Matrix a = random_gaussian(n, n, rng);
    const HouseholderQr qr(a);
    EXPECT_EQ(qr.leaves(), 1u);
    EXPECT_LT((a - q_times_r(qr)).frobenius_norm() / a.frobenius_norm(), 1e-13);
  }
}

TEST(Qr, HandlesZeroColumns) {
  Matrix a(6, 3);
  a(0, 0) = 2.0;  // second and third columns entirely zero
  const HouseholderQr qr(a);
  const Matrix r = qr.r();
  EXPECT_NEAR(std::fabs(r(0, 0)), 2.0, 1e-15);
  EXPECT_NEAR(r(1, 1), 0.0, 1e-15);

  // Zero columns in a multi-leaf tree: every leaf and every merge meets
  // them, and R keeps an exactly zero column.
  Rng rng(67);
  Matrix t = random_gaussian(1000, 10, rng);
  for (const std::size_t j : {3u, 7u}) std::fill(t.col(j).begin(), t.col(j).end(), 0.0);
  const HouseholderQr qt(t);
  EXPECT_EQ(qt.leaves(), 3u);
  const Matrix rt = qt.r();
  for (const std::size_t j : {3u, 7u})
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(rt(i, j), 0.0) << i << "," << j;
  EXPECT_LT((t - q_times_r(qt)).frobenius_norm() / t.frobenius_norm(), 1e-13);
  EXPECT_LT(orthonormality_defect(qt.thin_q()), 1e-13);
}

TEST(Qr, RejectsWideMatrices) {
  EXPECT_THROW(HouseholderQr(Matrix(3, 5)), std::invalid_argument);
}

TEST(Qr, RankDeficientStillFactorises) {
  Rng rng(66);
  for (const Shape& s : {Shape{18, 9, 1}, Shape{1000, 12, 3}}) {
    const Matrix a = rank_deficient(s.m, s.n, 3, rng);
    const HouseholderQr qr(a);
    EXPECT_LT((a - q_times_r(qr)).frobenius_norm() / a.frobenius_norm(), 1e-12);
  }
}

TEST(Qr, TreeFactorBitwiseAcrossRoutesAndTiers) {
  // 2048 x 128: eight leaves, whose concurrent factorisation clears the
  // dispatch cutoff. The tree is a function of (m, n) only, so the factor
  // and its application are bitwise identical whether the leaves run on the
  // shared pool or (gate held) one after another, and on every ISA tier.
  Rng rng(68);
  const Matrix a = random_gaussian(2048, 128, rng);
  const Matrix b = random_gaussian(2048, 16, rng);
  const auto run = [&] {
    const HouseholderQr qr(a);
    Matrix qb = b;
    qr.apply_q(qb);
    Matrix qtb = b;
    qr.apply_qt(qtb);
    return std::vector<Matrix>{qr.r(), qb, qtb};
  };
  gemm_dispatch_stats_reset();
  const std::vector<Matrix> pooled = run();
  EXPECT_GT(gemm_dispatch_stats().pooled, 0u);
  {
    const detail::ScopedGemmGateHold hold;
    gemm_dispatch_stats_reset();
    EXPECT_EQ(run(), pooled);
    EXPECT_EQ(gemm_dispatch_stats().pooled, 0u);
    EXPECT_GT(gemm_dispatch_stats().serial, 0u);
  }
  for (const IsaTier tier : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
    if (kernels_for(tier).tier != tier) continue;  // not on this host
    const ScopedIsaOverride force(static_cast<int>(tier));
    EXPECT_EQ(run(), pooled) << isa_name(tier);
  }
}

}  // namespace
}  // namespace treesvd
