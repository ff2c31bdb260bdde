// Tests for Jacobi plane rotations, including the fused rotate-and-swap of
// paper eq. (3).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/rotation.hpp"
#include "util/rng.hpp"

namespace treesvd {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(Rotation, OrthogonalisesRandomPairs) {
  Rng rng(21);
  for (int rep = 0; rep < 50; ++rep) {
    auto x = random_vec(40, rng);
    auto y = random_vec(40, rng);
    const GramPair g = gram_pair(x, y);
    const JacobiRotation r = compute_rotation(g, 0.0);
    if (r.identity) continue;  // already orthogonal (unlikely)
    apply_rotation(x, y, r.c, r.s);
    const double cosine = std::fabs(dot(x, y)) / (nrm2(x) * nrm2(y));
    EXPECT_LT(cosine, 1e-12);
  }
}

TEST(Rotation, PreservesFrobeniusNormOfThePair) {
  Rng rng(22);
  auto x = random_vec(16, rng);
  auto y = random_vec(16, rng);
  const double before = dot(x, x) + dot(y, y);
  const GramPair g = gram_pair(x, y);
  const JacobiRotation r = compute_rotation(g, 0.0);
  apply_rotation(x, y, r.c, r.s);
  EXPECT_NEAR(dot(x, x) + dot(y, y), before, before * 1e-12);
}

TEST(Rotation, IdentityWhenOrthogonal) {
  const std::vector<double> x = {1, 0};
  const std::vector<double> y = {0, 1};
  const JacobiRotation r = compute_rotation(gram_pair(x, y), 1e-13);
  EXPECT_TRUE(r.identity);
}

TEST(Rotation, IdentityForZeroColumn) {
  const std::vector<double> x = {0, 0};
  const std::vector<double> y = {1, 2};
  EXPECT_TRUE(compute_rotation(gram_pair(x, y), 1e-13).identity);
  EXPECT_TRUE(compute_rotation(gram_pair(y, x), 1e-13).identity);
}

TEST(Rotation, ThresholdSkipsNearOrthogonal) {
  // |apq| / sqrt(app*aqq) = 1e-8: rotated at tol 1e-13, skipped at tol 1e-6.
  const GramPair g{1.0, 1.0, 1e-8};
  EXPECT_FALSE(compute_rotation(g, 1e-13).identity);
  EXPECT_TRUE(compute_rotation(g, 1e-6).identity);
  EXPECT_FALSE(is_orthogonal(g, 1e-13));
  EXPECT_TRUE(is_orthogonal(g, 1e-6));
}

TEST(Rotation, SmallAngleRootChosen) {
  // The rotation angle must satisfy |t| <= 1 (|angle| <= pi/4), the choice
  // that gives quadratic convergence.
  Rng rng(23);
  for (int rep = 0; rep < 100; ++rep) {
    const GramPair g{rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0)};
    const JacobiRotation r = compute_rotation(g, 0.0);
    if (r.identity) continue;
    EXPECT_LE(std::fabs(r.s), std::fabs(r.c) + 1e-15);
  }
}

TEST(Rotation, RotatedNormsMatchRecomputation) {
  Rng rng(24);
  auto x = random_vec(32, rng);
  auto y = random_vec(32, rng);
  const GramPair g = gram_pair(x, y);
  const JacobiRotation r = compute_rotation(g, 0.0);
  const RotatedNorms rn = rotated_norms(g, r);
  apply_rotation(x, y, r.c, r.s);
  EXPECT_NEAR(rn.app, dot(x, x), 1e-9);
  EXPECT_NEAR(rn.aqq, dot(y, y), 1e-9);
}

TEST(Rotation, FusedSwapEqualsRotateThenSwap) {
  Rng rng(25);
  auto x1 = random_vec(20, rng);
  auto y1 = random_vec(20, rng);
  auto x2 = x1;
  auto y2 = y1;
  const JacobiRotation r = compute_rotation(gram_pair(x1, y1), 0.0);
  ASSERT_FALSE(r.identity);
  // Path 1: rotate then explicitly exchange.
  apply_rotation(x1, y1, r.c, r.s);
  swap(std::span<double>(x1), std::span<double>(y1));
  // Path 2: fused (paper eq. (3)).
  apply_rotation_swapped(x2, y2, r.c, r.s);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_DOUBLE_EQ(x1[i], x2[i]);
    EXPECT_DOUBLE_EQ(y1[i], y2[i]);
  }
}

TEST(Rotation, FusedSwapWithIdentityRotationIsPlainSwap) {
  std::vector<double> x = {1, 2};
  std::vector<double> y = {3, 4};
  apply_rotation_swapped(x, y, 1.0, 0.0);
  EXPECT_EQ(x, (std::vector<double>{3, 4}));
  EXPECT_EQ(y, (std::vector<double>{1, 2}));
}

TEST(Rotation, FusedRotateAndNormsMatchesTwoPass) {
  Rng rng(26);
  // Sizes cover the vector main loop and every tail length, plus one long
  // column pair. The rotated columns must be bitwise the two-pass ones.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{7}, std::size_t{32}, std::size_t{33},
                              std::size_t{512}}) {
    auto x = random_vec(n, rng);
    auto y = random_vec(n, rng);
    auto xr = x;
    auto yr = y;
    const double c = 0.8;
    const double s = 0.6;
    const RotatedNorms rn = rotate_and_norms(x, y, c, s);
    apply_rotation(xr, yr, c, s);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[i], xr[i]) << "n=" << n;
      EXPECT_EQ(y[i], yr[i]) << "n=" << n;
    }
    EXPECT_NEAR(rn.app, sumsq(xr), 1e-12 * (1.0 + rn.app)) << "n=" << n;
    EXPECT_NEAR(rn.aqq, sumsq(yr), 1e-12 * (1.0 + rn.aqq)) << "n=" << n;
  }
}

TEST(Rotation, FusedRotateAndNormsSwappedMatchesTwoPass) {
  Rng rng(27);
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{6}, std::size_t{31},
                              std::size_t{64}, std::size_t{512}}) {
    auto x = random_vec(n, rng);
    auto y = random_vec(n, rng);
    auto xr = x;
    auto yr = y;
    const double c = 0.28;
    const double s = 0.96;
    const RotatedNorms rn = rotate_and_norms_swapped(x, y, c, s);
    apply_rotation_swapped(xr, yr, c, s);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[i], xr[i]) << "n=" << n;
      EXPECT_EQ(y[i], yr[i]) << "n=" << n;
    }
    EXPECT_NEAR(rn.app, sumsq(xr), 1e-12 * (1.0 + rn.app)) << "n=" << n;
    EXPECT_NEAR(rn.aqq, sumsq(yr), 1e-12 * (1.0 + rn.aqq)) << "n=" << n;
  }
}

TEST(Rotation, FusedRotateAndNormsPreservesPairEnergy) {
  // A rotation is orthogonal: the returned norms must sum to the pair's
  // pre-rotation energy.
  Rng rng(28);
  auto x = random_vec(48, rng);
  auto y = random_vec(48, rng);
  const double before = sumsq(x) + sumsq(y);
  const RotatedNorms rn = rotate_and_norms(x, y, 0.6, 0.8);
  EXPECT_NEAR(rn.app + rn.aqq, before, before * 1e-12);
}

TEST(Rotation, RotatedNormsIdentityPassThrough) {
  const GramPair g{2.0, 3.0, 0.1};
  const RotatedNorms rn = rotated_norms(g, JacobiRotation{});
  EXPECT_EQ(rn.app, 2.0);
  EXPECT_EQ(rn.aqq, 3.0);
}

}  // namespace
}  // namespace treesvd
