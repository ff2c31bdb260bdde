// Relative accuracy of the QR-preconditioned one-sided engines.
//
// Demmel–Veselić: for A = B·D with D diagonal and B of unit columns, a
// one-sided Jacobi SVD computes every singular value to relative accuracy
// O(ε·κ(B)), however small σ_i is — which the squared path (eigenvalues of
// AᵀA) cannot, since it loses σ_i below √ε·σ_max. Drmač–Veselić keep the
// property through a QR step by pivoting the columns by norm first; the
// staging step does exactly that (svd/driver_detail.hpp). The fence:
// tall A = B·D with κ(B) <= 10 and D graded over 1e-12..1 in shuffled
// column order, solved by the serial, block (kGram), batched and SPMD
// engines with preconditioning on, against an in-test long-double one-sided
// Jacobi reference:
//
//   max_i |σ_i - σ_ref,i| / σ_ref,i  <=  c·n·ε·κ(B),  c = 1.
//
// c is stated, not fitted per engine: the measured worst case over these
// engines and seeds is about 0.07·n·ε·κ(B). Reading σ off the eigenvalues
// of AᵀA instead misses the smallest σ_i by orders of magnitude.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>
#include <vector>

#include "svd/batch.hpp"
#include "treesvd.hpp"

namespace treesvd {
namespace {

/// Cyclic one-sided Jacobi in long double, singular values descending.
/// Slow and simple, but 2^11 times more precise than the engines under test.
std::vector<long double> reference_sigma(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<long double> h(a.data().begin(), a.data().end());
  const auto col = [&](std::size_t j) { return h.data() + j * m; };
  for (int sweep = 0; sweep < 100; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        long double app = 0, aqq = 0, apq = 0;
        for (std::size_t i = 0; i < m; ++i) {
          app += col(p)[i] * col(p)[i];
          aqq += col(q)[i] * col(q)[i];
          apq += col(p)[i] * col(q)[i];
        }
        if (std::fabs(apq) <= 1e-18L * std::sqrt(app * aqq)) continue;
        rotated = true;
        const long double zeta = (aqq - app) / (2 * apq);
        const long double t =
            (zeta >= 0 ? 1.0L : -1.0L) / (std::fabs(zeta) + std::sqrt(1 + zeta * zeta));
        const long double c = 1 / std::sqrt(1 + t * t);
        const long double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const long double x = col(p)[i];
          const long double y = col(q)[i];
          col(p)[i] = c * x - s * y;
          col(q)[i] = s * x + c * y;
        }
      }
    }
    if (!rotated) break;
  }
  std::vector<long double> sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    long double ss = 0;
    for (std::size_t i = 0; i < m; ++i) ss += col(j)[i] * col(j)[i];
    sigma[j] = std::sqrt(ss);
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<>());
  return sigma;
}

struct GradedCase {
  Matrix a;
  double kappa_b = 0.0;
};

/// A = B·D: B with unit columns and κ(B) <= 10, D graded geometrically over
/// 1e-12..1, its entries assigned to the columns in a shuffled order.
GradedCase graded_case(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> spec(n);
  for (std::size_t k = 0; k < n; ++k)
    spec[k] = std::pow(4.0, -static_cast<double>(k) / static_cast<double>(n - 1));
  Matrix b = with_spectrum(m, n, spec, rng);
  for (std::size_t j = 0; j < n; ++j) scal(1.0 / nrm2(b.col(j)), b.col(j));
  const std::vector<long double> sb = reference_sigma(b);
  GradedCase out;
  out.kappa_b = static_cast<double>(sb.front() / sb.back());
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t k = n - 1; k > 0; --k) std::swap(order[k], order[rng.below(k + 1)]);
  out.a = b;
  for (std::size_t j = 0; j < n; ++j)
    scal(std::pow(10.0, -12.0 * static_cast<double>(order[j]) / static_cast<double>(n - 1)),
         out.a.col(j));
  return out;
}

double max_relative_error(const std::vector<double>& sigma, const std::vector<long double>& ref) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    worst = std::max(worst, static_cast<double>(std::fabs(sigma[i] - ref[i]) / ref[i]));
  return worst;
}

using Engine = SvdResult (*)(const Matrix&);

struct NamedEngine {
  const char* name;
  Engine run;
};

const NamedEngine kEngines[] = {
    {"serial", [](const Matrix& a) { return one_sided_jacobi(a, *make_ordering("fat-tree")); }},
    {"block-gram",
     [](const Matrix& a) {
       BlockJacobiOptions opt;
       opt.block_width = 4;
       opt.inner_mode = InnerMode::kGram;
       return block_one_sided_jacobi(a, *make_ordering("fat-tree"), opt);
     }},
    {"batched",
     [](const Matrix& a) {
       BatchedSvd engine(a.rows(), a.cols(), *make_ordering("fat-tree"));
       return engine.solve(std::span<const Matrix>(&a, 1)).front();
     }},
    {"spmd", [](const Matrix& a) { return spmd_jacobi(a, *make_ordering("fat-tree")); }},
};

constexpr double kC = 1.0;

TEST(RelativeAccuracy, GradedTallInputsMeetTheDemmelVeselicBound) {
  constexpr std::size_t kM = 64;
  constexpr std::size_t kN = 16;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const GradedCase c = graded_case(kM, kN, seed);
    ASSERT_LE(c.kappa_b, 10.0);
    const std::vector<long double> ref = reference_sigma(c.a);
    ASSERT_LT(static_cast<double>(ref.back() / ref.front()), 1e-11);  // graded as built
    const double bound = kC * static_cast<double>(kN) * DBL_EPSILON * c.kappa_b;
    for (const NamedEngine& e : kEngines) {
      SCOPED_TRACE(std::string(e.name) + " seed " + std::to_string(seed));
      const SvdResult r = e.run(c.a);
      ASSERT_TRUE(r.converged);
      EXPECT_TRUE(r.diagnostics.preconditioned);
      EXPECT_LE(max_relative_error(r.sigma, ref), bound);
    }
  }
}

TEST(RelativeAccuracy, PowerOfTwoScalingIsBitExactWhenPreconditioned) {
  // σ scales exactly and V is unchanged, bit for bit: the QR's reflectors
  // depend only on ratios, and an exact power of two commutes with every
  // rounding. 2^600 takes the equilibration path, 2^±37 the plain one.
  const GradedCase c = graded_case(64, 16, 4);
  for (const NamedEngine& e : kEngines) {
    SCOPED_TRACE(e.name);
    const SvdResult base = e.run(c.a);
    for (const int k : {-37, 37, 600}) {
      Matrix scaled = c.a;
      for (double& x : scaled.data()) x = std::ldexp(x, k);
      const SvdResult r = e.run(scaled);
      ASSERT_EQ(r.sigma.size(), base.sigma.size());
      for (std::size_t i = 0; i < r.sigma.size(); ++i)
        EXPECT_EQ(r.sigma[i], std::ldexp(base.sigma[i], k)) << "k=" << k << " i=" << i;
      EXPECT_EQ(r.v, base.v) << "k=" << k;
      EXPECT_EQ(r.u, base.u) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace treesvd
