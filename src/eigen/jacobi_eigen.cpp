#include "eigen/jacobi_eigen.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/rotation.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

/// One step's worth of disjoint rotations, staged so R^T A R is applied as a
/// row phase followed by a column phase.
struct StagedRotation {
  int i;      ///< smaller index
  int j;      ///< larger index
  double c;
  double s;
  bool swap;  ///< diagonal exchange fused in (sorting)
};

/// Classical symmetric Jacobi rotation annihilating a_ij:
///   theta = (a_jj - a_ii) / (2 a_ij), t the smaller root of
///   t^2 + 2 theta t - 1 = 0, c = 1/sqrt(1+t^2), s = c t.
/// Works for indefinite and zero diagonals (unlike the one-sided Gram
/// rotation, whose inputs are nonnegative norms). `scale` is a fixed
/// magnitude reference for the threshold test.
bool plan_rotation(const Matrix& a, int i, int j, double scale, const EigenOptions& opt,
                   StagedRotation* out) {
  const double aii = a(static_cast<std::size_t>(i), static_cast<std::size_t>(i));
  const double ajj = a(static_cast<std::size_t>(j), static_cast<std::size_t>(j));
  const double aij = a(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  const bool negligible = std::fabs(aij) <= opt.tol * scale;

  double c = 1.0;
  double s = 0.0;
  double new_ii = aii;
  double new_jj = ajj;
  if (!negligible) {
    const double theta = (ajj - aii) / (2.0 * aij);
    double t;
    if (std::fabs(theta) > 1e150) {
      t = 0.5 / theta;  // asymptotic small root; avoids theta^2 overflow
    } else {
      t = (theta >= 0.0 ? 1.0 : -1.0) / (std::fabs(theta) + std::sqrt(1.0 + theta * theta));
    }
    c = 1.0 / std::sqrt(1.0 + t * t);
    s = c * t;
    new_ii = aii - t * aij;
    new_jj = ajj + t * aij;
  }
  // After annihilation the diagonal entries are the 2x2 eigenvalues; the
  // sort rule keeps the larger at the smaller index.
  const bool want_swap = opt.sort_descending && new_ii < new_jj;
  if (negligible && !want_swap) return false;
  out->i = i;
  out->j = j;
  out->c = c;
  out->s = s;
  out->swap = want_swap;
  return true;
}

/// Applies the staged rotations of one step: A <- R^T A R (with optional
/// index exchange fused into R), and V <- V R.
void apply_step(Matrix& a, Matrix* v, const std::vector<StagedRotation>& rots) {
  const std::size_t n = a.rows();
  // Column phase: columns i, j of A (and of V).
  for (const StagedRotation& r : rots) {
    const auto ci = a.col(static_cast<std::size_t>(r.i));
    const auto cj = a.col(static_cast<std::size_t>(r.j));
    if (r.swap) {
      apply_rotation_swapped(ci, cj, r.c, r.s);
    } else {
      apply_rotation(ci, cj, r.c, r.s);
    }
    if (v != nullptr) {
      const auto vi = v->col(static_cast<std::size_t>(r.i));
      const auto vj = v->col(static_cast<std::size_t>(r.j));
      if (r.swap) {
        apply_rotation_swapped(vi, vj, r.c, r.s);
      } else {
        apply_rotation(vi, vj, r.c, r.s);
      }
    }
  }
  // Row phase: rows i, j of A. (Rows of a column-major matrix are strided;
  // update in place element by element.)
  for (const StagedRotation& r : rots) {
    const auto i = static_cast<std::size_t>(r.i);
    const auto j = static_cast<std::size_t>(r.j);
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a(i, k);
      const double ajk = a(j, k);
      if (r.swap) {
        a(i, k) = r.s * aik + r.c * ajk;
        a(j, k) = r.c * aik - r.s * ajk;
      } else {
        a(i, k) = r.c * aik - r.s * ajk;
        a(j, k) = r.s * aik + r.c * ajk;
      }
    }
  }
  // Symmetrise the rotated pairs exactly (kills roundoff drift in a_ij/a_ji).
  for (const StagedRotation& r : rots) {
    const auto i = static_cast<std::size_t>(r.i);
    const auto j = static_cast<std::size_t>(r.j);
    const double mean = 0.5 * (a(i, j) + a(j, i));
    a(i, j) = mean;
    a(j, i) = mean;
  }
}

}  // namespace

double off_norm(const Matrix& a) {
  TREESVD_REQUIRE(a.rows() == a.cols(), "off_norm needs a square matrix");
  double off = 0.0;
  double total = 0.0;
  for (std::size_t jj = 0; jj < a.cols(); ++jj) {
    for (std::size_t ii = 0; ii < a.rows(); ++ii) {
      const double x = a(ii, jj);
      total += x * x;
      if (ii != jj) off += x * x;
    }
  }
  return total == 0.0 ? 0.0 : std::sqrt(off / total);
}

EigenResult jacobi_symmetric_eigen(const Matrix& a, const Ordering& ordering,
                                   const EigenOptions& options) {
  TREESVD_REQUIRE(a.rows() == a.cols() && a.rows() >= 2,
                  "jacobi_symmetric_eigen needs a square matrix, n >= 2");
  const std::size_t n0 = a.rows();
  {
    const double scale = a.max_abs();
    for (std::size_t j = 0; j < n0; ++j)
      for (std::size_t i = 0; i < j; ++i)
        TREESVD_REQUIRE(std::fabs(a(i, j) - a(j, i)) <= 1e-12 * std::max(scale, 1.0),
                        "matrix is not symmetric");
  }

  // Pad with identity rows/columns up to a supported width (the extra
  // diagonal entries are exact eigenpairs and never rotate against anything
  // meaningfully... they do rotate with real columns when a_ij = 0, which the
  // threshold skips, so they are inert).
  const int padded = padded_width(ordering, static_cast<int>(n0));
  Matrix work(static_cast<std::size_t>(padded), static_cast<std::size_t>(padded));
  for (std::size_t j = 0; j < n0; ++j)
    for (std::size_t i = 0; i < n0; ++i) work(i, j) = a(i, j);
  // Padding diagonal entries sit strictly below any eigenvalue of A (Gershgorin
  // bound), so the sort rule pushes the inert pads to the tail indices and the
  // leading n0 diagonal entries are exactly A's spectrum.
  const double pad_value = -(a.max_abs() * static_cast<double>(n0) + 1.0);
  for (std::size_t d = n0; d < static_cast<std::size_t>(padded); ++d) work(d, d) = pad_value;

  Matrix v = options.compute_vectors
                 ? Matrix::identity(static_cast<std::size_t>(padded))
                 : Matrix();
  Matrix* vp = options.compute_vectors ? &v : nullptr;

  // Fixed threshold reference: the magnitude of the input (invariant under
  // the orthogonal similarity up to a factor of n).
  const double scale = std::max(work.max_abs(), 1e-300);

  SweepChain chain(ordering, padded);
  EigenResult r;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const Sweep s = chain.next();
    std::size_t sweep_rot = 0;
    std::size_t sweep_swap = 0;
    for (int t = 0; t < s.steps(); ++t) {
      std::vector<StagedRotation> staged;
      s.step_pairs(t).for_each([&](int i, int j) {
        StagedRotation sr{};
        if (plan_rotation(work, i, j, scale, options, &sr)) {
          staged.push_back(sr);
          sweep_rot += (sr.c != 1.0 || sr.s != 0.0) ? 1 : 0;
          sweep_swap += sr.swap ? 1 : 0;
        }
      });
      apply_step(work, vp, staged);
    }
    r.rotations += sweep_rot;
    r.swaps += sweep_swap;
    r.sweeps = sweep + 1;
    if (options.track_off) r.off_history.push_back(off_norm(work));
    if (sweep_rot == 0 && sweep_swap == 0) {
      r.converged = true;
      break;
    }
  }

  r.eigenvalues.resize(n0);
  for (std::size_t i = 0; i < n0; ++i) r.eigenvalues[i] = work(i, i);
  if (options.compute_vectors) {
    r.eigenvectors = Matrix(n0, n0);
    for (std::size_t j = 0; j < n0; ++j)
      for (std::size_t i = 0; i < n0; ++i) r.eigenvectors(i, j) = v(i, j);
  }
  return r;
}

}  // namespace treesvd
