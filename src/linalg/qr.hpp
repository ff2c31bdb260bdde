#pragma once
// Householder QR on a reduction tree (TSQR), used to precondition tall SVD
// problems: A = Q R with Q implicit, the one-sided Jacobi engines solve the
// small n x n factor Rᵀ, and U = Q·[V′; 0] (svd/driver_detail.hpp).
//
// The paper's tree, applied to rows. A tall input is cut into fixed row
// blocks (leaves); each leaf is factored on its own, and the leaves' R
// factors merge pairwise up a binary tree until one R remains:
//
//   A = diag(Q_0, ..., Q_{p-1}) · [R_0; R_1; ...]      (leaves, concurrent)
//   [R_i; R_j] = Q_ij [R_ij; 0]                         (merges, level by level)
//
// Every node (leaf or merge) is a blocked compact-WY Householder QR: panels
// of 32 columns are factored column by column, and the trailing columns and
// every later application of Q take the panel's reflectors as one
// I - V·T·Vᵀ through gemm_acc. A merge exploits that both inputs are upper
// triangular: its reflectors are [e_j; y_j] with y_j nonzero in rows 0..j
// only, so a merge costs (2/3)n³ flops instead of a dense 2n x n QR's
// (10/3)n³.
//
// Determinism. The leaf row blocks and the merge pairing are a function of
// (m, n) alone — never of the thread count, the dispatch route or the ISA
// tier — and every product runs through gemm_acc's fixed tile order, so the
// factor is bitwise identical on every route and tier. Leaves and each
// level's merges run concurrently through gemm_parallel_for on gemm_pool().

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace treesvd {

/// Compact QR factorisation of an m x n matrix, m >= n >= 1.
class HouseholderQr {
 public:
  explicit HouseholderQr(Matrix a);

  std::size_t rows() const noexcept { return qr_.rows(); }
  std::size_t cols() const noexcept { return qr_.cols(); }

  /// Number of leaf row blocks of the reduction tree (1 when m < 2·max(2n, 256)).
  std::size_t leaves() const noexcept { return leaf_row_.size() - 1; }

  /// The upper-triangular factor R (n x n).
  Matrix r() const;

  /// Applies Q to an m x k matrix: B <- Q * B (expands k-column coordinates
  /// in the Q basis when B's top n rows carry the coefficients and the rest
  /// are zero). B must have rows() rows.
  void apply_q(Matrix& b) const;

  /// Applies Q^T to an m x k matrix: B <- Q^T * B.
  void apply_qt(Matrix& b) const;

  /// Explicit thin Q (m x n), mainly for tests.
  Matrix thin_q() const;

 private:
  void apply(Matrix& b, bool transpose) const;

  /// Leaf i owns rows [leaf_row_[i], leaf_row_[i+1]): its reflectors sit
  /// below its diagonal, its top n x n upper triangle holds R_i — for leaf 0
  /// the final R, for every other leaf the tails y_j of the merge that
  /// consumed it.
  Matrix qr_;
  std::vector<std::size_t> leaf_row_;
  /// Merges in factor order, as (top leaf, bottom leaf); merges_ between
  /// level_end_[l-1] and level_end_[l] form level l and touch disjoint rows.
  std::vector<std::pair<std::size_t, std::size_t>> merges_;
  std::vector<std::size_t> level_end_;
  /// Per node (leaves first, then merges): the panels' upper-triangular T
  /// factors, kPanel x kPanel each, with the reflector scalars on the
  /// diagonal.
  std::vector<std::vector<double>> t_;
};

}  // namespace treesvd
