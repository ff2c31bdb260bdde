#include "linalg/qr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "linalg/blas1.hpp"
#include "linalg/gemm.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

/// Columns per compact-WY panel.
constexpr std::size_t kPanel = 32;

/// A leaf holds at least max(2n, kMinLeafRows) rows, so a merge (2/3·n³)
/// stays small next to the leaf it saves (2·L·n²).
constexpr std::size_t kMinLeafRows = 256;

template <typename B>
B sub(B a, std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) noexcept {
  return {a.p + c0 * a.ld + r0, r1 - r0, c1 - c0, a.ld};
}

template <typename B>
auto col(B a, std::size_t j, std::size_t r0, std::size_t r1) noexcept {
  return std::span{a.p + j * a.ld + r0, r1 - r0};
}

/// ||x||₂: the fast unscaled sum of squares when it is safely inside the
/// normal range, the scaled dnrm2 otherwise (squares of tiny entries would
/// underflow, of huge ones overflow).
double column_norm(std::span<const double> x) noexcept {
  const double s = sumsq(x);
  if (std::isfinite(s) && s >= 0x1p-900) return std::sqrt(s);
  return nrm2(x);
}

/// Householder reflector H = I - tau·v·vᵀ with v = [1; tail] mapping
/// [x0; tail] to [alpha; 0], |alpha| = norm. Overwrites x0 with alpha and
/// tail with v's tail; returns tau (0 for a zero column: H = I).
double make_reflector(double& x0, std::span<double> tail, double norm) noexcept {
  if (norm == 0.0) return 0.0;
  const double alpha = x0 >= 0.0 ? -norm : norm;
  const double v0 = x0 - alpha;
  for (double& t : tail) t /= v0;
  x0 = alpha;
  return -v0 / alpha;
}

/// T of the compact-WY form H_0·…·H_{w-1} = I - V·T·Vᵀ (LAPACK dlarft,
/// forward columnwise), from the reflector scalars and S = VᵀV's strictly
/// upper part. `t` is kPanel x kPanel column-major.
void build_t(ConstBlock v, const double* tau, std::size_t w, double* t) {
  Matrix s(w, w);
  gemm_acc(block(s), v, true, v, false);
  for (std::size_t i = 0; i < w; ++i) {
    t[i * kPanel + i] = tau[i];
    for (std::size_t p = 0; p < i; ++p) {
      double acc = 0.0;
      for (std::size_t q = p; q < i; ++q) acc += t[q * kPanel + p] * s(q, i);
      t[i * kPanel + p] = -tau[i] * acc;
    }
  }
}

/// W <- T·W, or Tᵀ·W when `transpose`, in place (T upper triangular).
void tri_mul(const double* t, std::size_t w, Matrix& x, bool transpose) noexcept {
  for (std::size_t c = 0; c < x.cols(); ++c) {
    const auto xc = x.col(c);
    if (transpose) {
      for (std::size_t i = w; i-- > 0;) {
        double acc = 0.0;
        for (std::size_t p = 0; p <= i; ++p) acc += t[i * kPanel + p] * xc[p];
        xc[i] = acc;
      }
    } else {
      for (std::size_t i = 0; i < w; ++i) {
        double acc = 0.0;
        for (std::size_t p = i; p < w; ++p) acc += t[p * kPanel + i] * xc[p];
        xc[i] = acc;
      }
    }
  }
}

/// C <- (I - V·T·Vᵀ)·C, or its transpose, for a dense V (a leaf panel).
void apply_block(ConstBlock v, const double* t, Block c, bool transpose, ThreadPool* pool) {
  Matrix w(v.cols, c.cols);
  gemm_acc(block(w), v, true, c, false, pool);
  tri_mul(t, v.cols, w, transpose);
  gemm_acc(c, v, false, block(w), true, pool);
}

/// The same for a merge panel, whose V is [I; Y]: the identity rows act on
/// `top`, Y on `bot`.
void apply_block_merge(ConstBlock y, const double* t, Block top, Block bot, bool transpose,
                       ThreadPool* pool) {
  Matrix w(y.cols, top.cols);
  for (std::size_t c = 0; c < top.cols; ++c)
    std::copy_n(top.p + c * top.ld, y.cols, w.col(c).begin());
  gemm_acc(block(w), y, true, bot, false, pool);
  tri_mul(t, y.cols, w, transpose);
  for (std::size_t c = 0; c < top.cols; ++c)
    for (std::size_t i = 0; i < y.cols; ++i) top.p[c * top.ld + i] -= w(i, c);
  gemm_acc(bot, y, false, block(w), true, pool);
}

/// Leaf panel k0 as a dense V: unit diagonal, zeros above, tails below.
Matrix leaf_v(ConstBlock a, std::size_t k0, std::size_t w) {
  Matrix v(a.rows - k0, w);
  for (std::size_t p = 0; p < w; ++p) {
    v(p, p) = 1.0;
    const auto tail = col(a, k0 + p, k0 + p + 1, a.rows);
    std::copy(tail.begin(), tail.end(), v.col(p).begin() + static_cast<std::ptrdiff_t>(p + 1));
  }
  return v;
}

/// Merge panel k0's Y: column p holds y_{k0+p}, rows 0..k0+p of the bottom
/// triangle, zeros below.
Matrix merge_y(ConstBlock bot, std::size_t k0, std::size_t w) {
  Matrix y(k0 + w, w);
  for (std::size_t p = 0; p < w; ++p) {
    const auto tail = col(bot, k0 + p, 0, k0 + p + 1);
    std::copy(tail.begin(), tail.end(), y.col(p).begin());
  }
  return y;
}

/// Flops of one node's panel sweep over `rows` rows (a leaf's height, or
/// n for a merge, whose panel k0 spans k0 + w rows of its triangle), with
/// `cols(k0, w)` columns updated per panel: the dispatch estimate for
/// gemm_parallel_for.
template <typename Cols>
std::size_t node_flops(std::size_t rows, std::size_t n, bool merge, Cols cols) {
  std::size_t f = 0;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t w = std::min(kPanel, n - k0);
    f += 4 * (merge ? k0 + w : rows - k0) * w * cols(k0, w);
  }
  return f;
}

double* panel_t(std::vector<double>& t, std::size_t k0) {
  return t.data() + (k0 / kPanel) * kPanel * kPanel;
}
const double* panel_t(const std::vector<double>& t, std::size_t k0) {
  return t.data() + (k0 / kPanel) * kPanel * kPanel;
}

/// Blocked QR of one leaf's row block, in place.
void factor_leaf(Block a, std::vector<double>& t, ThreadPool* pool) {
  const std::size_t rows = a.rows;
  const std::size_t n = a.cols;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t w = std::min(kPanel, n - k0);
    std::array<double, kPanel> tau{};
    for (std::size_t p = 0; p < w; ++p) {
      const std::size_t j = k0 + p;
      const auto x = col(a, j, j, rows);
      const auto v = x.subspan(1);
      tau[p] = make_reflector(x[0], v, std::hypot(x[0], column_norm(v)));
      if (tau[p] == 0.0) continue;
      for (std::size_t c = j + 1; c < k0 + w; ++c) {
        const auto y = col(a, c, j, rows);
        const double s = tau[p] * (y[0] + dot(v, y.subspan(1)));
        y[0] -= s;
        axpy(-s, v, y.subspan(1));
      }
    }
    const Matrix v = leaf_v(a, k0, w);
    build_t(block(v), tau.data(), w, panel_t(t, k0));
    if (k0 + w < n) apply_block(block(v), panel_t(t, k0), sub(a, k0, rows, k0 + w, n), true, pool);
  }
}

/// Structured QR of [top; bot], both n x n upper triangular, in place: the
/// result R overwrites top's upper triangle, the tails y_j overwrite bot's.
/// Neither triangle's strictly lower part is read or written.
void factor_merge(Block top, Block bot, std::vector<double>& t, ThreadPool* pool) {
  const std::size_t n = top.cols;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t w = std::min(kPanel, n - k0);
    std::array<double, kPanel> tau{};
    for (std::size_t p = 0; p < w; ++p) {
      const std::size_t j = k0 + p;
      double& x0 = top.p[j * top.ld + j];
      const auto y = col(bot, j, 0, j + 1);
      tau[p] = make_reflector(x0, y, std::hypot(x0, column_norm(y)));
      if (tau[p] == 0.0) continue;
      for (std::size_t c = j + 1; c < k0 + w; ++c) {
        double& top_c = top.p[c * top.ld + j];
        const auto bot_c = col(bot, c, 0, j + 1);
        const double s = tau[p] * (top_c + dot(y, bot_c));
        top_c -= s;
        axpy(-s, y, bot_c);
      }
    }
    const Matrix y = merge_y(bot, k0, w);
    build_t(block(y), tau.data(), w, panel_t(t, k0));
    if (k0 + w < n)
      apply_block_merge(block(y), panel_t(t, k0), sub(top, k0, k0 + w, k0 + w, n),
                        sub(bot, 0, k0 + w, k0 + w, n), true, pool);
  }
}

/// Panel starts in application order: forward for Qᵀ, backward for Q.
std::vector<std::size_t> panel_order(std::size_t n, bool transpose) {
  std::vector<std::size_t> k0s;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) k0s.push_back(k0);
  if (!transpose) std::reverse(k0s.begin(), k0s.end());
  return k0s;
}

void apply_leaf(ConstBlock f, const std::vector<double>& t, Block b, bool transpose,
                ThreadPool* pool) {
  const std::size_t n = f.cols;
  for (const std::size_t k0 : panel_order(n, transpose)) {
    const std::size_t w = std::min(kPanel, n - k0);
    const Matrix v = leaf_v(f, k0, w);
    apply_block(block(v), panel_t(t, k0), sub(b, k0, b.rows, 0, b.cols), transpose, pool);
  }
}

void apply_merge(ConstBlock bot_f, const std::vector<double>& t, Block top, Block bot,
                 bool transpose, ThreadPool* pool) {
  const std::size_t n = bot_f.cols;
  for (const std::size_t k0 : panel_order(n, transpose)) {
    const std::size_t w = std::min(kPanel, n - k0);
    const Matrix y = merge_y(bot_f, k0, w);
    apply_block_merge(block(y), panel_t(t, k0), sub(top, k0, k0 + w, 0, top.cols),
                      sub(bot, 0, k0 + w, 0, bot.cols), transpose, pool);
  }
}

}  // namespace

HouseholderQr::HouseholderQr(Matrix a) : qr_(std::move(a)) {
  TREESVD_REQUIRE(qr_.rows() >= qr_.cols() && qr_.cols() >= 1, "QR expects m >= n >= 1");
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();

  // The tree's shape: p leaves of near-equal height, paired left to right
  // level by level (an odd node passes up unpaired).
  const std::size_t p = std::max<std::size_t>(1, m / std::max(2 * n, kMinLeafRows));
  for (std::size_t i = 0; i <= p; ++i) leaf_row_.push_back(i * m / p);
  std::vector<std::size_t> active(p);
  std::iota(active.begin(), active.end(), std::size_t{0});
  while (active.size() > 1) {
    std::vector<std::size_t> next;
    for (std::size_t k = 0; k < active.size(); k += 2) {
      next.push_back(active[k]);
      if (k + 1 < active.size()) merges_.emplace_back(active[k], active[k + 1]);
    }
    level_end_.push_back(merges_.size());
    active = std::move(next);
  }
  const std::size_t panels = (n + kPanel - 1) / kPanel;
  t_.assign(p + merges_.size(), std::vector<double>(panels * kPanel * kPanel, 0.0));

  ThreadPool* pool = gemm_pool();
  const Block f = block(qr_);
  const auto trailing = [n](std::size_t k0, std::size_t) { return n - k0; };
  gemm_parallel_for(p, p * node_flops(m / p, n, false, trailing), pool, 1, [&](std::size_t i) {
    factor_leaf(sub(f, leaf_row_[i], leaf_row_[i + 1], 0, n), t_[i], p == 1 ? pool : nullptr);
  });
  std::size_t begin = 0;
  for (const std::size_t end : level_end_) {
    const std::size_t count = end - begin;
    gemm_parallel_for(count, count * node_flops(n, n, true, trailing), pool, 1, [&](std::size_t k) {
      const auto [top, bot] = merges_[begin + k];
      factor_merge(sub(f, leaf_row_[top], leaf_row_[top] + n, 0, n),
                   sub(f, leaf_row_[bot], leaf_row_[bot] + n, 0, n), t_[p + begin + k],
                   count == 1 ? pool : nullptr);
    });
    begin = end;
  }
}

Matrix HouseholderQr::r() const {
  const std::size_t n = qr_.cols();
  Matrix out(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) out(i, j) = qr_(i, j);
  return out;
}

void HouseholderQr::apply(Matrix& b, bool transpose) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  const std::size_t k = b.cols();
  if (k == 0) return;
  const std::size_t p = leaves();
  ThreadPool* pool = gemm_pool();
  const ConstBlock f = block(qr_);
  const Block bb = block(b);
  const auto all = [k](std::size_t, std::size_t) { return k; };
  const auto leaves_step = [&] {
    gemm_parallel_for(p, p * node_flops(m / p, n, false, all), pool, 1, [&](std::size_t i) {
      apply_leaf(sub(f, leaf_row_[i], leaf_row_[i + 1], 0, n), t_[i],
                 sub(bb, leaf_row_[i], leaf_row_[i + 1], 0, k), transpose,
                 p == 1 ? pool : nullptr);
    });
  };
  const auto level_step = [&](std::size_t begin, std::size_t end) {
    const std::size_t count = end - begin;
    gemm_parallel_for(count, count * node_flops(n, n, true, all), pool, 1, [&](std::size_t j) {
      const auto [top, bot] = merges_[begin + j];
      apply_merge(sub(f, leaf_row_[bot], leaf_row_[bot] + n, 0, n), t_[p + begin + j],
                  sub(bb, leaf_row_[top], leaf_row_[top] + n, 0, k),
                  sub(bb, leaf_row_[bot], leaf_row_[bot] + n, 0, k), transpose,
                  count == 1 ? pool : nullptr);
    });
  };
  if (transpose) {
    leaves_step();
    for (std::size_t l = 0; l < level_end_.size(); ++l)
      level_step(l == 0 ? 0 : level_end_[l - 1], level_end_[l]);
  } else {
    for (std::size_t l = level_end_.size(); l-- > 0;)
      level_step(l == 0 ? 0 : level_end_[l - 1], level_end_[l]);
    leaves_step();
  }
}

void HouseholderQr::apply_q(Matrix& b) const {
  TREESVD_REQUIRE(b.rows() == qr_.rows(), "apply_q row mismatch");
  apply(b, false);
}

void HouseholderQr::apply_qt(Matrix& b) const {
  TREESVD_REQUIRE(b.rows() == qr_.rows(), "apply_qt row mismatch");
  apply(b, true);
}

Matrix HouseholderQr::thin_q() const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  Matrix q(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  apply_q(q);
  return q;
}

}  // namespace treesvd
