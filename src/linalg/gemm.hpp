#pragma once
// BLAS-3 layer: cache-blocked, packed matrix-matrix kernels.
//
// The pair-kernel layer (DESIGN.md §7) made every BLAS-1 pass as fast as a
// single stream over the data allows; this layer removes passes altogether.
// A tiled GEMM with a register micro-kernel computes C = A·B touching each
// element of A and B once per cache block instead of once per scalar
// product, and the panel helpers at the bottom are the contract the
// block-Jacobi Gram path (DESIGN.md §8) is built on: form Pᵀ·P once, solve
// the small problem locally, apply the accumulated orthogonal update as one
// matrix-matrix product.
//
// Threading: every entry point takes an optional ThreadPool and runs its
// tiles through gemm_parallel_for, the one gated parallel-for of the
// library, which the block engine also uses to run a step's disjoint block
// encounters at once (svd/block_jacobi.hpp). Passing nullptr runs serially;
// `gemm_pool()` returns a lazily created process-wide pool that the Matrix
// operators and the block engine use. The shared pool is guarded internally
// by a try-acquire gate (ThreadPool::parallel_for is single-caller); a
// caller-owned pool bypasses the gate entirely — passing one asserts
// exclusive use. A loser of the gate runs serially; a retry from the thread
// that already holds the gate (a nested dispatch) is simply a loser. Tasks
// write disjoint output, so every route produces bitwise-identical results;
// gemm_dispatch_stats() reports which routes were taken.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace treesvd {

class ThreadPool;

/// Process-wide pool for the matmul entry points (hardware concurrency),
/// created on first use. See the threading note above: safe to pass from
/// concurrent callers; losers of the internal gate run serially.
ThreadPool* gemm_pool();

/// The gated parallel-for: runs task(i) for i in [0, count) in chunks of
/// `grain` consecutive indices. `flops` estimates the whole call's work;
/// below an internal cutoff (2^23 flops) it runs inline, since a fork-join
/// costs more than the work. Above it, the route order is: a caller-owned
/// `pool` (no gate), the shared gemm_pool() when its gate is free, serial
/// last. Every route walks the same chunk decomposition, so tasks that write
/// disjoint output produce identical results whichever route wins. A task must not itself dispatch
/// onto the pool it runs on; pass nullptr to nested calls.
void gemm_parallel_for(std::size_t count, std::size_t flops, ThreadPool* pool, std::size_t grain,
                       const std::function<void(std::size_t)>& task);

/// Which route each gemm_parallel_for call took (process-wide, relaxed
/// counters). `pooled` counts parallel runs (shared-pool gate won, or a
/// caller-owned pool), `serial` counts gate-contended runs, and
/// `inline_small` counts work below the parallel threshold (or with no
/// pool). No route counts into `fallback`; it reads 0 and is kept so that
/// existing readers of the struct keep compiling.
struct GemmDispatchStats {
  std::size_t pooled = 0;
  std::size_t fallback = 0;
  std::size_t serial = 0;
  std::size_t inline_small = 0;
};
GemmDispatchStats gemm_dispatch_stats() noexcept;
void gemm_dispatch_stats_reset() noexcept;

namespace detail {
/// Test seam: holds the shared-pool gate for its lifetime, so tests can
/// deterministically exercise the contended (serial) route without racing
/// real concurrent GEMMs. Blocks (yielding) while another
/// thread holds the gate.
class ScopedGemmGateHold {
 public:
  ScopedGemmGateHold();
  ~ScopedGemmGateHold();

  ScopedGemmGateHold(const ScopedGemmGateHold&) = delete;
  ScopedGemmGateHold& operator=(const ScopedGemmGateHold&) = delete;
};
}  // namespace detail

/// A strided column-major block: element (i, j) at p[j*ld + i]. A row block
/// of a Matrix is a Block with ld = the matrix's row count.
struct ConstBlock {
  const double* p;
  std::size_t rows;
  std::size_t cols;
  std::size_t ld;
};
struct Block {
  double* p;
  std::size_t rows;
  std::size_t cols;
  std::size_t ld;
  // NOLINTNEXTLINE(google-explicit-constructor): a block reads as a const one.
  operator ConstBlock() const noexcept { return {p, rows, cols, ld}; }
};
inline Block block(Matrix& a) noexcept { return {a.data().data(), a.rows(), a.cols(), a.rows()}; }
inline ConstBlock block(const Matrix& a) noexcept {
  return {a.data().data(), a.rows(), a.cols(), a.rows()};
}

/// C <- C + op(A)·B, or C - op(A)·B when `subtract`, on strided blocks, with
/// op(A) = A or Aᵀ (`trans_a`). The packed tiles, the micro-kernel and the
/// tile decomposition are gemm_into's, so the result is bitwise identical on
/// every dispatch route and ISA tier. The compact-WY updates of linalg/qr
/// run through this form.
void gemm_acc(Block c, ConstBlock a, bool trans_a, ConstBlock b, bool subtract,
              ThreadPool* pool = nullptr);

/// C <- A·B. C must already have shape a.rows() x b.cols(); its previous
/// contents are overwritten. The cache blocking is fixed (packed A blocks of
/// 128 x 256, packed B blocks of 256 x 64, a 4 x 4 register micro-kernel).
/// Work below an internal flop threshold runs serially even when a pool is
/// supplied.
void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);

/// Convenience allocating form of gemm_into.
Matrix gemm(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr);

/// G <- AᵀA (symmetric n x n Gram matrix of A's columns). Only the upper
/// triangle is computed; the lower triangle is mirrored.
void syrk_t_into(Matrix& g, const Matrix& a, ThreadPool* pool = nullptr);
Matrix syrk_t(const Matrix& a, ThreadPool* pool = nullptr);

/// Gram matrix of a gathered panel: with P = A[:, cols] (columns need not be
/// contiguous), returns the K x K matrix G(i,j) = P_i . P_j. One pass of
/// O(m·K²/tile) traffic — this is the "form the Gram once" half of the
/// block-Jacobi Gram path.
Matrix gram_panel(const Matrix& a, std::span<const int> cols, ThreadPool* pool = nullptr);

/// In-place blocked panel update P <- P·W for the gathered panel
/// P = A[:, cols] and a K x K update W (K == cols.size()). Returns the
/// squared norm of each updated column, accumulated in the same read+write
/// pass over the data — a fresh reduction of the stored values, which is
/// exactly the NormCache coherence contract (norm_cache.hpp).
std::vector<double> apply_panel_update(Matrix& a, std::span<const int> cols, const Matrix& w,
                                       ThreadPool* pool = nullptr);

}  // namespace treesvd
