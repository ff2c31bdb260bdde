#include "linalg/gemm.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "analysis/hooks.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace treesvd {
namespace {

/// Register micro-kernel footprint: an mr x nr accumulator tile lives in
/// registers across the depth loop (KernelTable::gemm_micro's layout).
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 4;

/// Cache blocking for a generic x86-64 hierarchy: the packed A block
/// (mc x kc ≈ 256 KiB) sits in L2, the packed B block (kc x nc ≈ 128 KiB)
/// beside it. One task per mc x nc tile of C, handed out one at a time.
constexpr std::size_t kMc = 128;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 64;

/// Products below this many flops (2mnk) run the plain jki loop: packing
/// buffers and tile bookkeeping cost more than the whole product.
constexpr std::size_t kNaiveFlops = 2 * 4096;

/// Work below this many flops stays on the calling thread even when a pool
/// is supplied — a fork-join costs more than the product.
constexpr std::size_t kParallelFlops = std::size_t{1} << 23;

/// The shared pool is single-caller (ThreadPool::parallel_for keeps its
/// batch state in member slots), so entry points race for this gate; losers
/// run serially instead of corrupting the batch. A try-acquire flag, not a
/// mutex: a retry from the thread that already holds the gate (a nested
/// dispatch, or a test holding it through ScopedGemmGateHold) is defined and
/// simply loses.
std::atomic<bool> pool_gate{false};

bool try_acquire_gate() noexcept { return !pool_gate.exchange(true, std::memory_order_acquire); }
void release_gate() noexcept { pool_gate.store(false, std::memory_order_release); }

std::atomic<std::size_t> stat_pooled{0};
std::atomic<std::size_t> stat_serial{0};
std::atomic<std::size_t> stat_inline{0};

/// jki loop for tiny products (streams down columns of a and c).
void gemm_naive(Matrix& c, const Matrix& a, const Matrix& b) {
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double bkj = b(k, j);
      if (bkj == 0.0) continue;
      const auto ak = a.col(k);
      const auto cj = c.col(j);
      for (std::size_t i = 0; i < a.rows(); ++i) cj[i] += ak[i] * bkj;
    }
  }
}

/// Packs the mc_eff x kc_eff block of op(a) at (i0, k0) into row
/// micro-panels: panel p holds rows [i0 + p*mr, i0 + (p+1)*mr), stored as mr
/// consecutive values per k so the micro-kernel loads are contiguous. Edge
/// rows are zero-padded (they contribute nothing and are never written back).
/// op(a) is a, or aᵀ when `trans`.
void pack_a(const ConstBlock& a, bool trans, std::size_t i0, std::size_t mc_eff, std::size_t k0,
            std::size_t kc_eff, double* __restrict dst) {
  const std::size_t panels = (mc_eff + kMr - 1) / kMr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t r0 = i0 + p * kMr;
    const std::size_t rows = std::min(kMr, i0 + mc_eff - r0);
    double* __restrict out = dst + p * kc_eff * kMr;
    for (std::size_t k = 0; k < kc_eff; ++k) {
      std::size_t r = 0;
      if (trans) {
        for (; r < rows; ++r) out[k * kMr + r] = a.p[(r0 + r) * a.ld + k0 + k];
      } else {
        const double* __restrict src = a.p + (k0 + k) * a.ld + r0;
        for (; r < rows; ++r) out[k * kMr + r] = src[r];
      }
      for (; r < kMr; ++r) out[k * kMr + r] = 0.0;
    }
  }
}

/// Packs the kc_eff x nc_eff block of `b` at (k0, j0) into column
/// micro-panels of nr columns, nr consecutive values per k, zero-padded.
void pack_b(const ConstBlock& b, std::size_t k0, std::size_t kc_eff, std::size_t j0,
            std::size_t nc_eff, double* __restrict dst) {
  const std::size_t panels = (nc_eff + kNr - 1) / kNr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t c0 = j0 + p * kNr;
    const std::size_t ncols = std::min(kNr, j0 + nc_eff - c0);
    double* __restrict out = dst + p * kc_eff * kNr;
    for (std::size_t k = 0; k < kc_eff; ++k) {
      for (std::size_t c = 0; c < ncols; ++c) out[k * kNr + c] = b.p[(c0 + c) * b.ld + k0 + k];
      for (std::size_t c = ncols; c < kNr; ++c) out[k * kNr + c] = 0.0;
    }
  }
}

}  // namespace

ThreadPool* gemm_pool() {
  static ThreadPool pool;
  return &pool;
}

void gemm_parallel_for(std::size_t count, std::size_t flops, ThreadPool* pool, std::size_t grain,
                       const std::function<void(std::size_t)>& task) {
  const std::size_t g = std::max<std::size_t>(grain, 1);
  // The serial routes walk the same grain-chunked order the pools hand out,
  // so the configured grain survives gate contention.
  const auto run_serial = [&] {
    for (std::size_t c0 = 0; c0 < count; c0 += g) {
      const std::size_t end = std::min(count, c0 + g);
      for (std::size_t i = c0; i < end; ++i) task(i);
    }
  };
  if (pool == nullptr || count <= 1 || flops < kParallelFlops) {
    stat_inline.fetch_add(1, std::memory_order_relaxed);
    run_serial();
    return;
  }
  if (pool != gemm_pool()) {
    stat_pooled.fetch_add(1, std::memory_order_relaxed);
    pool->parallel_for(count, task, g);
    return;
  }
  if (try_acquire_gate()) {
    struct Release {
      ~Release() { release_gate(); }
    } const release;
    stat_pooled.fetch_add(1, std::memory_order_relaxed);
    pool->parallel_for(count, task, g);
    return;
  }
  stat_serial.fetch_add(1, std::memory_order_relaxed);
  run_serial();
}

GemmDispatchStats gemm_dispatch_stats() noexcept {
  GemmDispatchStats s;
  s.pooled = stat_pooled.load(std::memory_order_relaxed);
  s.serial = stat_serial.load(std::memory_order_relaxed);
  s.inline_small = stat_inline.load(std::memory_order_relaxed);
  return s;
}

void gemm_dispatch_stats_reset() noexcept {
  stat_pooled.store(0, std::memory_order_relaxed);
  stat_serial.store(0, std::memory_order_relaxed);
  stat_inline.store(0, std::memory_order_relaxed);
}

namespace detail {
ScopedGemmGateHold::ScopedGemmGateHold() {
  while (!try_acquire_gate()) std::this_thread::yield();
}
ScopedGemmGateHold::~ScopedGemmGateHold() { release_gate(); }
}  // namespace detail

void gemm_acc(Block c, ConstBlock a, bool trans_a, ConstBlock b, bool subtract,
              ThreadPool* pool) {
  const std::size_t m = trans_a ? a.cols : a.rows;
  const std::size_t kk = trans_a ? a.rows : a.cols;
  const std::size_t n = b.cols;
  TREESVD_REQUIRE(kk == b.rows, "matrix product dimension mismatch");
  TREESVD_REQUIRE(c.rows == m && c.cols == n, "gemm output shape mismatch");
  if (m == 0 || n == 0 || kk == 0) return;

  const std::size_t mtiles = (m + kMc - 1) / kMc;
  const std::size_t ntiles = (n + kNc - 1) / kNc;

  // The mr x nr register micro-kernel resolves through the CPU-dispatch
  // layer once per product (one relaxed load), not once per tile: every
  // worker of this product uses the same table. Each of the 16 accumulator
  // elements advances once per depth step in k order, matching
  // gemm_micro_ref bitwise on every tier.
  const auto micro = kernels().gemm_micro;

  // One task per (row tile, column tile) of C; each task owns a disjoint
  // C tile, loops the depth blocks, and packs into its own local buffers
  // (the redundant packing is amortised over kMc*kNc*kKc flops per block).
  const auto tile_task = [&](std::size_t t) {
    TREESVD_HB_WRITE(c.p, t, "gemm C tile");
    const std::size_t ti = t % mtiles;
    const std::size_t tj = t / mtiles;
    const std::size_t i0 = ti * kMc;
    const std::size_t j0 = tj * kNc;
    const std::size_t mc_eff = std::min(kMc, m - i0);
    const std::size_t nc_eff = std::min(kNc, n - j0);
    const std::size_t apanels = (mc_eff + kMr - 1) / kMr;
    const std::size_t bpanels = (nc_eff + kNr - 1) / kNr;
    std::vector<double> apack(apanels * kMr * std::min(kKc, kk));
    std::vector<double> bpack(bpanels * kNr * std::min(kKc, kk));
    std::array<double, kMr * kNr> acc;
    for (std::size_t k0 = 0; k0 < kk; k0 += kKc) {
      const std::size_t kc_eff = std::min(kKc, kk - k0);
      pack_a(a, trans_a, i0, mc_eff, k0, kc_eff, apack.data());
      pack_b(b, k0, kc_eff, j0, nc_eff, bpack.data());
      for (std::size_t jp = 0; jp < bpanels; ++jp) {
        const std::size_t jr = jp * kNr;
        const std::size_t ncols = std::min(kNr, nc_eff - jr);
        for (std::size_t ip = 0; ip < apanels; ++ip) {
          const std::size_t ir = ip * kMr;
          const std::size_t nrows = std::min(kMr, mc_eff - ir);
          acc.fill(0.0);
          micro(apack.data() + ip * kc_eff * kMr, bpack.data() + jp * kc_eff * kNr, kc_eff,
                acc.data());
          for (std::size_t cc = 0; cc < ncols; ++cc) {
            double* __restrict cj = c.p + (j0 + jr + cc) * c.ld + i0 + ir;
            if (subtract) {
              for (std::size_t r = 0; r < nrows; ++r) cj[r] -= acc[r * kNr + cc];
            } else {
              for (std::size_t r = 0; r < nrows; ++r) cj[r] += acc[r * kNr + cc];
            }
          }
        }
      }
    }
  };
  gemm_parallel_for(mtiles * ntiles, 2 * m * n * kk, pool, 1, tile_task);
}

void gemm_into(Matrix& c, const Matrix& a, const Matrix& b, ThreadPool* pool) {
  TREESVD_REQUIRE(a.cols() == b.rows(), "matrix product dimension mismatch");
  TREESVD_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
                  "gemm_into output shape mismatch");
  std::fill(c.data().begin(), c.data().end(), 0.0);
  if (2 * a.rows() * b.cols() * a.cols() < kNaiveFlops) {
    gemm_naive(c, a, b);
    return;
  }
  gemm_acc(block(c), block(a), false, block(b), false, pool);
}

Matrix gemm(const Matrix& a, const Matrix& b, ThreadPool* pool) {
  Matrix c(a.rows(), b.cols());
  gemm_into(c, a, b, pool);
  return c;
}

void syrk_t_into(Matrix& g, const Matrix& a, ThreadPool* pool) {
  const std::size_t n = a.cols();
  TREESVD_REQUIRE(g.rows() == n && g.cols() == n, "syrk_t output must be n x n");
  const std::size_t m = a.rows();
  constexpr std::size_t kTile = 8;
  const std::size_t tiles = (n + kTile - 1) / kTile;
  // Upper-triangle tile pairs (ti <= tj), enumerated column-block-major so
  // the task index maps deterministically.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(tiles * (tiles + 1) / 2);
  for (std::size_t tj = 0; tj < tiles; ++tj)
    for (std::size_t ti = 0; ti <= tj; ++ti) pairs.emplace_back(ti, tj);

  const auto task = [&](std::size_t t) {
    const auto [ti, tj] = pairs[t];
    const std::size_t iend = std::min(n, (ti + 1) * kTile);
    const std::size_t jend = std::min(n, (tj + 1) * kTile);
    for (std::size_t j = tj * kTile; j < jend; ++j) {
      const auto cj = a.col(j);
      for (std::size_t i = ti * kTile; i < std::min(iend, j + 1); ++i) {
        const double v = dot(a.col(i), cj);
        g(i, j) = v;
        g(j, i) = v;
      }
    }
  };
  gemm_parallel_for(pairs.size(), m * n * n, pool, 1, task);
}

Matrix syrk_t(const Matrix& a, ThreadPool* pool) {
  Matrix g(a.cols(), a.cols());
  syrk_t_into(g, a, pool);
  return g;
}

Matrix gram_panel(const Matrix& a, std::span<const int> cols, ThreadPool* pool) {
  const std::size_t kw = cols.size();
  const std::size_t m = a.rows();
  Matrix g(kw, kw);
  if (kw == 0) return g;
  for (int c : cols)
    TREESVD_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < a.cols(),
                    "gram_panel column index out of range");

  // Row-chunked so each chunk's K columns stay cache-resident while all
  // K(K+1)/2 partial dots are accumulated: DRAM traffic O(m*K), not O(m*K^2).
  // The 512-row chunks and their fixed-order reduction are part of the
  // summation order: each partial is dot()'s chain canon over one chunk.
  constexpr std::size_t kChunk = 512;
  const std::size_t chunks = (m + kChunk - 1) / kChunk;
  std::vector<double> partial(chunks * kw * kw, 0.0);
  const auto panel_gram_k = kernels().panel_gram;
  const double* base = a.data().data();

  const auto task = [&](std::size_t t) {
    TREESVD_HB_WRITE(partial.data(), t, "gram_panel partial");
    const std::size_t r0 = t * kChunk;
    panel_gram_k(base + r0, m, cols.data(), kw, std::min(kChunk, m - r0),
                 partial.data() + t * kw * kw);
  };
  gemm_parallel_for(chunks, m * kw * kw, pool, 1, task);

  // Fixed chunk order keeps the reduction bitwise-deterministic.
  for (std::size_t t = 0; t < chunks; ++t) {
    TREESVD_HB_READ(partial.data(), t, "gram_panel partial");
    const double* part = partial.data() + t * kw * kw;
    for (std::size_t i = 0; i < kw; ++i)
      for (std::size_t j = i; j < kw; ++j) g(i, j) += part[i * kw + j];
  }
  for (std::size_t i = 0; i < kw; ++i)
    for (std::size_t j = i + 1; j < kw; ++j) g(j, i) = g(i, j);
  // Overflow repair: a Gram element that left the finite range is recomputed
  // with per-operand exponent scaling. The fast path above is untouched (and
  // bitwise unchanged) whenever every element is finite.
  for (std::size_t i = 0; i < kw; ++i) {
    const auto ci = a.col(static_cast<std::size_t>(cols[i]));
    for (std::size_t j = i; j < kw; ++j) {
      if (std::isfinite(g(i, j))) continue;
      const double v = dot_scaled(ci, a.col(static_cast<std::size_t>(cols[j])));
      g(i, j) = v;
      g(j, i) = v;
    }
  }
  return g;
}

std::vector<double> apply_panel_update(Matrix& a, std::span<const int> cols, const Matrix& w,
                                       ThreadPool* pool) {
  const std::size_t kw = cols.size();
  TREESVD_REQUIRE(w.rows() == kw && w.cols() == kw,
                  "apply_panel_update needs a K x K update for K panel columns");
  const std::size_t m = a.rows();
  for (const int c : cols)
    TREESVD_REQUIRE(c >= 0 && static_cast<std::size_t>(c) < a.cols(),
                    "apply_panel_update column index out of range");

  constexpr std::size_t kChunk = 512;
  const std::size_t chunks = m == 0 ? 0 : (m + kChunk - 1) / kChunk;
  std::vector<double> partial(chunks * kw, 0.0);
  const auto panel_apply_k = kernels().panel_apply;
  double* base = a.data().data();

  // Each chunk's kernel snapshots row blocks of the whole panel, multiplies
  // them by W from the right into register tiles, writes back, and reduces
  // the new squared norms from the same registers — each panel element is
  // read and written once per apply, with K multiply-adds per element.
  const auto task = [&](std::size_t t) {
    TREESVD_HB_WRITE(partial.data(), t, "panel_update partial");
    const std::size_t r0 = t * kChunk;
    panel_apply_k(base + r0, m, cols.data(), kw, std::min(kChunk, m - r0), w.data().data(),
                  partial.data() + t * kw);
  };
  gemm_parallel_for(chunks, m * kw * kw, pool, 1, task);

  std::vector<double> sums(kw, 0.0);
  for (std::size_t t = 0; t < chunks; ++t) {
    TREESVD_HB_READ(partial.data(), t, "panel_update partial");
    for (std::size_t j = 0; j < kw; ++j) sums[j] += partial[t * kw + j];
  }
  // Overflow repair for the fused norms, mirroring gram_panel: recompute a
  // non-finite squared norm with dnrm2-style scaled accumulation (still Inf
  // if the true value genuinely exceeds the double range — honest overflow).
  for (std::size_t j = 0; j < kw; ++j) {
    if (std::isfinite(sums[j])) continue;
    sums[j] = sumsq_scaled(a.col(static_cast<std::size_t>(cols[j]))).value();
  }
  return sums;
}

}  // namespace treesvd
