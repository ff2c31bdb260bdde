// Unit costs of each layer's public entry points at the workloads' shapes.
// Every measurement is the median over several batches of back-to-back calls.

#include <cmath>
#include <numeric>

#include "core/registry.hpp"
#include "linalg/blas1.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "linalg/rotation.hpp"
#include "svd/batch.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace treesvd;

namespace {

volatile double g_sink = 0;  // keeps kernel results observable

/// Median over `batches` of the mean wall time of `calls` back-to-back f().
template <class F>
double median_call_ns(int batches, int calls, F&& f) {
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int c = 0; c < calls; ++c) f();
    per.push_back(double(now_ns() - t0) / calls);
  }
  return median(per);
}

void measure_batch(Rng& rng, LayerUnits& u, Outcome& out) {
  const OrderingPtr rr = make_ordering("round-robin");
  BatchedSvd eng(16, 16, *rr);
  eng.reserve(eng.lane_width());
  const std::size_t w = eng.lane_width();
  std::vector<Matrix> in;
  for (std::size_t b = 0; b < w; ++b) in.push_back(random_gaussian(16, 16, rng));
  std::vector<SvdResult> res(w);
  std::vector<const Matrix*> ip;
  std::vector<SvdResult*> op;
  for (std::size_t b = 0; b < w; ++b) {
    ip.push_back(&in[b]);
    op.push_back(&res[b]);
  }
  for (std::size_t k = 1; k <= w && k < u.batch_solve_us.size(); ++k)
    u.batch_solve_us[k] =
        median_call_ns(7, 30, [&] { eng.solve_into({ip.data(), k}, {op.data(), k}); }) / 1e3;

  double sweeps = 0, pairs = 0, max_sweeps = 0;
  for (std::size_t b = 0; b < w; ++b) {
    ++out.attempted;
    if (result_digest(res[b]) != result_digest(one_sided_jacobi(in[b], *rr, eng.options().jacobi)))
      out.fail("batch: lane result differs from the direct solve");
    sweeps += res[b].sweeps;
    pairs += double(res[b].kernel_stats.pairs);
    max_sweeps = std::max(max_sweeps, double(res[b].sweeps));
  }
  out.add_layer("batch.solve_1lane_us", u.batch_solve_us[1], "us", 7);
  out.add_layer("batch.solve_8lane_us", u.batch_solve_us[8], "us", 7);
  out.add_layer("batch.sweeps_per_problem", sweeps / double(w), "sweeps");
  out.add_layer("batch.pairs_per_problem", pairs / double(w), "pairs");
  out.add_layer("batch.lane_useful_frac", sweeps / (double(w) * max_sweeps), "frac");
}

void measure_blas1(Rng& rng, Outcome& out) {
  constexpr std::size_t m = 16, w = 8, big = 4096;
  AlignedVec<double> x(m * w), y(m * w), app(w), aqq(w), dots(w), c(w, std::cos(0.3)),
      s(w, std::sin(0.3));
  for (std::size_t i = 0; i < m * w; ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  std::vector<std::uint8_t> rotate(w, 1), swaps(w, 0);
  const double batched_rotate_ns = median_call_ns(7, 4000, [&] {
    batched_rotate_and_norms(x.data(), y.data(), m, w, c.data(), s.data(), rotate.data(),
                             swaps.data(), app.data(), aqq.data());
  });
  const double batched_dot_ns = median_call_ns(7, 4000, [&] {
    batched_dot(x.data(), y.data(), m, w, dots.data());
    g_sink = dots[0];
  });

  AlignedVec<double> bx(big), by(big);
  for (std::size_t i = 0; i < big; ++i) {
    bx[i] = rng.normal();
    by[i] = rng.normal();
  }
  const double rotate_and_norms_ns = median_call_ns(7, 400, [&] {
    const RotatedNorms r = rotate_and_norms({bx.data(), big}, {by.data(), big}, c[0], s[0]);
    g_sink = r.app;
  });
  const double dot_ns =
      median_call_ns(7, 400, [&] { g_sink = dot({bx.data(), big}, {by.data(), big}); });

  // Bytes the kernel must move: rotate reads and writes both columns, dot reads both.
  const double rot_bytes = 4.0 * big * sizeof(double), dot_bytes = 2.0 * big * sizeof(double);
  out.add_layer("blas1.batched_rotate_ns", batched_rotate_ns, "ns", 7);
  out.add_layer("blas1.batched_dot_ns", batched_dot_ns, "ns", 7);
  out.add_layer("blas1.rotate_and_norms_ns", rotate_and_norms_ns, "ns", 7);
  out.add_layer("blas1.rotate_and_norms_gbps", rot_bytes / rotate_and_norms_ns, "GB/s", 7);
  out.add_layer("blas1.dot_ns", dot_ns, "ns", 7);
  out.add_layer("blas1.dot_gbps", dot_bytes / dot_ns, "GB/s", 7);
}

void measure_gemm_and_inner(Rng& rng, LayerUnits& u, Outcome& out) {
  constexpr std::size_t m = 2048, n = 256, k = 32;
  std::vector<int> cols(k);
  std::iota(cols.begin(), cols.end(), 0);
  Matrix h = random_gaussian(m, n, rng);
  const Matrix w = random_orthonormal(k, k, rng);
  Matrix v = Matrix::identity(n);
  ThreadPool* pool = gemm_pool();
  const auto us = [](auto&& f) { return median_call_ns(7, 20, f) / 1e3; };
  u.gram_panel_us = us([&] { g_sink = gram_panel(h, cols, pool)(0, 0); });
  u.apply_h_us = us([&] { g_sink = apply_panel_update(h, cols, w, pool)[0]; });
  u.apply_v_us = us([&] { g_sink = apply_panel_update(v, cols, w, pool)[0]; });
  const double flops = 2.0 * m * k * k;  // nominal 2mK^2 for both panel kernels
  out.add_layer("gemm.gram_panel_us", u.gram_panel_us, "us", 7);
  out.add_layer("gemm.gram_panel_gflops", flops / (u.gram_panel_us * 1e3), "GF/s", 7);
  out.add_layer("gemm.apply_panel_update_us", u.apply_h_us, "us", 7);
  out.add_layer("gemm.apply_panel_update_gflops", flops / (u.apply_h_us * 1e3), "GF/s", 7);
  out.add_layer("gemm.apply_panel_update_v_us", u.apply_v_us, "us", 7);

  // One cold encounter of the Gram inner solver at the block workload's shape:
  // two 16-column blocks of a graded 2048-row matrix, V of order 256.
  const Matrix graded = with_spectrum(m, k, geometric_spectrum(k, 1e8), rng);
  BlockJacobiOptions opt;
  opt.block_width = 16;
  opt.inner_mode = InnerMode::kGram;
  std::vector<double> times;
  for (int rep = 0; rep < 15; ++rep) {
    for (std::size_t j = 0; j < k; ++j)
      std::copy(graded.col(j).begin(), graded.col(j).end(), h.col(j).begin());
    v = Matrix::identity(n);
    KernelCounters counters;
    const std::int64_t t0 = now_ns();
    const detail::InnerPanelStats st =
        detail::inner_orthogonalise_gram(h, &v, cols, opt, nullptr, counters, pool);
    times.push_back(double(now_ns() - t0) / 1e3);
    u.inner_rotations = double(st.rotations);
  }
  u.inner_gram_us = median(times);
  out.add_layer("block_jacobi.inner_gram_us", u.inner_gram_us, "us", times.size());
}

void measure_core_and_pool(LayerUnits& u, Outcome& out) {
  const OrderingPtr ft = make_ordering("fat-tree");
  for (const int n : {16, 8}) {
    std::vector<int> layout(static_cast<std::size_t>(n));
    std::iota(layout.begin(), layout.end(), 0);
    const double us =
        median_call_ns(7, 200, [&] { g_sink = ft->sweep_from(layout, 0).steps(); }) / 1e3;
    const std::string shape = n == 16 ? "b16" : "n8";
    out.add_layer("core.sweep_from_" + shape + "_us", us, "us", 7);
    out.add_layer("core.steps_per_sweep_" + shape, ft->sweep_from(layout, 0).steps(), "steps");
    if (n == 16) u.sweep_from_b16_us = us;
  }

  ThreadPool pool(4);
  // grain 1: four dispatched chunks (the auto grain would run 4 tasks inline).
  u.pool_dispatch_us =
      median_call_ns(7, 500, [&] { pool.parallel_for(4, [](std::size_t) {}, 1); }) / 1e3;
  out.add_layer("thread_pool.dispatch_us", u.pool_dispatch_us, "us", 7);
}

/// Round trip of one 4096-double column between two ranks, timed on rank 0
/// and handed back through the world's blob board.
double pingpong_us(mp::Backend backend, Outcome& out) {
  constexpr int kWarm = 20, kReps = 200;
  constexpr std::uint64_t kKey = 1;
  mp::World world(2);
  world.set_backend(backend);
  world.run([&](mp::Context& ctx) {
    std::vector<double> col(4096);
    std::iota(col.begin(), col.end(), 0.0);
    const std::vector<double> sent = col;
    if (ctx.rank() == 0) {
      std::vector<double> rt;
      bool intact = true;
      for (int r = 0; r < kWarm + kReps; ++r) {
        const std::int64_t t0 = now_ns();
        ctx.send(1, std::uint64_t(r), col);
        col = ctx.recv(1, std::uint64_t(r));
        if (r >= kWarm) rt.push_back(double(now_ns() - t0) / 1e3);
        intact = intact && col == sent;
      }
      ctx.publish(kKey, {median(rt), intact ? 1.0 : 0.0});
    } else {
      for (int r = 0; r < kWarm + kReps; ++r) {
        col = ctx.recv(0, std::uint64_t(r));
        ctx.send(0, std::uint64_t(r), std::move(col));
      }
    }
  });
  const std::vector<double> res = world.published(kKey);
  ++out.attempted;
  if (res.size() != 2 || res[1] != 1.0) {
    out.fail("mp: ping-pong column came back altered");
    return NAN;
  }
  return res[0];
}

double world_spawn_ms(mp::Backend backend) {
  std::vector<double> times;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
    mp::World world(4);
    world.set_backend(backend);
    world.run([](mp::Context&) {});
    times.push_back(double(now_ns() - t0) / 1e6);
  }
  return median(times);
}

void measure_mp_and_floor(Rng& rng, LayerUnits& u, Outcome& out) {
  for (const mp::Backend b : {mp::Backend::kInproc, mp::Backend::kSocket}) {
    const int i = backend_index(b);
    u.pingpong_us[i] = pingpong_us(b, out);
    u.world_spawn_ms[i] = world_spawn_ms(b);
  }
  out.add_layer("mp.pingpong_us_inproc", u.pingpong_us[0], "us", 200);
  out.add_layer("mp.pingpong_us_socket", u.pingpong_us[1], "us", 200);
  out.add_layer("mp.world_spawn_ms_inproc", u.world_spawn_ms[0], "ms", 7);
  out.add_layer("mp.world_spawn_ms_socket", u.world_spawn_ms[1], "ms", 7);

  // The serial floor of the SPMD workloads, over as many fresh inputs as
  // they cycle through (sweep counts differ between inputs).
  const OrderingPtr ft = make_ordering("fat-tree");
  std::vector<double> times;
  for (int i = 0; i < 16; ++i) {
    const Matrix a = random_gaussian(4096, 8, rng);
    for (int rep = 0; rep < 2; ++rep) {
      const std::int64_t t0 = now_ns();
      g_sink = one_sided_jacobi(a, *ft).sigma[0];
      times.push_back(double(now_ns() - t0) / 1e6);
    }
  }
  u.serial_floor_ms = median(times);
  out.add_layer("spmd.serial_floor_ms", u.serial_floor_ms, "ms", times.size());
}

}  // namespace

double LayerUnits::inner_rotation_us() const {
  if (inner_rotations <= 0) return 0.0;
  return std::max(0.0, inner_gram_us - gram_panel_us - apply_h_us - apply_v_us) / inner_rotations;
}

LayerUnits measure_layers(std::uint64_t seed, Outcome& out, SpanBuffer* tb) {
  LayerUnits u;
  Rng rng(seed ^ 0x6c61796572ULL);
  {
    ScopedSpan sp(tb, "batch.solve_into x k lanes", "layer");
    measure_batch(rng, u, out);
  }
  {
    ScopedSpan sp(tb, "blas1 kernels", "layer");
    measure_blas1(rng, out);
  }
  {
    ScopedSpan sp(tb, "gemm panels + inner_orthogonalise_gram", "layer");
    measure_gemm_and_inner(rng, u, out);
  }
  {
    ScopedSpan sp(tb, "core.sweep_from + thread_pool", "layer");
    measure_core_and_pool(u, out);
  }
  {
    ScopedSpan sp(tb, "mp ping-pong/spawn + serial floor", "layer");
    measure_mp_and_floor(rng, u, out);
  }
  return u;
}

}  // namespace perfbench
