// Claim C9 (BLAS-3 block engine): the Gram-based inner panel solver versus
// the elementwise inner solver of the block-Jacobi driver, and the tiled
// packed GEMM versus the seed jki loop.
//
// The elementwise inner solver streams the full m-length columns once per
// rotation (memory-bound BLAS-1); the Gram solver forms the 2b x 2b Gram
// matrix once, rotates the small problem while accumulating the orthogonal
// update W, and touches the m-length columns exactly once more in a blocked
// P·W apply (compute-dense BLAS-3). The win grows with m and b.
//
// `--json=PATH` switches to the perf-smoke mode used by CI: correctness
// assertions first (tiled GEMM vs the naive reference; kGram vs kElementwise
// driver agreement on singular values; the one-GEMM-per-encounter counter
// contract), then self-timed comparisons. Assertions exiting nonzero fail
// the CI job; timings are recorded in the JSON but never assert — CI
// machines are too noisy to gate on a ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/pair_kernel.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace treesvd;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

/// The seed Matrix::operator* loop (jki, no tiling, no packing), kept here so
/// the old-vs-new comparison measures the code the tiled GEMM replaced.
Matrix seed_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double bkj = b(k, j);
      for (std::size_t i = 0; i < a.rows(); ++i) c(i, j) += a(i, k) * bkj;
    }
  return c;
}

/// Restores the first `panel.cols()` columns of `h` from `panel` — the
/// per-call reset both inner-solver timings include, so neither side gets to
/// amortise an already-orthogonal panel.
void restore_panel(Matrix& h, const Matrix& panel) {
  for (std::size_t j = 0; j < panel.cols(); ++j) {
    const auto src = panel.col(j);
    const auto dst = h.col(j);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

std::vector<int> iota_cols(std::size_t k) {
  std::vector<int> cols(k);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

// ---------------------------------------------------------------------------
// google-benchmark sections (interactive use)

void BM_GemmSeedJki(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(seed_product(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmSeedJki)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_GemmTiled(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(gemm(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTiled)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_GemmTiledThreaded(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, rng);
  const Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(gemm(a, b, gemm_pool()));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTiledThreaded)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_InnerElementwise(benchmark::State& state) {
  Rng rng(2);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto kw = static_cast<std::size_t>(state.range(1));
  const Matrix panel = random_matrix(m, kw, rng);
  Matrix h = panel;
  const std::vector<int> cols = iota_cols(kw);
  BlockJacobiOptions opt;
  opt.cache_norms = false;
  const JacobiOptions jo = detail::element_options(opt);
  const detail::PairKernel kernel(jo);
  KernelCounters pc;
  for (auto _ : state) {
    restore_panel(h, panel);
    benchmark::DoNotOptimize(
        detail::inner_orthogonalise_elementwise(h, nullptr, cols, opt, kernel, nullptr, &pc));
  }
}
BENCHMARK(BM_InnerElementwise)
    ->Args({2048, 8})
    ->Args({2048, 16})
    ->Args({8192, 32})
    ->Unit(benchmark::kMicrosecond);

void BM_InnerGram(benchmark::State& state) {
  Rng rng(2);
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto kw = static_cast<std::size_t>(state.range(1));
  const Matrix panel = random_matrix(m, kw, rng);
  Matrix h = panel;
  const std::vector<int> cols = iota_cols(kw);
  BlockJacobiOptions opt;
  opt.cache_norms = false;
  KernelCounters counters;
  for (auto _ : state) {
    restore_panel(h, panel);
    benchmark::DoNotOptimize(
        detail::inner_orthogonalise_gram(h, nullptr, cols, opt, nullptr, counters, nullptr));
  }
}
BENCHMARK(BM_InnerGram)
    ->Args({2048, 8})
    ->Args({2048, 16})
    ->Args({8192, 32})
    ->Unit(benchmark::kMicrosecond);

void BM_BlockSvd(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_gaussian(4 * n, n, rng);
  const auto ord = make_ordering("fat-tree");
  BlockJacobiOptions opt;
  opt.block_width = 8;
  opt.inner_mode = state.range(1) != 0 ? InnerMode::kGram : InnerMode::kElementwise;
  for (auto _ : state) benchmark::DoNotOptimize(block_one_sided_jacobi(a, *ord, opt));
}
BENCHMARK(BM_BlockSvd)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json perf-smoke mode

/// Median-of-repeats self-timer: seconds per call.
template <typename Fn>
double time_per_call(Fn&& fn, int calls_per_sample, int samples = 5) {
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(samples));
  for (int r = 0; r < samples; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls_per_sample; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    secs.push_back(std::chrono::duration<double>(t1 - t0).count() / calls_per_sample);
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

int fail(const char* what) {
  std::fprintf(stderr, "blas3-correctness FAILED: %s\n", what);
  return 1;
}

/// Correctness gate: the tiled GEMM (serial and threaded) must match the
/// seed jki loop, the kGram driver must agree with kElementwise on the
/// spectrum, and the Gram path's counters must show the
/// one-GEMM-per-encounter contract.
int check_blas3() {
  Rng rng(41);
  {
    const Matrix a = random_matrix(130, 67, rng);
    const Matrix b = random_matrix(67, 41, rng);
    const Matrix want = seed_product(a, b);
    const Matrix serial = gemm(a, b);
    const Matrix threaded = gemm(a, b, gemm_pool());
    const double scale = 1.0 + want.max_abs();
    for (std::size_t j = 0; j < want.cols(); ++j)
      for (std::size_t i = 0; i < want.rows(); ++i)
        if (std::fabs(serial(i, j) - want(i, j)) > 1e-12 * scale)
          return fail("tiled GEMM disagrees with the seed jki product");
    if (!(serial == threaded)) return fail("threaded GEMM is not bitwise-equal to serial");
  }
  {
    Rng mrng(43);
    const Matrix a = random_gaussian(192, 64, mrng);
    const auto ord = make_ordering("fat-tree");
    BlockJacobiOptions gram;
    gram.block_width = 8;
    gram.inner_mode = InnerMode::kGram;
    BlockJacobiOptions elem = gram;
    elem.inner_mode = InnerMode::kElementwise;
    const SvdResult rg = block_one_sided_jacobi(a, *ord, gram);
    const SvdResult re = block_one_sided_jacobi(a, *ord, elem);
    if (!rg.converged || !re.converged) return fail("block driver did not converge");
    const double smax = std::max(rg.sigma[0], re.sigma[0]);
    for (std::size_t k = 0; k < rg.sigma.size(); ++k)
      if (std::fabs(rg.sigma[k] - re.sigma[k]) > 1e-10 * smax)
        return fail("kGram and kElementwise disagree on singular values");
    const KernelStats& ks = rg.kernel_stats;
    if (ks.pairs != 0 || ks.dot_passes != 0 || ks.gram_passes != 0)
      return fail("kGram ran elementwise pair kernels");
    if (ks.gram_builds == 0) return fail("kGram built no Gram matrices");
    if (ks.accum_rotations != rg.rotations)
      return fail("accumulated-rotation counter disagrees with the driver tally");
    if (ks.blocked_applies > 2 * ks.gram_builds)
      return fail("more than one blocked apply per panel per encounter");
  }
  return 0;
}

int run_json_mode(const std::string& path) {
  if (const int rc = check_blas3(); rc != 0) return rc;

  JsonObject root;
  root.add("bench", "blas3");
  root.add("schema", "treesvd-bench-v1");
  root.add("correctness", "ok");

  // Inner panel solve, kGram vs kElementwise. Both timings include the same
  // per-call panel restore (the copy is charged to both sides). No V panel
  // and no NormCache here — this isolates the two inner solvers; the driver
  // rows below include everything.
  std::vector<JsonObject> rows;
  double speedup_2048_b8 = 0.0;
  Rng rng(47);
  for (const std::size_t m : {std::size_t{512}, std::size_t{2048}, std::size_t{8192}}) {
    for (const int b : {4, 8, 16}) {
      const std::size_t kw = 2 * static_cast<std::size_t>(b);
      const Matrix panel = random_matrix(m, kw, rng);
      Matrix h = panel;
      const std::vector<int> cols = iota_cols(kw);
      BlockJacobiOptions opt;
      opt.cache_norms = false;
      const JacobiOptions jo = detail::element_options(opt);
      const detail::PairKernel kernel(jo);
      KernelCounters counters;
      const int calls =
          static_cast<int>(std::max<std::size_t>(2, 100000000 / (m * kw * kw)));
      const double t_elem = time_per_call(
          [&] {
            restore_panel(h, panel);
            benchmark::DoNotOptimize(
                detail::inner_orthogonalise_elementwise(h, nullptr, cols, opt, kernel, nullptr,
                                                        &counters));
          },
          calls);
      const double t_gram = time_per_call(
          [&] {
            restore_panel(h, panel);
            benchmark::DoNotOptimize(
                detail::inner_orthogonalise_gram(h, nullptr, cols, opt, nullptr, counters, nullptr));
          },
          calls);
      const double speedup = t_elem / t_gram;
      if (m == 2048 && b == 8) speedup_2048_b8 = speedup;
      JsonObject row;
      row.add("section", "inner_solve");
      row.add("m", static_cast<long long>(m));
      row.add("block_width", static_cast<long long>(b));
      row.add("elementwise_us_per_call", t_elem * 1e6);
      row.add("gram_us_per_call", t_gram * 1e6);
      row.add("speedup", speedup);
      rows.push_back(row);
      std::printf("inner m=%5zu b=%2d  elementwise %9.1f us  gram %9.1f us  speedup %.2fx\n", m,
                  b, t_elem * 1e6, t_gram * 1e6, speedup);
    }
  }
  root.add_array("inner_solve", rows);
  root.add("speedup_at_2048_b8", speedup_2048_b8);

  // Tiled GEMM vs the seed jki loop, serial and threaded.
  {
    std::vector<JsonObject> grows;
    Rng grng(53);
    for (const std::size_t n : {std::size_t{128}, std::size_t{256}, std::size_t{512}}) {
      const Matrix a = random_matrix(n, n, grng);
      const Matrix b = random_matrix(n, n, grng);
      const int calls = n <= 128 ? 8 : (n <= 256 ? 3 : 1);
      const double t_seed =
          time_per_call([&] { benchmark::DoNotOptimize(seed_product(a, b)); }, calls, 3);
      const double t_tiled =
          time_per_call([&] { benchmark::DoNotOptimize(gemm(a, b)); }, calls, 3);
      const double t_threaded =
          time_per_call([&] { benchmark::DoNotOptimize(gemm(a, b, gemm_pool())); }, calls, 3);
      JsonObject row;
      row.add("section", "gemm");
      row.add("n", static_cast<long long>(n));
      row.add("seed_jki_ms", t_seed * 1e3);
      row.add("tiled_ms", t_tiled * 1e3);
      row.add("tiled_threaded_ms", t_threaded * 1e3);
      row.add("speedup_serial", t_seed / t_tiled);
      row.add("speedup_threaded", t_seed / t_threaded);
      grows.push_back(row);
      std::printf("gemm n=%4zu  seed %8.2f ms  tiled %8.2f ms  threaded %8.2f ms  %.2fx / %.2fx\n",
                  n, t_seed * 1e3, t_tiled * 1e3, t_threaded * 1e3, t_seed / t_tiled,
                  t_seed / t_threaded);
    }
    root.add_array("gemm", grows);
  }

  // Driver-level comparison: the full block_one_sided_jacobi under both
  // inner modes (V computed, NormCache on — everything included).
  {
    Rng mrng(59);
    const std::size_t n = 128;
    const Matrix a = random_gaussian(4 * n, n, mrng);
    const auto ord = make_ordering("fat-tree");
    BlockJacobiOptions gram;
    gram.block_width = 8;
    BlockJacobiOptions elem = gram;
    elem.inner_mode = InnerMode::kElementwise;
    const double t_gram = time_per_call(
        [&] { benchmark::DoNotOptimize(block_one_sided_jacobi(a, *ord, gram)); }, 1, 3);
    const double t_elem = time_per_call(
        [&] { benchmark::DoNotOptimize(block_one_sided_jacobi(a, *ord, elem)); }, 1, 3);
    JsonObject drv;
    drv.add("driver", "block_one_sided_jacobi/fat-tree");
    drv.add("m", static_cast<long long>(4 * n));
    drv.add("n", static_cast<long long>(n));
    drv.add("block_width", 8LL);
    drv.add("elementwise_ms", t_elem * 1e3);
    drv.add("gram_ms", t_gram * 1e3);
    drv.add("speedup", t_elem / t_gram);
    root.add_array("driver", {drv});
    std::printf("driver m=%zu n=%zu b=8  elementwise %.2f ms  gram %.2f ms  speedup %.2fx\n",
                4 * n, n, t_elem * 1e3, t_gram * 1e3, t_elem / t_gram);
  }

  if (!treesvd::write_json_file(path, root)) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return run_json_mode(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
