// block-graded: one 2048 x 256 matrix with a geometric spectrum (cond 1e8)
// solved again and again by block_one_sided_jacobi (fat-tree over 16 blocks
// of width 16, BLAS-3 Gram inner solver). Exercises linalg/gemm, the L1 Gram
// panel solver and the block-level orderings; serve and mp stay idle.

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/registry.hpp"
#include "linalg/gemm.hpp"
#include "linalg/generators.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/determinism.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace treesvd;

namespace {

constexpr std::size_t kM = 2048;
constexpr std::size_t kN = 256;
constexpr int kBlock = 16;
constexpr double kCond = 1e8;
constexpr int kSetupReps = 11;
constexpr std::size_t kMinSolves = 3;
constexpr double kEps = std::numeric_limits<double>::epsilon();

BlockJacobiOptions options() {
  BlockJacobiOptions o;
  o.block_width = kBlock;
  o.inner_mode = InnerMode::kGram;
  return o;
}

/// Accuracy gate against the known spectrum. A backward-stable solve moves
/// sigma_k by O(n eps sigma_max), i.e. relatively by O(n eps kappa_k) with
/// kappa_k = sigma_max / sigma_k. Rounding in the residual grows like the
/// square root of the sweeps, and in the Frobenius orthogonality defects like
/// the square root of the n * sweeps rotations each column absorbs. Every
/// bound carries a factor 10 of headroom over what these inputs show.
std::string check(const Matrix& a, const SvdResult& r, const std::vector<double>& spectrum) {
  if (!r.converged) return "block: solve did not converge";
  if (r.sigma.size() != kN) return "block: wrong number of singular values";
  std::vector<double> want = spectrum;
  std::sort(want.begin(), want.end(), std::greater<>());
  const double scale = double(kN) * kEps;
  for (std::size_t k = 0; k < kN; ++k) {
    const double bound = 10.0 * scale * (want[0] / want[k]);
    if (!(std::abs(r.sigma[k] - want[k]) <= bound * want[k])) {
      std::ostringstream os;
      os << "block: sigma[" << k << "] = " << r.sigma[k] << " vs " << want[k]
         << " exceeds relative bound " << bound;
      return os.str();
    }
  }
  const double sweeps = std::max(1, r.sweeps);
  const double resid = reconstruction_error(a, r.u, r.sigma, r.v) / a.frobenius_norm();
  if (!(resid <= 10.0 * scale * std::sqrt(sweeps)))
    return "block: residual ||A - U S V^T|| / ||A|| too large";
  const double ortho = 10.0 * scale * std::sqrt(double(kN) * sweeps);
  if (!(orthonormality_defect(r.v) <= ortho)) return "block: V not orthonormal";
  if (!(orthonormality_defect(r.u) <= ortho)) return "block: U not orthonormal";
  return "";
}

}  // namespace

Outcome run_block(const RunConfig& cfg, const LayerUnits* units) {
  Outcome out;
  const BlockJacobiOptions opt = options();
  Rng rng(cfg.seed);
  const std::vector<double> spectrum = geometric_spectrum(kN, kCond);
  const Matrix a = with_spectrum(kM, kN, spectrum, rng);
  const Matrix warm = with_spectrum(kM / 4, kN / 4, geometric_spectrum(kN / 4, kCond), rng);

  // Set-up: ordering construction, the shared GEMM pool and a warm-up solve
  // of a quarter-size instance; repeated, median reported.
  std::vector<double> setup_s;
  OrderingPtr ord;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    ord = make_ordering("fat-tree");
    gemm_pool();
    const SvdResult w = block_one_sided_jacobi(warm, *ord, opt);
    setup_s.push_back(double(now_ns() - t0) / 1e9);
    ++out.attempted;
    if (!w.converged) out.fail("block: warm-up solve did not converge");
  }

  SpanBuffer* tb = cfg.tracer != nullptr ? &cfg.tracer->buffer(1) : nullptr;
  GemmDispatchStats disp;  // routes taken inside the timed solves only
  std::vector<double> times_ms;
  double cpu_s = 0, wall_s = 0;
  std::uint64_t first_digest = 0;
  KernelStats ks;
  int sweeps = 0;
  // Solve until the next solve would end past --seconds (checks included).
  const std::int64_t loop_end = now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  while (times_ms.size() < kMinSolves || now_ns() + median(times_ms) * 1e6 <= loop_end) {
    const std::size_t i = times_ms.size();
    const GemmDispatchStats d0 = gemm_dispatch_stats();
    const double c0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    SvdResult r;
    {
      ScopedSpan sp(tb, "block_one_sided_jacobi", "block", 0, static_cast<std::int64_t>(i));
      r = block_one_sided_jacobi(a, *ord, opt);
    }
    const double dt = double(now_ns() - t0) / 1e9;
    cpu_s += process_cpu_seconds() - c0;
    const GemmDispatchStats d1 = gemm_dispatch_stats();
    disp.pooled += d1.pooled - d0.pooled;
    disp.fallback += d1.fallback - d0.fallback;
    disp.serial += d1.serial - d0.serial;
    disp.inline_small += d1.inline_small - d0.inline_small;
    wall_s += dt;
    times_ms.push_back(dt * 1e3);
    ++out.attempted;
    // Checks run between solves, off the clock.
    if (i == 0) {
      const std::string err = check(a, r, spectrum);
      if (!err.empty()) out.fail(err);
      first_digest = result_digest(r);
      ks = r.kernel_stats;
      sweeps = r.sweeps;
    } else if (result_digest(r) != first_digest) {
      out.fail("block: repeated solve of the same input is not bitwise identical");
    }
  }
  const double solves = double(times_ms.size());

  out.add_e2e("solve_p50_ms", median(times_ms), "ms", times_ms.size());
  out.add_e2e("capacity_sps", solves / wall_s, "1/s", times_ms.size(), "back-to-back solves");
  out.add_e2e("setup_s", median(setup_s), "s", setup_s.size(),
              "ordering + gemm_pool + 512x64 warm-up solve");
  out.add_e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1);

  const double pooled = double(disp.pooled) / solves;
  out.add_layer("gemm.dispatch_pooled", pooled, "per_solve");
  out.add_layer("gemm.dispatch_inline", double(disp.inline_small) / solves, "per_solve");
  out.add_layer("gemm.dispatch_serial", double(disp.serial + disp.fallback) / solves,
                "per_solve");
  out.add_layer("block_jacobi.gram_builds", double(ks.gram_builds), "per_solve");
  out.add_layer("block_jacobi.blocked_applies", double(ks.blocked_applies), "per_solve");
  out.add_layer("block_jacobi.accum_rotations", double(ks.accum_rotations), "per_solve");
  out.add_layer("block_jacobi.sweeps", double(sweeps), "per_solve");
  out.add_layer("proc.cpu_util", cpu_s / wall_s, "cores");

  if (units != nullptr) {
    Ledger l;
    l.name = "per solve (solve_p50_ms)";
    l.e2e_ms = median(times_ms);
    const double applies = double(ks.blocked_applies) / 2.0;  // one H and one V per apply
    l.rows.push_back({"gemm.gram_panel", double(ks.gram_builds), units->gram_panel_us / 1e3});
    l.rows.push_back({"gemm.apply_panel_update (H, 2048 rows)", applies, units->apply_h_us / 1e3});
    l.rows.push_back({"gemm.apply_panel_update (V, 256 rows)", applies, units->apply_v_us / 1e3});
    l.rows.push_back({"block_jacobi inner rotations (Gram problem)", double(ks.accum_rotations),
                      units->inner_rotation_us() / 1e3});
    l.rows.push_back(
        {"core.sweep_from (16 blocks)", double(sweeps), units->sweep_from_b16_us / 1e3});
    l.rows.push_back({"thread_pool.parallel_for (pooled dispatches)", pooled,
                      units->pool_dispatch_us / 1e3});
    out.ledgers.push_back(l);
  }
  std::ostringstream os;
  os << "{\"m\":" << kM << ",\"n\":" << kN << ",\"block_width\":" << kBlock
     << ",\"cond\":" << json_num(kCond) << ",\"sweeps\":" << sweeps << ",\"solve_ms\":[";
  for (std::size_t i = 0; i < times_ms.size(); ++i) os << (i ? "," : "") << json_num(times_ms[i]);
  os << "]"
     << ",\"gemm_dispatch\":{\"pooled\":" << disp.pooled
     << ",\"inline_small\":" << disp.inline_small << ",\"serial\":" << disp.serial
     << ",\"fallback\":" << disp.fallback << "}}";
  out.details_json = os.str();
  return out;
}

}  // namespace perfbench
