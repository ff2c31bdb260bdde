// treesvd_torture — numerical-robustness acceptance harness.
//
// Runs every registered SVD engine against every registry ordering on the
// torture-input family (linalg/generators.hpp: graded condition numbers up
// to 1e12, entry magnitudes near 1e+-150, denormal-laced perturbations,
// exact zero and duplicate columns, Hilbert). The contract, per run:
//
//  * the engine must not throw and every reported sigma must be finite;
//  * a converged run reports SvdStatus::kConverged; a non-converged run
//    reports a diagnosed status (kMaxSweeps / kStalled) together with a
//    best-effort factorization and populated quality diagnostics;
//  * on cases with known construction sigma, the scaled error
//    max_k |sigma_k - ref_k| / ref_max must be <= --tol (default 1e-10);
//  * on the well-scaled case, a forced-equilibration run (kAlways) must
//    reproduce the unequilibrated (kOff) run bit-for-bit: same sigma bits
//    and the same sweep count — the scaling is exact powers of two.
//
// CI archives the JSON report so quality metrics are diffable across
// commits. Flags, report and exit codes follow the gate runner (gate.hpp).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "gate.hpp"
#include "linalg/generators.hpp"
#include "svd/block_jacobi.hpp"
#include "svd/jacobi.hpp"
#include "svd/kogbetliantz.hpp"
#include "svd/spmd.hpp"

namespace treesvd::torture {
namespace {

/// What the harness needs to know about one engine run, whatever the
/// engine's native result type.
struct Outcome {
  std::vector<double> sigma;
  bool converged = false;
  SvdStatus status = SvdStatus::kMaxSweeps;
  SvdDiagnostics diagnostics;
  int sweeps = 0;
  /// SvdResult engines compute the heavy quality metrics for non-converged
  /// runs; KogbetliantzResult reports status/scale diagnostics only.
  bool has_quality = true;
};

Outcome from_svd(const SvdResult& r) {
  Outcome o;
  o.sigma = r.sigma;
  o.converged = r.converged;
  o.status = r.status;
  o.diagnostics = r.diagnostics;
  o.sweeps = r.sweeps;
  return o;
}

struct Engine {
  std::string name;
  bool square_only = false;        ///< kogbetliantz: two-sided needs m == n
  /// Units the ordering schedules for this engine: 1 = columns, otherwise
  /// the block width (the block driver schedules ceil(n/b) blocks).
  int unit_width = 1;
  Outcome (*run)(const Matrix&, const Ordering&, EquilibrateMode, int max_sweeps);
};

JacobiOptions jacobi_options(EquilibrateMode mode, int max_sweeps) {
  JacobiOptions opt;
  opt.equilibrate = mode;
  opt.max_sweeps = max_sweeps;
  return opt;
}

const std::vector<Engine>& engines() {
  static const std::vector<Engine> kEngines = {
      {"serial", false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(one_sided_jacobi(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"threaded", false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(one_sided_jacobi_threaded(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"cyclic", false, 1,
       [](const Matrix& a, const Ordering&, EquilibrateMode mode, int sweeps) {
         return from_svd(cyclic_jacobi(a, jacobi_options(mode, sweeps)));
       }},
      {"block-gram", false, 2,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         BlockJacobiOptions opt;
         opt.inner_mode = InnerMode::kGram;
         opt.block_width = 2;
         opt.equilibrate = mode;
         opt.max_outer_sweeps = sweeps;
         return from_svd(block_one_sided_jacobi(a, ord, opt));
       }},
      {"block-elementwise", false, 2,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         BlockJacobiOptions opt;
         opt.inner_mode = InnerMode::kElementwise;
         opt.block_width = 2;
         opt.equilibrate = mode;
         opt.max_outer_sweeps = sweeps;
         return from_svd(block_one_sided_jacobi(a, ord, opt));
       }},
      {"preconditioned", false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         JacobiOptions opt = jacobi_options(mode, sweeps);
         opt.precondition = PreconditionMode::kAlways;
         return from_svd(one_sided_jacobi(a, ord, opt));
       }},
      {"spmd", false, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         return from_svd(spmd_jacobi(a, ord, jacobi_options(mode, sweeps)));
       }},
      {"kogbetliantz", true, 1,
       [](const Matrix& a, const Ordering& ord, EquilibrateMode mode, int sweeps) {
         KogbetliantzOptions opt;
         opt.equilibrate = mode;
         opt.max_sweeps = sweeps;
         const KogbetliantzResult r = kogbetliantz_svd(a, ord, opt);
         Outcome o;
         o.sigma = r.sigma;
         o.converged = r.converged;
         o.status = r.status;
         o.diagnostics = r.diagnostics;
         o.sweeps = r.sweeps;
         o.has_quality = false;
         return o;
       }},
  };
  return kEngines;
}

/// max_k |sigma_k - ref_k| / ref_max over descending-sorted copies; ref must
/// be non-empty with ref_max > 0.
double scaled_sigma_error(std::vector<double> got, std::vector<double> ref) {
  std::sort(got.begin(), got.end(), std::greater<>());
  std::sort(ref.begin(), ref.end(), std::greater<>());
  if (got.size() != ref.size()) return std::numeric_limits<double>::infinity();
  const double smax = ref.front();
  double err = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k)
    err = std::max(err, std::fabs(got[k] - ref[k]) / smax);
  return err;
}

struct RunReport {
  std::string kase;
  std::string engine;
  std::string ordering;
  bool ok = false;
  std::string detail;  ///< first violation or exception text; empty on success
  std::string status;
  bool converged = false;
  int sweeps = 0;
  double sigma_error = -1.0;      ///< scaled error vs known sigma; -1 = unknown sigma
  double scaled_residual = -1.0;  ///< from diagnostics when computed
  bool equilibrated = false;
};

constexpr gate::Flag kFlags[] = {
    {"n", "8", "matrix columns (even, >= 4)"},
    {"rows", "", "matrix rows (default n+4)"},
    {"seed", "2026", "torture-suite seed"},
    {"tol", "1e-10", "scaled sigma error bound on known-sigma cases"},
    {"max-sweeps", "60", "sweep cap per solve"},
    {"json", "", "write the report here instead of stdout"},
};

gate::Report run(const gate::Args& args) {
  const int n = static_cast<int>(args.integer("n"));
  const int rows = static_cast<int>(args.integer("rows", n + 4));
  const double tol = args.real("tol");
  const int max_sweeps = static_cast<int>(args.integer("max-sweeps"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  gate::require(n >= 4 && n % 2 == 0 && rows >= n, "need even n >= 4 and rows >= n");

  Rng rng(seed);
  const auto cases =
      torture_suite(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  // A second, square family for the two-sided engine (skipping any case the
  // construction leaves non-square).
  Rng rng_sq(seed);
  const auto square_cases =
      torture_suite(static_cast<std::size_t>(n), static_cast<std::size_t>(n), rng_sq);

  std::vector<RunReport> reports;
  for (const Engine& eng : engines()) {
    const auto& suite = eng.square_only ? square_cases : cases;
    for (const std::string& oname : ordering_names()) {
      if (eng.name == "cyclic" && oname != "round-robin") continue;  // ordering-free
      const OrderingPtr ordering = make_ordering(oname);
      if (!schedulable(*ordering, (n + eng.unit_width - 1) / eng.unit_width)) continue;
      for (const TortureCase& tc : suite) {
        if (eng.square_only && tc.a.rows() != tc.a.cols()) continue;
        RunReport rep;
        rep.kase = tc.name;
        rep.engine = eng.name;
        rep.ordering = oname;
        try {
          const Outcome o = eng.run(tc.a, *ordering, EquilibrateMode::kAuto, max_sweeps);
          rep.status = to_string(o.status);
          rep.converged = o.converged;
          rep.sweeps = o.sweeps;
          rep.scaled_residual = o.diagnostics.scaled_residual;
          rep.equilibrated = o.diagnostics.equilibrated;
          for (const double s : o.sigma)
            if (!std::isfinite(s)) rep.detail = "non-finite sigma";
          if (rep.detail.empty() && o.converged && o.status != SvdStatus::kConverged)
            rep.detail = "converged run not classified kConverged";
          if (rep.detail.empty() && !o.converged && o.status == SvdStatus::kConverged)
            rep.detail = "non-converged run classified kConverged";
          if (rep.detail.empty() && !o.converged && o.has_quality &&
              o.diagnostics.scaled_residual < 0.0)
            rep.detail = "non-converged run missing quality diagnostics";
          if (rep.detail.empty() && !tc.sigma.empty()) {
            rep.sigma_error = scaled_sigma_error(o.sigma, tc.sigma);
            if (!(rep.sigma_error <= tol))
              rep.detail = "sigma error " + std::to_string(rep.sigma_error) +
                           " exceeds tol on known-sigma case";
          }
          // Bitwise equilibration transparency, checked once per engine x
          // ordering on the well-scaled case.
          if (rep.detail.empty() && tc.name == "well-scaled") {
            const Outcome off = eng.run(tc.a, *ordering, EquilibrateMode::kOff, max_sweeps);
            const Outcome always = eng.run(tc.a, *ordering, EquilibrateMode::kAlways, max_sweeps);
            if (off.sweeps != always.sweeps)
              rep.detail = "equilibrated sweep count differs from unequilibrated";
            for (std::size_t k = 0; rep.detail.empty() && k < off.sigma.size(); ++k)
              if (off.sigma[k] != always.sigma[k])
                rep.detail = "equilibrated sigma[" + std::to_string(k) + "] differs bitwise";
          }
        } catch (const std::exception& e) {
          rep.detail = std::string("exception: ") + e.what();
        }
        rep.ok = rep.detail.empty();
        reports.push_back(std::move(rep));
      }
    }
  }

  gate::Report report;
  std::vector<JsonObject> runs;
  for (const RunReport& r : reports) {
    JsonObject o;
    o.add("case", r.kase)
        .add("engine", r.engine)
        .add("ordering", r.ordering)
        .add("ok", r.ok)
        .add("status", r.status)
        .add("converged", r.converged)
        .add("sweeps", r.sweeps)
        .add("equilibrated", r.equilibrated);
    if (r.sigma_error >= 0.0) o.add("sigma_error", r.sigma_error);
    if (r.scaled_residual >= 0.0) o.add("scaled_residual", r.scaled_residual);
    if (!r.ok) {
      o.add("detail", r.detail);
      report.fail("violation: " + r.engine + " x " + r.ordering + " on " + r.kase + ": " +
                  r.detail);
    }
    runs.push_back(o);
  }
  report.json.add("tool", "treesvd_torture")
      .add("version", 1)
      .add("n", n)
      .add("rows", rows)
      .add("tol", tol)
      .add_array("runs", runs);
  report.summary = std::to_string(runs.size()) + " engine x ordering x case torture runs";
  return report;
}

}  // namespace
}  // namespace treesvd::torture

int main(int argc, char** argv) {
  return treesvd::gate::run("treesvd_torture",
                            "Runs every engine x ordering over the torture-input family and "
                            "enforces the\ngraceful-degradation contract.",
                            treesvd::torture::kFlags, argc, argv, treesvd::torture::run);
}
