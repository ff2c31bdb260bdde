// treesvd_race — concurrency-analysis acceptance harness.
//
// For every threaded/SPMD engine x registry ordering, runs the happens-before
// race detector and the schedule-perturbation determinism oracle:
//
//  * Race detection: a vector-clock tracker (analysis/hb.hpp) receives
//    fork/join, message and barrier edges from the instrumented runtime and
//    checks every annotated shared access (NormCache columns, kernel/recovery
//    counters, GEMM reduction buffers, SPMD checkpoint ring). A race is two
//    conflicting accesses with no happens-before path — reported with both
//    access stacks, independent of how the host actually interleaved them.
//  * Determinism oracle: each engine runs under K seeded schedule
//    perturbations (chunk-order permutation + yield injection,
//    analysis/fuzz.hpp) and every run's SvdResult digest — sigma/U/V bits,
//    sweep and rotation counts, kernel stats — must equal the serial
//    reference bit-for-bit.
//
// --self-test proves the machinery can fail: a planted write-write race must
// be flagged (with both stacks) and a planted order-dependent reduction must
// diverge under perturbed schedules. Flags, JSON report and exit codes follow
// the gate runner (gate.hpp); a build without the analysis instrumentation
// (-DTREESVD_ANALYSIS=ON, the default for Debug/RelWithDebInfo) can only
// answer with a usage error.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fuzz.hpp"
#include "analysis/hb.hpp"
#include "analysis/hooks.hpp"
#include "gate.hpp"
#include "linalg/generators.hpp"
#include "svd/batch.hpp"
#include "svd/jacobi.hpp"
#include "svd/spmd.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace treesvd::race {
namespace {

struct Engine {
  std::string name;
  std::function<SvdResult(const Matrix&, const Ordering&, const JacobiOptions&)> run;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

struct ScheduleRun {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  bool match = false;        ///< digest == serial reference
  std::size_t races = 0;
  std::size_t events = 0;    ///< tracker events observed (instrumentation liveness)
  std::size_t tasks = 0;     ///< logical tasks the tracker saw
  std::size_t yields = 0;    ///< fuzzer yields injected
};

struct RunReport {
  std::string engine;
  std::string ordering;
  bool ok = false;
  std::string detail;  ///< first violation or exception text; empty on success
  std::uint64_t serial_digest = 0;
  std::vector<ScheduleRun> schedules;
  std::vector<std::string> races;  ///< rendered race reports (both stacks)
};

const std::vector<Engine>& engines(unsigned threads) {
  static std::vector<Engine> kEngines;
  if (kEngines.empty()) {
    kEngines.push_back({"threaded", [threads](const Matrix& a, const Ordering& ord,
                                              const JacobiOptions& opt) {
                          return one_sided_jacobi_threaded(a, ord, opt, threads);
                        }});
    kEngines.push_back(
        {"spmd", [](const Matrix& a, const Ordering& ord, const JacobiOptions& opt) {
           return spmd_jacobi(a, ord, opt);
         }});
    // Batched engine: 5 identical copies across 2 SIMD shards on a shared
    // pool. Every lane must digest identically (same input, same schedule),
    // and the oracle then holds lane 0 to the serial reference — the full
    // bitwise contract under fuzzed shard interleavings.
    kEngines.push_back({"batched", [threads](const Matrix& a, const Ordering& ord,
                                             const JacobiOptions& opt) {
                          BatchedSvdOptions bopt;
                          bopt.jacobi = opt;
                          bopt.lane_width = 4;
                          BatchedSvd engine(a.rows(), a.cols(), ord, bopt);
                          const std::vector<Matrix> inputs(5, a);
                          ThreadPool pool(threads);
                          const auto rs =
                              engine.solve({inputs.data(), inputs.size()}, &pool);
                          const std::uint64_t d0 = result_digest(rs.front());
                          for (std::size_t b = 1; b < rs.size(); ++b)
                            if (result_digest(rs[b]) != d0)
                              throw std::runtime_error(
                                  "batched lane " + std::to_string(b) +
                                  " diverged from lane 0 on identical input");
                          return rs.front();
                        }});
  }
  return kEngines;
}

RunReport explore(const Engine& eng, const std::string& oname, const Matrix& a,
                  const JacobiOptions& opt, int schedules, std::uint64_t base_seed) {
  RunReport rep;
  rep.engine = eng.name;
  rep.ordering = oname;
  const OrderingPtr ordering = make_ordering(oname);

  const SvdResult serial = one_sided_jacobi(a, *ordering, opt);
  rep.serial_digest = result_digest(serial);

  bool ok = true;
  std::string detail;
  for (int k = 0; k < schedules; ++k) {
    analysis::FuzzPlan plan;
    plan.seed = mix64(base_seed ^ (static_cast<std::uint64_t>(k) + 1));
    analysis::ScopedFuzzer fuzzer(plan);
    analysis::ScopedTracker tracker;

    ScheduleRun run;
    run.seed = plan.seed;
    try {
      const SvdResult r = eng.run(a, *ordering, opt);
      run.digest = result_digest(r);
    } catch (const std::exception& e) {
      ok = false;
      if (detail.empty()) detail = std::string("schedule threw: ") + e.what();
    }
    run.match = run.digest == rep.serial_digest;
    run.races = tracker->race_count();
    run.events = tracker->event_count();
    run.tasks = tracker->task_count();
    run.yields = fuzzer->yields();
    if (!run.match && ok && detail.empty()) {
      ok = false;
      detail = "schedule seed " + std::to_string(run.seed) + " digest " + hex(run.digest) +
               " != serial " + hex(rep.serial_digest);
    }
    if (run.races != 0) {
      ok = false;
      if (detail.empty()) detail = std::to_string(run.races) + " data race(s) detected";
      for (const auto& r : tracker->reports())
        if (rep.races.size() < 16) rep.races.push_back(r.to_string());
    }
    if (run.events == 0 || run.tasks < 2) {
      ok = false;
      if (detail.empty())
        detail = "instrumentation dead: " + std::to_string(run.events) + " events, " +
                 std::to_string(run.tasks) + " tasks";
    }
    rep.schedules.push_back(run);
  }
  rep.ok = ok;
  rep.detail = detail;
  return rep;
}

// ---- self-test: prove the detector and the oracle can actually fail ----

bool self_test_planted_race(std::string* why) {
  analysis::ScopedTracker tracker;
  ThreadPool pool(4);
  double shared = 0.0;
  pool.parallel_for(
      8,
      [&](std::size_t i) {
        // Every chunk writes the same annotated location with no ordering
        // edge between chunks: a write-write race by construction.
        TREESVD_HB_WRITE(&shared, 0, "planted shared scalar");
        shared += static_cast<double>(i);
      },
      1);
  const auto reports = tracker->reports();
  if (reports.empty()) {
    *why = "planted write-write race was not detected";
    return false;
  }
  const analysis::RaceReport& r = reports.front();
  if (r.first.site.empty() || r.second.site.empty()) {
    *why = "race report is missing an access site";
    return false;
  }
  if (r.first.stack.empty() || r.second.stack.empty()) {
    *why = "race report is missing an access stack";
    return false;
  }
  std::cout << "self-test: planted race flagged: " << r.to_string() << "\n";
  return true;
}

/// Order-dependent floating-point reduction: a single CAS accumulator whose
/// final bits depend on summation order.
double order_dependent_sum(const analysis::FuzzPlan* plan) {
  std::optional<analysis::ScopedFuzzer> fuzzer;
  if (plan != nullptr) fuzzer.emplace(*plan);
  ThreadPool pool(4);
  std::atomic<double> sum{0.0};
  pool.parallel_for(
      64,
      [&](std::size_t i) {
        const double term = 1.0 / (3.0 * static_cast<double>(i) + 1.0);
        double cur = sum.load(std::memory_order_relaxed);
        while (!sum.compare_exchange_weak(cur, cur + term, std::memory_order_relaxed)) {
        }
      },
      1);
  return sum.load();
}

bool self_test_planted_divergence(std::string* why) {
  Fnv1a ref;
  ref.add_double(order_dependent_sum(nullptr));
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 8 && !diverged; ++seed) {
    analysis::FuzzPlan plan;
    plan.seed = mix64(seed);
    Fnv1a h;
    h.add_double(order_dependent_sum(&plan));
    diverged = h.value() != ref.value();
  }
  if (!diverged) {
    *why = "schedule fuzzer failed to perturb an order-dependent reduction";
    return false;
  }
  std::cout << "self-test: planted order-dependent reduction diverged under fuzzing\n";
  return true;
}

bool self_test_clean_run(std::string* why) {
  Rng rng(7);
  const Matrix a = random_gaussian(12, 8, rng);
  const OrderingPtr ordering = make_ordering("fat-tree");
  JacobiOptions opt;
  opt.grain = 1;
  const Engine eng = engines(4).front();
  const RunReport rep = explore(eng, "fat-tree", a, opt, 2, 99);
  if (!rep.ok) {
    *why = "clean threaded run failed the contract: " + rep.detail;
    return false;
  }
  std::cout << "self-test: clean threaded run race-free and digest-stable\n";
  return true;
}

gate::Report self_test() {
  gate::Report report;
  report.summary = "self-test: planted race and divergence caught, clean run stable";
  std::string why;
  for (const auto check :
       {&self_test_planted_race, &self_test_planted_divergence, &self_test_clean_run})
    if (!check(&why)) report.fail("self-test: " + why);
  return report;
}

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS
constexpr bool kInstrumented = true;
#else
constexpr bool kInstrumented = false;
#endif

constexpr gate::Flag kFlags[] = {
    {"n", "8", "matrix columns (even, >= 4)"},
    {"rows", "", "matrix rows (default n+4)"},
    {"seed", "2026", "matrix and schedule seed"},
    {"schedules", "16", "perturbed schedules per engine x ordering"},
    {"threads", "4", "pool threads (>= 2)"},
    {"engines", "threaded,spmd,batched", "engines to explore"},
    {"orderings", "", "registry orderings (default: all)"},
    {"max-sweeps", "60", "sweep cap per solve"},
    {"self-test", "", "prove the detector and the oracle can fail"},
    {"json", "", "write the report here instead of stdout"},
};

gate::Report run(const gate::Args& args) {
  const int n = static_cast<int>(args.integer("n"));
  const int rows = static_cast<int>(args.integer("rows", n + 4));
  const int schedules = static_cast<int>(args.integer("schedules"));
  const auto base_seed = static_cast<std::uint64_t>(args.integer("seed"));
  const auto threads = static_cast<unsigned>(args.integer("threads"));
  const int max_sweeps = static_cast<int>(args.integer("max-sweeps"));
  gate::require(n >= 4 && n % 2 == 0 && rows >= n && schedules >= 1 && threads >= 2,
                "need even n >= 4, rows >= n, schedules >= 1, threads >= 2");
  const std::vector<std::string> onames = args.orderings("orderings", ordering_names());
  const std::vector<std::string> enames = args.list("engines");
  gate::require(kInstrumented,
                "this build has no concurrency-analysis instrumentation; reconfigure with "
                "-DTREESVD_ANALYSIS=ON (default for Debug/RelWithDebInfo)");
  if (args.has("self-test")) return self_test();

  Rng rng(base_seed);
  const Matrix a =
      random_gaussian(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  JacobiOptions opt;
  opt.max_sweeps = max_sweeps;
  // Grain 1 forces the chunked pool path (one logical task per leaf) even at
  // small n, so the tracker sees real concurrency on any host.
  opt.grain = 1;

  gate::Report report;
  std::vector<JsonObject> runs;
  for (const Engine& eng : engines(threads)) {
    if (std::find(enames.begin(), enames.end(), eng.name) == enames.end()) continue;
    for (const std::string& oname : onames) {
      if (!schedulable(*make_ordering(oname), n)) continue;
      const RunReport rep = explore(eng, oname, a, opt, schedules, base_seed);
      if (!rep.ok) report.fail(eng.name + " x " + oname + ": " + rep.detail);
      std::vector<JsonObject> sched;
      for (const ScheduleRun& s : rep.schedules) {
        JsonObject o;
        o.add("seed", s.seed)
            .add("digest", hex(s.digest))
            .add("match", s.match)
            .add("races", s.races)
            .add("events", s.events)
            .add("tasks", s.tasks)
            .add("yields", s.yields);
        sched.push_back(o);
      }
      JsonObject r;
      r.add("engine", rep.engine)
          .add("ordering", rep.ordering)
          .add("ok", rep.ok)
          .add("serial_digest", hex(rep.serial_digest));
      if (!rep.detail.empty()) r.add("detail", rep.detail);
      r.add_array("schedules", sched);
      if (!rep.races.empty()) r.add_array("races", rep.races);
      runs.push_back(r);
    }
  }
  gate::require(!runs.empty(), "nothing to run (check --engines/--orderings)");

  report.json.add("tool", "treesvd_race")
      .add("n", n)
      .add("rows", rows)
      .add("schedules", schedules)
      .add("seed", base_seed)
      .add("threads", threads)
      .add_array("runs", runs);
  report.summary = std::to_string(runs.size()) + " engine x ordering runs, " +
                   std::to_string(schedules) + " perturbed schedules each";
  return report;
}

}  // namespace
}  // namespace treesvd::race

int main(int argc, char** argv) {
  return treesvd::gate::run("treesvd_race",
                            "Happens-before race detection and the schedule-perturbation "
                            "determinism oracle\nover every threaded/SPMD engine x ordering.",
                            treesvd::race::kFlags, argc, argv, treesvd::race::run);
}

