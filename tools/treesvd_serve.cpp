// treesvd_serve — many-SVD serving front-end over the batched engine.
//
// Boots an SvdServer (svd/serve.hpp: thread-per-shard, bounded MPSC
// submission queues with backpressure, preallocated SoA arena slabs), replays
// a seeded synthetic request trace against it, verifies a sample of served
// results bitwise against direct sequential solves, and dumps the latency
// histogram and throughput counters as JSON.
//
// The gate: every verified result matches the sequential engine bit-for-bit
// and the histogram is sane (count == requests, p50 <= p99, nonzero QPS).
// Flags, JSON report and exit codes follow the gate runner (gate.hpp).
//
// --chaos flips the tool into the deterministic serve-chaos gate: three
// seeded fault legs (mixed poison/throw/expire with shard kills; overload
// with a stalled shard and deadline shedding; repeat-offender quarantine),
// each replayed to prove the fault counters are bit-reproducible. The gate
// fails on any lost request (a submission that never reached a terminal
// state), any healthy payload that diverges from the sequential solve, or
// any counter drift between replays — the serving counterpart of the
// transport chaos gate.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gate.hpp"
#include "linalg/generators.hpp"
#include "svd/jacobi.hpp"
#include "svd/serve.hpp"
#include "util/rng.hpp"

namespace treesvd::serve_tool {
namespace {

JsonObject histogram_json(const LatencyHistogram& h) {
  // Trailing zero buckets are elided; what remains is the occupied prefix.
  std::size_t last = 0;
  for (std::size_t k = 0; k < LatencyHistogram::kBuckets; ++k)
    if (h.buckets()[k] != 0) last = k + 1;
  const std::vector<std::uint64_t> occupied(h.buckets().begin(), h.buckets().begin() + last);
  JsonObject o;
  o.add("count", h.count())
      .add("p50_ns", h.p50_ns())
      .add("p99_ns", h.p99_ns())
      .add("max_ns", h.max_ns())
      .add_array("log2_buckets", occupied);
  return o;
}

// ---------------------------------------------------------------------------
// Chaos gate
// ---------------------------------------------------------------------------

/// Sentinel planted in every result slot before submission; any terminal
/// completion overwrites it, so a surviving sentinel is a lost request.
constexpr int kSentinelSweeps = -12345;

/// The deterministic subset of ServeStats a replay must reproduce
/// bit-for-bit. (requeued and stuck_detected depend on batch composition and
/// supervisor poll timing, so they are reported but not replay-gated.)
struct ChaosCounters {
  std::uint64_t submitted = 0, completed = 0, solved = 0, expired = 0, shed = 0, failed = 0,
                rejected = 0, kills = 0, restarts = 0, quarantines = 0, stalls_injected = 0;

  static ChaosCounters from(const ServeStats& s) {
    return {s.submitted, s.completed, s.solved,    s.expired,     s.shed,           s.failed,
            s.rejected,  s.kills,     s.restarts, s.quarantines, s.stalls_injected};
  }
  bool operator==(const ChaosCounters&) const = default;
};

struct LegReport {
  std::string name;
  bool ok = true;
  std::vector<std::string> errors;
  ServeStats stats;

  void fail(std::string why) {
    ok = false;
    errors.push_back(std::move(why));
  }
  void check(bool cond, const std::string& why) {
    if (!cond) fail(why);
  }
};

struct ChaosConfig {
  std::size_t rows = 12;
  std::size_t cols = 8;
  std::size_t requests = 96;
  std::uint64_t seed = 2026;
  const Ordering* ordering = nullptr;
};

void expect_counter(LegReport& leg, const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    leg.fail(std::string(what) + " = " + std::to_string(got) + ", expected " +
             std::to_string(want));
  }
}

/// Common post-run audit: no submission may be lost (sentinel survived or
/// accounting mismatch), and every request must sit in exactly the terminal
/// state its planned fault dictates — healthy ones bitwise equal to the
/// sequential solve.
void audit_results(LegReport& leg, const ChaosConfig& cfg, const ServeFaultPlan& plan,
                   const std::vector<Matrix>& inputs, const std::vector<SvdResult>& results,
                   const JacobiOptions& jopt) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SvdResult& r = results[i];
    if (r.sweeps == kSentinelSweeps) {
      leg.fail("request " + std::to_string(i) + " LOST: never reached a terminal state");
      continue;
    }
    switch (plan.request_fault(static_cast<std::uint64_t>(i))) {
      case ServeFaultPlan::RequestFault::kPoison:
        leg.check(r.status == SvdStatus::kFailed && !r.diagnostics.error.empty(),
                  "poison request " + std::to_string(i) + " not kFailed-with-context (status " +
                      to_string(r.status) + ")");
        break;
      case ServeFaultPlan::RequestFault::kThrow:
        leg.check(r.status == SvdStatus::kFailed && !r.diagnostics.error.empty(),
                  "throw request " + std::to_string(i) + " not kFailed-with-context (status " +
                      to_string(r.status) + ")");
        break;
      case ServeFaultPlan::RequestFault::kExpire:
        leg.check(r.status == SvdStatus::kDeadlineExpired,
                  "expire request " + std::to_string(i) + " not kDeadlineExpired (status " +
                      to_string(r.status) + ")");
        break;
      case ServeFaultPlan::RequestFault::kNone: {
        const SvdResult ref = one_sided_jacobi(inputs[i], *cfg.ordering, jopt);
        leg.check(result_digest(r) == result_digest(ref),
                  "healthy request " + std::to_string(i) + " diverged from sequential solve");
        break;
      }
    }
  }
  leg.check(leg.stats.completed == results.size(),
            "completed = " + std::to_string(leg.stats.completed) + ", expected " +
                std::to_string(results.size()));
  leg.check(leg.stats.latency.count() == leg.stats.completed,
            "latency count != completed");
  leg.check(leg.stats.completed == leg.stats.solved + leg.stats.expired + leg.stats.failed,
            "terminal accounting broken: completed != solved + expired + failed");
}

/// Leg A — mixed faults: seeded poison inputs (NaN), injected solver throws,
/// pre-expired deadlines, plus a double shard kill (restart + requeue, no
/// quarantine). The healthy majority must come through bitwise clean.
LegReport run_mixed_leg(const ChaosConfig& cfg) {
  LegReport leg;
  leg.name = "mixed";

  ServeOptions opt;
  opt.rows = cfg.rows;
  opt.cols = cfg.cols;
  opt.shards = 2;
  opt.queue_capacity = 64;
  opt.batch.lane_width = 4;
  opt.supervisor.poll_micros = 200;
  opt.supervisor.quarantine_after = 2;
  ServeFaultPlan& fp = opt.faults;
  fp.enabled = true;
  fp.seed = cfg.seed;
  fp.poison_prob = 0.12;
  fp.throw_prob = 0.10;
  fp.expire_prob = 0.10;
  fp.kill_repeat = 2;
  // The kill target must be a fault-free request: a poisoned/expired one
  // would be retired before the kill check ever sees it.
  fp.kill_request = -1;
  for (std::uint64_t id = cfg.requests / 3; id < cfg.requests; ++id) {
    if (fp.request_fault(id) == ServeFaultPlan::RequestFault::kNone) {
      fp.kill_request = static_cast<long long>(id);
      break;
    }
  }

  Rng rng(cfg.seed);
  std::vector<Matrix> inputs;
  inputs.reserve(cfg.requests);
  std::size_t npoison = 0, nthrow = 0, nexpire = 0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    inputs.push_back(random_gaussian(cfg.rows, cfg.cols, rng));
    switch (fp.request_fault(static_cast<std::uint64_t>(i))) {
      case ServeFaultPlan::RequestFault::kPoison:
        inputs.back()(0, 0) = std::numeric_limits<double>::quiet_NaN();
        ++npoison;
        break;
      case ServeFaultPlan::RequestFault::kThrow: ++nthrow; break;
      case ServeFaultPlan::RequestFault::kExpire: ++nexpire; break;
      case ServeFaultPlan::RequestFault::kNone: break;
    }
  }
  std::vector<SvdResult> results(cfg.requests);
  for (auto& r : results) r.sweeps = kSentinelSweeps;

  SvdServer server(*cfg.ordering, opt);
  server.start();
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    SubmitOptions so;
    if (fp.request_fault(static_cast<std::uint64_t>(i)) == ServeFaultPlan::RequestFault::kExpire)
      so.deadline_ns = 1;  // unmeetable: expires at batch formation, never solves
    if (server.submit(inputs[i], &results[i], so) != SubmitOutcome::kAccepted)
      leg.fail("submission " + std::to_string(i) + " not accepted");
  }
  server.wait_idle();
  server.stop();
  leg.stats = server.stats();

  audit_results(leg, cfg, fp, inputs, results, opt.batch.jacobi);
  expect_counter(leg, "expired", leg.stats.expired, nexpire);
  expect_counter(leg, "failed", leg.stats.failed, npoison + nthrow);
  expect_counter(leg, "solved", leg.stats.solved, cfg.requests - nexpire - npoison - nthrow);
  expect_counter(leg, "kills", leg.stats.kills, fp.kill_repeat);
  expect_counter(leg, "restarts", leg.stats.restarts, fp.kill_repeat);
  expect_counter(leg, "quarantines", leg.stats.quarantines, 0);
  return leg;
}

/// Leg B — overload and shedding: one shard, stalled by the plan until the
/// whole trace is submitted, a queue full of already-expired requests, and a
/// healthy wave admitted under kShedExpired that must evict them. Also pins
/// the watermark readiness transitions, which are deterministic here because
/// the stall forbids any completion while the backlog builds.
LegReport run_overload_leg(const ChaosConfig& cfg) {
  LegReport leg;
  leg.name = "overload";

  const std::size_t wave = 8;
  ServeOptions opt;
  opt.rows = cfg.rows;
  opt.cols = cfg.cols;
  opt.shards = 1;
  opt.queue_capacity = wave;
  opt.batch.lane_width = 4;
  ServeFaultPlan& fp = opt.faults;
  fp.enabled = true;
  fp.seed = cfg.seed;
  fp.stall_shard = 0;
  fp.stall_until_submitted = 2 * wave;  // event-released: when the trace is in
  fp.stall_micros = 30000000;           // 30 s wall-clock safety bound

  Rng rng(cfg.seed + 1);
  std::vector<Matrix> inputs;
  inputs.reserve(2 * wave);
  for (std::size_t i = 0; i < 2 * wave; ++i)
    inputs.push_back(random_gaussian(cfg.rows, cfg.cols, rng));
  std::vector<SvdResult> results(2 * wave);
  for (auto& r : results) r.sweeps = kSentinelSweeps;

  SvdServer server(*cfg.ordering, opt);
  server.start();
  leg.check(server.ready(), "server not ready before any load");
  // Fill the queue with doomed requests (the shard is stalled, so none can
  // complete and the backlog is exact).
  for (std::size_t i = 0; i < wave; ++i) {
    SubmitOptions so;
    so.deadline_ns = 1;
    if (server.submit(inputs[i], &results[i], so) != SubmitOutcome::kAccepted)
      leg.fail("expired-wave submission " + std::to_string(i) + " not accepted");
  }
  leg.check(!server.ready(), "backlog at the high watermark did not drop readiness");
  // The healthy wave sheds its way in.
  for (std::size_t i = wave; i < 2 * wave; ++i) {
    SubmitOptions so;
    so.policy = SubmitPolicy::kShedExpired;
    if (server.submit(inputs[i], &results[i], so) != SubmitOutcome::kAccepted)
      leg.fail("healthy-wave submission " + std::to_string(i) + " not accepted");
  }
  server.wait_idle();
  leg.check(server.ready(), "server not ready again after the backlog drained");
  server.stop();
  leg.stats = server.stats();

  // The doomed wave must be shed-expired; the healthy wave must be real
  // solves, bitwise equal to the sequential engine.
  for (std::size_t i = 0; i < wave; ++i) {
    const SvdResult& r = results[i];
    leg.check(r.sweeps != kSentinelSweeps,
              "doomed request " + std::to_string(i) + " LOST");
    leg.check(r.status == SvdStatus::kDeadlineExpired,
              "doomed request " + std::to_string(i) + " not kDeadlineExpired (status " +
                  to_string(r.status) + ")");
  }
  for (std::size_t i = wave; i < 2 * wave; ++i) {
    const SvdResult& r = results[i];
    leg.check(r.sweeps != kSentinelSweeps, "healthy request " + std::to_string(i) + " LOST");
    if (r.sweeps == kSentinelSweeps) continue;
    const SvdResult ref = one_sided_jacobi(inputs[i], *cfg.ordering, opt.batch.jacobi);
    leg.check(result_digest(r) == result_digest(ref),
              "healthy request " + std::to_string(i) + " diverged from sequential solve");
  }
  expect_counter(leg, "shed", leg.stats.shed, wave);
  expect_counter(leg, "expired", leg.stats.expired, wave);
  expect_counter(leg, "solved", leg.stats.solved, wave);
  expect_counter(leg, "failed", leg.stats.failed, 0);
  expect_counter(leg, "rejected", leg.stats.rejected, 0);
  expect_counter(leg, "completed", leg.stats.completed, 2 * wave);
  expect_counter(leg, "stalls_injected", leg.stats.stalls_injected, 1);
  leg.check(leg.stats.latency.count() == leg.stats.completed, "latency count != completed");
  return leg;
}

/// Leg C — repeat offender: the kill budget outlives the quarantine budget,
/// so the victim shard dies, restarts, dies again, gets quarantined, and its
/// work (kill request included) moves to the survivor — which absorbs one
/// more planned death, restarts, and finishes the trace. Every request still
/// completes with a bitwise-clean payload.
LegReport run_quarantine_leg(const ChaosConfig& cfg) {
  LegReport leg;
  leg.name = "quarantine";

  const std::size_t requests = 24;
  ServeOptions opt;
  opt.rows = cfg.rows;
  opt.cols = cfg.cols;
  opt.shards = 2;
  opt.queue_capacity = 64;
  opt.batch.lane_width = 4;
  opt.supervisor.poll_micros = 200;
  opt.supervisor.quarantine_after = 1;
  ServeFaultPlan& fp = opt.faults;
  fp.enabled = true;
  fp.seed = cfg.seed;
  fp.kill_request = 2;
  fp.kill_repeat = 3;

  Rng rng(cfg.seed + 2);
  std::vector<Matrix> inputs;
  inputs.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i)
    inputs.push_back(random_gaussian(cfg.rows, cfg.cols, rng));
  std::vector<SvdResult> results(requests);
  for (auto& r : results) r.sweeps = kSentinelSweeps;

  SvdServer server(*cfg.ordering, opt);
  server.start();
  for (std::size_t i = 0; i < requests; ++i) {
    if (!server.submit(inputs[i], &results[i]))
      leg.fail("submission " + std::to_string(i) + " not accepted");
  }
  server.wait_idle();
  server.stop();
  leg.stats = server.stats();

  for (std::size_t i = 0; i < requests; ++i) {
    const SvdResult& r = results[i];
    leg.check(r.sweeps != kSentinelSweeps, "request " + std::to_string(i) + " LOST");
    if (r.sweeps == kSentinelSweeps) continue;
    const SvdResult ref = one_sided_jacobi(inputs[i], *cfg.ordering, opt.batch.jacobi);
    leg.check(result_digest(r) == result_digest(ref),
              "request " + std::to_string(i) + " diverged from sequential solve");
  }
  expect_counter(leg, "kills", leg.stats.kills, fp.kill_repeat);
  expect_counter(leg, "restarts", leg.stats.restarts, 2);
  expect_counter(leg, "quarantines", leg.stats.quarantines, 1);
  expect_counter(leg, "solved", leg.stats.solved, requests);
  expect_counter(leg, "failed", leg.stats.failed, 0);
  expect_counter(leg, "completed", leg.stats.completed, requests);
  std::uint64_t deaths = 0;
  for (const ShardSnapshot& sh : leg.stats.shards) deaths += sh.deaths;
  expect_counter(leg, "total shard deaths", deaths, fp.kill_repeat);
  leg.check(leg.stats.requeued >= 1, "a killed batch was never requeued");
  return leg;
}

JsonObject counters_json(const ServeStats& s) {
  JsonObject o;
  o.add("submitted", s.submitted)
      .add("completed", s.completed)
      .add("solved", s.solved)
      .add("expired", s.expired)
      .add("shed", s.shed)
      .add("failed", s.failed)
      .add("rejected", s.rejected)
      .add("requeued", s.requeued)
      .add("kills", s.kills)
      .add("restarts", s.restarts)
      .add("quarantines", s.quarantines)
      .add("stalls_injected", s.stalls_injected)
      .add("stuck_detected", s.stuck_detected);
  return o;
}

constexpr gate::Flag kFlags[] = {
    {"rows", "32", "matrix rows (12 with --chaos)"},
    {"cols", "16", "matrix columns (8 with --chaos)"},
    {"ordering", "round-robin", "registry ordering"},
    {"shards", "2", "shard worker threads"},
    {"lane-width", "8", "batched-engine lanes per shard"},
    {"queue-cap", "64", "per-shard submission queue capacity"},
    {"requests", "512", "trace length (96 with --chaos)"},
    {"seed", "2026", "trace and fault-plan seed"},
    {"verify", "32", "served results checked against sequential solves"},
    {"chaos", "", "run the three seeded, replayed serve-chaos legs instead"},
    {"json", "", "write the report here instead of stdout"},
};

gate::Report run_chaos(const gate::Args& args) {
  ChaosConfig cfg;
  // Range-checked as signed values, before any conversion to size_t.
  const long long rows = args.integer("rows", 12);
  const long long cols = args.integer("cols", 8);
  const long long requests = args.integer("requests", 96);
  gate::require(rows >= cols && cols >= 2 && requests >= 24,
                "--chaos needs rows >= cols >= 2 and requests >= 24");
  cfg.rows = static_cast<std::size_t>(rows);
  cfg.cols = static_cast<std::size_t>(cols);
  cfg.requests = static_cast<std::size_t>(requests);
  cfg.seed = static_cast<std::uint64_t>(args.integer("seed"));
  const std::string oname = args.ordering("ordering");
  const OrderingPtr ordering = make_ordering(oname);
  cfg.ordering = ordering.get();

  // Each leg runs twice: the pass/fail audits run on the first, and the
  // replay must reproduce the deterministic counter subset bit-for-bit.
  gate::Report report;
  std::vector<JsonObject> legs;
  bool replay_identical = true;
  const auto run_replayed = [&](auto&& leg_fn) {
    LegReport first = leg_fn(cfg);
    const LegReport second = leg_fn(cfg);
    if (!(ChaosCounters::from(first.stats) == ChaosCounters::from(second.stats))) {
      replay_identical = false;
      first.fail("replay produced different counters: " + counters_json(first.stats).str() +
                 " vs " + counters_json(second.stats).str());
    }
    for (const std::string& e : first.errors) report.fail("chaos:" + first.name + ": " + e);
    for (const std::string& e : second.errors)
      report.fail("chaos:" + first.name + " (replay): " + e);
    JsonObject leg;
    leg.add("name", first.name)
        .add("pass", first.ok && second.ok)
        .add("errors", first.errors.size())
        .add("counters", counters_json(first.stats));
    legs.push_back(leg);
  };
  run_replayed(run_mixed_leg);
  run_replayed(run_overload_leg);
  run_replayed(run_quarantine_leg);

  report.json.add("tool", "treesvd_serve")
      .add("mode", "chaos")
      .add("rows", cfg.rows)
      .add("cols", cfg.cols)
      .add("ordering", oname)
      .add("requests", cfg.requests)
      .add("seed", cfg.seed)
      .add_array("legs", legs)
      .add("replay_identical", replay_identical);
  report.summary = std::to_string(legs.size()) + " serve-chaos legs, each replayed";
  return report;
}

gate::Report run_serve(const gate::Args& args) {
  // Every count is range-checked as a signed value before it becomes a
  // size_t, so a negative flag is a usage error, not a wrapped-around size.
  const long long rows_arg = args.integer("rows");
  const long long cols_arg = args.integer("cols");
  const long long shards_arg = args.integer("shards");
  const long long lane_width_arg = args.integer("lane-width");
  const long long queue_cap_arg = args.integer("queue-cap");
  const long long requests_arg = args.integer("requests");
  const long long verify_arg = args.integer("verify");
  gate::require(rows_arg >= cols_arg && cols_arg >= 2 && shards_arg >= 1 && requests_arg >= 1,
                "need rows >= cols >= 2, shards >= 1, requests >= 1");
  gate::require(lane_width_arg == 4 || lane_width_arg == 8 || lane_width_arg == 16,
                "--lane-width must be 4, 8 or 16");
  gate::require(queue_cap_arg >= 1, "--queue-cap must be >= 1");
  gate::require(verify_arg >= 0, "--verify must be >= 0");
  const auto rows = static_cast<std::size_t>(rows_arg);
  const auto cols = static_cast<std::size_t>(cols_arg);
  const auto shards = static_cast<std::size_t>(shards_arg);
  const auto lane_width = static_cast<std::size_t>(lane_width_arg);
  const auto queue_cap = static_cast<std::size_t>(queue_cap_arg);
  const auto requests = static_cast<std::size_t>(requests_arg);
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const auto verify = static_cast<std::size_t>(verify_arg);
  const std::string oname = args.ordering("ordering");
  const OrderingPtr ordering = make_ordering(oname);

  ServeOptions opt;
  opt.rows = rows;
  opt.cols = cols;
  opt.shards = shards;
  opt.queue_capacity = queue_cap;
  opt.batch.lane_width = lane_width;

  // Canned trace: `requests` seeded Gaussian problems, generated up front so
  // the replay measures the server, not the generator.
  Rng rng(seed);
  std::vector<Matrix> inputs;
  inputs.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) inputs.push_back(random_gaussian(rows, cols, rng));
  std::vector<SvdResult> results(requests);

  gate::Report report;
  SvdServer server(*ordering, opt);
  server.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    if (!server.submit(inputs[i], &results[i])) {
      report.fail("submit rejected at request " + std::to_string(i));
      return report;
    }
  }
  server.wait_idle();
  const auto t1 = std::chrono::steady_clock::now();
  server.stop();
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  const double qps = elapsed_s > 0.0 ? static_cast<double>(requests) / elapsed_s : 0.0;

  // Verification gate: a deterministic sample of served results must be
  // bitwise the direct sequential solve (the engine's lane contract,
  // end-to-end through queueing and batching).
  const std::size_t nverify = std::min(verify, requests);
  const std::size_t stride = nverify == 0 ? 1 : std::max<std::size_t>(1, requests / nverify);
  std::size_t verified = 0;
  for (std::size_t i = 0; i < requests && verified < nverify; i += stride, ++verified) {
    const SvdResult ref = one_sided_jacobi(inputs[i], *ordering, opt.batch.jacobi);
    if (result_digest(results[i]) != result_digest(ref))
      report.fail("VERIFY FAIL request " + std::to_string(i) +
                  " diverged from sequential solve");
  }

  const ServeStats stats = server.stats();
  if (stats.completed != requests || stats.latency.count() != requests)
    report.fail("accounting mismatch: completed=" + std::to_string(stats.completed) +
                " latency_count=" + std::to_string(stats.latency.count()) +
                " requests=" + std::to_string(requests));
  if (stats.solved != requests || stats.expired != 0 || stats.failed != 0)
    report.fail("fault-free run saw faults: solved=" + std::to_string(stats.solved) +
                " expired=" + std::to_string(stats.expired) +
                " failed=" + std::to_string(stats.failed));
  if (stats.latency.p50_ns() > stats.latency.p99_ns())
    report.fail("histogram insane: p50 > p99");
  if (qps <= 0.0) report.fail("nonpositive throughput");

  report.json.add("tool", "treesvd_serve")
      .add("rows", rows)
      .add("cols", cols)
      .add("ordering", oname)
      .add("shards", shards)
      .add("lane_width", lane_width)
      .add("queue_capacity", queue_cap)
      .add("requests", requests)
      .add("seed", seed)
      .add("elapsed_s", elapsed_s)
      .add("qps", qps)
      .add("batches", stats.batches)
      .add("mean_batch_fill", stats.batches != 0 ? static_cast<double>(stats.batched_lanes) /
                                                       static_cast<double>(stats.batches)
                                                 : 0.0)
      .add("counters", counters_json(stats))
      .add("verified", verified)
      .add("latency", histogram_json(stats.latency));
  report.summary = std::to_string(requests) + " requests, qps=" + std::to_string(qps) +
                   ", p50=" + std::to_string(stats.latency.p50_ns()) +
                   "ns, p99=" + std::to_string(stats.latency.p99_ns()) + "ns";
  return report;
}

gate::Report run(const gate::Args& args) {
  return args.has("chaos") ? run_chaos(args) : run_serve(args);
}

}  // namespace
}  // namespace treesvd::serve_tool

int main(int argc, char** argv) {
  return treesvd::gate::run("treesvd_serve",
                            "Replays a seeded request trace through SvdServer and verifies served "
                            "results bitwise;\n--chaos runs the deterministic serve-chaos gate.",
                            treesvd::serve_tool::kFlags, argc, argv, treesvd::serve_tool::run);
}
