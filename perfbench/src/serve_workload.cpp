// serve-open-n16: an open-loop Poisson stream of 16 x 16 Gaussian requests
// into one SvdServer (round-robin ordering, one shard, lane width 8).
//
// A single generator thread sends each request at its precomputed due time
// and, between sends, polls the server's `completed` counter. With one shard
// and no faults, completions come back in submission order, so the k-th
// completion belongs to the k-th request; latency is taken from the
// request's due time, which charges a stall to every request it delays. The
// server's own log2 latency histogram is not used.

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/serve.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace treesvd;

namespace {

constexpr std::size_t kN = 16;
constexpr std::size_t kLaneWidth = 8;
constexpr std::size_t kInputs = 2048;         ///< distinct request matrices, cycled
/// Result slots, reused once verified. Larger than the most requests the
/// server can hold (queue 256 + one batch), so a send only waits for
/// verification, which bounds the results alive at once and so the RSS.
constexpr std::size_t kSlots = 1024;
constexpr double kSloP99Ms = 2.0;             ///< latency limit on a rung's p99
constexpr double kLateLimitMs = 1.0;          ///< generator p99 lateness that voids a rung
constexpr std::size_t kTracedPerRung = 250;   ///< request spans kept per rung segment
constexpr std::size_t kRateWindow = 1024;    ///< completions per capacity window
constexpr int kCycles = 8;                    ///< passes over the rate ladder
constexpr int kSetupReps = 11;
constexpr std::size_t kWarmup = 64;

struct RungSpec {
  const char* label;
  double rate;   ///< offered solves/s; 0 = saturation burst
  double share;  ///< fraction of --seconds
};

constexpr RungSpec kRungs[] = {
    {"r2k", 2000, 0.14},  {"r5k", 5000, 0.09},  {"r8k", 8000, 0.28},
    {"r11k", 11000, 0.09}, {"r14k", 14000, 0.09}, {"burst", 0, 0.14},
};
constexpr std::size_t kLight = 0;
constexpr std::size_t kNominal = 2;
constexpr std::size_t kBurst = 5;

struct Inputs {
  std::vector<Matrix> a;
  std::vector<std::uint64_t> digest;  ///< result_digest of the direct solve
};

struct Rung {
  std::string label;
  double rate = 0;
  std::size_t requests = 0;
  std::vector<double> latency_ms;  ///< due -> completion (open-loop rungs)
  std::vector<double> late_ms;     ///< send - due
  std::vector<double> submit_us;   ///< time inside submit()
  double backlog_sum = 0;          ///< submitted - completed, sampled at each send
  double elapsed_s = 0;            ///< first send -> last completion
  std::vector<double> rates;       ///< completions/s per kRateWindow completions
  std::uint64_t batches = 0;
  std::uint64_t lanes = 0;
  std::size_t failed = 0;
  double steal = 0;                ///< host steal share over the segment
  std::size_t segments = 0;        ///< segments pooled into this rung

  /// Pools another segment of the same rung into this one.
  void absorb(const Rung& o) {
    const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    requests += o.requests;
    append(latency_ms, o.latency_ms);
    append(late_ms, o.late_ms);
    append(submit_us, o.submit_us);
    append(rates, o.rates);
    backlog_sum += o.backlog_sum;
    elapsed_s += o.elapsed_s;
    batches += o.batches;
    lanes += o.lanes;
    failed += o.failed;
    segments += 1;
  }
  double fill() const { return batches == 0 ? 0 : double(lanes) / double(batches); }
  double backlog_mean() const { return requests == 0 ? 0 : backlog_sum / double(requests); }
  /// Completions per second: median over windows (robust to stalls), or the
  /// plain rate when too few windows completed.
  double throughput() const {
    if (rates.size() >= 3) return median(rates);
    return elapsed_s > 0 ? double(requests) / elapsed_s : 0.0;
  }
  double late_p99_ms() const { return quantile(late_ms, 0.99); }
  bool valid() const { return late_p99_ms() <= kLateLimitMs; }
  double p99_ms() const {
    return samples_beyond(latency_ms.size(), 0.99) >= kMinBeyond ? quantile(latency_ms, 0.99)
                                                                  : NAN;
  }
  bool meets_slo() const { return rate > 0 && valid() && failed == 0 && p99_ms() <= kSloP99Ms; }
};

/// Drives one rung: `rate` > 0 sends a Poisson stream at that rate for
/// `seconds`; `rate` == 0 sends back to back (blocking admission) for
/// `seconds`. Every served result is checked against its direct solve.
///
/// One thread does everything: between sends it polls the server's
/// completion counter (timestamping new completions) and verifies finished
/// results. It spins rather than sleeps, because sleeps wake hundreds of
/// microseconds late on virtualised hosts, and it keeps the benchmark to one
/// busy thread beside the server's shard.
Rung drive(SvdServer& server, const Inputs& in, const RungSpec& spec, double seconds, Rng& rng,
           Tracer* tracer, Outcome& out) {
  Rung r;
  r.label = spec.label;
  r.rate = spec.rate;
  const bool burst = spec.rate <= 0;
  const std::size_t cap =
      burst ? static_cast<std::size_t>(seconds * 60000) + 1024
            : std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(spec.rate * seconds)));

  // Schedule before the clock: exponential gaps at the offered rate.
  std::vector<std::int64_t> due(cap, 0);
  if (!burst) {
    double t = 0;
    for (std::size_t k = 0; k < cap; ++k) {
      t += -std::log1p(-rng.uniform()) / spec.rate;
      due[k] = static_cast<std::int64_t>(t * 1e9);
    }
  }
  std::vector<std::int64_t> sent(cap, 0), done(cap, 0), submit_ns(cap, 0);
  std::vector<SvdResult> slots(kSlots);
  std::size_t seen = 0;     // completions attributed so far
  std::size_t checked = 0;  // results verified (their slot is free again)
  std::size_t mismatches = 0;
  const ServeStats before = server.stats();

  // With one shard the k-th completion is the k-th request. Reading the
  // counter through stats() takes the shard's stats lock, which orders the
  // shard's result writes before our reads of the slots.
  const auto poll = [&] {
    const auto now_done = static_cast<std::size_t>(server.stats().completed - before.completed);
    if (now_done > seen) {
      const std::int64_t t = now_ns();
      for (; seen < now_done; ++seen) done[seen] = t;
    }
  };
  // Checks up to `most` completed results and frees their slots; returns
  // whether any was checked.
  const auto verify = [&](std::size_t most) {
    const std::size_t from = checked;
    for (; checked < seen && checked - from < most; ++checked) {
      SvdResult& res = slots[checked % kSlots];
      if (result_digest(res) != in.digest[checked % kInputs]) ++mismatches;
      res = SvdResult{};
    }
    return checked != from;
  };

  SpanBuffer* gen_tb = tracer != nullptr ? &tracer->buffer(1) : nullptr;
  SpanBuffer* req_tb = tracer != nullptr ? &tracer->buffer(3) : nullptr;
  ScopedSpan rung_span(gen_tb, spec.label, "serve.rung");
  const CpuTicks ticks0 = cpu_ticks();

  const std::int64_t start = now_ns() + 1000000;
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  double backlog_sum = 0;
  bool refused = false;
  std::size_t k = 0;
  for (; k < cap; ++k) {
    if (burst) {
      if (k > 0 && now_ns() >= stop) break;
      poll();
      verify(kLaneWidth);
    } else {
      due[k] += start;
      while (now_ns() < due[k]) {
        poll();
        if (!verify(1)) std::this_thread::yield();
      }
    }
    while (k >= kSlots && checked < k - kSlots + 1) {
      poll();
      verify(1);
    }
    const std::int64_t t0 = now_ns();
    SubmitOutcome so;
    {
      ScopedSpan sp(k < kTracedPerRung ? gen_tb : nullptr, "serve.submit", "serve",
                    rung_span.id(), static_cast<std::int64_t>(k));
      so = server.submit(in.a[k % kInputs], &slots[k % kSlots], SubmitOptions{});
    }
    const std::int64_t t1 = now_ns();
    if (burst) due[k] = t0;
    sent[k] = t0;
    submit_ns[k] = t1 - t0;
    backlog_sum += static_cast<double>(k + 1 - seen);
    if (so != SubmitOutcome::kAccepted) {
      // The request never entered the server: count it as failed and end the
      // rung (a refusing server refuses every later request too).
      refused = true;
      break;
    }
  }
  while (checked < k) {
    poll();
    if (!verify(kLaneWidth)) std::this_thread::yield();
  }
  const ServeStats st = server.stats();
  r.steal = steal_share(ticks0, cpu_ticks());

  r.requests = k;
  r.failed = mismatches + (refused ? 1 : 0);
  out.attempted += k + (refused ? 1 : 0);
  if (refused) out.fail(std::string("serve: submit refused in rung ") + spec.label);
  for (std::size_t i = 0; i < mismatches; ++i)
    out.fail(std::string("serve: served result differs from the direct solve in rung ") +
             spec.label);
  r.backlog_sum = backlog_sum;
  r.elapsed_s = k == 0 ? 0 : double(done[k - 1] - sent[0]) / 1e9;
  std::vector<double> done_s;
  for (std::size_t i = 0; i < k; ++i) done_s.push_back(double(done[i] - sent[0]) / 1e9);
  r.rates = window_rates(done_s, kRateWindow);
  // Per-request samples of the open-loop rungs only: the burst's count
  // follows the host's speed, and keeping them would make the RSS follow too.
  for (std::size_t i = 0; i < k && !burst; ++i) {
    r.latency_ms.push_back(double(done[i] - due[i]) / 1e6);
    r.late_ms.push_back(double(sent[i] - due[i]) / 1e6);
    r.submit_us.push_back(double(submit_ns[i]) / 1e3);
  }
  for (std::size_t i = 0; req_tb != nullptr && i < std::min(k, kTracedPerRung); ++i) {
    Span s;
    s.name = "request";
    s.cat = "serve.request";
    s.t0 = due[i];
    s.t1 = done[i];
    s.id = req_tb->next_id();
    s.parent = rung_span.id();
    s.arg = static_cast<std::int64_t>(i);
    s.async = true;
    req_tb->add(s);
  }
  // Server counters over the rung: batches = engine calls, lanes = solves.
  r.batches = st.batches - before.batches;
  r.lanes = st.batched_lanes - before.batched_lanes;
  return r;
}

std::string rung_json(const Rung& r) {
  std::ostringstream os;
  const auto q = [&](const std::vector<double>& v, double p) { return json_num(quantile(v, p)); };
  os << "{\"label\":\"" << r.label << "\",\"rate_sps\":" << json_num(r.rate)
     << ",\"requests\":" << r.requests << ",\"p50_ms\":" << q(r.latency_ms, 0.5)
     << ",\"p99_ms\":" << json_num(r.p99_ms()) << ",\"max_ms\":" << q(r.latency_ms, 1.0)
     << ",\"gen_late_p50_ms\":" << q(r.late_ms, 0.5)
     << ",\"gen_late_p99_ms\":" << json_num(r.late_p99_ms())
     << ",\"submit_p50_us\":" << q(r.submit_us, 0.5)
     << ",\"submit_p99_us\":" << q(r.submit_us, 0.99)
     << ",\"backlog_mean\":" << json_num(r.backlog_mean()) << ",\"batch_fill\":"
     << json_num(r.fill()) << ",\"engine_calls\":" << r.batches
     << ",\"elapsed_s\":" << json_num(r.elapsed_s) << ",\"segments_pooled\":" << r.segments
     << ",\"throughput_sps\":" << json_num(r.throughput()) << ",\"failed\":" << r.failed
     << ",\"valid\":" << (r.valid() ? "true" : "false")
     << ",\"meets_slo\":" << (r.meets_slo() ? "true" : "false") << "}";
  return os.str();
}

}  // namespace

Outcome run_serve(const RunConfig& cfg, const LayerUnits* units) {
  Outcome out;
  const OrderingPtr ord = make_ordering("round-robin");
  ServeOptions opt;
  opt.rows = kN;
  opt.cols = kN;
  opt.shards = 1;
  opt.batch.lane_width = kLaneWidth;

  // Inputs and their reference digests, all before any clock starts.
  Rng rng(cfg.seed);
  Inputs in;
  in.a.reserve(kInputs);
  for (std::size_t i = 0; i < kInputs; ++i) in.a.push_back(random_gaussian(kN, kN, rng));
  for (const Matrix& a : in.a)
    in.digest.push_back(result_digest(one_sided_jacobi(a, *ord, opt.batch.jacobi)));

  // Set-up: construct, start and warm the server; repeated, median reported.
  std::vector<double> setup_s;
  std::unique_ptr<SvdServer> server;
  std::vector<SvdResult> warm(kWarmup);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->stop();
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<SvdServer>(*ord, opt);
    server->start();
    std::vector<bool> accepted(kWarmup);
    for (std::size_t i = 0; i < kWarmup; ++i) accepted[i] = server->submit(in.a[i], &warm[i]);
    server->wait_idle();
    setup_s.push_back(double(now_ns() - t0) / 1e9);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      ++out.attempted;
      if (!accepted[i] || result_digest(warm[i]) != in.digest[i])
        out.fail("serve: warm-up request refused or its result differs");
    }
  }

  const double cpu0 = process_cpu_seconds();
  const std::int64_t wall0 = now_ns();
  // The ladder runs kCycles times with proportionally shorter rungs, and each
  // rung pools its segments: slow drifts of host speed then reach every rung
  // alike instead of whichever rung they happen to coincide with.
  std::vector<std::vector<Rung>> segments(std::size(kRungs));
  for (int c = 0; c < kCycles; ++c)
    for (std::size_t i = 0; i < std::size(kRungs); ++i)
      segments[i].push_back(drive(*server, in, kRungs[i], kRungs[i].share * cfg.seconds / kCycles,
                                  rng, cfg.tracer, out));
  // Each rung pools its clean segments (see kMaxHostSteal).
  std::vector<Rung> rungs;
  for (std::size_t i = 0; i < std::size(kRungs); ++i) {
    rungs.emplace_back();
    rungs.back().label = kRungs[i].label;
    rungs.back().rate = kRungs[i].rate;
    std::vector<double> steal;
    for (const Rung& g : segments[i]) steal.push_back(g.steal);
    const std::vector<bool> keep = clean_segments(steal);
    for (std::size_t g = 0; g < segments[i].size(); ++g)
      if (keep[g]) rungs.back().absorb(segments[i][g]);
  }
  const double cpu_util = (process_cpu_seconds() - cpu0) / (double(now_ns() - wall0) / 1e9);
  const ServeStats st = server->stats();
  server->stop();
  if (st.failed != 0 || st.expired != 0 || st.rejected != 0 || st.restarts != 0)
    out.fail("serve: server counted failed/expired/rejected requests or shard restarts");

  const Rung& nominal = rungs[kNominal];
  const Rung& light = rungs[kLight];
  const Rung& burst = rungs[kBurst];
  const auto pooled = [](const Rung& r) {
    return "; " + std::to_string(r.segments) + " of " + std::to_string(kCycles) + " segments";
  };
  out.add_e2e("solve_p50_ms", quantile(nominal.latency_ms, 0.5), "ms", nominal.latency_ms.size(),
              "8k/s rung, from due time" + pooled(nominal));
  const double capacity = burst.throughput();
  out.add_e2e("capacity_sps", capacity, "1/s", burst.requests,
              "saturation burst, median over 1024-completion windows" + pooled(burst));
  out.add_e2e("setup_s", median(setup_s), "s", setup_s.size(), "construct+start+64 warm-up solves");
  out.add_e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1);

  double slo_rate = 0;
  std::size_t invalid = 0;
  for (const Rung& r : rungs) {
    if (r.rate > 0 && !r.valid()) ++invalid;
    if (r.meets_slo()) slo_rate = std::max(slo_rate, r.rate);
  }
  const double light_p50 = quantile(light.latency_ms, 0.5);
  out.add_layer("serve.light_p50_ms", light_p50, "ms", light.latency_ms.size());
  out.add_layer("serve.slo_rate_sps", slo_rate, "1/s", rungs.size() - 1);
  out.add_layer("serve.nominal_p99_ms", nominal.p99_ms(), "ms", nominal.latency_ms.size());
  for (const Rung& r : rungs)
    out.add_layer("serve.batch_fill." + r.label, r.fill(), "lanes", r.batches);
  out.add_layer("serve.submit_p50_us", quantile(nominal.submit_us, 0.5), "us", nominal.requests);
  out.add_layer("serve.submit_p99_us", quantile(nominal.submit_us, 0.99), "us", nominal.requests);
  out.add_layer("serve.backlog", nominal.backlog_mean(), "requests", nominal.requests);
  out.add_layer("serve.gen_late_p99_ms", nominal.late_p99_ms(), "ms", nominal.requests);
  out.add_layer("serve.invalid_rungs", double(invalid), "count");
  out.add_layer("proc.cpu_util", cpu_util, "cores");

  if (units != nullptr) {
    const auto engine_ms = [&](double fill) {
      const auto lanes = std::clamp<std::size_t>(static_cast<std::size_t>(std::lround(fill)), 1,
                                                 kLaneWidth);
      return units->batch_solve_us[lanes] / 1e3;
    };
    Ledger cap;
    cap.name = "burst: shard time per solve (1 / capacity_sps)";
    cap.e2e_ms = capacity > 0 ? 1e3 / capacity : 0.0;
    cap.rows.push_back({"batch.solve_into at burst fill (engine calls per solve)",
                        burst.requests == 0 ? 0.0 : double(burst.batches) / double(burst.requests),
                        engine_ms(burst.fill())});
    out.ledgers.push_back(cap);
    Ledger lt;
    lt.name = "light rung (2k/s): p50 latency per request";
    lt.e2e_ms = light_p50;
    lt.rows.push_back({"batch.solve_into at light-rung fill", 1.0, engine_ms(light.fill())});
    lt.rows.push_back({"serve.submit (p50)", 1.0, quantile(light.submit_us, 0.5) / 1e3});
    out.ledgers.push_back(lt);
  }

  std::ostringstream os;
  os << "{\"slo_p99_ms\":" << json_num(kSloP99Ms) << ",\"late_limit_ms\":"
     << json_num(kLateLimitMs) << ",\"rungs\":[";
  for (std::size_t i = 0; i < rungs.size(); ++i) os << (i ? "," : "") << rung_json(rungs[i]);
  os << "]}";
  out.details_json = os.str();
  return out;
}

}  // namespace perfbench
