// spmd-inproc / spmd-socket: 4096 x 8 Gaussian matrices through spmd_jacobi
// (fat-tree, four ranks holding two columns each) on one mp backend. Column
// messages of 32 KiB make the transport and the dataflow synchronisation
// dominate the small compute. Every result must be bitwise equal to the
// serial one_sided_jacobi on the same input.

#include <sstream>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/determinism.hpp"
#include "svd/spmd.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace treesvd;

namespace {

constexpr std::size_t kM = 4096;
constexpr std::size_t kN = 8;
constexpr int kRanks = int(kN / 2);
constexpr std::size_t kInputs = 16;  ///< distinct inputs, cycled (sweep counts differ)
/// Solves per capacity window: few enough that most windows hold no host stall.
constexpr std::size_t kRateWindow = 8;
constexpr int kSetupReps = 11;
/// The timed loop is cut into segments of at least this long, each judged
/// clean or disturbed by the host steal during it (kMaxHostSteal). Four ranks
/// need four CPUs at once, so a disturbed segment measures the host.
constexpr std::int64_t kSegmentNs = 1000000000;

struct Segment {
  std::size_t begin = 0;  ///< first solve
  std::size_t end = 0;    ///< one past the last solve
  double steal = 0;
};

}  // namespace

int backend_index(mp::Backend b) { return b == mp::Backend::kSocket ? 1 : 0; }

Outcome run_spmd(const RunConfig& cfg, const LayerUnits* units, mp::Backend backend) {
  Outcome out;
  const bool socket = backend == mp::Backend::kSocket;
  SpmdTransport transport;
  transport.backend = backend;

  Rng rng(cfg.seed);
  std::vector<Matrix> inputs;
  std::vector<std::uint64_t> want;
  const OrderingPtr ref_ord = make_ordering("fat-tree");
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(random_gaussian(kM, kN, rng));
    want.push_back(result_digest(one_sided_jacobi(inputs.back(), *ref_ord)));
  }

  // Set-up: ordering construction plus the first world spawn, i.e. a warm-up
  // solve (spmd_jacobi builds its World per call); repeated, median reported.
  std::vector<double> setup_s;
  OrderingPtr ord;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    ord = make_ordering("fat-tree");
    const SvdResult w = spmd_jacobi(inputs[0], *ord, {}, nullptr, &transport);
    setup_s.push_back(double(now_ns() - t0) / 1e9);
    ++out.attempted;
    if (result_digest(w) != want[0]) out.fail("spmd: warm-up result differs from serial");
  }

  SpanBuffer* tb = cfg.tracer != nullptr ? &cfg.tracer->buffer(1) : nullptr;
  const char* span_name = socket ? "spmd_jacobi[socket]" : "spmd_jacobi[inproc]";
  std::vector<double> times_ms;
  double cpu_s = 0, wall_s = 0;
  std::size_t messages = 0, retries = 0;
  std::vector<Segment> segments;
  CpuTicks seg_ticks = cpu_ticks();
  std::int64_t seg_t0 = now_ns();
  const auto close_segment = [&] {
    const CpuTicks t = cpu_ticks();
    const std::size_t begin = segments.empty() ? 0 : segments.back().end;
    segments.push_back({begin, times_ms.size(), steal_share(seg_ticks, t)});
    seg_ticks = t;
    seg_t0 = now_ns();
  };
  const std::int64_t loop_end = now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  while (times_ms.size() < 2 * kInputs || now_ns() < loop_end) {
    const std::size_t i = times_ms.size();
    SpmdStats st;
    const double c0 = process_cpu_seconds() + children_cpu_seconds();
    const std::int64_t t0 = now_ns();
    SvdResult r;
    {
      ScopedSpan sp(tb, span_name, "spmd", 0, static_cast<std::int64_t>(i));
      r = spmd_jacobi(inputs[i % kInputs], *ord, {}, &st, &transport);
    }
    const double dt = double(now_ns() - t0) / 1e9;
    cpu_s += process_cpu_seconds() + children_cpu_seconds() - c0;
    wall_s += dt;
    times_ms.push_back(dt * 1e3);
    messages += st.messages;
    retries += st.recovery.retries;
    ++out.attempted;
    if (result_digest(r) != want[i % kInputs])
      out.fail("spmd: result differs bitwise from serial one_sided_jacobi");
    if (now_ns() - seg_t0 >= kSegmentNs) close_segment();
  }
  if (segments.empty() || segments.back().end < times_ms.size()) close_segment();

  // The figures come from the clean segments (see kMaxHostSteal).
  std::vector<double> steal;
  for (const Segment& g : segments) steal.push_back(g.steal);
  const std::vector<bool> keep = clean_segments(steal);
  std::vector<double> kept;
  std::size_t kept_segments = 0;
  for (std::size_t g = 0; g < segments.size(); ++g) {
    if (!keep[g]) continue;
    ++kept_segments;
    kept.insert(kept.end(), times_ms.begin() + static_cast<std::ptrdiff_t>(segments[g].begin),
                times_ms.begin() + static_cast<std::ptrdiff_t>(segments[g].end));
  }
  const std::string basis = std::to_string(kept_segments) + " of " +
                            std::to_string(segments.size()) + " 1-s segments";
  const double solves = double(times_ms.size());
  const double p50 = median(kept);
  const double tail_q = highest_supported_quantile(kept.size(), {socket ? 0.9 : 0.99, 0.9});

  out.add_e2e("solve_p50_ms", p50, "ms", kept.size(), basis);
  std::vector<double> done_s;
  double t = 0;
  for (const double ms : kept) done_s.push_back(t += ms / 1e3);
  const std::vector<double> rates = window_rates(done_s, kRateWindow);
  out.add_e2e("capacity_sps", rates.size() >= 3 ? median(rates) : double(kept.size()) / t, "1/s",
              kept.size(), "median over 8-solve windows; " + basis);
  out.add_e2e("setup_s", median(setup_s), "s", setup_s.size(), "ordering + first world spawn");
  out.add_e2e("peak_rss_mb", peak_rss_mib(), "MiB", 1);

  // The highest percentile with ten solves beyond it, else the slowest solve.
  out.add_layer("spmd.solve_tail_ms", quantile(kept, tail_q > 0 ? tail_q : 1.0), "ms",
                kept.size());
  const double msgs_per_solve = double(messages) / solves;
  out.add_layer("spmd.messages", msgs_per_solve, "per_solve");
  out.add_layer("spmd.bytes", msgs_per_solve * double(kM) * sizeof(double), "B/solve");
  out.add_layer("mp.retries", double(retries), "count");
  out.add_layer("proc.cpu_util", cpu_s / wall_s, "cores");

  if (units != nullptr) {
    const int b = backend_index(backend);
    out.add_layer("spmd.overhead_ms", p50 - units->serial_floor_ms, "ms");
    Ledger l;
    l.name = std::string("per solve (solve_p50_ms), ") + (socket ? "socket" : "inproc");
    l.e2e_ms = p50;
    l.rows.push_back({"one_sided_jacobi compute (serial floor / 4 ranks)", 1.0 / kRanks,
                      units->serial_floor_ms});
    l.rows.push_back({"mp one-way column message (per rank)", msgs_per_solve / kRanks,
                      units->pingpong_us[b] / 2e3});
    l.rows.push_back({"mp world spawn", 1.0, units->world_spawn_ms[b]});
    out.ledgers.push_back(l);
  }
  std::ostringstream os;
  os << "{\"m\":" << kM << ",\"n\":" << kN << ",\"ranks\":" << kRanks << ",\"backend\":\""
     << (socket ? "socket" : "inproc") << "\",\"solves\":" << times_ms.size()
     << ",\"solves_kept\":" << kept.size() << ",\"tail_quantile\":" << json_num(tail_q)
     << ",\"max_steal\":" << json_num(kMaxHostSteal) << ",\"segment_steal\":[";
  for (std::size_t g = 0; g < segments.size(); ++g)
    os << (g ? "," : "") << json_num(segments[g].steal);
  os << "]}";
  out.details_json = os.str();
  return out;
}

}  // namespace perfbench
