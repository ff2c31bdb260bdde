// perfbench: the treesvd benchmark program.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--out=<dir>] [--fingerprint=<file>]
//   perfbench --list-metrics
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics. --trace 1 measures every layer's unit cost, runs the workload
// untraced and then traced (half of --seconds each), builds the per-layer
// ledger and reports the per-layer metrics. Either way the last line of
// standard output is one JSON object {correct, attempted, failed, metrics};
// the exit code is 0 only when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "common.hpp"
#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricSpec kEndToEnd[] = {
    {"solve_p50_ms", "ms", "lower"},
    {"capacity_sps", "1/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

/// Per-layer metrics of the gated workloads (BENCHMARK.json). The SPMD
/// workloads also report spmd.* and mp.retries counters, in their result
/// files and tables.
constexpr MetricSpec kPerLayer[] = {
    {"serve.light_p50_ms", "ms", "lower"},
    {"serve.slo_rate_sps", "1/s", "higher"},
    {"serve.nominal_p99_ms", "ms", "lower"},
    {"serve.batch_fill.r2k", "lanes", "higher"},
    {"serve.batch_fill.r5k", "lanes", "higher"},
    {"serve.batch_fill.r8k", "lanes", "higher"},
    {"serve.batch_fill.r11k", "lanes", "higher"},
    {"serve.batch_fill.r14k", "lanes", "higher"},
    {"serve.batch_fill.burst", "lanes", "higher"},
    {"serve.submit_p50_us", "us", "lower"},
    {"serve.submit_p99_us", "us", "lower"},
    {"serve.backlog", "requests", "lower"},
    {"serve.overhead_ms", "ms", "lower"},
    {"serve.gen_late_p99_ms", "ms", "lower"},
    {"serve.invalid_rungs", "count", "lower"},
    {"batch.solve_1lane_us", "us", "lower"},
    {"batch.solve_8lane_us", "us", "lower"},
    {"batch.sweeps_per_problem", "sweeps", "lower"},
    {"batch.pairs_per_problem", "pairs", "lower"},
    {"batch.lane_useful_frac", "frac", "higher"},
    {"blas1.batched_rotate_ns", "ns", "lower"},
    {"blas1.batched_dot_ns", "ns", "lower"},
    {"blas1.rotate_and_norms_ns", "ns", "lower"},
    {"blas1.rotate_and_norms_gbps", "GB/s", "higher"},
    {"blas1.dot_ns", "ns", "lower"},
    {"blas1.dot_gbps", "GB/s", "higher"},
    {"gemm.gram_panel_us", "us", "lower"},
    {"gemm.gram_panel_gflops", "GF/s", "higher"},
    {"gemm.apply_panel_update_us", "us", "lower"},
    {"gemm.apply_panel_update_gflops", "GF/s", "higher"},
    {"gemm.apply_panel_update_v_us", "us", "lower"},
    {"gemm.dispatch_pooled", "per_solve", "higher"},
    {"gemm.dispatch_inline", "per_solve", "lower"},
    {"gemm.dispatch_serial", "per_solve", "lower"},
    {"block_jacobi.inner_gram_us", "us", "lower"},
    {"block_jacobi.gram_builds", "per_solve", "lower"},
    {"block_jacobi.blocked_applies", "per_solve", "lower"},
    {"block_jacobi.accum_rotations", "per_solve", "lower"},
    {"block_jacobi.sweeps", "per_solve", "lower"},
    {"block_jacobi.ledger_residual", "frac", "lower"},
    {"core.sweep_from_b16_us", "us", "lower"},
    {"core.sweep_from_n8_us", "us", "lower"},
    {"core.steps_per_sweep_b16", "steps", "lower"},
    {"core.steps_per_sweep_n8", "steps", "lower"},
    {"thread_pool.dispatch_us", "us", "lower"},
    {"spmd.serial_floor_ms", "ms", "lower"},
    {"mp.pingpong_us_inproc", "us", "lower"},
    {"mp.pingpong_us_socket", "us", "lower"},
    {"mp.world_spawn_ms_inproc", "ms", "lower"},
    {"mp.world_spawn_ms_socket", "ms", "lower"},
    {"proc.cpu_util", "cores", "higher"},
    {"ledger.residual_frac", "frac", "lower"},
    {"ledger.trace_overhead_frac", "frac", "lower"},
};

const char* const kWorkloads[] = {"serve-open-n16", "block-graded", "spmd-inproc", "spmd-socket"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
  std::string fingerprint_file;
};

Outcome run_workload(const std::string& w, const RunConfig& cfg, const LayerUnits* units) {
  if (w == "serve-open-n16") return run_serve(cfg, units);
  if (w == "block-graded") return run_block(cfg, units);
  if (w == "spmd-inproc") return run_spmd(cfg, units, treesvd::mp::Backend::kInproc);
  return run_spmd(cfg, units, treesvd::mp::Backend::kSocket);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string list_metrics_json() {
  std::ostringstream os;
  const auto list = [&](const char* key, const auto& specs) {
    os << "\"" << key << "\":[";
    bool first = true;
    for (const MetricSpec& m : specs) {
      os << (first ? "" : ",") << "{\"name\":\"" << m.name << "\",\"unit\":\"" << m.unit
         << "\",\"better\":\"" << m.better << "\"}";
      first = false;
    }
    os << "]";
  };
  os << "{";
  list("end_to_end", kEndToEnd);
  os << ",";
  list("per_layer", kPerLayer);
  os << "}";
  return os.str();
}

std::string metric_json(const Metric& m) {
  std::ostringstream os;
  os << "{\"name\":\"" << m.name << "\",\"value\":" << json_num(m.value) << ",\"unit\":\""
     << m.unit << "\",\"samples\":" << m.samples << ",\"note\":\"" << json_escape(m.note) << "\"}";
  return os.str();
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %14.6g %-10s n=%-7zu %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.note.c_str());
}

/// --trace 1: every layer's unit cost, then the workload untraced and traced
/// for half of --seconds each. The untraced half supplies the end-to-end
/// numbers and the ledgers; the traced half supplies the spans and the
/// tracing overhead.
Outcome run_traced(const Args& args, Tracer& tracer, std::vector<Ledger>& traced_ledgers) {
  Outcome units_out;
  const LayerUnits units = measure_layers(args.seed, units_out, &tracer.buffer(4));
  Outcome o = run_workload(args.workload, {args.seed, args.seconds / 2, nullptr}, &units);
  const Outcome traced =
      run_workload(args.workload, {args.seed, args.seconds / 2, &tracer}, &units);
  traced_ledgers = traced.ledgers;
  for (const Outcome* other : {&std::as_const(units_out), &traced}) {
    o.attempted += other->attempted;
    o.failed += other->failed;
    o.errors.insert(o.errors.end(), other->errors.begin(), other->errors.end());
  }
  o.layer.insert(o.layer.end(), units_out.layer.begin(), units_out.layer.end());

  if (const Metric* light = find_metric(o.layer, "serve.light_p50_ms"))
    o.add_layer("serve.overhead_ms", light->value - units.batch_solve_us[1] / 1e3, "ms");
  if (!o.ledgers.empty()) {
    const Ledger& l = o.ledgers.front();
    const double res = l.e2e_ms > 0 ? l.residual_ms() / l.e2e_ms : 0.0;
    o.add_layer("ledger.residual_frac", res, "frac");
    if (args.workload == "block-graded") o.add_layer("block_jacobi.ledger_residual", res, "frac");
  }
  const Metric* a = find_metric(o.e2e, "solve_p50_ms");
  const Metric* b = find_metric(traced.e2e, "solve_p50_ms");
  if (a != nullptr && b != nullptr && a->value > 0)
    o.add_layer("ledger.trace_overhead_frac", (b->value - a->value) / a->value, "frac");
  return o;
}

void print_report(const Args& args, const Outcome& o, const std::vector<Ledger>& traced_ledgers,
                  const Tracer& tracer) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d isa=%s batched_isa=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, treesvd::isa_name(treesvd::resolved_isa()),
              treesvd::batched_kernel_isa());
  print_metrics(args.trace ? "end-to-end (untraced half of the traced run):" : "end-to-end:",
                o.e2e);
  print_metrics(args.trace ? "per-layer:" : "workload detail (reported, not gated):", o.layer);
  for (std::size_t i = 0; i < o.ledgers.size(); ++i) {
    const Ledger& l = o.ledgers[i];
    std::printf("ledger: %s\n", l.name.c_str());
    for (const LedgerRow& r : l.rows)
      std::printf("  %-58s %12.4g x %10.4g ms = %10.4g ms\n", r.layer.c_str(), r.count,
                  r.unit_ms, r.total_ms());
    std::printf("  %-58s %38.4g ms\n  %-58s %38.4g ms\n  %-58s %38.4g ms (%.1f%%)\n", "sum",
                l.sum_ms(), "end-to-end (untraced)", l.e2e_ms, "residual", l.residual_ms(),
                l.e2e_ms > 0 ? 100.0 * l.residual_ms() / l.e2e_ms : 0.0);
    if (i < traced_ledgers.size())
      std::printf("  %-58s %38.4g ms\n", "tracing overhead (traced - untraced)",
                  traced_ledgers[i].e2e_ms - l.e2e_ms);
  }
  if (args.trace) std::printf("spans recorded: %zu\n", tracer.span_count());
  std::printf("correctness: %s (%zu attempted, %zu failed, failed_frac %.6g)\n",
              o.failed == 0 ? "pass" : "FAIL", o.attempted, o.failed,
              o.attempted == 0 ? 1.0 : double(o.failed) / double(o.attempted));
  for (const std::string& e : o.errors) std::printf("  failure: %s\n", e.c_str());
}

/// The result file, with the host fingerprint, and for a traced run the trace.
void write_results(const Args& args, const Outcome& o, const std::vector<Ledger>& traced_ledgers,
                   const Tracer& tracer) {
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + (args.trace ? "-traced" : "");
  std::ofstream f(stem + ".json");
  const std::string fp = args.fingerprint_file.empty() ? "" : read_file(args.fingerprint_file);
  f << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
    << ",\"seconds\":" << json_num(args.seconds) << ",\"trace\":" << args.trace
    << ",\"fingerprint\":" << (fp.empty() ? "null" : fp) << ",\"isa\":{\"resolved\":\""
    << treesvd::isa_name(treesvd::resolved_isa()) << "\",\"batched\":\""
    << treesvd::batched_kernel_isa() << "\"},\"correct\":" << (o.failed == 0 ? "true" : "false")
    << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < o.errors.size(); ++i)
    f << (i ? "," : "") << "\"" << json_escape(o.errors[i]) << "\"";
  f << "],\"end_to_end\":[";
  for (std::size_t i = 0; i < o.e2e.size(); ++i) f << (i ? "," : "") << metric_json(o.e2e[i]);
  f << "],\"per_layer\":[";
  for (std::size_t i = 0; i < o.layer.size(); ++i) f << (i ? "," : "") << metric_json(o.layer[i]);
  f << "],\"ledgers\":[";
  for (std::size_t i = 0; i < o.ledgers.size(); ++i) {
    const Ledger& l = o.ledgers[i];
    f << (i ? "," : "") << "{\"name\":\"" << json_escape(l.name) << "\",\"rows\":[";
    for (std::size_t j = 0; j < l.rows.size(); ++j)
      f << (j ? "," : "") << "{\"layer\":\"" << json_escape(l.rows[j].layer)
        << "\",\"count\":" << json_num(l.rows[j].count)
        << ",\"unit_ms\":" << json_num(l.rows[j].unit_ms)
        << ",\"total_ms\":" << json_num(l.rows[j].total_ms()) << "}";
    f << "],\"sum_ms\":" << json_num(l.sum_ms()) << ",\"e2e_ms\":" << json_num(l.e2e_ms)
      << ",\"residual_ms\":" << json_num(l.residual_ms()) << ",\"trace_overhead_ms\":"
      << json_num(i < traced_ledgers.size() ? traced_ledgers[i].e2e_ms - l.e2e_ms : NAN) << "}";
  }
  f << "],\"details\":" << o.details_json << "}\n";
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  if (args.trace && !tracer.write_chrome(stem + ".trace.json", "perfbench " + args.workload))
    std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n", stem.c_str());
}

/// The last line of standard output: every end-to-end metric (--trace 0) or
/// every per-layer metric (--trace 1). A layer the workload bypasses counted
/// nothing and reports 0.
std::string summary_json(const Args& args, const Outcome& o) {
  const std::vector<Metric>& have = args.trace ? o.layer : o.e2e;
  std::ostringstream js;
  js << "{\"correct\":" << (o.failed == 0 ? "true" : "false") << ",\"attempted\":" << o.attempted
     << ",\"failed\":" << o.failed << ",\"metrics\":{";
  bool first = true;
  for (const MetricSpec& spec : args.trace ? std::span<const MetricSpec>(kPerLayer)
                                           : std::span<const MetricSpec>(kEndToEnd)) {
    const Metric* m = find_metric(have, spec.name);
    const double v = m != nullptr && std::isfinite(m->value) ? m->value : 0.0;
    js << (first ? "" : ",") << "\"" << spec.name << "\":{\"value\":" << json_num(v)
       << ",\"unit\":\"" << spec.unit << "\"}";
    first = false;
  }
  js << "}}";
  return js.str();
}

int run(const Args& args) {
  const std::string err = self_check();
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: self-check of the benchmark's arithmetic failed: %s\n",
                 err.c_str());
    return 3;
  }
  Tracer tracer;
  std::vector<Ledger> traced_ledgers;
  Outcome o = args.trace != 0
                  ? run_traced(args, tracer, traced_ledgers)
                  : run_workload(args.workload, {args.seed, args.seconds, nullptr}, nullptr);
  for (const Metric& m : o.e2e)
    if (!std::isfinite(m.value) || m.value <= 0) o.fail("metric " + m.name + " was not measurable");

  print_report(args, o, traced_ledgers, tracer);
  if (!args.out_dir.empty()) write_results(args, o, traced_ledgers, tracer);
  std::cout << summary_json(args, o) << std::endl;
  return o.failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=<serve-open-n16|block-graded|spmd-inproc|spmd-socket>"
               " --seed=<n> --seconds=<s> --trace=<0|1> [--out=<dir>] [--fingerprint=<file>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    const treesvd::Cli cli(argc, argv);
    if (cli.has("list-metrics")) {
      std::cout << list_metrics_json() << std::endl;
      return 0;
    }
    args.workload = cli.get("workload", "");
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    args.seconds = cli.get_double("seconds", 10);
    args.trace = static_cast<int>(cli.get_int("trace", 0));
    args.out_dir = cli.get("out", "");
    args.fingerprint_file = cli.get("fingerprint", "");
  } catch (const std::exception&) {
    return usage();
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known || !(args.seconds > 0) || (args.trace != 0 && args.trace != 1)) return usage();
  return run(args);
}
