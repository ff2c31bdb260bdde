#pragma once
// Shared pieces of the benchmark program: clocks, order statistics with the
// "ten samples beyond" rule, the span recorder behind the traced run, the
// metric/ledger records every workload fills, and a minimal JSON writer.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile: the smallest sample with at least q·n samples at or
/// below it. `v` need not be sorted. NaN when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Highest of the candidate quantiles (tried in the given order, highest
/// first) that keeps kMinBeyond samples beyond it; 0 when none does.
double highest_supported_quantile(std::size_t n, const std::vector<double>& candidates);

/// Throughput per consecutive window of `window` completions: window / (time
/// the window spanned). `done_s` holds non-decreasing completion times
/// measured from the start (0). The median of these is robust to stalls.
std::vector<double> window_rates(const std::vector<double>& done_s, std::size_t window);

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory per thread, written as Chrome trace-event JSON
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  const char* cat = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t arg = -1;  ///< request / solve index (-1 = none)
  bool async = false;     ///< overlapping lifetime span (written as b/e pair)
};

/// One thread's span list. Each recording thread owns exactly one buffer.
class SpanBuffer {
 public:
  SpanBuffer(int tid, std::uint64_t id_base) : tid_(tid), next_id_(id_base) {}
  int tid() const noexcept { return tid_; }
  std::uint64_t next_id() noexcept { return ++next_id_; }
  void add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  int tid_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Owns the per-thread buffers of one traced run.
class Tracer {
 public:
  SpanBuffer& buffer(int tid);
  std::size_t span_count() const;
  /// Writes every span as a Chrome trace-event file (opens in Perfetto).
  bool write_chrome(const std::string& path, const std::string& process_name) const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span; records nothing when `buf` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, const char* cat, std::uint64_t parent = 0,
             std::int64_t arg = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return span_.id; }

 private:
  SpanBuffer* buf_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = a count)
  std::string note;         ///< e.g. which percentile a tail value is
};

/// One ledger line: a layer's count per end-to-end unit times its unit cost.
struct LedgerRow {
  std::string layer;
  double count = 0.0;
  double unit_ms = 0.0;
  double total_ms() const { return count * unit_ms; }
};

struct Ledger {
  std::string name;      ///< what the end-to-end time is (per solve, ...)
  double e2e_ms = 0.0;   ///< measured untraced
  std::vector<LedgerRow> rows;
  double sum_ms() const;
  double residual_ms() const { return e2e_ms - sum_ms(); }
};

/// Everything one workload run produces.
struct Outcome {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Ledger> ledgers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::string details_json = "{}";  ///< workload-specific detail (rungs, ...)

  void fail(const std::string& why);
  void add_e2e(const std::string& name, double v, const std::string& unit, std::size_t n,
               const std::string& note = "");
  void add_layer(const std::string& name, double v, const std::string& unit,
                 std::size_t n = 0);
};

/// The metric named `name` in `ms`, or null.
const Metric* find_metric(const std::vector<Metric>& ms, const std::string& name);

/// Run parameters handed to every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< null: untraced
};

/// CPU (user + system) seconds of this process, and of its reaped children.
double process_cpu_seconds();
double children_cpu_seconds();
/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Cumulative steal and total CPU ticks of the whole machine (/proc/stat);
/// zero where unavailable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks cpu_ticks();
/// Share of the machine's CPU time between two readings that the hypervisor
/// gave to other guests.
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Host interference policy of the multi-threaded workloads, which measure in
/// segments spread over the run. A segment during which the hypervisor gave
/// more than kMaxHostSteal of the machine's CPU time to other guests measured
/// the host, not the program (as a serve rung whose generator fell behind
/// does), so its timings are left out; but at least the cleanest half of the
/// segments is always kept. Correctness checks and failures cover every
/// segment.
inline constexpr double kMaxHostSteal = 0.02;

/// keep[i]: whether segment i, with host steal share steal[i], counts.
std::vector<bool> clean_segments(const std::vector<double>& steal);

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s);
/// Full-precision number; non-finite values become null.
std::string json_num(double v);

/// Checks the benchmark's own arithmetic (percentile rule, ledger sums).
/// Returns an empty string on success, else what broke.
std::string self_check();

}  // namespace perfbench
