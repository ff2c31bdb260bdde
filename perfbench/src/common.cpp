#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double rusage_cpu(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double highest_supported_quantile(std::size_t n, const std::vector<double>& candidates) {
  for (const double q : candidates)
    if (samples_beyond(n, q) >= kMinBeyond) return q;
  return 0.0;
}

std::vector<double> window_rates(const std::vector<double>& done_s, std::size_t window) {
  std::vector<double> rates;
  double t0 = 0.0;
  for (std::size_t end = window; window > 0 && end <= done_s.size(); end += window) {
    const double t1 = done_s[end - 1];
    if (t1 > t0) rates.push_back(double(window) / (t1 - t0));
    t0 = t1;
  }
  return rates;
}

// ---------------------------------------------------------------------------

SpanBuffer& Tracer::buffer(int tid) {
  for (const auto& b : buffers_)
    if (b->tid() == tid) return *b;
  buffers_.push_back(
      std::make_unique<SpanBuffer>(tid, static_cast<std::uint64_t>(tid) << 40));
  return *buffers_.back();
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

bool Tracer::write_chrome(const std::string& path, const std::string& process_name) const {
  std::ofstream f(path);
  if (!f) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& b : buffers_)
    for (const Span& s : b->spans()) origin = std::min(origin, s.t0);
  const auto us = [origin](std::int64_t t) {
    return json_num(static_cast<double>(t - origin) / 1e3);
  };
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\""
    << json_escape(process_name) << "\"}}";
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      std::ostringstream args;
      args << "{\"id\":" << s.id << ",\"parent\":" << s.parent;
      if (s.arg >= 0) args << ",\"index\":" << s.arg;
      args << "}";
      if (s.async) {
        // Lifetimes that overlap on one thread (requests in flight) are
        // async begin/end pairs keyed by the span id.
        for (int phase = 0; phase < 2; ++phase) {
          f << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat << "\",\"ph\":\""
            << (phase == 0 ? "b" : "e") << "\",\"id\":" << s.id << ",\"ts\":"
            << us(phase == 0 ? s.t0 : s.t1) << ",\"pid\":1,\"tid\":" << b->tid();
          if (phase == 0) f << ",\"args\":" << args.str();
          f << "}";
        }
      } else {
        f << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
          << "\",\"ph\":\"X\",\"ts\":" << us(s.t0) << ",\"dur\":"
          << json_num(static_cast<double>(s.t1 - s.t0) / 1e3) << ",\"pid\":1,\"tid\":"
          << b->tid() << ",\"args\":" << args.str() << "}";
      }
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(SpanBuffer* buf, const char* name, const char* cat,
                       std::uint64_t parent, std::int64_t arg)
    : buf_(buf) {
  if (buf_ == nullptr) return;
  span_.name = name;
  span_.cat = cat;
  span_.id = buf_->next_id();
  span_.parent = parent;
  span_.arg = arg;
  span_.t0 = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  span_.t1 = now_ns();
  buf_->add(span_);
}

// ---------------------------------------------------------------------------

double Ledger::sum_ms() const {
  double s = 0.0;
  for (const LedgerRow& r : rows) s += r.total_ms();
  return s;
}

void Outcome::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Outcome::add_e2e(const std::string& name, double v, const std::string& unit, std::size_t n,
                      const std::string& note) {
  e2e.push_back({name, v, unit, n, note});
}

void Outcome::add_layer(const std::string& name, double v, const std::string& unit,
                        std::size_t n) {
  layer.push_back({name, v, unit, n, ""});
}

const Metric* find_metric(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return &m;
  return nullptr;
}

double process_cpu_seconds() { return rusage_cpu(RUSAGE_SELF); }
double children_cpu_seconds() { return rusage_cpu(RUSAGE_CHILDREN); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && f >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal ...
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total
             ? double(to.steal - from.steal) / double(to.total - from.total)
             : 0.0;
}

std::vector<bool> clean_segments(const std::vector<double>& steal) {
  // The cleanest half: every segment at or below the upper median steal.
  const double half = steal.empty() ? 0.0 : quantile(steal, 0.5);
  const double limit = std::max(kMaxHostSteal, half);
  std::vector<bool> keep;
  for (const double s : steal) keep.push_back(s <= limit);
  return keep;
}

// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string self_check() {
  // Nearest rank: with 1000 samples p99 is the 990th, leaving exactly 10.
  if (samples_beyond(1000, 0.99) != 10) return "samples_beyond(1000, 0.99) != 10";
  if (samples_beyond(999, 0.99) >= kMinBeyond) return "999 samples wrongly support p99";
  if (samples_beyond(100, 0.90) != 10) return "samples_beyond(100, 0.90) != 10";
  if (highest_supported_quantile(500, {0.99, 0.9, 0.5}) != 0.9)
    return "500 samples should support p90 but not p99";
  if (highest_supported_quantile(8, {0.99, 0.9, 0.5}) != 0.0)
    return "8 samples support no percentile with 10 beyond";
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  if (quantile(v, 0.5) != 500.0 || quantile(v, 0.99) != 990.0 || quantile(v, 1.0) != 1000.0)
    return "nearest-rank quantile of 1..1000";
  if (median({3.0, 1.0, 2.0}) != 2.0) return "median of {3,1,2}";
  // Four windows of 2 completions at rates 2, 2, 1 (a stall) and 2 per second.
  const std::vector<double> wr = window_rates({0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 5.2}, 2);
  if (wr != std::vector<double>{2.0, 2.0, 1.0, 2.0} || median(wr) != 2.0)
    return "window_rates / median must ignore the stalled window";
  if (clean_segments({0.0, 0.3, 0.01, 0.0}) != std::vector<bool>{true, false, true, true} ||
      clean_segments({0.2, 0.1, 0.3, 0.05}) != std::vector<bool>{false, true, false, true})
    return "clean_segments must drop disturbed segments but keep the cleanest half";
  Ledger l;
  l.e2e_ms = 10.0;
  l.rows = {{"a", 4.0, 0.5}, {"b", 2.0, 3.0}};
  if (l.sum_ms() != 8.0 || l.residual_ms() != 2.0) return "ledger sum/residual";
  return "";
}

}  // namespace perfbench
