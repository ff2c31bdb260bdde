#pragma once
// The gate runner shared by the six gate tools (treesvd_lint, _chaos,
// _launch, _race, _torture, _serve). A tool declares its flags once, as a
// {name, default, help} table, and supplies a body that builds its case
// matrix and its JSON report. From the table the runner generates --help,
// rejects unknown flags, and parses values strictly; it writes the report to
// stdout or --json=PATH, prints one PASS/FAIL summary plus one line per
// failure, and returns the exit contract every gate shares:
//   0  every case passed
//   1  at least one case failed (a throwing case is a failed case)
//   2  usage error: unknown flag, malformed value, unknown ordering, or a
//      report that could not be written

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "mp/fault.hpp"
#include "svd/determinism.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace treesvd::gate {

/// One flag: --name=value, or a bare --name switch.
struct Flag {
  const char* name;
  const char* fallback;  ///< value when the flag is absent; "" = none
  const char* help;
};

/// A malformed invocation: the runner prints it and exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw UsageError(what);
}

/// Runs a parser, turning its std::invalid_argument into a UsageError.
template <typename F>
auto usage(F&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// The command line, read through the tool's flag table. Values parse
/// strictly; a malformed one is a UsageError.
class Args {
 public:
  Args(const Cli& cli, std::span<const Flag> flags) : cli_(cli), flags_(flags) {}

  bool has(const std::string& name) const { return cli_.has(name); }
  /// The value, or the flag's table default.
  std::string str(const std::string& name) const { return cli_.get(name, fallback(name)); }
  long long integer(const std::string& name) const {
    return usage([&] { return parse_int(str(name), "--" + name); });
  }
  /// For defaults that depend on other flags (e.g. rows = n + 4).
  long long integer(const std::string& name, long long fallback) const {
    return has(name) ? integer(name) : fallback;
  }
  double real(const std::string& name) const {
    return usage([&] { return parse_double(str(name), "--" + name); });
  }
  std::vector<std::string> list(const std::string& name) const {
    return usage([&] { return cli_.get_list(name, fallback(name)); });
  }
  std::vector<long long> integers(const std::string& name) const {
    std::vector<long long> out;
    for (const std::string& item : list(name))
      out.push_back(usage([&] { return parse_int(item, "--" + name); }));
    return out;
  }
  /// One registry ordering name (the value or the table default).
  std::string ordering(const std::string& name) const { return known_ordering(str(name)); }
  /// A list of registry ordering names; `all` when the flag is absent.
  std::vector<std::string> orderings(const std::string& name,
                                     std::vector<std::string> all) const {
    if (!has(name)) return all;
    std::vector<std::string> out = list(name);
    for (const std::string& o : out) known_ordering(o);
    return out;
  }

 private:
  std::string fallback(const std::string& name) const {
    for (const Flag& f : flags_)
      if (name == f.name) return f.fallback;
    throw std::logic_error("flag --" + name + " is not in the tool's flag table");
  }
  static std::string known_ordering(const std::string& name) {
    try {
      make_ordering(name);
    } catch (const std::invalid_argument&) {
      std::string known;
      for (const std::string& k : ordering_names({2, 4, 8}))
        known += (known.empty() ? "" : ", ") + k;
      throw UsageError("unknown ordering '" + name + "' (known: " + known + ")");
    }
    return name;
  }

  const Cli& cli_;
  std::span<const Flag> flags_;
};

/// What a tool body hands back.
struct Report {
  JsonObject json;                    ///< the report; empty = none (self-tests)
  std::string summary;                ///< what ran, e.g. "3 seeded chaos runs"
  std::vector<std::string> failures;  ///< one line per failed case

  void fail(std::string line) { failures.push_back(std::move(line)); }
  bool pass() const { return failures.empty(); }
};

/// Parses the command line against `flags`, runs `body`, and reports; see
/// the file comment for the exit contract.
inline int run(const char* tool, const char* about, std::span<const Flag> flags, int argc,
               const char* const* argv, const std::function<Report(const Args&)>& body) {
  Report report;
  std::string path;
  try {
    const Cli cli(argc, argv);
    if (cli.has("help")) {
      std::cout << "usage: " << tool << " [--flag=value ...]\n" << about << "\n";
      for (const Flag& f : flags) {
        std::string lhs = std::string("  --") + f.name;
        if (*f.fallback != '\0') lhs += std::string("=") + f.fallback;
        lhs.resize(std::max<std::size_t>(lhs.size() + 1, 26), ' ');
        std::cout << lhs << f.help << "\n";
      }
      return 0;
    }
    for (const std::string& key : cli.keys()) {
      const bool declared = std::any_of(flags.begin(), flags.end(),
                                        [&](const Flag& f) { return key == f.name; });
      require(declared, "unknown flag --" + key);
    }
    const Args args(cli, flags);
    path = args.str("json");
    try {
      report = body(args);
    } catch (const UsageError&) {
      throw;
    } catch (const std::exception& e) {
      report.fail(std::string("uncaught exception: ") + e.what());
    }
  } catch (const std::invalid_argument& e) {  // a UsageError or a positional argument
    std::cerr << tool << ": " << e.what() << " (see --help)\n";
    return 2;
  }

  const bool pass = report.pass();
  if (!report.json.empty()) {
    report.json.add("pass", pass);
    if (path.empty()) {
      std::cout << report.json.str(true) << "\n";
    } else if (!write_json_file(path, report.json, true)) {
      return 2;
    }
  }
  // With the report on stdout, the summary goes to stderr so stdout stays JSON.
  std::ostream& out = report.json.empty() || !path.empty() ? std::cout : std::cerr;
  out << (pass ? "PASS" : "FAIL");
  if (!report.summary.empty()) out << ": " << report.summary;
  if (!report.json.empty() && !path.empty()) out << ", report written to " << path;
  out << "\n";
  for (const std::string& f : report.failures) std::cerr << "  " << f << "\n";
  return pass ? 0 : 1;
}

/// Every RecoveryStats counter as one JSON object.
inline JsonObject recovery_json(const mp::RecoveryStats& s) {
  JsonObject o;
  o.add("drops_seen", s.drops_seen)
      .add("duplicates_injected", s.duplicates_injected)
      .add("corruptions_injected", s.corruptions_injected)
      .add("delays_seen", s.delays_seen)
      .add("kills", s.kills)
      .add("stalls", s.stalls)
      .add("corruptions_detected", s.corruptions_detected)
      .add("duplicates_suppressed", s.duplicates_suppressed)
      .add("retries", s.retries)
      .add("resends", s.resends)
      .add("virtual_backoff", s.virtual_backoff)
      .add("checkpoints", s.checkpoints)
      .add("rollbacks", s.rollbacks)
      .add("watchdog_trips", s.watchdog_trips)
      .add("norm_rereductions", s.norm_rereductions);
  return o;
}

/// First divergence of `got` from the bitwise reference `want`, as a
/// diagnostic; empty when they are bit-identical (sigma/U/V, progress
/// counters and both result digests).
inline std::string first_divergence(const SvdResult& got, const SvdResult& want) {
  if (got.converged != want.converged) return "converged flag differs";
  if (got.sweeps != want.sweeps)
    return "sweeps " + std::to_string(got.sweeps) + " != " + std::to_string(want.sweeps);
  if (got.rotations != want.rotations) return "rotation count differs";
  if (got.swaps != want.swaps) return "swap count differs";
  for (std::size_t k = 0; k < want.sigma.size(); ++k)
    if (got.sigma[k] != want.sigma[k]) return "sigma[" + std::to_string(k) + "] differs bitwise";
  if (!(got.u == want.u)) return "U differs bitwise";
  if (!(got.v == want.v)) return "V differs bitwise";
  if (result_core_digest(got) != result_core_digest(want)) return "core digest differs";
  if (result_digest(got) != result_digest(want))
    return "kernel pass counters differ (full digest)";
  return {};
}

}  // namespace treesvd::gate
