// treesvd_launch — multi-process rank launcher and socket-backend acceptance
// gate.
//
// For every registered ordering and every requested problem width the tool
// runs spmd_jacobi twice on the same matrix: once on the default in-process
// backend (ranks as threads, the bitwise reference) and once with
// SpmdTransport::backend == mp::Backend::kSocket, where every rank is its own
// OS process speaking length-prefixed frames over UNIX-domain sockets. The
// contract is the transport-independence claim of DESIGN.md §15: sigma, U, V,
// every progress counter, and both determinism digests must be *bit-identical*
// across backends. With --chaos each socket case additionally replays a
// hostile fault plan (drops, duplicates, corruption, delays, one SIGKILLed
// rank process with respawn + checkpoint rollback) and must still reproduce
// the reference bit-for-bit.
//
// Exit status is the contract: 0 when every case is bit-identical, 1 when any
// diverged (or died), 2 on usage error. The JSON report (stdout, or
// --json=PATH) carries per-case digests and the socket run's RecoveryStats so
// CI can archive and diff them across commits.
//
// Usage:
//   treesvd_launch [--sizes=8,16] [--ordering=NAME] [--rows-extra=8]
//                  [--chaos] [--seed=42] [--json=PATH]

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "report_json.hpp"
#include "svd/determinism.hpp"
#include "svd/spmd.hpp"
#include "util/cli.hpp"

namespace treesvd::launch {
namespace {

/// First divergence between the socket run and the in-process reference, as a
/// diagnostic string; empty when the runs are bit-identical.
std::string first_divergence(const SvdResult& got, const SvdResult& want) {
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

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

struct CaseReport {
  std::string ordering;
  int n = 0;
  bool bit_identical = false;
  std::string detail;  ///< divergence or exception text; empty on success
  std::uint64_t core_digest = 0;
  std::uint64_t full_digest = 0;
  mp::RecoveryStats recovery;  ///< from the socket run
};

std::vector<int> parse_sizes(const std::string& csv) {
  std::vector<int> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(std::stoi(item));
  return out;
}

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  if (cli.has("help")) {
    std::cout << "usage: treesvd_launch [--sizes=8,16] [--ordering=NAME] [--rows-extra=8]\n"
                 "                      [--chaos] [--seed=42] [--json=PATH]\n"
                 "Runs spmd_jacobi over rank processes (UNIX-socket backend) and gates\n"
                 "bitwise identity with the in-process backend; --chaos adds physical\n"
                 "faults including a SIGKILLed rank with respawn + rollback.\n";
    return 0;
  }

  const std::vector<int> sizes = parse_sizes(cli.get("sizes", "8,16"));
  const int rows_extra = static_cast<int>(cli.get_int("rows-extra", 8));
  const bool chaos = cli.has("chaos");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  if (sizes.empty() || rows_extra < 0) {
    std::cerr << "treesvd_launch: need nonempty --sizes and --rows-extra >= 0\n";
    return 2;
  }
  for (const int n : sizes)
    if (n < 4 || n % 2 != 0) {
      std::cerr << "treesvd_launch: sizes must be even and >= 4, got " << n << "\n";
      return 2;
    }

  std::vector<std::string> names;
  if (cli.has("ordering")) {
    names.push_back(cli.get("ordering", ""));
  } else {
    names = ordering_names();
  }

  std::vector<CaseReport> reports;
  bool pass = true;
  for (const std::string& name : names) {
    OrderingPtr ordering;
    try {
      ordering = make_ordering(name);
    } catch (const std::invalid_argument& e) {
      std::cerr << "treesvd_launch: " << e.what() << "\n";
      return 2;
    }
    for (const int n : sizes) {
      CaseReport r;
      r.ordering = name;
      r.n = n;
      // Fixed per-(ordering, n) matrix so the reference and the socket run
      // factor the same input; the engine pads n to a supported width itself.
      Rng rng(2026 + static_cast<std::uint64_t>(n));
      const Matrix a = random_gaussian(static_cast<std::size_t>(n + rows_extra),
                                      static_cast<std::size_t>(n), rng);
      try {
        const SvdResult reference = spmd_jacobi(a, *ordering);

        SpmdTransport transport;
        transport.backend = mp::Backend::kSocket;
        if (chaos) {
          transport.reliable.enabled = true;
          transport.reliable.max_retries = 12;
          transport.faults.enabled = true;
          transport.faults.seed = seed;
          transport.faults.drop_prob = 0.08;
          transport.faults.duplicate_prob = 0.05;
          transport.faults.corrupt_prob = 0.05;
          transport.faults.delay_prob = 0.02;
          transport.faults.kill_rank = 1;
          transport.faults.kill_at_op = 17;
        }
        transport.recovery.checkpoint_sweeps = 1;
        transport.recovery.max_rollbacks = 8;

        SpmdStats stats;
        const SvdResult over_sockets = spmd_jacobi(a, *ordering, {}, &stats, &transport);
        r.detail = first_divergence(over_sockets, reference);
        r.bit_identical = r.detail.empty();
        r.core_digest = result_core_digest(over_sockets);
        r.full_digest = result_digest(over_sockets);
        r.recovery = stats.recovery;
      } catch (const std::exception& e) {
        // A rank-process death the recovery budget cannot absorb (or a config
        // the engine rejects) is a failed case, not a harness crash.
        r.detail = e.what();
      }
      pass = pass && r.bit_identical;
      reports.push_back(std::move(r));
    }
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_launch\",\n  \"version\": 1,\n";
  os << "  \"backend\": \"socket\",\n  \"chaos\": " << (chaos ? "true" : "false") << ",\n";
  os << "  \"sizes\": [";
  for (std::size_t i = 0; i < sizes.size(); ++i) os << (i ? ", " : "") << sizes[i];
  os << "],\n  \"pass\": " << (pass ? "true" : "false") << ",\n  \"cases\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"ordering\": \"" << json_escape(r.ordering)
       << "\", \"n\": " << r.n
       << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false");
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
    if (r.bit_identical)
      os << ", \"core_digest\": \"" << hex64(r.core_digest) << "\", \"full_digest\": \""
         << hex64(r.full_digest) << "\"";
    os << ", \"recovery\": " << recovery_json(r.recovery) << "}";
  }
  os << "\n  ]\n}\n";

  const std::string json = os.str();
  const std::string path = cli.get("json", "");
  if (path.empty()) {
    std::cout << json;
  } else {
    std::ofstream f(path);
    if (!f) {
      std::cerr << "treesvd_launch: cannot write " << path << "\n";
      return 2;
    }
    f << json;
    std::cout << (pass ? "PASS" : "FAIL") << ": " << reports.size()
              << " socket-backend runs vs in-process reference, report written to " << path
              << "\n";
  }
  if (!pass)
    for (const CaseReport& r : reports)
      if (!r.bit_identical)
        std::cerr << "divergence: " << r.ordering << " n=" << r.n << ": " << r.detail << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::launch

int main(int argc, char** argv) { return treesvd::launch::main(argc, argv); }
