// treesvd_chaos — chaos acceptance harness for the fault-tolerant SPMD engine.
//
// For each seed the tool runs spmd_jacobi twice on the same matrix: once
// fault-free, and once under a hostile deterministic FaultPlan (drops,
// duplicates, corruption, delays, one rank kill) with the reliable transport
// and sweep-checkpoint recovery enabled. The contract is the repo's headline
// robustness claim: every surviving chaos run must be *bit-identical* to the
// fault-free run — same sweeps, rotation/swap counts, kernel pass counters,
// and bitwise-equal sigma/U/V. RecoveryStats for each seed are emitted as
// machine-readable JSON (stdout, or --json=PATH); the exit status is the
// contract: 0 means every seed reproduced the fault-free result, 1 means at
// least one diverged (or died), 2 means usage error. CI archives the JSON as
// an artifact so fault/recovery counters are diffable across commits.
//
// --backend selects the transport under test: "inproc" (default) replays the
// faults against the shared-memory mailboxes, "socket" runs every rank as its
// own OS process over UNIX-domain sockets, so the same plan becomes physical —
// dropped frames are closed connections, delays are real stalls, and the rank
// kill is a SIGKILL of a live process followed by respawn + checkpoint
// rollback. The bit-identity contract is the same either way.
//
// Usage:
//   treesvd_chaos [--seeds=42,43,44] [--n=8] [--rows=16] [--ordering=new-ring]
//                 [--backend=inproc|socket] [--drop=0.12] [--dup=0.08]
//                 [--corrupt=0.06] [--delay=0.04] [--kill-rank=2]
//                 [--kill-at-op=31] [--max-retries=12] [--json=PATH]

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "report_json.hpp"
#include "svd/spmd.hpp"
#include "util/cli.hpp"

namespace treesvd::chaos {
namespace {

/// First divergence between a chaos run and the fault-free reference, as a
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
  const KernelStats& g = got.kernel_stats;
  const KernelStats& w = want.kernel_stats;
  if (g.pairs != w.pairs || g.dot_passes != w.dot_passes || g.gram_passes != w.gram_passes ||
      g.rotate_passes != w.rotate_passes || g.norm_refreshes != w.norm_refreshes)
    return "kernel pass counters differ";
  return {};
}

struct SeedReport {
  std::uint64_t seed = 0;
  bool bit_identical = false;
  std::string detail;  ///< divergence or exception text; empty on success
  mp::RecoveryStats recovery;
};

std::vector<std::uint64_t> parse_seeds(const std::string& csv) {
  std::vector<std::uint64_t> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(std::stoull(item));
  return out;
}

int main(int argc, const char* const* argv) {
  const Cli cli(argc, argv);
  if (cli.has("help")) {
    std::cout
        << "usage: treesvd_chaos [--seeds=42,43,44] [--n=8] [--rows=16]\n"
           "                     [--ordering=new-ring] [--backend=inproc|socket]\n"
           "                     [--drop=0.12] [--dup=0.08] [--corrupt=0.06]\n"
           "                     [--delay=0.04] [--kill-rank=2] [--kill-at-op=31]\n"
           "                     [--max-retries=12] [--json=PATH]\n";
    return 0;
  }

  const std::string backend = cli.get("backend", "inproc");
  if (backend != "inproc" && backend != "socket") {
    std::cerr << "treesvd_chaos: --backend must be inproc or socket, got \"" << backend
              << "\"\n";
    return 2;
  }

  const int n = static_cast<int>(cli.get_int("n", 8));
  const int rows = static_cast<int>(cli.get_int("rows", n + 8));
  const std::string ordering_name = cli.get("ordering", "new-ring");
  if (n < 4 || n % 2 != 0 || rows < n) {
    std::cerr << "treesvd_chaos: need even n >= 4 and rows >= n\n";
    return 2;
  }
  const auto seeds = parse_seeds(cli.get("seeds", "42,43,44"));
  if (seeds.empty()) {
    std::cerr << "treesvd_chaos: --seeds produced no seeds\n";
    return 2;
  }

  OrderingPtr ordering;
  try {
    ordering = make_ordering(ordering_name);
  } catch (const std::invalid_argument& e) {
    std::cerr << "treesvd_chaos: " << e.what() << "\n";
    return 2;
  }

  // Fixed matrix; the seeds vary only the fault schedule.
  Rng rng(2026);
  const Matrix a =
      random_gaussian(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  const SvdResult reference = spmd_jacobi(a, *ordering);

  SpmdTransport transport;
  transport.reliable.enabled = true;
  transport.reliable.max_retries = static_cast<int>(cli.get_int("max-retries", 12));
  transport.faults.enabled = true;
  transport.faults.drop_prob = cli.get_double("drop", 0.12);
  transport.faults.duplicate_prob = cli.get_double("dup", 0.08);
  transport.faults.corrupt_prob = cli.get_double("corrupt", 0.06);
  transport.faults.delay_prob = cli.get_double("delay", 0.04);
  transport.faults.kill_rank = static_cast<int>(cli.get_int("kill-rank", 2));
  transport.faults.kill_at_op = static_cast<std::uint64_t>(cli.get_int("kill-at-op", 31));
  transport.recovery.checkpoint_sweeps = 1;
  transport.recovery.max_rollbacks = 8;
  if (backend == "socket") transport.backend = mp::Backend::kSocket;

  std::vector<SeedReport> reports;
  bool pass = true;
  for (const std::uint64_t seed : seeds) {
    SeedReport r;
    r.seed = seed;
    transport.faults.seed = seed;
    try {
      SpmdStats stats;
      const SvdResult chaotic = spmd_jacobi(a, *ordering, {}, &stats, &transport);
      r.detail = first_divergence(chaotic, reference);
      r.bit_identical = r.detail.empty();
      r.recovery = stats.recovery;
    } catch (const std::exception& e) {
      // A plan that exceeds the retry/rollback budget (or a config the
      // engine rejects) is a failed seed, not a harness crash.
      r.detail = e.what();
    }
    pass = pass && r.bit_identical;
    reports.push_back(std::move(r));
  }

  std::ostringstream os;
  os << "{\n  \"tool\": \"treesvd_chaos\",\n  \"version\": 1,\n";
  os << "  \"n\": " << n << ",\n  \"rows\": " << rows << ",\n";
  os << "  \"ordering\": \"" << ordering_name << "\",\n";
  os << "  \"backend\": {\"kind\": \"" << backend << "\"";
  if (backend == "socket")
    os << ", \"recv_deadline_ms\": " << transport.socket.recv_deadline_ms
       << ", \"heartbeat_interval_ms\": " << transport.socket.heartbeat_interval_ms
       << ", \"heartbeat_timeout_ms\": " << transport.socket.heartbeat_timeout_ms
       << ", \"delay_stall_ms\": " << transport.socket.delay_stall_ms;
  os << "},\n";
  os << "  \"plan\": {\"drop\": " << transport.faults.drop_prob
     << ", \"dup\": " << transport.faults.duplicate_prob
     << ", \"corrupt\": " << transport.faults.corrupt_prob
     << ", \"delay\": " << transport.faults.delay_prob
     << ", \"kill_rank\": " << transport.faults.kill_rank
     << ", \"kill_at_op\": " << transport.faults.kill_at_op << "},\n";
  os << "  \"pass\": " << (pass ? "true" : "false") << ",\n  \"results\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const SeedReport& r = reports[i];
    os << (i ? "," : "") << "\n    {\"seed\": " << r.seed
       << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false");
    if (!r.detail.empty()) os << ", \"detail\": \"" << json_escape(r.detail) << "\"";
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
      std::cerr << "treesvd_chaos: cannot write " << path << "\n";
      return 2;
    }
    f << json;
    std::cout << (pass ? "PASS" : "FAIL") << ": " << reports.size()
              << " seeded chaos runs vs fault-free reference, report written to " << path << "\n";
  }
  if (!pass)
    for (const SeedReport& r : reports)
      if (!r.bit_identical)
        std::cerr << "divergence: seed " << r.seed << ": " << r.detail << "\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace treesvd::chaos

int main(int argc, char** argv) { return treesvd::chaos::main(argc, argv); }
