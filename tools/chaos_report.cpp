// treesvd_chaos — chaos acceptance harness for the fault-tolerant SPMD engine.
//
// For each seed the tool runs spmd_jacobi twice on the same matrix: once
// fault-free, and once under a hostile deterministic FaultPlan (drops,
// duplicates, corruption, delays, one rank kill) with the reliable transport
// and sweep-checkpoint recovery enabled. The contract is the repo's headline
// robustness claim: every surviving chaos run must be *bit-identical* to the
// fault-free run — same sweeps, rotation/swap counts, both result digests,
// and bitwise-equal sigma/U/V. RecoveryStats for each seed go into the JSON
// report, which CI archives so fault/recovery counters are diffable across
// commits. Flags, report and exit codes follow the gate runner (gate.hpp).
//
// --backend selects the transport under test: "inproc" (default) replays the
// faults against the shared-memory mailboxes, "socket" runs every rank as its
// own OS process over UNIX-domain sockets, so the same plan becomes physical —
// dropped frames are closed connections, delays are real stalls, and the rank
// kill is a SIGKILL of a live process followed by respawn + checkpoint
// rollback. The bit-identity contract is the same either way.

#include <cstdint>
#include <string>

#include "gate.hpp"
#include "linalg/generators.hpp"
#include "svd/spmd.hpp"

namespace treesvd::chaos {
namespace {

constexpr gate::Flag kFlags[] = {
    {"seeds", "42,43,44", "fault-plan seeds, one chaos run each"},
    {"n", "8", "matrix columns (even, >= 4)"},
    {"rows", "", "matrix rows (default n+8)"},
    {"ordering", "new-ring", "registry ordering"},
    {"backend", "inproc", "transport under test: inproc | socket"},
    {"drop", "0.12", "per-frame drop probability"},
    {"dup", "0.08", "per-frame duplicate probability"},
    {"corrupt", "0.06", "per-frame corruption probability"},
    {"delay", "0.04", "per-frame delay probability"},
    {"kill-rank", "2", "rank killed once during the run"},
    {"kill-at-op", "31", "transport operation at which it dies"},
    {"max-retries", "12", "reliable-transport retry budget"},
    {"json", "", "write the report here instead of stdout"},
};

gate::Report run(const gate::Args& args) {
  const std::string backend = args.str("backend");
  gate::require(backend == "inproc" || backend == "socket",
                "--backend must be inproc or socket, got \"" + backend + "\"");
  const int n = static_cast<int>(args.integer("n"));
  const int rows = static_cast<int>(args.integer("rows", n + 8));
  gate::require(n >= 4 && n % 2 == 0 && rows >= n, "need even n >= 4 and rows >= n");
  const std::vector<long long> seeds = args.integers("seeds");
  const std::string ordering_name = args.ordering("ordering");
  const OrderingPtr ordering = make_ordering(ordering_name);

  SpmdTransport transport;
  transport.reliable.enabled = true;
  transport.reliable.max_retries = static_cast<int>(args.integer("max-retries"));
  transport.faults.enabled = true;
  transport.faults.drop_prob = args.real("drop");
  transport.faults.duplicate_prob = args.real("dup");
  transport.faults.corrupt_prob = args.real("corrupt");
  transport.faults.delay_prob = args.real("delay");
  transport.faults.kill_rank = static_cast<int>(args.integer("kill-rank"));
  transport.faults.kill_at_op = static_cast<std::uint64_t>(args.integer("kill-at-op"));
  transport.recovery.checkpoint_sweeps = 1;
  transport.recovery.max_rollbacks = 8;
  if (backend == "socket") transport.backend = mp::Backend::kSocket;

  // Fixed matrix; the seeds vary only the fault schedule.
  Rng rng(2026);
  const Matrix a =
      random_gaussian(static_cast<std::size_t>(rows), static_cast<std::size_t>(n), rng);
  const SvdResult reference = spmd_jacobi(a, *ordering);

  gate::Report report;
  std::vector<JsonObject> results;
  for (const long long s : seeds) {
    const auto seed = static_cast<std::uint64_t>(s);
    transport.faults.seed = seed;
    std::string detail;
    SpmdStats stats;
    try {
      const SvdResult chaotic = spmd_jacobi(a, *ordering, {}, &stats, &transport);
      detail = gate::first_divergence(chaotic, reference);
    } catch (const std::exception& e) {
      // A plan that exceeds the retry/rollback budget (or a config the
      // engine rejects) is a failed seed, not a harness crash.
      detail = e.what();
      stats = {};
    }
    JsonObject r;
    r.add("seed", seed).add("bit_identical", detail.empty());
    if (!detail.empty()) {
      r.add("detail", detail);
      report.fail("divergence: seed " + std::to_string(seed) + ": " + detail);
    }
    results.push_back(r.add("recovery", gate::recovery_json(stats.recovery)));
  }

  JsonObject plan;
  plan.add("drop", transport.faults.drop_prob)
      .add("dup", transport.faults.duplicate_prob)
      .add("corrupt", transport.faults.corrupt_prob)
      .add("delay", transport.faults.delay_prob)
      .add("kill_rank", transport.faults.kill_rank)
      .add("kill_at_op", transport.faults.kill_at_op);
  JsonObject kind;
  kind.add("kind", backend);
  if (backend == "socket")
    kind.add("recv_deadline_ms", transport.socket.recv_deadline_ms)
        .add("heartbeat_interval_ms", transport.socket.heartbeat_interval_ms)
        .add("heartbeat_timeout_ms", transport.socket.heartbeat_timeout_ms)
        .add("delay_stall_ms", transport.socket.delay_stall_ms);
  report.json.add("tool", "treesvd_chaos")
      .add("version", 1)
      .add("n", n)
      .add("rows", rows)
      .add("ordering", ordering_name)
      .add("backend", kind)
      .add("plan", plan)
      .add_array("results", results);
  report.summary =
      std::to_string(results.size()) + " seeded chaos runs vs fault-free reference";
  return report;
}

}  // namespace
}  // namespace treesvd::chaos

int main(int argc, char** argv) {
  return treesvd::gate::run("treesvd_chaos",
                            "Replays seeded fault plans against spmd_jacobi and gates bit-identity "
                            "with the fault-free run.",
                            treesvd::chaos::kFlags, argc, argv, treesvd::chaos::run);
}
