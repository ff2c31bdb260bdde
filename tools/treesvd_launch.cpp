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
// The JSON report carries per-case digests and the socket run's
// RecoveryStats so CI can archive and diff them across commits. Flags,
// report and exit codes follow the gate runner (gate.hpp).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gate.hpp"
#include "linalg/generators.hpp"
#include "svd/spmd.hpp"

namespace treesvd::launch {
namespace {

constexpr gate::Flag kFlags[] = {
    {"sizes", "8,16", "problem widths (even, >= 4)"},
    {"ordering", "", "one registry ordering (default: the whole registry)"},
    {"rows-extra", "8", "matrix rows beyond n"},
    {"chaos", "", "replay a physical fault plan on every socket run"},
    {"seed", "42", "fault-plan seed for --chaos"},
    {"json", "", "write the report here instead of stdout"},
};

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

gate::Report run(const gate::Args& args) {
  const std::vector<long long> sizes = args.integers("sizes");
  const int rows_extra = static_cast<int>(args.integer("rows-extra"));
  const bool chaos = args.has("chaos");
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  gate::require(rows_extra >= 0, "need --rows-extra >= 0");
  for (const long long n : sizes)
    gate::require(n >= 4 && n % 2 == 0,
                  "sizes must be even and >= 4, got " + std::to_string(n));
  const std::vector<std::string> names = args.has("ordering")
                                             ? std::vector{args.ordering("ordering")}
                                             : ordering_names();

  gate::Report report;
  std::vector<JsonObject> cases;
  for (const std::string& name : names) {
    const OrderingPtr ordering = make_ordering(name);
    for (const long long n : sizes) {
      // Fixed per-(ordering, n) matrix so the reference and the socket run
      // factor the same input; the engine pads n to a supported width itself.
      Rng rng(2026 + static_cast<std::uint64_t>(n));
      const Matrix a = random_gaussian(static_cast<std::size_t>(n + rows_extra),
                                       static_cast<std::size_t>(n), rng);
      std::string detail;
      SpmdStats stats;
      SvdResult over_sockets;
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

        over_sockets = spmd_jacobi(a, *ordering, {}, &stats, &transport);
        detail = gate::first_divergence(over_sockets, reference);
      } catch (const std::exception& e) {
        // A rank-process death the recovery budget cannot absorb (or a config
        // the engine rejects) is a failed case, not a harness crash.
        detail = e.what();
        stats = {};
      }
      JsonObject c;
      c.add("ordering", name).add("n", n).add("bit_identical", detail.empty());
      if (detail.empty()) {
        c.add("core_digest", hex64(result_core_digest(over_sockets)))
            .add("full_digest", hex64(result_digest(over_sockets)));
      } else {
        c.add("detail", detail);
        report.fail("divergence: " + name + " n=" + std::to_string(n) + ": " + detail);
      }
      cases.push_back(c.add("recovery", gate::recovery_json(stats.recovery)));
    }
  }

  report.json.add("tool", "treesvd_launch")
      .add("version", 1)
      .add("backend", "socket")
      .add("chaos", chaos)
      .add_array("sizes", sizes)
      .add_array("cases", cases);
  report.summary =
      std::to_string(cases.size()) + " socket-backend runs vs in-process reference";
  return report;
}

}  // namespace
}  // namespace treesvd::launch

int main(int argc, char** argv) {
  return treesvd::gate::run("treesvd_launch",
                            "Runs spmd_jacobi over rank processes (UNIX-socket backend) and gates "
                            "bitwise identity\nwith the in-process backend; --chaos adds physical "
                            "faults including a SIGKILLed\nrank with respawn + rollback.",
                            treesvd::launch::kFlags, argc, argv, treesvd::launch::run);
}
