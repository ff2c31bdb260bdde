// Two execution models and a pricing model, one schedule: runs the same SVD
// through
//   1. the shared-memory engine (one_sided_jacobi),
//   2. the SPMD program over the message-passing runtime (one rank per leaf,
//      columns exchanged as tagged messages, dataflow synchronisation only),
// checks they agree bit for bit — the ordering's schedule, not the runtime,
// determines the numerics — and prices the executed sweeps on a CM-5-like
// fat tree with model_run. Exits nonzero unless SPMD is bitwise equal to
// shared memory and delivered exactly the messages the model charges for.
//
//   ./machine_comparison [--n=32] [--rows=64] [--ordering=hybrid-g4]
#include <cstdio>

#include "treesvd.hpp"

int main(int argc, char** argv) {
  using namespace treesvd;
  const Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 32));
  const auto rows = static_cast<std::size_t>(cli.get_int("rows", 2 * n));
  const std::string name = cli.get("ordering", "hybrid-g4");

  Rng rng(1993);
  const Matrix a = random_gaussian(rows, static_cast<std::size_t>(n), rng);
  const auto ord = make_ordering(name);
  if (!ord->supports(n)) {
    std::printf("%s does not support n=%d\n", name.c_str(), n);
    return 1;
  }

  std::printf("execution-model comparison: %zux%d, %s ordering, %d leaf processors\n\n", rows, n,
              name.c_str(), n / 2);

  Timer t1;
  const SvdResult shared = one_sided_jacobi(a, *ord);
  const double ms1 = t1.millis();

  Timer t2;
  SpmdStats stats;
  const SvdResult spmd = spmd_jacobi(a, *ord, {}, &stats);
  const double ms2 = t2.millis();

  bool bitwise = spmd.sigma.size() == shared.sigma.size() && spmd.u == shared.u &&
                 spmd.v == shared.v;
  for (std::size_t k = 0; bitwise && k < shared.sigma.size(); ++k)
    bitwise = spmd.sigma[k] == shared.sigma[k];

  const FatTreeTopology topo(n / 2, CapacityProfile::kCm5);
  CostParams params;
  params.words_per_column = static_cast<double>(rows);
  const SweepCost cost = model_run(*ord, topo, n, params, spmd.sweeps).per_sweep_total;
  const bool counts_match = stats.messages == cost.messages;

  Table t({"model", "sweeps", "wall ms", "bitwise == shared", "notes"});
  t.row()
      .cell("shared-memory")
      .cell(static_cast<long long>(shared.sweeps))
      .cell(ms1, 1)
      .cell("-")
      .cell("columns rotated in place");
  t.row()
      .cell("spmd (threads)")
      .cell(static_cast<long long>(spmd.sweeps))
      .cell(ms2, 1)
      .cell(bitwise ? "yes" : "NO")
      .cell(std::to_string(n / 2) + " ranks exchanging tagged column messages");
  std::printf("%s", t.str().c_str());

  std::printf("\nmessages: %zu delivered by SPMD, %zu modelled by model_run (%s)\n",
              stats.messages, cost.messages, counts_match ? "equal" : "DIFFERENT");
  std::printf("modelled cost of the %d executed sweeps on the CM-5-like tree: total %.0f\n"
              "(compute %.0f + communication %.0f), worst channel contention %.2f\n",
              spmd.sweeps, cost.total_time, cost.compute_time, cost.comm_time,
              cost.max_contention);
  return (bitwise && counts_match) ? 0 : 1;
}
