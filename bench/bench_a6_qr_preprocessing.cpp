// Ablation A6: QR preconditioning for tall matrices. Rotating length-m
// columns costs O(m) per rotation; factoring A·P = Q·R first (the tree QR of
// linalg/qr) makes every Jacobi rotation O(n) regardless of m, and Rᵀ
// converges in fewer sweeps. Compares JacobiOptions::precondition kOff with
// kAlways.
#include <cstdio>

#include "core/registry.hpp"
#include "linalg/generators.hpp"
#include "svd/jacobi.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace treesvd;
  std::printf("A6 — QR preconditioning (n = 48 columns, growing row count)\n\n");

  const auto ord = make_ordering("fat-tree");
  Table t({"m", "direct ms", "sweeps", "qr+jacobi ms", "sweeps", "speedup", "max sigma diff"});
  JacobiOptions off;
  off.precondition = PreconditionMode::kOff;
  JacobiOptions always;
  always.precondition = PreconditionMode::kAlways;
  for (std::size_t m : {48u, 96u, 192u, 384u, 768u, 1536u}) {
    Rng rng(616);
    const Matrix a = random_gaussian(m, 48, rng);
    Timer td;
    const SvdResult direct = one_sided_jacobi(a, *ord, off);
    const double direct_ms = td.millis();
    Timer tp;
    const SvdResult pre = one_sided_jacobi(a, *ord, always);
    const double pre_ms = tp.millis();
    double diff = 0.0;
    for (std::size_t k = 0; k < direct.sigma.size(); ++k)
      diff = std::max(diff, std::abs(direct.sigma[k] - pre.sigma[k]));
    char diffbuf[32];
    std::snprintf(diffbuf, sizeof diffbuf, "%.2e", diff);
    t.row()
        .cell(static_cast<long long>(m))
        .cell(direct_ms, 1)
        .cell(static_cast<long long>(direct.sweeps))
        .cell(pre_ms, 1)
        .cell(static_cast<long long>(pre.sweeps))
        .cell(direct_ms / pre_ms, 2)
        .cell(diffbuf);
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "Shape: direct cost grows linearly with m while the preconditioned cost is\n"
      "dominated by the one-off QR, so the speedup grows with the aspect ratio;\n"
      "singular values agree to roundoff.\n");
  return 0;
}
