// Figure 9 reproduction: the hybrid ordering for sixteen indices divided
// into four groups — fat-tree ordering inside groups, ring ordering between
// them, with the inter-group ("global") transitions marked.
#include <cstdio>

#include "bench_common.hpp"
#include "core/hybrid.hpp"
#include "core/validate.hpp"

int main() {
  using namespace treesvd;
  using namespace treesvd::bench;
  const int n = 16;
  const int groups = 4;
  const int gsz = n / groups;

  heading("Fig 9: the hybrid ordering for sixteen indices (four groups)");
  const Sweep s = HybridOrdering(groups).sweep(n);
  for (int t = 0; t < s.steps(); ++t) {
    const std::string row = pairs_row(s, t, gsz);
    // A transition is "global" when a column changes group.
    bool global = false;
    int deepest = 0;
    for (const ColumnMove& mv : s.moves(t)) {
      deepest = std::max(deepest, comm_level(mv.from_slot, mv.to_slot));
      if (mv.from_slot / gsz != mv.to_slot / gsz) global = true;
    }
    std::string note = "-";
    if (global) {
      note = "global";
    } else if (deepest > 0) {
      note = "level " + std::to_string(deepest);
    }
    std::printf("  step %2d: %-72s %s\n", t + 1, row.c_str(), note.c_str());
  }
  std::string fin;
  for (int idx : s.final_layout()) fin += label(idx, gsz) + " ";
  std::printf("  after sweep: %s\n", fin.c_str());

  const auto v = validate_sweep(s);
  std::printf("\n  valid Jacobi sweep: %s (steps = %d = n-1)\n",
              v.valid ? "yes" : v.error.c_str(), s.steps());
  std::printf("  structure: steps 1-%d are the intra-group fat-tree sweep (super-step 1);\n"
              "  each later super-step is a two-block ordering of %d steps, separated by\n"
              "  one-directional ring shifts of whole blocks between groups.\n",
              gsz - 1, gsz / 2);
  return 0;
}
