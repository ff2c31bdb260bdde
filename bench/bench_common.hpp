#pragma once
// Shared helpers for the figure/claim reproduction binaries: pretty-printing
// of ordering sweeps in the paper's notation.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "core/validate.hpp"

namespace treesvd::bench {

/// Maps a 0-based index to the paper's label, e.g. "3(2)" for index 3 of
/// block/group 2. group_size == 0 suppresses the superscript.
inline std::string label(int index, int group_size = 0) {
  if (group_size <= 0) return std::to_string(index + 1);
  const int group = index / group_size + 1;
  const int within = index % group_size + 1;
  return std::to_string(within) + "(" + std::to_string(group) + ")";
}

/// One step's index pairs in the paper's notation, e.g. "(1 2)(3 4)".
inline std::string pairs_row(const Sweep& sweep, int t, int group_size = 0) {
  std::string row;
  for (const IndexPair& p : sweep.pairs(t)) {
    row += '(';
    row += label(p.even, group_size) + " " + label(p.odd, group_size) + ")";
  }
  return row;
}

/// Prints one sweep as the paper's figures do: one row per step with the
/// index pairs, plus the deepest communication level of the transition that
/// follows the step ("global" when it reaches `global_level`).
inline void print_sweep(const Sweep& sweep, int group_size = 0, int global_level = -1) {
  for (int t = 0; t < sweep.steps(); ++t) {
    const std::string row = pairs_row(sweep, t, group_size);
    int deepest = 0;
    for (const ColumnMove& mv : sweep.moves(t))
      deepest = std::max(deepest, comm_level(mv.from_slot, mv.to_slot));
    std::string level;
    if (deepest == 0) {
      level = "-";
    } else if (global_level > 0 && deepest >= global_level) {
      level = "global";
    } else {
      level = std::to_string(deepest);
    }
    std::printf("  step %2d: %-64s  level %s\n", t + 1, row.c_str(), level.c_str());
  }
  std::string fin;
  for (int idx : sweep.final_layout()) fin += label(idx, group_size) + " ";
  std::printf("  after sweep: %s\n", fin.c_str());
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace treesvd::bench
