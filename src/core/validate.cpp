#include "core/validate.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/require.hpp"

namespace treesvd {

SweepValidation validate_sweep(const Sweep& sweep) {
  const int n = sweep.n();
  std::vector<std::uint8_t> met(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  std::size_t count = 0;
  for (int t = 0; t < sweep.steps(); ++t) {
    std::vector<std::uint8_t> busy(static_cast<std::size_t>(n), 0);
    for (const IndexPair& p : sweep.pairs(t)) {
      if (p.even == p.odd)
        return {false, "step " + std::to_string(t) + ": degenerate pair"};
      if (busy[static_cast<std::size_t>(p.even)] || busy[static_cast<std::size_t>(p.odd)])
        return {false, "step " + std::to_string(t) + ": index appears in two pairs"};
      busy[static_cast<std::size_t>(p.even)] = busy[static_cast<std::size_t>(p.odd)] = 1;
      const int lo = std::min(p.even, p.odd);
      const int hi = std::max(p.even, p.odd);
      auto& flag = met[static_cast<std::size_t>(lo) * static_cast<std::size_t>(n) +
                       static_cast<std::size_t>(hi)];
      if (flag)
        return {false, "pair (" + std::to_string(lo + 1) + "," + std::to_string(hi + 1) +
                           ") rotated twice (second time at step " + std::to_string(t) + ")"};
      flag = 1;
      ++count;
    }
  }
  const std::size_t want = static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
  if (count != want)
    return {false, "sweep rotated " + std::to_string(count) + " pairs, expected " +
                       std::to_string(want)};
  return {true, {}};
}

SweepValidation validate_sweep_sequence(const Ordering& ordering, int n, int sweeps) {
  SweepChain chain(ordering, n);
  for (int k = 0; k < sweeps; ++k) {
    const SweepValidation v = validate_sweep(chain.next());
    if (!v.valid) return {false, "sweep " + std::to_string(k) + ": " + v.error};
  }
  return {true, {}};
}

int comm_level(int from_slot, int to_slot) {
  int a = from_slot / 2;
  int b = to_slot / 2;
  int level = 0;
  while (a != b) {
    a /= 2;
    b /= 2;
    ++level;
  }
  return level;
}

std::vector<std::size_t> level_histogram(const Sweep& sweep) {
  // Tree height is ceil(log2(leaves)): with a non-power-of-two leaf count a
  // transfer between leaves m-1 and 0 still climbs to the first level whose
  // subtree covers both, one past floor(log2).
  int max_level = 0;
  while ((1 << max_level) < sweep.leaves()) ++max_level;
  std::vector<std::size_t> hist(static_cast<std::size_t>(max_level) + 1, 0);
  for (int t = 0; t < sweep.steps(); ++t)
    for (const ColumnMove& mv : sweep.moves(t))
      ++hist[static_cast<std::size_t>(comm_level(mv.from_slot, mv.to_slot))];
  return hist;
}

bool unidirectional_ring_moves(const Sweep& sweep) {
  const int m = sweep.leaves();
  for (int t = 0; t < sweep.steps(); ++t) {
    for (const ColumnMove& mv : sweep.moves(t)) {
      const int from = mv.from_slot / 2;
      const int to = mv.to_slot / 2;
      if (from == to) continue;                  // intra-leaf: free
      if (to != (from + m - 1) % m) return false;  // must be one hop counter-clockwise
    }
  }
  return true;
}

std::vector<std::size_t> moves_per_index(const Sweep& sweep) {
  std::vector<std::size_t> moves(static_cast<std::size_t>(sweep.n()), 0);
  for (int t = 0; t < sweep.steps(); ++t)
    for (const ColumnMove& mv : sweep.moves(t))
      if (mv.from_slot / 2 != mv.to_slot / 2) ++moves[static_cast<std::size_t>(mv.index)];
  return moves;
}

namespace {

/// partner[t][i] = the index paired with i at step t, or -1 when i is idle.
std::vector<std::vector<int>> partner_table(const Sweep& s) {
  std::vector<std::vector<int>> partner(
      static_cast<std::size_t>(s.steps()),
      std::vector<int>(static_cast<std::size_t>(s.n()), -1));
  for (int t = 0; t < s.steps(); ++t) {
    for (const IndexPair& p : s.pairs(t)) {
      partner[static_cast<std::size_t>(t)][static_cast<std::size_t>(p.even)] = p.odd;
      partner[static_cast<std::size_t>(t)][static_cast<std::size_t>(p.odd)] = p.even;
    }
  }
  return partner;
}

}  // namespace

std::optional<std::vector<int>> find_equivalence_relabelling(const Sweep& a, const Sweep& b) {
  // A relabelling lambda must map step-t partners to step-t partners:
  // lambda(partner_a(t, x)) = partner_b(t, lambda(x)). Since every index
  // meets every other during a sweep, fixing lambda(0) forces the whole
  // permutation by propagation — try each of the n candidates.
  if (a.n() != b.n() || a.steps() != b.steps()) return std::nullopt;
  const int n = a.n();
  const auto pa = partner_table(a);
  const auto pb = partner_table(b);
  for (int t = 0; t < a.steps(); ++t) {
    std::size_t ca = 0;
    std::size_t cb = 0;
    for (int i = 0; i < n; ++i) {
      ca += pa[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] != -1 ? 1u : 0u;
      cb += pb[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] != -1 ? 1u : 0u;
    }
    if (ca != cb) return std::nullopt;  // different activity shape
  }

  std::vector<int> map(static_cast<std::size_t>(n));
  std::vector<int> rmap(static_cast<std::size_t>(n));
  std::vector<int> queue;
  for (int seed = 0; seed < n; ++seed) {
    std::fill(map.begin(), map.end(), -1);
    std::fill(rmap.begin(), rmap.end(), -1);
    map[0] = seed;
    rmap[static_cast<std::size_t>(seed)] = 0;
    queue.assign(1, 0);
    bool ok = true;
    for (std::size_t qi = 0; ok && qi < queue.size(); ++qi) {
      const int x = queue[qi];
      const int y = map[static_cast<std::size_t>(x)];
      for (int t = 0; ok && t < a.steps(); ++t) {
        const int xa = pa[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)];
        const int yb = pb[static_cast<std::size_t>(t)][static_cast<std::size_t>(y)];
        if ((xa == -1) != (yb == -1)) {
          ok = false;
        } else if (xa != -1) {
          const int cur = map[static_cast<std::size_t>(xa)];
          if (cur == -1) {
            if (rmap[static_cast<std::size_t>(yb)] != -1) {
              ok = false;
            } else {
              map[static_cast<std::size_t>(xa)] = yb;
              rmap[static_cast<std::size_t>(yb)] = xa;
              queue.push_back(xa);
            }
          } else if (cur != yb) {
            ok = false;
          }
        }
      }
    }
    if (!ok) continue;
    // Every index meets index 0 during a valid sweep, so propagation reaches
    // all of them; an incomplete map means the sweeps were not valid.
    if (std::find(map.begin(), map.end(), -1) != map.end()) continue;
    return map;
  }
  return std::nullopt;
}

}  // namespace treesvd
