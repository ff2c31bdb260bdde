// Claim C8 (paper eq. (3)): rotating a column pair straight into swapped
// positions costs what a plain rotation costs, so the column interchange an
// ordering asks for after each rotation comes for free. Per call on one
// column pair of m rows, median of repeats:
//   rotate             apply_rotation
//   rotate+swap        apply_rotation, then an explicit swap pass
//   fused rotate-swap  apply_rotation_swapped (eq. (3))
// The printed checksum reads every timed result, so no call can be elided.
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <span>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/rotation.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

constexpr double kC = 0.8;
constexpr double kS = 0.6;
constexpr int kRepeats = 11;

/// Wall time of `calls` back-to-back calls, in ns per call.
template <typename Fn>
double ns_per_call(int calls, Fn&& fn) {
  const treesvd::Timer timer;
  for (int i = 0; i < calls; ++i) fn();
  return timer.seconds() * 1e9 / calls;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  using namespace treesvd;
  std::printf("C8 — eq. (3): fused rotate-and-swap vs rotation plus explicit interchange\n\n");

  Table table({"m", "rotate (ns)", "rotate+swap (ns)", "fused rotate-swap (ns)",
               "fused / rotate", "(rotate+swap) / fused"});
  Rng rng(8);
  double checksum = 0.0;
  for (const std::size_t m : {std::size_t{256}, std::size_t{1024}, std::size_t{4096}}) {
    std::vector<double> x(m), y(m);
    for (std::size_t i = 0; i < m; ++i) {
      x[i] = rng.normal();
      y[i] = rng.normal();
    }
    const std::span<double> xs(x), ys(y);
    const int calls = static_cast<int>(std::max<std::size_t>(2000, 20'000'000 / m));
    // The variants take turns within each repeat, so a slow spell on a
    // shared host hits all three alike.
    std::vector<double> rotate, rotate_swap, fused;
    for (int r = 0; r < kRepeats; ++r) {
      rotate.push_back(ns_per_call(calls, [&] { apply_rotation(xs, ys, kC, kS); }));
      rotate_swap.push_back(ns_per_call(calls, [&] {
        apply_rotation(xs, ys, kC, kS);
        treesvd::swap(xs, ys);
      }));
      fused.push_back(ns_per_call(calls, [&] { apply_rotation_swapped(xs, ys, kC, kS); }));
    }
    const double t_rotate = median(rotate);
    const double t_rotate_swap = median(rotate_swap);
    const double t_fused = median(fused);
    for (std::size_t i = 0; i < m; ++i) checksum += x[i] + y[i];
    table.row()
        .cell(m)
        .cell(t_rotate, 1)
        .cell(t_rotate_swap, 1)
        .cell(t_fused, 1)
        .cell(t_fused / t_rotate, 2)
        .cell(t_rotate_swap / t_fused, 2);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("checksum %.17g\n", checksum);
  return 0;
}
