#pragma once
// The four workloads and the per-layer unit-cost measurements their ledgers
// are built from.

#include <array>
#include <cstdint>

#include "common.hpp"
#include "mp/message_passing.hpp"

namespace perfbench {

/// Unit costs of each layer's public entry points, measured directly on the
/// workloads' shapes (layers.cpp). The ledgers multiply these by the counts a
/// workload run reports.
struct LayerUnits {
  std::array<double, 9> batch_solve_us{};  ///< [k]: BatchedSvd::solve_into of k lanes
  double gram_panel_us = 0;                ///< gram_panel, 2048 x 32 panel
  double apply_h_us = 0;                   ///< apply_panel_update, 2048-row panel
  double apply_v_us = 0;                   ///< apply_panel_update, 256-row panel
  double inner_gram_us = 0;                ///< inner_orthogonalise_gram, one encounter
  double inner_rotations = 0;              ///< rotations that encounter accumulated
  double sweep_from_b16_us = 0;            ///< fat-tree sweep_from over 16 blocks
  double pool_dispatch_us = 0;             ///< empty parallel_for over 4 tasks
  std::array<double, 2> pingpong_us{};     ///< [backend]: 4096-double round trip
  std::array<double, 2> world_spawn_ms{};  ///< [backend]: empty 4-rank World::run
  double serial_floor_ms = 0;              ///< one_sided_jacobi on a 4096 x 8 input

  /// Cost of one inner rotation on the small Gram problem: the encounter
  /// minus its BLAS-3 parts, spread over the rotations it accumulated.
  double inner_rotation_us() const;
};

/// Measures every unit cost, adding the per-layer unit metrics to `out`
/// (and a failure for any result that is wrong).
LayerUnits measure_layers(std::uint64_t seed, Outcome& out, SpanBuffer* tb);

int backend_index(treesvd::mp::Backend b);

/// Each workload runs its own set-up, then measures for cfg.seconds. With
/// `units` non-null it also builds its ledgers.
Outcome run_serve(const RunConfig& cfg, const LayerUnits* units);
Outcome run_block(const RunConfig& cfg, const LayerUnits* units);
Outcome run_spmd(const RunConfig& cfg, const LayerUnits* units, treesvd::mp::Backend backend);

}  // namespace perfbench
