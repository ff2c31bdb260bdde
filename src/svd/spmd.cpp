#include "svd/spmd.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/blas1.hpp"
#include "mp/message_passing.hpp"
#include "svd/driver_detail.hpp"
#include "svd/pair_kernel.hpp"
#include "util/require.hpp"

namespace treesvd {
namespace {

/// Unique message tag per (sweep, step, destination slot): ranks never need
/// a step barrier — matching tags order the dataflow.
std::uint64_t make_tag(int sweep, int step, int to_slot) {
  return (static_cast<std::uint64_t>(sweep) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(step)) << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(to_slot));
}

struct SlotState {
  int label = -1;               ///< which logical column occupies the slot
  double hsq = 0.0;             ///< cached squared norm of h (travels with it)
  std::vector<double> h;        ///< column of A/H
  std::vector<double> v;        ///< column of V (empty when not tracked)
};

/// One rank's sweep-boundary snapshot: everything needed to replay the run
/// bit-identically from the sweep it names.
struct RankCheckpoint {
  int sweep = -1;               ///< the sweep this state is about to execute
  SlotState slot[2];
  std::vector<int> layout;      ///< the sweep's opening layout (global)
  std::size_t rot = 0;          ///< rotations accumulated so far
  std::size_t swap = 0;         ///< swaps accumulated so far
  KernelStats kernels;          ///< this rank's kernel counters at the boundary
  ConvergenceWatchdog watchdog{0};
  StallDetector stall;          ///< observational status classifier state
};

// ---------------------------------------------------------------------------
// Durable blob board layout. Checkpoints and results travel through
// Context::publish so they survive rank *processes* dying (socket backend);
// the in-process backend stores the identical bytes on the same board, which
// is what keeps the two backends bit-identical: one serialisation, one code
// path. Doubles round-trip exactly; integer counters stay below 2^53.

/// Checkpoints: a ring of two board slots per rank, cycled by boundary index
/// (ranks drift by at most one boundary, so the newest boundary *all* ranks
/// committed is always on the board). Results: one slot per rank.
std::uint64_t checkpoint_key(int rank, int slot) {
  return (std::uint64_t{1} << 56) | (static_cast<std::uint64_t>(rank) << 8) |
         static_cast<std::uint64_t>(slot);
}
std::uint64_t result_key(int rank) {
  return (std::uint64_t{2} << 56) | static_cast<std::uint64_t>(rank);
}

void pack_slot(const SlotState& s, std::vector<double>& out) {
  out.push_back(static_cast<double>(s.label));
  out.push_back(s.hsq);
  out.push_back(static_cast<double>(s.h.size()));
  out.push_back(static_cast<double>(s.v.size()));
  out.insert(out.end(), s.h.begin(), s.h.end());
  out.insert(out.end(), s.v.begin(), s.v.end());
}

/// Returns the number of doubles consumed.
std::size_t unpack_slot(const double* p, SlotState* s) {
  s->label = static_cast<int>(p[0]);
  s->hsq = p[1];
  const auto hn = static_cast<std::size_t>(p[2]);
  const auto vn = static_cast<std::size_t>(p[3]);
  s->h.assign(p + 4, p + 4 + hn);
  s->v.assign(p + 4 + hn, p + 4 + hn + vn);
  return 4 + hn + vn;
}

constexpr std::size_t kKernelsPacked = 8;

void pack_kernels(const KernelStats& k, std::vector<double>& out) {
  out.push_back(static_cast<double>(k.pairs));
  out.push_back(static_cast<double>(k.dot_passes));
  out.push_back(static_cast<double>(k.gram_passes));
  out.push_back(static_cast<double>(k.rotate_passes));
  out.push_back(static_cast<double>(k.norm_refreshes));
  out.push_back(static_cast<double>(k.gram_builds));
  out.push_back(static_cast<double>(k.accum_rotations));
  out.push_back(static_cast<double>(k.blocked_applies));
}

KernelStats unpack_kernels(const double* p) {
  KernelStats k;
  k.pairs = static_cast<std::size_t>(p[0]);
  k.dot_passes = static_cast<std::size_t>(p[1]);
  k.gram_passes = static_cast<std::size_t>(p[2]);
  k.rotate_passes = static_cast<std::size_t>(p[3]);
  k.norm_refreshes = static_cast<std::size_t>(p[4]);
  k.gram_builds = static_cast<std::size_t>(p[5]);
  k.accum_rotations = static_cast<std::size_t>(p[6]);
  k.blocked_applies = static_cast<std::size_t>(p[7]);
  return k;
}

/// Checkpoint blob: [sweep, rot, swap, layout(n), kernels, watchdog, stall,
/// slot0, slot1].
std::vector<double> pack_checkpoint(const RankCheckpoint& cp) {
  std::vector<double> out;
  out.reserve(3 + cp.layout.size() + kKernelsPacked + ConvergenceWatchdog::kPacked +
              StallDetector::kPacked + 2 * (4 + cp.slot[0].h.size() + cp.slot[0].v.size()));
  out.push_back(static_cast<double>(cp.sweep));
  out.push_back(static_cast<double>(cp.rot));
  out.push_back(static_cast<double>(cp.swap));
  for (const int l : cp.layout) out.push_back(static_cast<double>(l));
  pack_kernels(cp.kernels, out);
  cp.watchdog.pack(out);
  cp.stall.pack(out);
  pack_slot(cp.slot[0], out);
  pack_slot(cp.slot[1], out);
  return out;
}

RankCheckpoint unpack_checkpoint(const std::vector<double>& blob, int n) {
  RankCheckpoint cp;
  const double* p = blob.data();
  cp.sweep = static_cast<int>(p[0]);
  cp.rot = static_cast<std::size_t>(p[1]);
  cp.swap = static_cast<std::size_t>(p[2]);
  p += 3;
  cp.layout.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) cp.layout[static_cast<std::size_t>(i)] = static_cast<int>(p[i]);
  p += n;
  cp.kernels = unpack_kernels(p);
  p += kKernelsPacked;
  cp.watchdog = ConvergenceWatchdog::unpack(p);
  p += ConvergenceWatchdog::kPacked;
  cp.stall = StallDetector::unpack(p);
  p += StallDetector::kPacked;
  p += unpack_slot(p, &cp.slot[0]);
  unpack_slot(p, &cp.slot[1]);
  return cp;
}

/// One rank's contribution to the final result, published after its last
/// sweep: [sweep, converged, rot, swap, kernels, stall, slot0, slot1].
struct RankResult {
  int sweep = 0;
  bool converged = false;
  std::size_t rot = 0;
  std::size_t swap = 0;
  KernelStats kernels;
  StallDetector stall;
  SlotState slot[2];
};

std::vector<double> pack_result(const RankResult& r) {
  std::vector<double> out;
  out.push_back(static_cast<double>(r.sweep));
  out.push_back(r.converged ? 1.0 : 0.0);
  out.push_back(static_cast<double>(r.rot));
  out.push_back(static_cast<double>(r.swap));
  pack_kernels(r.kernels, out);
  r.stall.pack(out);
  pack_slot(r.slot[0], out);
  pack_slot(r.slot[1], out);
  return out;
}

RankResult unpack_result(const std::vector<double>& blob) {
  RankResult r;
  const double* p = blob.data();
  r.sweep = static_cast<int>(p[0]);
  r.converged = p[1] != 0.0;
  r.rot = static_cast<std::size_t>(p[2]);
  r.swap = static_cast<std::size_t>(p[3]);
  p += 4;
  r.kernels = unpack_kernels(p);
  p += kKernelsPacked;
  r.stall = StallDetector::unpack(p);
  p += StallDetector::kPacked;
  p += unpack_slot(p, &r.slot[0]);
  unpack_slot(p, &r.slot[1]);
  return r;
}

}  // namespace

SvdResult spmd_jacobi(const Matrix& a, const Ordering& ordering, const JacobiOptions& options,
                      SpmdStats* stats, const SpmdTransport* transport) {
  TREESVD_REQUIRE(a.rows() >= a.cols() && a.cols() >= 2, "spmd_jacobi expects m >= n >= 2");
  require_finite_columns(a, "spmd_jacobi");
  const int n0 = static_cast<int>(a.cols());
  const int n = padded_width(ordering, n0);
  const int ranks = n / 2;

  RecoveryOptions recovery = transport != nullptr ? transport->recovery : RecoveryOptions{};
  // Without a transport, the engine-level watchdog knob applies (a transport
  // brings its own RecoveryOptions, which chaos replay depends on).
  if (transport == nullptr) recovery.watchdog_sweeps = options.watchdog_sweeps;
  const bool chaos = transport != nullptr;

  // The shared staging step (equilibration, QR preconditioning, padding)
  // happens once, before the scatter, so every rank works on the same
  // columns at the same exact power-of-two scale and the hsq payloads stay
  // finite. Under preconditioning the ranks rotate Rᵀ and always carry V.
  detail::SweepGuards staged(options);
  Matrix h0(detail::working_rows(a.rows(), a.cols(), options), static_cast<std::size_t>(n));
  detail::stage(a, h0, options, staged);
  const std::size_t rows = h0.rows();
  const bool keep_v = detail::accumulates_v(a.rows(), a.cols(), options);
  const bool checkpointing = chaos && recovery.checkpoint_sweeps > 0;

  mp::World world(ranks);
  if (chaos) {
    if (transport->backend == mp::Backend::kSocket)
      world.set_backend(mp::Backend::kSocket, transport->socket);
    if (transport->reliable.enabled) world.set_reliable(transport->reliable);
    if (transport->faults.enabled) world.set_fault_plan(transport->faults);
  }
  mp::RecoveryCounters& rc = world.recovery_counters();

  // All cross-run state — checkpoints, per-rank results, per-rank kernel
  // counters — lives on the world's durable blob board (see the key helpers
  // above): it is the only rank-written state that survives a rank process
  // dying, and the in-process backend uses the identical serialisation, so
  // both backends run one code path.
  int restore_sweep = -1;  // < 0: fresh start from the input matrix

  const auto program = [&](mp::Context& ctx) {
    const int me = ctx.rank();
    // Rank-local kernel counters: zero on a fresh start, restored from the
    // checkpoint on a replay, folded into the result blob at the end — so a
    // respawned rank process starts from the same counter state a rolled-back
    // thread would.
    KernelCounters counters;
    // Level 0: one PairKernel per rank, as in every other driver.
    const detail::PairKernel kernel(options);
    // Local state: this rank's two slots.
    SlotState slot[2];
    // Every rank derives the identical schedule (SPMD-style replicated
    // control) from one sweep chain; the layout evolves deterministically
    // between sweeps.
    SweepChain chain(ordering, n);
    ConvergenceWatchdog watchdog(recovery.watchdog_sweeps);
    // Replicated control: every rank feeds the same collective activity, so
    // the classifier state is identical everywhere; rank 0 publishes it.
    StallDetector stall(options.stall_window);
    int sweep = 0;
    std::size_t my_rot = 0;
    std::size_t my_swap = 0;
    if (restore_sweep < 0) {
      for (int k = 0; k < 2; ++k) {
        const int s = 2 * me + k;
        slot[k].label = s;
        const auto src = h0.col(static_cast<std::size_t>(s));
        slot[k].h.assign(src.begin(), src.end());
        if (keep_v) {
          slot[k].v.assign(static_cast<std::size_t>(n), 0.0);
          slot[k].v[static_cast<std::size_t>(s)] = 1.0;
        }
        slot[k].hsq = sumsq_robust(slot[k].h);
      }
      counters.add_norm_refresh(2);
    } else {
      // Respawn: resume from the newest boundary every rank committed. The
      // board is readable here on both backends — shared memory in-process,
      // the forked copy of the launcher's board in a rank process.
      RankCheckpoint cp;
      bool found = false;
      for (int sl = 0; sl < 2 && !found; ++sl) {
        const std::uint64_t key = checkpoint_key(me, sl);
        if (!world.has_published(key)) continue;
        RankCheckpoint cand = unpack_checkpoint(world.published(key), n);
        if (cand.sweep == restore_sweep) {
          cp = std::move(cand);
          found = true;
        }
      }
      TREESVD_ASSERT(found);
      slot[0] = std::move(cp.slot[0]);
      slot[1] = std::move(cp.slot[1]);
      chain = SweepChain(ordering, std::move(cp.layout), cp.sweep);
      sweep = cp.sweep;
      my_rot = cp.rot;
      my_swap = cp.swap;
      counters.store(cp.kernels);
      watchdog = cp.watchdog;
      stall = cp.stall;
    }
    // Newest boundary already on this rank's board ring: a rank that rolled
    // back past boundaries it had committed skips re-publishing them — the
    // deterministic replay would recreate the same bytes.
    int ring_newest = -1;
    for (int sl = 0; sl < 2; ++sl) {
      const std::uint64_t key = checkpoint_key(me, sl);
      if (world.has_published(key))
        ring_newest = std::max(ring_newest, static_cast<int>(world.published(key)[0]));
    }

    bool done = false;
    for (; sweep < options.max_sweeps && !done; ++sweep) {
      // Sweep-boundary checkpoint, before any of this sweep's work, so a
      // replay re-executes the boundary's norm refresh identically. A rank
      // that already holds this boundary (rolled back past it) skips the
      // push — the deterministic replay would recreate the same bytes.
      if (checkpointing && sweep % recovery.checkpoint_sweeps == 0) {
        if (ring_newest < sweep) {
          RankCheckpoint cp;
          cp.sweep = sweep;
          cp.slot[0] = slot[0];
          cp.slot[1] = slot[1];
          cp.layout.assign(chain.layout().begin(), chain.layout().end());
          cp.rot = my_rot;
          cp.swap = my_swap;
          cp.kernels = counters.snapshot();
          cp.watchdog = watchdog;
          cp.stall = stall;
          // The two board slots per rank form the ring: the boundary index
          // alternates between them, overwriting the snapshot that is two
          // boundaries old.
          const int slot_idx = (sweep / recovery.checkpoint_sweeps) % 2;
          ctx.publish(checkpoint_key(me, slot_idx), pack_checkpoint(cp));
          ring_newest = sweep;
          if (me == 0) rc.add_checkpoint();
        }
      }
      // Scheduled drift control, mirroring the shared-memory drivers: each
      // rank re-reduces its resident columns.
      if (options.cache_norms && detail::scheduled_refresh_due(sweep, options)) {
        for (auto& sl : slot) sl.hsq = sumsq_robust(sl.h);
        counters.add_norm_refresh(2);
      }
      const Sweep s = chain.next();
      // Intra-leaf reconciliation: the sweep's opening layout may orient this
      // leaf's pair the other way round; swapping locally is free.
      {
        const auto lay0 = s.layout(0);
        if (lay0[static_cast<std::size_t>(2 * me)] != slot[0].label) {
          TREESVD_ASSERT(lay0[static_cast<std::size_t>(2 * me)] == slot[1].label);
          std::swap(slot[0], slot[1]);
        }
      }
      std::size_t sweep_rot = 0;
      std::size_t sweep_swap = 0;
      for (int t = 0; t < s.steps(); ++t) {
        // Compute: rotate the resident pair (if this leaf is active).
        if (s.leaf_active(t, me)) {
          const int lo = slot[0].label < slot[1].label ? 0 : 1;
          const int hi = 1 - lo;
          const std::span<double> none;
          const std::span<double> vlo = keep_v ? std::span<double>(slot[lo].v) : none;
          const std::span<double> vhi = keep_v ? std::span<double>(slot[hi].v) : none;
          detail::PairOutcome o;
          if (options.cache_norms) {
            const auto co = kernel.process_cached(slot[lo].h, slot[hi].h, vlo, vhi, slot[lo].hsq,
                                                  slot[hi].hsq, counters);
            slot[lo].hsq = co.app;
            slot[hi].hsq = co.aqq;
            o = co.outcome;
          } else {
            o = kernel.process(slot[lo].h, slot[hi].h, vlo, vhi, &counters);
          }
          sweep_rot += o.rotated ? 1 : 0;
          sweep_swap += o.swapped ? 1 : 0;
        }
        // Communicate: emit this leaf's departures, then absorb arrivals.
        const auto moves = s.moves(t);
        for (const ColumnMove& mv : moves) {
          const int from_leaf = mv.from_slot / 2;
          if (from_leaf != me) continue;
          const int k = mv.from_slot - 2 * me;
          TREESVD_ASSERT(slot[k].label == mv.index);
          const int to_leaf = mv.to_slot / 2;
          if (to_leaf == me) continue;  // intra-leaf handled below
          // The cached squared norm travels with the column, so the
          // receiving rank never re-reduces an arriving column.
          std::vector<double> payload;
          payload.reserve(2 + rows + slot[k].v.size());
          payload.push_back(static_cast<double>(mv.index));
          payload.push_back(slot[k].hsq);
          payload.insert(payload.end(), slot[k].h.begin(), slot[k].h.end());
          payload.insert(payload.end(), slot[k].v.begin(), slot[k].v.end());
          ctx.send(to_leaf, make_tag(sweep, t, mv.to_slot), std::move(payload));
        }
        // Intra-leaf rearrangement and arrivals build the next layout state.
        SlotState next[2];
        const auto to = s.layout(t + 1);
        for (int k = 0; k < 2; ++k) {
          const int dst_slot = 2 * me + k;
          const int want = to[static_cast<std::size_t>(dst_slot)];
          if (slot[0].label == want) {
            next[k] = std::move(slot[0]);
            slot[0].label = -1;
          } else if (slot[1].label == want) {
            next[k] = std::move(slot[1]);
            slot[1].label = -1;
          } else {
            // Arrives by message; sender is known from the schedule.
            int src_leaf = -1;
            for (const ColumnMove& mv : moves) {
              if (mv.to_slot == dst_slot) {
                src_leaf = mv.from_slot / 2;
                break;
              }
            }
            TREESVD_ASSERT(src_leaf >= 0 && src_leaf != me);
            std::vector<double> payload = ctx.recv(src_leaf, make_tag(sweep, t, dst_slot));
            TREESVD_ASSERT(payload.size() ==
                           2 + rows + (keep_v ? static_cast<std::size_t>(n) : 0u));
            next[k].label = static_cast<int>(payload[0]);
            TREESVD_ASSERT(next[k].label == want);
            next[k].hsq = payload[1];
            next[k].h.assign(payload.begin() + 2,
                             payload.begin() + 2 + static_cast<std::ptrdiff_t>(rows));
            if (keep_v)
              next[k].v.assign(payload.begin() + 2 + static_cast<std::ptrdiff_t>(rows),
                               payload.end());
            if (chaos) {
              // Payload guards. A corrupted cached norm is repairable by
              // re-reducing the column it arrived with; non-finite column
              // data is not, and fails fast naming the column.
              require_finite_payload(next[k].h, next[k].label, "spmd_jacobi");
              if (options.cache_norms && !cached_norm_plausible(next[k].hsq)) {
                next[k].hsq = sumsq_robust(next[k].h);
                counters.add_norm_refresh();
                rc.add_norm_rereduction();
              }
            }
          }
        }
        slot[0] = std::move(next[0]);
        slot[1] = std::move(next[1]);
      }
      // Convergence is a collective decision.
      const double active = ctx.allreduce_sum(static_cast<double>(sweep_rot + sweep_swap));
      my_rot += sweep_rot;
      my_swap += sweep_swap;
      if (active == 0.0) done = true;
      if (!done) stall.observe(active);
      // Stagnation watchdog: the collectively agreed activity measure has
      // stopped decreasing — re-reduce the cached norms (the only repairable
      // stagnation source) instead of letting drift propagate. Every rank
      // observes the same activity, so the trip is replicated control, not
      // a new collective.
      if (!done && watchdog.observe(active)) {
        if (options.cache_norms) {
          for (auto& sl : slot) sl.hsq = sumsq_robust(sl.h);
          counters.add_norm_refresh(2);
          rc.add_norm_rereduction(2);
        }
        if (me == 0) rc.add_watchdog_trip();
        watchdog.reset();
      }
    }

    // Publish: each rank posts its two slots of the final state (and its
    // share of the totals) to the durable board — the only channel that
    // survives the rank when it is a process.
    RankResult res;
    res.sweep = sweep;
    res.converged = done;
    res.rot = my_rot;
    res.swap = my_swap;
    res.kernels = counters.snapshot();
    res.stall = stall;
    res.slot[0] = std::move(slot[0]);
    res.slot[1] = std::move(slot[1]);
    ctx.publish(result_key(me), pack_result(res));
  };

  // Recovery loop: a killed rank is respawned by rolling the whole world
  // back to the newest checkpoint every rank committed and replaying — the
  // engine is deterministic, so the replay is bit-identical to the run the
  // kill interrupted. Transport-budget exhaustion and program errors are
  // not recoverable and propagate.
  for (;;) {
    try {
      world.run(program);
      break;
    } catch (const mp::RankKilledError&) {
      if (!checkpointing) throw;
      int newest_common = -1;
      for (int rr = 0; rr < ranks; ++rr) {
        // Every rank publishes its sweep-0 boundary before its first
        // transport op, and a process's pre-kill publishes reach the board
        // in stream order, so the board always has a boundary per rank.
        int newest = -1;
        for (int sl = 0; sl < 2; ++sl) {
          const std::uint64_t key = checkpoint_key(rr, sl);
          if (world.has_published(key))
            newest = std::max(newest, static_cast<int>(world.published(key)[0]));
        }
        TREESVD_ASSERT(newest >= 0);
        newest_common = newest_common < 0 ? newest : std::min(newest_common, newest);
      }
      if (rc.snapshot().rollbacks >= static_cast<std::size_t>(recovery.max_rollbacks)) throw;
      rc.add_rollback();
      restore_sweep = newest_common;
      world.reset_for_replay();
    }
  }
  if (chaos && transport->reliable.enabled) world.purge_leftovers();

  if (stats != nullptr) {
    stats->messages = world.delivered();
    stats->recovery = world.recovery_stats();
  }

  // Assemble the result by label from the published rank blobs into the
  // working matrices of the other engines, and finalize as they do.
  // Replicated control (sweeps/converged/stall) is read from rank 0; the
  // additive totals are summed in rank order; the watchdog trips are the
  // world's count.
  detail::SweepGuards& guards = staged;
  guards.watchdog_trips = world.recovery_stats().watchdog_trips;
  Matrix h(rows, static_cast<std::size_t>(n));
  Matrix v = keep_v ? Matrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n))
                               : Matrix();
  SvdResult r;
  for (int rr = 0; rr < ranks; ++rr) {
    const RankResult res = unpack_result(world.published(result_key(rr)));
    if (rr == 0) {
      r.sweeps = res.sweep;
      r.converged = res.converged;
      guards.stall = res.stall;
    }
    r.rotations += res.rot;
    r.swaps += res.swap;
    r.kernel_stats += res.kernels;
    for (const SlotState& sl : res.slot) {
      const auto label = static_cast<std::size_t>(sl.label);
      std::copy(sl.h.begin(), sl.h.end(), h.col(label).begin());
      if (keep_v) std::copy(sl.v.begin(), sl.v.end(), v.col(label).begin());
    }
  }
  r.kernel_stats.isa_tier = static_cast<int>(resolved_isa());
  return detail::finalize(std::move(h), std::move(v), a, options, guards, std::move(r));
}

}  // namespace treesvd
