#pragma once
// Instrumentation hooks for the concurrency analysis layer.
//
// Call sites in util/thread_pool, mp/message_passing, svd and linalg use
// these macros to feed the happens-before tracker (analysis/hb.hpp) and the
// schedule fuzzer (analysis/fuzz.hpp). The whole layer is compile-time
// gated:
//
//  * TREESVD_ANALYSIS unset or 0 (the default Release configuration): every
//    macro expands to ((void)0) and this header includes nothing — the
//    instrumented code is bit-for-bit the uninstrumented code.
//  * TREESVD_ANALYSIS=1 (-DTREESVD_ANALYSIS=ON at configure time, and the
//    default for Debug/RelWithDebInfo): each hook is a null check on a global
//    atomic pointer — a couple of instructions when no tracker/fuzzer is
//    installed, full tracking when one is.
//
// Hook vocabulary (obj/epoch identify a fork-join region instance; see
// hb.hpp for the event model):
//   TREESVD_HB_FORK(obj, epoch)               parent publishes its clock
//   TREESVD_HB_TASK_BEGIN(obj, epoch, frame)  a forked task starts here
//   TREESVD_HB_TASK_END(obj, epoch)           ... and ends here
//   TREESVD_HB_JOIN(obj, epoch)               parent absorbs all task clocks
//   TREESVD_HB_SEND/RECV(chan, src, dst, tag) FIFO message edge
//   TREESVD_HB_BARRIER_ARRIVE/DEPART(obj, gen) barrier edge
//   TREESVD_HB_READ/WRITE/ATOMIC(obj, idx, name) annotated shared access
//   TREESVD_HB_SCOPED_FRAME(var, factory)     RAII report-stack label
//   TREESVD_FUZZ_POINT(kind, a, b, c)         seeded yield injection
//   TREESVD_FUZZ_CHUNK_ORDER(vec, count)      seeded chunk permutation

#if defined(TREESVD_ANALYSIS) && TREESVD_ANALYSIS

#include "analysis/fuzz.hpp"
#include "analysis/hb.hpp"

#define TREESVD_ANALYSIS_STR_(x) #x
#define TREESVD_ANALYSIS_STR(x) TREESVD_ANALYSIS_STR_(x)
#define TREESVD_HB_SITE __FILE__ ":" TREESVD_ANALYSIS_STR(__LINE__)

#define TREESVD_HB_FORK(obj, epoch)                                 \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker()) t_->fork((obj), (epoch)); \
  } while (0)

#define TREESVD_HB_TASK_BEGIN(obj, epoch, frame)                    \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->task_begin((obj), (epoch), (frame));                      \
  } while (0)

#define TREESVD_HB_TASK_END(obj, epoch)                             \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker()) t_->task_end((obj), (epoch)); \
  } while (0)

#define TREESVD_HB_JOIN(obj, epoch)                                 \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker()) t_->join((obj), (epoch)); \
  } while (0)

#define TREESVD_HB_SEND(chan, src, dst, tag)                        \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->channel_send((chan), (src), (dst), (tag));                \
  } while (0)

#define TREESVD_HB_RECV(chan, src, dst, tag)                        \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->channel_recv((chan), (src), (dst), (tag));                \
  } while (0)

#define TREESVD_HB_BARRIER_ARRIVE(obj, generation)                  \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->barrier_arrive((obj), (generation));                      \
  } while (0)

#define TREESVD_HB_BARRIER_DEPART(obj, generation)                  \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->barrier_depart((obj), (generation));                      \
  } while (0)

#define TREESVD_HB_READ(obj, idx, name)                             \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->access(::treesvd::analysis::AccessKind::kRead, (obj), (idx), (name), TREESVD_HB_SITE); \
  } while (0)

#define TREESVD_HB_WRITE(obj, idx, name)                            \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->access(::treesvd::analysis::AccessKind::kWrite, (obj), (idx), (name), TREESVD_HB_SITE); \
  } while (0)

#define TREESVD_HB_ATOMIC(obj, idx, name)                           \
  do {                                                              \
    if (auto* t_ = ::treesvd::analysis::tracker())                  \
      t_->access(::treesvd::analysis::AccessKind::kAtomic, (obj), (idx), (name), TREESVD_HB_SITE); \
  } while (0)

#define TREESVD_HB_SCOPED_FRAME(var, ...) ::treesvd::analysis::ScopedFrame var(__VA_ARGS__)

#define TREESVD_FUZZ_POINT(kind, a, b, c)                           \
  do {                                                              \
    if (auto* f_ = ::treesvd::analysis::fuzzer()) f_->perturb((kind), (a), (b), (c)); \
  } while (0)

#define TREESVD_FUZZ_CHUNK_ORDER(vec, count)                        \
  do {                                                              \
    auto* f_ = ::treesvd::analysis::fuzzer();                       \
    if (f_ != nullptr)                                              \
      f_->chunk_permutation((count), (vec));                        \
    else                                                            \
      (vec).clear();                                                \
  } while (0)

#else  // !TREESVD_ANALYSIS: everything compiles away.

#define TREESVD_HB_FORK(obj, epoch) ((void)0)
#define TREESVD_HB_TASK_BEGIN(obj, epoch, frame) ((void)0)
#define TREESVD_HB_TASK_END(obj, epoch) ((void)0)
#define TREESVD_HB_JOIN(obj, epoch) ((void)0)
#define TREESVD_HB_SEND(chan, src, dst, tag) ((void)0)
#define TREESVD_HB_RECV(chan, src, dst, tag) ((void)0)
#define TREESVD_HB_BARRIER_ARRIVE(obj, generation) ((void)0)
#define TREESVD_HB_BARRIER_DEPART(obj, generation) ((void)0)
#define TREESVD_HB_READ(obj, idx, name) ((void)0)
#define TREESVD_HB_WRITE(obj, idx, name) ((void)0)
#define TREESVD_HB_ATOMIC(obj, idx, name) ((void)0)
#define TREESVD_HB_SCOPED_FRAME(var, ...) ((void)0)
#define TREESVD_FUZZ_POINT(kind, a, b, c) ((void)0)
#define TREESVD_FUZZ_CHUNK_ORDER(vec, count) ((void)0)

#endif  // TREESVD_ANALYSIS
