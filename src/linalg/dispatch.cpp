#include "linalg/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "linalg/blas1.hpp"
#include "linalg/dispatch_isa.hpp"
#include "linalg/rotation.hpp"

namespace treesvd {
namespace {

/// Sentinel for "not resolved yet" in the cached resolution below (distinct
/// from kIsaAuto, which is a valid *request* but never a cached result).
constexpr int kUnresolved = -2;

/// The cached resolution: a valid IsaTier value once derived. One relaxed
/// atomic keeps the per-kernel-call cost to a single load; tier-invariant
/// results make any racing rewrite benign (dispatch.hpp).
std::atomic<int>& resolved_slot() noexcept {
  static std::atomic<int> slot{kUnresolved};
  return slot;
}

int clamp_to_host(int tier) noexcept {
  const int widest = static_cast<int>(detected_isa());
  if (tier < 0) return 0;
  return tier < widest ? tier : widest;
}

/// TREESVD_ISA ▷ cpuid. An unset or unparsable variable falls through to
/// detection; a parsable but unsupported tier clamps down (graceful
/// fallback).
int derive_resolution() noexcept {
  const char* env = std::getenv("TREESVD_ISA");
  IsaTier requested;
  if (env != nullptr && parse_isa_name(env, &requested))
    return clamp_to_host(static_cast<int>(requested));
  return static_cast<int>(detected_isa());
}

// Baseline-tier dot/sumsq: the explicit 4-wide vector kernels lose badly at
// default flags (the single generic-vector accumulator emulated on SSE2
// serializes its two xmm chains, while the compiler autovectorizes the
// four-chain scalar twins at full throughput — measured ~4x by the per-tier
// kernel timings of commit e65dc64). The bitwise contract makes the choice
// free, so the baseline table points these two reductions at the `_ref`
// twins; every other baseline kernel stays on the vector copy, which wins
// even at default flags.
double baseline_dot(const double* x, const double* y, std::size_t n) {
  return dot_ref({x, n}, {y, n});
}
double baseline_sumsq(const double* x, std::size_t n) { return sumsq_ref({x, n}); }

const KernelTable kTableBaseline = {
    "baseline",
    IsaTier::kBaseline,
    baseline_dot,
    baseline_sumsq,
    isa_baseline::axpy,
    isa_baseline::gram_pair,
    isa_baseline::rotate_and_norms,
    isa_baseline::rotate_and_norms_swapped,
    isa_baseline::gemm_micro,
    isa_baseline::panel_gram,
    isa_baseline::panel_apply,
    isa_baseline::batched_dot,
    isa_baseline::batched_sumsq,
    isa_baseline::batched_gram_pair,
    isa_baseline::batched_rotate_and_norms,
    isa_baseline::batched_apply_rotation,
    isa_baseline::batched_compute_rotation,
    isa_baseline::batched_drift_gate,
};

#ifdef TREESVD_DISPATCH_X86
const KernelTable kTableAvx2 = {
    "avx2",
    IsaTier::kAvx2,
    isa_avx2::dot,
    isa_avx2::sumsq,
    isa_avx2::axpy,
    isa_avx2::gram_pair,
    isa_avx2::rotate_and_norms,
    isa_avx2::rotate_and_norms_swapped,
    isa_avx2::gemm_micro,
    isa_avx2::panel_gram,
    isa_avx2::panel_apply,
    isa_avx2::batched_dot,
    isa_avx2::batched_sumsq,
    isa_avx2::batched_gram_pair,
    isa_avx2::batched_rotate_and_norms,
    isa_avx2::batched_apply_rotation,
    isa_avx2::batched_compute_rotation,
    isa_avx2::batched_drift_gate,
};

const KernelTable kTableAvx512 = {
    "avx512f",
    IsaTier::kAvx512,
    isa_avx512::dot,
    isa_avx512::sumsq,
    isa_avx512::axpy,
    isa_avx512::gram_pair,
    isa_avx512::rotate_and_norms,
    isa_avx512::rotate_and_norms_swapped,
    isa_avx512::gemm_micro,
    isa_avx512::panel_gram,
    isa_avx512::panel_apply,
    isa_avx512::batched_dot,
    isa_avx512::batched_sumsq,
    isa_avx512::batched_gram_pair,
    isa_avx512::batched_rotate_and_norms,
    isa_avx512::batched_apply_rotation,
    isa_avx512::batched_compute_rotation,
    isa_avx512::batched_drift_gate,
};
#endif  // TREESVD_DISPATCH_X86

}  // namespace

IsaTier detected_isa() noexcept {
#ifdef TREESVD_DISPATCH_X86
  static const IsaTier tier = [] {
    if (__builtin_cpu_supports("avx512f")) return IsaTier::kAvx512;
    if (__builtin_cpu_supports("avx2")) return IsaTier::kAvx2;
    return IsaTier::kBaseline;
  }();
  return tier;
#else
  return IsaTier::kBaseline;
#endif
}

bool isa_supported(IsaTier tier) noexcept {
  return static_cast<int>(tier) <= static_cast<int>(detected_isa());
}

IsaTier resolved_isa() noexcept {
  int v = resolved_slot().load(std::memory_order_relaxed);
  if (v == kUnresolved) {
    v = derive_resolution();
    resolved_slot().store(v, std::memory_order_relaxed);
  }
  return static_cast<IsaTier>(v);
}

const char* isa_name(IsaTier tier) noexcept {
  switch (tier) {
    case IsaTier::kAvx512: return "avx512f";
    case IsaTier::kAvx2: return "avx2";
    case IsaTier::kBaseline: break;
  }
  return "baseline";
}

bool parse_isa_name(const char* name, IsaTier* out) noexcept {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "baseline") == 0) {
    *out = IsaTier::kBaseline;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = IsaTier::kAvx2;
    return true;
  }
  if (std::strcmp(name, "avx512f") == 0 || std::strcmp(name, "avx512") == 0) {
    *out = IsaTier::kAvx512;
    return true;
  }
  return false;
}

const KernelTable& kernels() noexcept { return kernels_for(resolved_isa()); }

const KernelTable& kernels_for(IsaTier tier) noexcept {
#ifdef TREESVD_DISPATCH_X86
  switch (static_cast<IsaTier>(clamp_to_host(static_cast<int>(tier)))) {
    case IsaTier::kAvx512: return kTableAvx512;
    case IsaTier::kAvx2: return kTableAvx2;
    case IsaTier::kBaseline: break;
  }
#else
  (void)tier;  // only the baseline tier exists off x86
#endif
  return kTableBaseline;
}

void set_isa_override(int tier) noexcept {
  resolved_slot().store(tier == kIsaAuto ? derive_resolution() : clamp_to_host(tier),
                        std::memory_order_relaxed);
}

ScopedIsaOverride::ScopedIsaOverride(int tier) noexcept
    : prev_(resolved_slot().load(std::memory_order_relaxed)), active_(tier != kIsaAuto) {
  if (active_) set_isa_override(tier);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  if (active_) resolved_slot().store(prev_, std::memory_order_relaxed);
}

void gemm_micro_ref(const double* ap, const double* bp, std::size_t kc, double* acc) noexcept {
  // The scalar chain canon: each of the 16 accumulator elements advances
  // once per depth step, in k order (the historical micro_kernel loop).
  for (std::size_t k = 0; k < kc; ++k) {
    const double* __restrict av = ap + k * 4;
    const double* __restrict bv = bp + k * 4;
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 4; ++c) acc[r * 4 + c] += av[r] * bv[c];
  }
}

void panel_gram_ref(const double* a, std::size_t lda, const int* cols, std::size_t kw,
                    std::size_t len, double* g) noexcept {
  for (std::size_t i = 0; i < kw; ++i) {
    const std::span<const double> ci(a + static_cast<std::size_t>(cols[i]) * lda, len);
    for (std::size_t j = i; j < kw; ++j)
      g[i * kw + j] = dot_ref(ci, {a + static_cast<std::size_t>(cols[j]) * lda, len});
  }
}

void panel_apply_ref(double* a, std::size_t lda, const int* cols, std::size_t kw,
                     std::size_t len, const double* w, double* norms) {
  std::vector<double> snap(len * kw);
  for (std::size_t k = 0; k < kw; ++k)
    std::memcpy(snap.data() + k * len, a + static_cast<std::size_t>(cols[k]) * lda,
                len * sizeof(double));
  for (std::size_t j = 0; j < kw; ++j) {
    const std::span<double> out(a + static_cast<std::size_t>(cols[j]) * lda, len);
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t k = 0; k < kw; ++k) {
      const double wkj = w[k + j * kw];
      if (wkj == 0.0) continue;
      axpy_ref(wkj, {snap.data() + k * len, len}, out);
    }
    norms[j] = sumsq_ref(out);
  }
}

}  // namespace treesvd
