// Baseline-tier copies of every dispatched kernel: the default-flags build
// (SSE2 lowering on x86-64, scalar elsewhere) of the shared width-templated
// bodies. This TU is also compiled with -ffp-contract=off so a toolchain
// with baseline FMA (e.g. -march=native builds) cannot fuse the rotate
// kernel's c*x - s*y — the bitwise tier-invariance contract of
// linalg/dispatch.hpp must hold on every tier, including this one.
//
// The batched rotation-decision kernels have no baseline vector copy (the
// branch-free decide needs a vector sqrt, which below AVX is not worth the
// mask bookkeeping); the baseline tier forwards them to the scalar
// fallbacks, exactly as the pre-dispatch code did.

#include "linalg/dispatch_isa.hpp"

#include <algorithm>

#include "linalg/blas1.hpp"
#include "linalg/dispatch.hpp"
#include "linalg/rotation.hpp"

#if defined(__GNUC__) && !defined(__clang__)
// The anonymous-namespace kernels pass and return vectors wider than the
// baseline ABI supports natively; they are internal to this TU and fully
// inlined, so the ABI caveat cannot bite. TU-wide (not push/pop) because GCC
// re-emits the diagnostic at end-of-file template instantiation, outside any
// scoped region in the .inc files.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace treesvd {

#if defined(__GNUC__) || defined(__clang__)
#define TREESVD_KERNELS_VEC 1
#endif

#ifdef TREESVD_KERNELS_VEC

namespace {
#include "linalg/blas1_batched_impl.inc"
#include "linalg/kernels_single_impl.inc"
}  // namespace

namespace isa_baseline {

double dot(const double* x, const double* y, std::size_t n) noexcept {
  return single_dot_k(x, y, n);
}

double sumsq(const double* x, std::size_t n) noexcept { return single_sumsq_k(x, n); }

void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
  single_axpy_k(alpha, x, y, n);
}

void gram_pair(const double* x, const double* y, std::size_t n, double* app, double* aqq,
               double* apq) noexcept {
  single_gram_pair_k(x, y, n, app, aqq, apq);
}

void rotate_and_norms(double* x, double* y, std::size_t n, double c, double s, double* xx,
                      double* yy) noexcept {
  single_rotate_norms_k<false>(x, y, n, c, s, xx, yy);
}

void rotate_and_norms_swapped(double* x, double* y, std::size_t n, double c, double s,
                              double* xx, double* yy) noexcept {
  single_rotate_norms_k<true>(x, y, n, c, s, xx, yy);
}

void gemm_micro(const double* ap, const double* bp, std::size_t kc, double* acc) noexcept {
  single_gemm_micro_k(ap, bp, kc, acc);
}

void panel_gram(const double* a, std::size_t lda, const int* cols, std::size_t kw,
                std::size_t len, double* g) noexcept {
  panel_gram_g<4, 1, 2>(a, lda, cols, kw, len, g);
}

void panel_apply(double* a, std::size_t lda, const int* cols, std::size_t kw, std::size_t len,
                 const double* w, double* norms) noexcept {
  panel_apply_g<4, 1, 4>(a, lda, cols, kw, len, w, norms);
}

void batched_dot(const double* x, const double* y, std::size_t m, std::size_t w,
                 double* out) noexcept {
  batched_dot_g<4>(x, y, m, w, out);
}

void batched_sumsq(const double* x, std::size_t m, std::size_t w, double* out) noexcept {
  batched_sumsq_g<4>(x, m, w, out);
}

void batched_gram_pair(const double* x, const double* y, std::size_t m, std::size_t w,
                       double* app, double* aqq, double* apq) noexcept {
  batched_gram_pair_g<4>(x, y, m, w, app, aqq, apq);
}

void batched_rotate_and_norms(double* x, double* y, std::size_t m, std::size_t w,
                              const double* c, const double* s, const std::uint8_t* rotate,
                              const std::uint8_t* swap_lanes, double* app,
                              double* aqq) noexcept {
  batched_rotate_and_norms_g<4>(x, y, m, w, c, s, rotate, swap_lanes, app, aqq);
}

void batched_apply_rotation(double* x, double* y, std::size_t m, std::size_t w,
                            const double* c, const double* s, const std::uint8_t* rotate,
                            const std::uint8_t* swap_lanes) noexcept {
  batched_apply_rotation_g<4>(x, y, m, w, c, s, rotate, swap_lanes);
}

}  // namespace isa_baseline

#else  // !TREESVD_KERNELS_VEC — no vector extensions: the scalar refs ARE
       // the implementation (bitwise identical by the canon contract).

namespace isa_baseline {

double dot(const double* x, const double* y, std::size_t n) noexcept {
  return dot_ref({x, n}, {y, n});
}

double sumsq(const double* x, std::size_t n) noexcept { return sumsq_ref({x, n}); }

void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
  axpy_ref(alpha, {x, n}, {y, n});
}

void gram_pair(const double* x, const double* y, std::size_t n, double* app, double* aqq,
               double* apq) noexcept {
  const GramPair g = gram_pair_ref({x, n}, {y, n});
  *app = g.app;
  *aqq = g.aqq;
  *apq = g.apq;
}

void rotate_and_norms(double* x, double* y, std::size_t n, double c, double s, double* xx,
                      double* yy) noexcept {
  const RotatedNorms rn = rotate_and_norms_ref({x, n}, {y, n}, c, s);
  *xx = rn.app;
  *yy = rn.aqq;
}

void rotate_and_norms_swapped(double* x, double* y, std::size_t n, double c, double s,
                              double* xx, double* yy) noexcept {
  const RotatedNorms rn = rotate_and_norms_swapped_ref({x, n}, {y, n}, c, s);
  *xx = rn.app;
  *yy = rn.aqq;
}

void gemm_micro(const double* ap, const double* bp, std::size_t kc, double* acc) noexcept {
  gemm_micro_ref(ap, bp, kc, acc);
}

void panel_gram(const double* a, std::size_t lda, const int* cols, std::size_t kw,
                std::size_t len, double* g) noexcept {
  panel_gram_ref(a, lda, cols, kw, len, g);
}

void panel_apply(double* a, std::size_t lda, const int* cols, std::size_t kw, std::size_t len,
                 const double* w, double* norms) noexcept {
  panel_apply_ref(a, lda, cols, kw, len, w, norms);
}

void batched_dot(const double* x, const double* y, std::size_t m, std::size_t w,
                 double* out) noexcept {
  batched_dot_ref(x, y, m, w, out);
}

void batched_sumsq(const double* x, std::size_t m, std::size_t w, double* out) noexcept {
  batched_sumsq_ref(x, m, w, out);
}

void batched_gram_pair(const double* x, const double* y, std::size_t m, std::size_t w,
                       double* app, double* aqq, double* apq) noexcept {
  batched_gram_pair_ref(x, y, m, w, app, aqq, apq);
}

void batched_rotate_and_norms(double* x, double* y, std::size_t m, std::size_t w,
                              const double* c, const double* s, const std::uint8_t* rotate,
                              const std::uint8_t* swap_lanes, double* app,
                              double* aqq) noexcept {
  batched_rotate_and_norms_ref(x, y, m, w, c, s, rotate, swap_lanes, app, aqq);
}

void batched_apply_rotation(double* x, double* y, std::size_t m, std::size_t w,
                            const double* c, const double* s, const std::uint8_t* rotate,
                            const std::uint8_t* swap_lanes) noexcept {
  batched_apply_rotation_ref(x, y, m, w, c, s, rotate, swap_lanes);
}

}  // namespace isa_baseline

#endif  // TREESVD_KERNELS_VEC

namespace isa_baseline {

// Shared by both build flavours: the baseline decision kernels are the
// scalar fallbacks of linalg/rotation.hpp.

void batched_compute_rotation(const double* app, const double* aqq, const double* apq,
                              std::size_t w, double tol, double* c, double* s,
                              std::uint8_t* identity) noexcept {
  detail::batched_compute_rotation_scalar(app, aqq, apq, w, tol, c, s, identity);
}

void batched_drift_gate(const double* app, const double* aqq, const double* apq, std::size_t w,
                        double tol, double guard, std::uint8_t* near_mask) noexcept {
  detail::batched_drift_gate_scalar(app, aqq, apq, w, tol, guard, near_mask);
}

}  // namespace isa_baseline

}  // namespace treesvd
