// The generic "int8" backend: a real quantized GEMM, not fake-quant
// floats, and the stable name scripts/plans can always select.
//
// qgemm multiplies pre-quantized int8 panels (symmetric per-tensor scheme;
// see quant/quantize.hpp for the packing helpers) accumulating in int32
// and requantizes to float on store: C[i,j] = a_scale * b_scale *
// sum_k (A[i,k] - a_zp) * (B[k,j] - b_zp). Integer accumulation is exact,
// so the result is independent of any blocking or thread partition by
// construction — the determinism contract comes for free.
//
// Overflow headroom: |a - zp|, |b - zp| <= 255, so the int32 accumulator
// holds k up to ~2^15 exactly even in the asymmetric worst case; the
// engine's largest reduction (Ci*K*K of a wide conv) is orders of
// magnitude below that.
//
// Its qgemm entries are dispatchers: they resolve (once, cached) the fastest
// quantized kernel the feature mask allows — int8-vnni, then int8-avx2,
// then the simd TU's wide instantiation of the portable body, then the
// baseline instantiation — all bit-identical, so the pick only moves
// speed. The f32 gemm entry likewise forwards to the best float backend so
// a plan compiled with a quantized backend still runs its non-lowered
// steps (pooling epilogues, repair passes, any layer the lowering keeps in
// float) at full speed. set_cpu_feature_mask() flushes both caches via
// reset_int8_dispatch_cache().
#include <atomic>
#include <cmath>

#include "kernels/internal.hpp"

namespace alf::kernels {

namespace {

using GemmFn = void (*)(const float*, size_t, bool, const float*, size_t,
                        bool, float*, size_t, size_t, size_t, size_t, float,
                        float);

std::atomic<const KernelBackend*> g_qgemm{nullptr};
std::atomic<GemmFn> g_float_gemm{nullptr};

/// Same subset rule auto-selection uses in backend.cpp.
bool mask_allows(const KernelBackend* be) {
  return (be->required_features & ~allowed_cpu_features()) == 0;
}

/// The simd backend when it is both registered and allowed by the mask.
const KernelBackend* usable_simd() {
  const KernelBackend* simd = simd_backend();
  return simd != nullptr && mask_allows(simd) ? simd : nullptr;
}

}  // namespace

namespace detail {

// Baseline-ISA instantiation of the shared body; the simd backend carries
// a second instantiation compiled with wider vector flags (identical
// integer math, so the two are bit-equal). Every other quantized kernel
// treats this as its oracle and small-shape fallback.
void qgemm_int8(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  qgemm_int8_body(a, lda, QgemmB::matrix(b, ldb, n), c, ldc, m, k, n, p);
}

void qgemm_int8_gather(const int8_t* a, size_t lda, const QgemmB& b,
                       float* c, size_t ldc, size_t m, size_t k, size_t n,
                       const QgemmParams& p) {
  qgemm_int8_body(a, lda, b, c, ldc, m, k, n, p);
}

void gemm_forward_best_float(const float* a, size_t lda, bool trans_a,
                             const float* b, size_t ldb, bool trans_b,
                             float* c, size_t ldc, size_t m, size_t k,
                             size_t n, float alpha, float beta) {
  GemmFn fn = g_float_gemm.load(std::memory_order_acquire);
  if (fn == nullptr) {
    const KernelBackend* simd = usable_simd();
    fn = simd != nullptr ? simd->gemm : &gemm_scalar;
    g_float_gemm.store(fn, std::memory_order_release);
  }
  fn(a, lda, trans_a, b, ldb, trans_b, c, ldc, m, k, n, alpha, beta);
}

void reset_int8_dispatch_cache() {
  g_qgemm.store(nullptr, std::memory_order_release);
  g_float_gemm.store(nullptr, std::memory_order_release);
}

}  // namespace detail

namespace {

/// The kernel the generic backend's qgemm entries forward to: resolved
/// once, a race on first use just resolves the same value twice.
const KernelBackend* qgemm_target() {
  const KernelBackend* be = g_qgemm.load(std::memory_order_acquire);
  if (be == nullptr) {
    be = best_quantized_backend();
    if (be == int8_backend()) {
      // No dot-product kernel allowed: the wide instantiation of the
      // portable body still beats baseline codegen when usable.
      const KernelBackend* simd = usable_simd();
      be = simd != nullptr ? simd : scalar_backend();
    }
    g_qgemm.store(be, std::memory_order_release);
  }
  return be;
}

void qgemm_dispatch(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                    float* c, size_t ldc, size_t m, size_t k, size_t n,
                    const QgemmParams& p) {
  qgemm_target()->qgemm(a, lda, b, ldb, c, ldc, m, k, n, p);
}

void qgemm_gather_dispatch(const int8_t* a, size_t lda, const QgemmB& b,
                           float* c, size_t ldc, size_t m, size_t k, size_t n,
                           const QgemmParams& p) {
  qgemm_target()->qgemm_gather(a, lda, b, c, ldc, m, k, n, p);
}

}  // namespace

const KernelBackend* int8_backend() {
  static const KernelBackend be{.name = "int8",
                                .quantized_datapath = true,
                                .gemm = &detail::gemm_forward_best_float,
                                .qgemm = &qgemm_dispatch,
                                .qgemm_gather = &qgemm_gather_dispatch};
  return &be;
}

namespace {

// Baseline bodies of the quantize helpers: the same rint-based expression
// as the AVX2 path's scalar tail, so the two agree bit for bit. Compiled
// in this TU (never with wide flags) so they execute on any CPU.

void quantize_row_i8_base(const float* src, int8_t* dst, size_t n, float inv,
                          int32_t zp, int32_t levels) {
  for (size_t i = 0; i < n; ++i) {
    int32_t v = static_cast<int32_t>(std::rintf(src[i] * inv)) + zp;
    v = std::min(levels, std::max(-levels, v));
    dst[i] = static_cast<int8_t>(v);
  }
}

void quantize_planes_i8_base(const float* src, size_t planes, size_t h,
                             size_t w, size_t pad, int8_t* dst, float inv,
                             int32_t zp, int32_t levels) {
  detail::quantize_planes_body(src, planes, h, w, pad, dst,
                               static_cast<int8_t>(zp),
                               [&](const float* s, int8_t* d, size_t n) {
                                 quantize_row_i8_base(s, d, n, inv, zp, levels);
                               });
}

void max_abs_col_blocks_base(const float* src, size_t rows, size_t ld,
                             size_t block, size_t nblocks, float* out) {
  for (size_t j = 0; j < nblocks; ++j) out[j] = 0.0f;
  for (size_t r = 0; r < rows; ++r) {
    const float* row = src + r * ld;
    for (size_t j = 0; j < nblocks; ++j) {
      const float* p = row + j * block;
      float m = out[j];
      for (size_t cidx = 0; cidx < block; ++cidx)
        m = std::max(m, std::fabs(p[cidx]));
      out[j] = m;
    }
  }
}

}  // namespace

void quantize_row_i8(const float* src, int8_t* dst, size_t n, float inv,
                     int32_t zp, int32_t levels) {
  // Pure element-wise work: the pick depends only on the detected CPU
  // (never the feature mask — there is no selection semantics to test).
  static const detail::QuantizeRowFn fn =
      detail::quantize_row_i8_vec() != nullptr ? detail::quantize_row_i8_vec()
                                               : &quantize_row_i8_base;
  fn(src, dst, n, inv, zp, levels);
}

void quantize_planes_i8(const float* src, size_t planes, size_t h, size_t w,
                        size_t pad, int8_t* dst, float inv, int32_t zp,
                        int32_t levels) {
  static const detail::QuantizePlanesFn fn =
      detail::quantize_planes_i8_vec() != nullptr
          ? detail::quantize_planes_i8_vec()
          : &quantize_planes_i8_base;
  fn(src, planes, h, w, pad, dst, inv, zp, levels);
}

void max_abs_col_blocks(const float* src, size_t rows, size_t ld, size_t block,
                        size_t nblocks, float* out) {
  static const detail::MaxAbsBlocksFn fn =
      detail::max_abs_col_blocks_vec() != nullptr
          ? detail::max_abs_col_blocks_vec()
          : &max_abs_col_blocks_base;
  fn(src, rows, ld, block, nblocks, out);
}

}  // namespace alf::kernels
