// Internals shared between the built-in kernel backends. Not installed on
// the public include path of the library's users (tests include it via the
// source tree to reach the raw kernels directly).
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/backend.hpp"

namespace alf::kernels::detail {

/// The int8 GEMM kernel entries shared by every built-in backend: panel
/// loop over 16-column B panels, int32 accumulation, requantize-to-float
/// store. Defined in int8.cpp at the baseline ISA; simd.cpp compiles the
/// same body (qgemm_int8_body below) with wider vector flags and the int8
/// backend picks the fastest usable variant at registration. Integer
/// accumulation is exact, so every variant produces bit-identical floats
/// for any thread count. qgemm_int8 is the matrix form (the oracle).
void qgemm_int8(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p);
void qgemm_int8_gather(const int8_t* a, size_t lda, const QgemmB& b,
                       float* c, size_t ldc, size_t m, size_t k, size_t n,
                       const QgemmParams& p);

/// The moved cache-blocked scalar f32 kernel (defined in scalar.cpp); the
/// simd backend falls back to it for shapes below its packing break-even.
void gemm_scalar(const float* a, size_t lda, bool trans_a, const float* b,
                 size_t ldb, bool trans_b, float* c, size_t ldc, size_t m,
                 size_t k, size_t n, float alpha, float beta);

/// The scalar kernel body with its (k, n) cache-block extents exposed —
/// the seam behind the scalar backend's gemm_tiled entry. gemm_scalar is
/// exactly this with the historical kBlockK/kBlockN constants.
void gemm_scalar_blocked(const float* a, size_t lda, bool trans_a,
                         const float* b, size_t ldb, bool trans_b, float* c,
                         size_t ldc, size_t m, size_t k, size_t n, float alpha,
                         float beta, size_t block_k, size_t block_n);

/// f32 gemm entry shared by every quantized backend: forwards to the best
/// float backend the feature mask allows (simd when usable, else scalar),
/// so non-lowered steps of an int8 plan keep full float speed. Defined in
/// int8.cpp; the pick is cached and flushed by reset_int8_dispatch_cache.
void gemm_forward_best_float(const float* a, size_t lda, bool trans_a,
                             const float* b, size_t ldb, bool trans_b,
                             float* c, size_t ldc, size_t m, size_t k,
                             size_t n, float alpha, float beta);

/// Flushes the cached kernel picks of the generic "int8" backend (best
/// qgemm variant + best float forward). Called by set_cpu_feature_mask so
/// dispatch re-resolves under the new mask. Defined in int8.cpp.
void reset_int8_dispatch_cache();

/// Vectorized bodies of the public quantize_row_i8 / max_abs_col_blocks
/// helpers. Defined in int8_dot.cpp (the -mavx2 TU); the getters return
/// nullptr when the build or the detected CPU lacks AVX2, and int8.cpp
/// substitutes its baseline loops — same rint-based expression, so both
/// paths agree bit for bit.
using QuantizeRowFn = void (*)(const float*, int8_t*, size_t, float,
                               int32_t, int32_t);
using QuantizePlanesFn = void (*)(const float*, size_t, size_t, size_t,
                                  size_t, int8_t*, float, int32_t, int32_t);
using MaxAbsBlocksFn = void (*)(const float*, size_t, size_t, size_t, size_t,
                                float*);
QuantizeRowFn quantize_row_i8_vec();
QuantizePlanesFn quantize_planes_i8_vec();
MaxAbsBlocksFn max_abs_col_blocks_vec();

/// Body of quantize_planes_i8 over an inlinable row quantizer
/// row(src, dst, n): zero-point borders around every quantized row.
template <typename RowFn>
inline void quantize_planes_body(const float* src, size_t planes, size_t h,
                                 size_t w, size_t pad, int8_t* dst, int8_t zp,
                                 const RowFn& row) {
  const size_t wp = w + 2 * pad;
  for (size_t c = 0; c < planes; ++c) {
    std::memset(dst, zp, pad * wp);
    dst += pad * wp;
    for (size_t y = 0; y < h; ++y, src += w, dst += wp) {
      for (size_t i = 0; i < pad; ++i) dst[i] = dst[pad + w + i] = zp;
      row(src, dst + pad, w);
    }
    std::memset(dst, zp, pad * wp);
    dst += pad * wp;
  }
}

// --- B panels ---------------------------------------------------------------
//
// Every qgemm kernel walks B in kPanelCols-wide column panels: gather the
// panel's k rows from the QgemmB source, pack them in the kernel's own
// layout (plain rows, int16 pairs or byte quads) while summing columns,
// then run the packed panel against every A row panel while it sits in L1.

constexpr size_t kPanelCols = 16;

/// Yields row_off(kk) of a QgemmB for kk = 0, 1, 2, ... in order.
struct RowWalk {
  explicit RowWalk(const QgemmB& b) : b_(b) {}
  size_t next() {
    const size_t off = c_ * b_.chan + kh_ * b_.row + kw_;
    if (++kw_ == b_.taps) {
      kw_ = 0;
      if (++kh_ == b_.taps) {
        kh_ = 0;
        ++c_;
      }
    }
    return off;
  }

 private:
  const QgemmB& b_;
  size_t c_ = 0, kh_ = 0, kw_ = 0;
};

/// col_off(j) of columns [j0, j0 + cols) into off[]; true when the panel
/// is full and its columns are consecutive bytes of every B row.
inline bool panel_columns(const QgemmB& b, size_t j0, size_t cols,
                          size_t* off) {
  size_t img = j0 / b.out_hw, r = j0 % b.out_hw;
  size_t oh = r / b.out_w, ow = r % b.out_w;
  bool consecutive = cols == kPanelCols;
  for (size_t c = 0; c < cols; ++c) {
    off[c] = img * b.image + (oh * b.row + ow) * b.stride;
    if (c > 0 && off[c] != off[0] + c) consecutive = false;
    if (++ow == b.out_w) {
      ow = 0;
      if (++oh * b.out_w == b.out_hw) {
        oh = 0;
        ++img;
      }
    }
  }
  return consecutive;
}

/// Copies the panel with column offsets off[0, cols) into `dst` as k plain
/// rows of kPanelCols bytes (columns past `cols` zero), adding each
/// column's sum to colsum[0, kPanelCols) unless it is null. The portable
/// kernel's panel layout, and the L1 stage of the vector kernels for
/// panels they cannot load directly.
inline void gather_rows(const QgemmB& b, size_t k, const size_t* off,
                        size_t cols, bool consecutive, int8_t* dst,
                        int32_t* colsum) {
  RowWalk walk(b);
  for (size_t kk = 0; kk < k; ++kk, dst += kPanelCols) {
    const int8_t* src = b.data + walk.next();
    if (consecutive) {
      std::memcpy(dst, src + off[0], kPanelCols);
    } else {
      for (size_t c = 0; c < cols; ++c) dst[c] = src[off[c]];
      for (size_t c = cols; c < kPanelCols; ++c) dst[c] = 0;
    }
    if (colsum != nullptr)
      for (size_t c = 0; c < kPanelCols; ++c)
        colsum[c] += static_cast<int32_t>(dst[c]);
  }
}

/// out[i] = shift + sum_k a[i, k] over rows [0, m) of A: the row sums the
/// zero-point decomposition needs (shift = 128k for +128-packed A).
inline void row_sums(const int8_t* a, size_t lda, size_t m, size_t k,
                     int32_t shift, int32_t* out) {
  for (size_t i = 0; i < m; ++i) {
    int32_t s = shift;
    for (size_t kk = 0; kk < k; ++kk)
      s += static_cast<int32_t>(a[i * lda + kk]);
    out[i] = s;
  }
}

/// Splits [0, npan) column panels across the worker pool with the same
/// per-worker madd floor as the float backends; serial inside a parallel
/// region or on one thread. Integer accumulation is exact, so the split
/// never changes a bit.
template <typename F>
void partition_panels(size_t m, size_t k, size_t npan, const F& f) {
  constexpr size_t kMaddsPerWorker = size_t{1} << 16;
  const size_t madds = std::max<size_t>(1, m * k * kPanelCols);
  const size_t min_pan = std::max<size_t>(1, kMaddsPerWorker / madds);
  if (in_parallel_region() || npan <= min_pan || parallel_threads() <= 1) {
    f(0, npan);
    return;
  }
  parallel_for_chunked(0, npan, f, min_pan);
}

/// Body of the int8 GEMM, inline so each backend TU instantiates it under
/// its own ISA flags. Panels are the plain-row layout (gather_rows), split
/// across workers; A is read in place.
///
/// Zero points use the classic decomposition so the inner loop is always
/// the pure sum of raw products:
///   sum_k (a-azp)(b-bzp)
///     = sum_k a*b - bzp*rowsum(a)[i] - azp*colsum(b)[j] + k*azp*bzp,
/// with the row/column sums folded into the store.
inline void qgemm_int8_body(const int8_t* a, size_t lda, const QgemmB& b,
                            float* c, size_t ldc, size_t m, size_t k,
                            size_t n, const QgemmParams& p) {
  if (m == 0 || n == 0) return;
  const int32_t azp = p.a_zp, bzp = p.b_zp;
  const int32_t kzz = static_cast<int32_t>(k) * azp * bzp;
  // Row sums of A are shared by every panel: computed once by the caller
  // into its thread_local scratch, which workers reach through a plain
  // pointer (a thread_local name inside the lambda would resolve to each
  // worker's own, empty instance). The caller blocks in
  // parallel_for_chunked, so the buffer outlives every worker's use.
  thread_local std::vector<int32_t> rowsum_tls;
  rowsum_tls.resize(m);
  int32_t* const rowsum = rowsum_tls.data();
  if (bzp != 0) row_sums(a, lda, m, k, 0, rowsum);
  const size_t npan = (n + kPanelCols - 1) / kPanelCols;

  const auto process_panels = [&](size_t p0, size_t p1) {
    thread_local std::vector<int8_t> panel_tls;
    panel_tls.resize(k * kPanelCols);
    int8_t* const panel = panel_tls.data();
    size_t off[kPanelCols];
    for (size_t jp = p0; jp < p1; ++jp) {
      const size_t j0 = jp * kPanelCols;
      const size_t cols = std::min(kPanelCols, n - j0);
      int32_t colsum[kPanelCols] = {};
      gather_rows(b, k, off, cols, panel_columns(b, j0, cols, off), panel,
                  colsum);
      for (size_t i = 0; i < m; ++i) {
        const int8_t* arow = a + i * lda;
        int32_t acc[kPanelCols] = {};
        // Four k steps per accumulator pass; zero A elements (pruned
        // weights) skip in groups.
        size_t kk = 0;
        for (; kk + 4 <= k; kk += 4) {
          const int32_t av0 = static_cast<int32_t>(arow[kk]);
          const int32_t av1 = static_cast<int32_t>(arow[kk + 1]);
          const int32_t av2 = static_cast<int32_t>(arow[kk + 2]);
          const int32_t av3 = static_cast<int32_t>(arow[kk + 3]);
          if ((av0 | av1 | av2 | av3) == 0) continue;
          const int8_t* b0 = panel + kk * kPanelCols;
          for (size_t j = 0; j < kPanelCols; ++j)
            acc[j] += av0 * static_cast<int32_t>(b0[j]) +
                      av1 * static_cast<int32_t>(b0[kPanelCols + j]) +
                      av2 * static_cast<int32_t>(b0[2 * kPanelCols + j]) +
                      av3 * static_cast<int32_t>(b0[3 * kPanelCols + j]);
        }
        for (; kk < k; ++kk) {
          const int32_t av = static_cast<int32_t>(arow[kk]);
          const int8_t* brow = panel + kk * kPanelCols;
          for (size_t j = 0; j < kPanelCols; ++j)
            acc[j] += av * static_cast<int32_t>(brow[j]);
        }
        // Fold the zero-point corrections into the accumulator, then
        // requantize on store. Per-row A scales (per-output-channel weight
        // quantization) and per-column B scales land here too — the
        // integer accumulation never sees scales.
        const int32_t row_corr = bzp != 0 ? kzz - bzp * rowsum[i] : kzz;
        for (size_t j = 0; j < cols; ++j) acc[j] += row_corr - azp * colsum[j];
        const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
        float* crow = c + i * ldc + j0;
        if (p.b_scales == nullptr) {
          const float scale = sa * p.b_scale;
          for (size_t j = 0; j < cols; ++j)
            crow[j] = scale * static_cast<float>(acc[j]);
        } else {
          for (size_t j = 0; j < cols; ++j)
            crow[j] = sa * p.b_scales[j0 + j] * static_cast<float>(acc[j]);
        }
      }
    }
  };
  partition_panels(m, k, npan, process_panels);
}

}  // namespace alf::kernels::detail
