// The "simd" backend: explicitly vectorized GEMM with panel packing.
//
// The inner kernel is a 4x16 register tile — four C rows times two 8-float
// vectors — expressed in portable GCC/Clang vector extensions (no
// intrinsics): the k-loop broadcasts one packed A element per row and FMAs
// it against two B vectors, keeping 8 vector accumulators live.
//
// Both operands are packed. op(B) is packed once per call (by the calling
// thread, before the row partition) into kNr-column-interleaved panels —
// each k step of a panel is one contiguous 64-byte line — which also
// absorbs trans_b at pack time. A panels are packed per (row-block,
// k-block) into kMr-interleaved strips, so both orientations of A (and in
// particular the strided trans_a reads of the backward pass) stream
// contiguously through the kernel. The sweep is blocked over columns
// (kNc) and k (kKc) so the resident set — one kKc x kNc B block plus one
// kMc x kKc A block — fits in L2 and each B panel is reused across the
// full M sweep; without the column blocking, im2col conv shapes (n in the
// thousands) re-stream all of B from memory once per row panel.
//
// Blocking mirrors the scalar backend: a global k-block grid fixes the
// accumulation order of every C element independent of the thread
// partition, so results are bit-identical for any thread count. The row
// range is the only parallel axis.
//
// Build/ISA: CMake's ALF_SIMD=ON compiles this file with wider vector
// flags (-mavx2 -mfma) when the compiler supports them; simd_backend()
// then gates registration on runtime CPU support, so a binary built on a
// new machine still boots on an old one (the registry falls back to
// "scalar"). Without vector extensions (non-GCC/Clang) the backend is
// absent entirely.
#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/internal.hpp"

namespace alf::kernels {

#if defined(__GNUC__) || defined(__clang__)

namespace {

typedef float v8 __attribute__((vector_size(32)));

constexpr size_t kMr = 4;    // C rows per register tile
constexpr size_t kNr = 16;   // C cols per register tile (two v8)
constexpr size_t kMc = 64;   // rows packed per A block (~64KB with kKc)
constexpr size_t kKc = 256;  // k extent of one block (global grid)
constexpr size_t kNc = 256;  // cols per B block (kKc x kNc = 256KB in L2)

// Same per-worker arithmetic floor as the scalar backend.
constexpr size_t kMaddsPerWorker = size_t{1} << 16;

inline v8 loadu(const float* p) {
  v8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void storeu(float* p, v8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline v8 splat(float s) { return v8{s, s, s, s, s, s, s, s}; }

/// Packs rows [i0, i0+rows) x k-range [k0, k0+kb) of op(A) into kMr-wide
/// panels: dst panel p holds rows i0+p*kMr.., laid out [kk][r] so the
/// microkernel reads one contiguous kMr group per k step. Short panels are
/// zero-padded (the padded lanes are computed and discarded).
void pack_a(const float* a, size_t lda, bool trans_a, size_t i0, size_t rows,
            size_t k0, size_t kb, float* dst) {
  for (size_t p = 0; p < rows; p += kMr) {
    const size_t pr = std::min(kMr, rows - p);
    float* panel = dst + p * kb;  // each panel is kb * kMr floats
    for (size_t kk = 0; kk < kb; ++kk) {
      for (size_t r = 0; r < kMr; ++r) {
        const size_t i = i0 + p + r;
        panel[kk * kMr + r] =
            r < pr ? (trans_a ? a[(k0 + kk) * lda + i] : a[i * lda + k0 + kk])
                   : 0.0f;
      }
    }
  }
}

/// The register tile over packed panels: C[0:pr, 16 cols] += alpha *
/// apanel * bpanel. `bpanel` walks one packed B panel — 16 contiguous
/// floats (one cache line) per k step.
inline void micro_4x16p(const float* apanel, size_t kb, const float* bpanel,
                        float alpha, float* c, size_t ldc, size_t pr) {
  v8 acc[kMr][2] = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const v8 b0 = loadu(bpanel);
    const v8 b1 = loadu(bpanel + 8);
    bpanel += kNr;
    const float* ap = apanel + kk * kMr;
    for (size_t r = 0; r < kMr; ++r) {
      const v8 av = splat(ap[r]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  const v8 va = splat(alpha);
  for (size_t r = 0; r < pr; ++r) {
    float* crow = c + r * ldc;
    storeu(crow, loadu(crow) + va * acc[r][0]);
    storeu(crow + 8, loadu(crow + 8) + va * acc[r][1]);
  }
}

/// Column tail (n % 16): same vector accumulation over the zero-padded
/// last panel, spilled to a stack row so only the live columns store.
inline void micro_4x16p_partial(const float* apanel, size_t kb,
                                const float* bpanel, float alpha, float* c,
                                size_t ldc, size_t pr, size_t cols) {
  v8 acc[kMr][2] = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const v8 b0 = loadu(bpanel);
    const v8 b1 = loadu(bpanel + 8);
    bpanel += kNr;
    const float* ap = apanel + kk * kMr;
    for (size_t r = 0; r < kMr; ++r) {
      const v8 av = splat(ap[r]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  float tmp[kNr];
  for (size_t r = 0; r < pr; ++r) {
    storeu(tmp, acc[r][0]);
    storeu(tmp + 8, acc[r][1]);
    float* crow = c + r * ldc;
    for (size_t j = 0; j < cols; ++j) crow[j] += alpha * tmp[j];
  }
}

/// The packed kernel body with the (mc, kc, nc) cache-block extents as
/// parameters. gemm_simd pins the historical constants; the tiled entry
/// substitutes tuner-chosen ones (mc rounded up to the kMr register rows,
/// nc down to whole kNr panels — the register tile itself is fixed). For
/// one (kc) choice the k-block grid is global, so each tile candidate is
/// individually bit-stable across thread counts.
void gemm_simd_blocked(const float* pa, size_t lda, bool trans_a,
                       const float* pb, size_t ldb, bool trans_b, float* pc,
                       size_t ldc, size_t m, size_t k, size_t n, float alpha,
                       float beta, size_t mc, size_t kc, size_t nc) {
  // No size-based fallback to the scalar kernel: it rounds differently, so
  // a cutoff on m * k * n would let one image's logits change with the
  // batch it shares (m = batch on the classifier GEMM). k == 0 has no
  // products to round; the scalar path just applies beta.
  if (k == 0) {
    detail::gemm_scalar(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m, k, n,
                        alpha, beta);
    return;
  }
  mc = (std::max<size_t>(mc, kMr) + kMr - 1) & ~(kMr - 1);
  kc = std::max<size_t>(kc, 1);
  nc = std::max<size_t>(nc & ~(kNr - 1), kNr);

  const size_t madds_per_row = std::max<size_t>(1, k * n);
  const size_t min_rows = std::max<size_t>(1, kMaddsPerWorker / madds_per_row);
  const bool inline_run =
      in_parallel_region() || m <= min_rows || parallel_threads() <= 1;

  // Pack op(B) once into kNr-column panels: panel jp holds columns
  // [jp*16, jp*16+16) laid out [kk][16] (zero-padded past n), so every k
  // step of the microkernel is one contiguous cache line and trans_b costs
  // nothing downstream. Packed by the calling thread, then shared
  // read-only across the row partition (the caller blocks in
  // parallel_for_chunked, so the buffer outlives every worker's use).
  const size_t npan = (n + kNr - 1) / kNr;
  const size_t panel_stride = k * kNr;
  thread_local std::vector<float> bpack_tls;
  bpack_tls.resize(npan * panel_stride);
  float* const bp = bpack_tls.data();
  if (!trans_b) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * ldb;
      for (size_t jp = 0; jp < npan; ++jp) {
        const size_t j0 = jp * kNr;
        const size_t cols = std::min(kNr, n - j0);
        float* dst = bp + jp * panel_stride + kk * kNr;
        size_t jj = 0;
        for (; jj < cols; ++jj) dst[jj] = brow[j0 + jj];
        for (; jj < kNr; ++jj) dst[jj] = 0.0f;
      }
    }
  } else {
    // B is stored [N, K]: each source row is one output column, read
    // contiguously and scattered down its panel.
    for (size_t jp = 0; jp < npan; ++jp) {
      float* panel = bp + jp * panel_stride;
      for (size_t jj = 0; jj < kNr; ++jj) {
        const size_t j = jp * kNr + jj;
        if (j < n) {
          const float* bcol = pb + j * ldb;
          for (size_t kk = 0; kk < k; ++kk) panel[kk * kNr + jj] = bcol[kk];
        } else {
          for (size_t kk = 0; kk < k; ++kk) panel[kk * kNr + jj] = 0.0f;
        }
      }
    }
  }

  const size_t pan_per_block = nc / kNr;  // B panels per column block
  const auto process_rows = [=](size_t r0, size_t r1) {
    // Per-thread A packing scratch, persistent across calls (pool workers
    // live for the process).
    thread_local std::vector<float> apack_tls;
    apack_tls.resize(mc * kc);
    float* const apack = apack_tls.data();

    for (size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * ldc;
      if (beta == 0.0f) {
        std::memset(crow, 0, n * sizeof(float));
      } else if (beta != 1.0f) {
        for (size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    for (size_t bj = 0; bj < npan; bj += pan_per_block) {
      const size_t pe = std::min(npan, bj + pan_per_block);
      for (size_t k0 = 0; k0 < k; k0 += kc) {
        const size_t kb = std::min(k, k0 + kc) - k0;
        for (size_t i0 = r0; i0 < r1; i0 += mc) {
          const size_t rows = std::min(r1, i0 + mc) - i0;
          pack_a(pa, lda, trans_a, i0, rows, k0, kb, apack);
          for (size_t jp = bj; jp < pe; ++jp) {
            const float* bpanel = bp + jp * panel_stride + k0 * kNr;
            const size_t j0 = jp * kNr;
            const size_t cols = std::min(kNr, n - j0);
            for (size_t p = 0; p < rows; p += kMr) {
              const size_t pr = std::min(kMr, rows - p);
              const float* apanel = apack + p * kb;
              float* cpan = pc + (i0 + p) * ldc + j0;
              if (cols == kNr)
                micro_4x16p(apanel, kb, bpanel, alpha, cpan, ldc, pr);
              else
                micro_4x16p_partial(apanel, kb, bpanel, alpha, cpan, ldc, pr,
                                    cols);
            }
          }
        }
      }
    }
  };

  if (inline_run) {
    process_rows(0, m);
    return;
  }
  parallel_for_chunked(0, m, process_rows, min_rows);
}

void gemm_simd(const float* pa, size_t lda, bool trans_a, const float* pb,
               size_t ldb, bool trans_b, float* pc, size_t ldc, size_t m,
               size_t k, size_t n, float alpha, float beta) {
  gemm_simd_blocked(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m, k, n,
                    alpha, beta, kMc, kKc, kNc);
}

void gemm_simd_tiled(const float* pa, size_t lda, bool trans_a,
                     const float* pb, size_t ldb, bool trans_b, float* pc,
                     size_t ldc, size_t m, size_t k, size_t n, float alpha,
                     float beta, const TileParams& t) {
  gemm_simd_blocked(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m, k, n,
                    alpha, beta, t.mc != 0 ? t.mc : kMc,
                    t.kc != 0 ? t.kc : kKc, t.nc != 0 ? t.nc : kNc);
}

/// The shared int8 body instantiated under this file's (possibly wider)
/// ISA flags — same exact integer math as detail::qgemm_int8, usually
/// auto-vectorized much harder.
void qgemm_simd(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  detail::qgemm_int8_body(a, lda, b, ldb, c, ldc, m, k, n, p);
}

/// True when the host CPU can execute the ISA this file was compiled for.
bool cpu_supported() {
#if defined(__AVX2__) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;  // baseline vector extensions only
#endif
}

}  // namespace

const KernelBackend* simd_backend() {
  if (!cpu_supported()) return nullptr;
  static const KernelBackend be{.name = "simd",
#if defined(__AVX2__) && defined(__x86_64__)
                                .required_features = kCpuAvx2 | kCpuFma,
#endif
                                .gemm = &gemm_simd,
                                .qgemm = &qgemm_simd,
                                .gemm_tiled = &gemm_simd_tiled};
  return &be;
}

#else  // !(__GNUC__ || __clang__)

const KernelBackend* simd_backend() { return nullptr; }

#endif

}  // namespace alf::kernels
