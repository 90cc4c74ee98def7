// Register-tiled int8 qgemm kernels over x86 dot-product instructions:
//
//   int8-avx2 — sign-extends A/B to int16 pairs at pack time and uses
//               vpmaddwd (exact: s8-ranged products can never saturate the
//               32-bit lanes, unlike vpmaddubsw whose 16-bit intermediate
//               overflows at 255*127*2).
//   int8-vnni — vpdpbusd, VEX (AVX-VNNI) or EVEX-256 (AVX512-VNNI+VL)
//               encoding, whichever the CPU has. vpdpbusd is u8*s8, so A
//               is packed as u8 = s8 + 128 (a byte XOR 0x80) and the shift
//               is folded into the zero-point decomposition by using
//               azp_eff = a_zp + 128 against the unsigned row sums.
//
// Both kernels share one structure (qgemm_panels): A is packed once per
// call into kMr-row panels whose k groups match the instruction's step
// (int16 pairs / byte quads), then B is walked in kNr-column panels, split
// across the worker pool. Each panel is gathered straight from the QgemmB
// source — one 16-byte load per row when its columns are consecutive
// bytes, two pshufb-placed 32-byte windows per row for strided or
// row-straddling conv panels, a k x 16 L1 stage otherwise — packed in the
// kernel's layout while its columns are summed, and run against every A
// row panel with an 8-accumulator 4x16 register tile while still in L1.
// No B matrix, packed or not, ever exists whole.
//
// Bit-identity with the scalar oracle (qgemm_int8_body) is structural:
// integer accumulation is exact in any order, zero-point corrections are
// integer, and store_tile() replicates the oracle's float expressions
// operation for operation. That also makes results independent of the
// thread partition for free.
//
// This TU is compiled with -mavx2 when CMake's ALF_SIMD is ON (see
// set_source_files_properties); without it — or on non-x86 hosts — the
// factories return nullptr and the generic int8 backend stays on the
// portable body.
#include <cmath>
#include <cstdint>

#include "kernels/internal.hpp"

#if defined(__AVX2__) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ALF_INT8_DOT 1
// vpdpbusd needs per-function target support and the avxvnni intrinsic
// header; both arrived in GCC 11 / clang 12. Older compilers still build
// the AVX2 kernel.
#if (defined(__clang__) && __clang_major__ >= 12) || \
    (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11)
#define ALF_INT8_VNNI 1
#endif
#endif

#if defined(ALF_INT8_DOT)
#include <immintrin.h>
#endif

namespace alf::kernels {

#if defined(ALF_INT8_DOT)

namespace {

constexpr size_t kMr = 4;   // register-tile rows
constexpr size_t kNr = detail::kPanelCols;  // tile columns (two ymm of int32)
static_assert(kNr == 16, "the pack routines below move 16-column panels");
/// Below this madd count the pack/correction overhead loses to the plain
/// body; delegate there (bit-identical, so the cutoff is invisible).
constexpr size_t kScalarCutoffMadds = size_t{1} << 12;

inline int32_t load_i32(const void* p) {
  int32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Applies the zero-point corrections to one kMr x kNr integer tile and
/// requantizes into C. The float expressions below must stay operation-
/// for-operation identical to qgemm_int8_body's store loop — that is what
/// makes every backend bit-identical.
///
/// `acc` holds the raw dot products Σ_k a'[i,k]*b[k,j] (a' being whatever
/// encoding the kernel packed: signed for avx2, +128-shifted unsigned for
/// vnni). `azp_eff` is the zero point in that same encoding and `rowsum`
/// (nullable when bzp == 0) the per-row sums of a', indexed from the tile's
/// first row. `colsum` (nullable when azp_eff == 0) holds the panel's
/// column sums, indexed from the tile's first column.
inline void store_tile(const int32_t* acc, size_t i0, size_t pr, size_t j0,
                       size_t cols, size_t k, const int32_t* colsum,
                       const int32_t* rowsum, int32_t azp_eff, int32_t bzp,
                       const QgemmParams& p, float* c, size_t ldc) {
  const int32_t kzz = static_cast<int32_t>(k) * azp_eff * bzp;
  if (cols == kNr) {
    // Full tile: the whole epilogue in two ymm per row. The integer
    // corrections are exact either way and the float ops below pair up
    // 1:1 (same association) with the scalar branch, so both store
    // bit-identical values.
    __m256i corr0 = _mm256_setzero_si256();
    __m256i corr1 = _mm256_setzero_si256();
    if (azp_eff != 0) {
      const __m256i az = _mm256_set1_epi32(azp_eff);
      corr0 = _mm256_mullo_epi32(
          az, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(colsum)));
      corr1 = _mm256_mullo_epi32(
          az, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(colsum + 8)));
    }
    __m256 bs0 = _mm256_setzero_ps(), bs1 = _mm256_setzero_ps();
    if (p.b_scales != nullptr) {
      bs0 = _mm256_loadu_ps(p.b_scales + j0);
      bs1 = _mm256_loadu_ps(p.b_scales + j0 + 8);
    }
    for (size_t r = 0; r < pr; ++r) {
      const size_t i = i0 + r;
      const int32_t row_corr =
          kzz - (rowsum != nullptr ? bzp * rowsum[r] : 0);
      const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
      const int32_t* arow = acc + r * kNr;
      const __m256i rc = _mm256_set1_epi32(row_corr);
      __m256i v0 = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow)), rc);
      __m256i v1 = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + 8)),
          rc);
      v0 = _mm256_sub_epi32(v0, corr0);
      v1 = _mm256_sub_epi32(v1, corr1);
      __m256 s0, s1;
      if (p.b_scales == nullptr) {
        s0 = s1 = _mm256_set1_ps(sa * p.b_scale);
      } else {
        const __m256 sav = _mm256_set1_ps(sa);
        s0 = _mm256_mul_ps(sav, bs0);
        s1 = _mm256_mul_ps(sav, bs1);
      }
      float* crow = c + i * ldc + j0;
      _mm256_storeu_ps(crow, _mm256_mul_ps(s0, _mm256_cvtepi32_ps(v0)));
      _mm256_storeu_ps(crow + 8,
                       _mm256_mul_ps(s1, _mm256_cvtepi32_ps(v1)));
    }
    return;
  }
  for (size_t r = 0; r < pr; ++r) {
    const size_t i = i0 + r;
    const int32_t row_corr = kzz - (rowsum != nullptr ? bzp * rowsum[r] : 0);
    const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
    const float scale = sa * p.b_scale;
    float* crow = c + i * ldc + j0;
    const int32_t* arow = acc + r * kNr;
    for (size_t j = 0; j < cols; ++j) {
      int32_t v = arow[j] + row_corr;
      if (azp_eff != 0) v -= azp_eff * colsum[j];
      crow[j] = p.b_scales == nullptr
                    ? scale * static_cast<float>(v)
                    : sa * p.b_scales[j0 + j] * static_cast<float>(v);
    }
  }
}

// --- B panel sources -------------------------------------------------------
//
// A row source yields the panel's B rows in k order as 16-byte vectors
// (next()); the pack routines below consume any of them, so each layout
// has exactly one pack routine.

/// Full panel whose columns are consecutive bytes: one load per row.
struct DirectRows {
  detail::RowWalk walk;
  const int8_t* base;
  __m128i next() {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(base + walk.next()));
  }
};

/// Panel whose columns fall in at most two 32-byte windows of every row
/// (stride-2 taps, output rows narrower than a panel): each window is
/// loaded whole and its bytes are placed into their columns by pshufb.
/// Reads up to 31 bytes past the last byte a row needs, so it is only
/// used on sources with kQgemmGatherSlack readable tail bytes.
struct WindowRows {
  detail::RowWalk walk;
  const int8_t* base;
  size_t nwin = 0;
  size_t woff[2] = {0, 0};
  __m128i lo[2], hi[2];

  /// Plans the windows for column offsets off[0, cols); false when the
  /// columns need more than two.
  bool plan(const size_t* off, size_t cols) {
    alignas(16) int8_t ml[2][kNr], mh[2][kNr];
    std::memset(ml, 0x80, sizeof ml);
    std::memset(mh, 0x80, sizeof mh);
    for (size_t c = 0; c < cols; ++c) {
      if (nwin == 0 || off[c] - woff[nwin - 1] >= 32) {
        if (nwin == 2) return false;
        woff[nwin++] = off[c];
      }
      const size_t d = off[c] - woff[nwin - 1];
      if (d < 16)
        ml[nwin - 1][c] = static_cast<int8_t>(d);
      else
        mh[nwin - 1][c] = static_cast<int8_t>(d - 16);
    }
    for (size_t w = 0; w < 2; ++w) {
      lo[w] = _mm_load_si128(reinterpret_cast<const __m128i*>(ml[w]));
      hi[w] = _mm_load_si128(reinterpret_cast<const __m128i*>(mh[w]));
    }
    return true;
  }

  __m128i window(const int8_t* p, size_t w) const {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    return _mm_or_si128(_mm_shuffle_epi8(a, lo[w]), _mm_shuffle_epi8(b, hi[w]));
  }

  __m128i next() {
    const int8_t* row = base + walk.next();
    __m128i v = window(row + woff[0], 0);
    if (nwin == 2) v = _mm_or_si128(v, window(row + woff[1], 1));
    return v;
  }
};

/// Panel staged as k plain rows (detail::gather_rows).
struct StageRows {
  const int8_t* p;
  __m128i next() {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    p += kNr;
    return v;
  }
};

/// Gathers panel [j0, j0 + cols) of `b` and hands the cheapest row source
/// for it to `pack`. `stage` holds k * kNr bytes.
template <typename Pack>
void with_panel_rows(const QgemmB& b, size_t k, size_t j0, size_t cols,
                     int8_t* stage, const Pack& pack) {
  size_t off[kNr];
  if (detail::panel_columns(b, j0, cols, off)) {
    DirectRows rows{detail::RowWalk(b), b.data + off[0]};
    pack(rows);
    return;
  }
  if (b.slack >= kQgemmGatherSlack) {
    WindowRows rows{detail::RowWalk(b), b.data};
    if (rows.plan(off, cols)) {
      pack(rows);
      return;
    }
  }
  detail::gather_rows(b, k, off, cols, /*consecutive=*/false, stage,
                      /*colsum=*/nullptr);
  StageRows rows{stage};
  pack(rows);
}

/// Rows k0 + 1.. of a k group, zero past k.
template <typename Rows>
inline __m128i next_or_zero(Rows& rows, size_t kk, size_t k) {
  return kk < k ? rows.next() : _mm_setzero_si128();
}

// --- AVX2 vpmaddwd kernel --------------------------------------------------

/// 4x16 tile over int16 pairs: `ap` is [k/2][4 rows][2 k] int16, `bp` is
/// [k/2][16 cols][2 k] int16 (64 bytes — a cache line — per pair step).
/// vpmaddwd multiplies the (k0,k1) pair against each column's matching pair
/// and adds horizontally into the int32 lane; s8-ranged operands keep
/// every intermediate far from the lane limits, so accumulation is exact.
void qgemm_micro_avx2(const int16_t* ap, const int16_t* bp, size_t kp,
                      int32_t* acc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  for (size_t q = 0; q < kp; ++q) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
    bp += 32;
    __m256i va = _mm256_set1_epi32(load_i32(ap));
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(va, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(ap + 2));
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(va, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(ap + 4));
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(va, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(ap + 6));
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(va, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(va, b1));
    ap += 8;
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0), c00);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 8), c01);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 16), c10);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 24), c11);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 32), c20);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 40), c21);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 48), c30);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 56), c31);
}

/// The int16-pair layout: A as [k/2][4 rows][2 k], B panels as
/// [k/2][16 cols][2 k], both sign-extended (pad k positions are 0).
struct PairLayout {
  using AElem = int16_t;
  using BElem = int16_t;
  static constexpr size_t kStep = 2;
  using Micro = void (*)(const int16_t*, const int16_t*, size_t, int32_t*);
  static Micro micro() { return &qgemm_micro_avx2; }
  static int32_t azp_eff(const QgemmParams& p) { return p.a_zp; }

  /// Packs A rows [0, m) into row panels; rowsum (nullable) gets the
  /// signed row sums.
  static void pack_a(const int8_t* a, size_t lda, size_t m, size_t k,
                     int16_t* dst, int32_t* rowsum) {
    const size_t kp = (k + 1) / 2;
    for (size_t i0 = 0; i0 < m; i0 += kMr) {
      const size_t pr = std::min(kMr, m - i0);
      for (size_t q = 0; q < kp; ++q, dst += 2 * kMr) {
        const size_t k0 = 2 * q;
        const size_t ks = std::min<size_t>(2, k - k0);
        std::memset(dst, 0, 2 * kMr * sizeof(int16_t));
        for (size_t r = 0; r < pr; ++r)
          for (size_t s = 0; s < ks; ++s)
            dst[r * 2 + s] = static_cast<int16_t>(a[(i0 + r) * lda + k0 + s]);
      }
    }
    if (rowsum != nullptr) detail::row_sums(a, lda, m, k, 0, rowsum);
  }

  /// Packs one panel: sign-extend each row pair, interleave words, fix the
  /// lane order (unpack interleaves per 128-bit lane); colsum (nullable)
  /// gets the column sums from the packed pairs.
  template <typename Rows>
  static void pack_b(Rows& rows, size_t k, int16_t* dst, int32_t* colsum) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i cs0 = _mm256_setzero_si256(), cs1 = _mm256_setzero_si256();
    for (size_t k0 = 0; k0 < k; k0 += 2, dst += 2 * kNr) {
      const __m256i a = _mm256_cvtepi8_epi16(rows.next());
      const __m256i b = _mm256_cvtepi8_epi16(next_or_zero(rows, k0 + 1, k));
      const __m256i lo = _mm256_unpacklo_epi16(a, b);
      const __m256i hi = _mm256_unpackhi_epi16(a, b);
      const __m256i v0 = _mm256_permute2x128_si256(lo, hi, 0x20);  // cols 0-7
      const __m256i v1 = _mm256_permute2x128_si256(lo, hi, 0x31);  // 8-15
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16), v1);
      cs0 = _mm256_add_epi32(cs0, _mm256_madd_epi16(v0, ones));
      cs1 = _mm256_add_epi32(cs1, _mm256_madd_epi16(v1, ones));
    }
    if (colsum != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum), cs0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + 8), cs1);
    }
  }
};

/// The shared panel loop of both dot-product kernels over layout L.
template <typename L>
void qgemm_panels(const int8_t* a, size_t lda, const QgemmB& b, float* c,
                  size_t ldc, size_t m, size_t k, size_t n,
                  const QgemmParams& p) {
  if (m * k * n < kScalarCutoffMadds) {
    detail::qgemm_int8_gather(a, lda, b, c, ldc, m, k, n, p);
    return;
  }
  const typename L::Micro micro = L::micro();
  const int32_t azp_eff = L::azp_eff(p);
  const int32_t bzp = p.b_zp;
  const size_t steps = (k + L::kStep - 1) / L::kStep;
  const size_t a_panel = steps * L::kStep * kMr;
  const size_t b_panel = steps * L::kStep * kNr;
  // A is packed once by the calling thread and shared read-only by the
  // panel workers (the caller blocks in parallel_for_chunked, so its
  // thread_local buffers outlive every worker's use of them).
  thread_local std::vector<typename L::AElem> apack_tls;
  thread_local std::vector<int32_t> rowsum_tls;
  apack_tls.resize((m + kMr - 1) / kMr * a_panel);
  rowsum_tls.resize(m);
  const typename L::AElem* const apack = apack_tls.data();
  const int32_t* const rowsum = bzp != 0 ? rowsum_tls.data() : nullptr;
  L::pack_a(a, lda, m, k, apack_tls.data(),
            bzp != 0 ? rowsum_tls.data() : nullptr);

  const auto process_panels = [&](size_t p0, size_t p1) {
    thread_local std::vector<typename L::BElem> bpanel_tls;
    thread_local std::vector<int8_t> stage_tls;
    bpanel_tls.resize(b_panel);
    stage_tls.resize(k * kNr);
    typename L::BElem* const bpanel = bpanel_tls.data();
    alignas(32) int32_t colsum[kNr];
    alignas(32) int32_t acc[kMr * kNr];
    for (size_t jp = p0; jp < p1; ++jp) {
      const size_t j0 = jp * kNr;
      const size_t cols = std::min(kNr, n - j0);
      with_panel_rows(b, k, j0, cols, stage_tls.data(), [&](auto& rows) {
        L::pack_b(rows, k, bpanel, azp_eff != 0 ? colsum : nullptr);
      });
      for (size_t i0 = 0; i0 < m; i0 += kMr) {
        const size_t pr = std::min(kMr, m - i0);
        micro(apack + i0 / kMr * a_panel, bpanel, steps, acc);
        store_tile(acc, i0, pr, j0, cols, k, colsum,
                   rowsum != nullptr ? rowsum + i0 : nullptr, azp_eff, bzp, p,
                   c, ldc);
      }
    }
  };
  detail::partition_panels(m, k, (n + kNr - 1) / kNr, process_panels);
}

void qgemm_avx2_gather(const int8_t* a, size_t lda, const QgemmB& b, float* c,
                       size_t ldc, size_t m, size_t k, size_t n,
                       const QgemmParams& p) {
  qgemm_panels<PairLayout>(a, lda, b, c, ldc, m, k, n, p);
}

void qgemm_avx2(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  qgemm_avx2_gather(a, lda, QgemmB::matrix(b, ldb, n), c, ldc, m, k, n, p);
}

// --- Quantize helpers ------------------------------------------------------

/// Narrows two ymm of clamped int32 (16 lanes, in order) to 16 int8.
/// packs_epi32/16 interleave per 128-bit lane, hence the qword shuffle;
/// saturation never fires — the inputs are pre-clamped to ±levels.
inline void store_16xi8(__m256i a, __m256i b, int8_t* dst) {
  __m256i w = _mm256_packs_epi32(a, b);   // [a0-3 b0-3 | a4-7 b4-7] words
  w = _mm256_permute4x64_epi64(w, 0xD8);  // [a0-7 | b0-7] words
  const __m256i bytes = _mm256_packs_epi16(w, w);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                   _mm256_castsi256_si128(bytes));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 8),
                   _mm256_extracti128_si256(bytes, 1));
}

inline __m256i quant_8(__m256 v, __m256 vinv, __m256i vzp, __m256i vlo,
                       __m256i vhi) {
  // cvtps_epi32 rounds per MXCSR — nearest-even, exactly the scalar
  // tail's rintf. Inputs are bounded by the caller's max-abs scaling, so
  // the out-of-range indefinite result can't occur.
  __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, vinv));
  q = _mm256_add_epi32(q, vzp);
  return _mm256_min_epi32(_mm256_max_epi32(q, vlo), vhi);
}

inline void quantize_row_i8_avx2(const float* src, int8_t* dst, size_t n,
                                 float inv, int32_t zp, int32_t levels) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i vzp = _mm256_set1_epi32(zp);
  const __m256i vlo = _mm256_set1_epi32(-levels);
  const __m256i vhi = _mm256_set1_epi32(levels);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a =
        quant_8(_mm256_loadu_ps(src + i), vinv, vzp, vlo, vhi);
    const __m256i b =
        quant_8(_mm256_loadu_ps(src + i + 8), vinv, vzp, vlo, vhi);
    store_16xi8(a, b, dst + i);
  }
  if (i + 8 <= n) {
    // One half block (8-wide rows of the narrow maps).
    const __m256i a = quant_8(_mm256_loadu_ps(src + i), vinv, vzp, vlo, vhi);
    __m256i w = _mm256_packs_epi32(a, a);
    w = _mm256_permute4x64_epi64(w, 0xD8);
    const __m256i bytes = _mm256_packs_epi16(w, w);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_castsi256_si128(bytes));
    i += 8;
  }
  for (; i < n; ++i) {
    int32_t v = static_cast<int32_t>(std::rintf(src[i] * inv)) + zp;
    v = std::min(levels, std::max(-levels, v));
    dst[i] = static_cast<int8_t>(v);
  }
}

void quantize_planes_i8_avx2(const float* src, size_t planes, size_t h,
                             size_t w, size_t pad, int8_t* dst, float inv,
                             int32_t zp, int32_t levels) {
  detail::quantize_planes_body(
      src, planes, h, w, pad, dst, static_cast<int8_t>(zp),
      [&](const float* s, int8_t* d, size_t n) {
        quantize_row_i8_avx2(s, d, n, inv, zp, levels);
      });
}

void max_abs_col_blocks_avx2(const float* src, size_t rows, size_t ld,
                             size_t block, size_t nblocks, float* out) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const size_t vend = block & ~size_t{7};
  for (size_t jb = 0; jb < nblocks; ++jb) {
    const float* base = src + jb * block;
    __m256 vmax = _mm256_setzero_ps();
    float smax = 0.0f;
    for (size_t r = 0; r < rows; ++r) {
      const float* p = base + r * ld;
      for (size_t c = 0; c < vend; c += 8)
        vmax = _mm256_max_ps(
            vmax, _mm256_and_ps(_mm256_loadu_ps(p + c), absmask));
      for (size_t c = vend; c < block; ++c)
        smax = std::max(smax, std::fabs(p[c]));
    }
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                          _mm256_extractf128_ps(vmax, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    out[jb] = std::max(smax, _mm_cvtss_f32(m));
  }
}

// --- VNNI vpdpbusd kernel --------------------------------------------------

#if defined(ALF_INT8_VNNI)

using VnniMicroFn = void (*)(const uint8_t*, const int8_t*, size_t, int32_t*);

#define ALF_VNNI_FN qgemm_micro_vnni_vex
#define ALF_VNNI_TARGET "avx2,avxvnni"
#define ALF_VNNI_DPBUSD _mm256_dpbusd_avx_epi32
#include "kernels/int8_dot_vnni.inc"

#define ALF_VNNI_FN qgemm_micro_vnni_evex
#define ALF_VNNI_TARGET "avx2,avx512vnni,avx512vl"
#define ALF_VNNI_DPBUSD _mm256_dpbusd_epi32
#include "kernels/int8_dot_vnni.inc"

/// The flavor the host can execute; VEX preferred (no EVEX prefix cost,
/// and it is what AVX512-less client cores ship). Resolved once.
VnniMicroFn vnni_micro() {
  static const VnniMicroFn fn =
      (detected_cpu_features() & kCpuAvxVnni) != 0 ? &qgemm_micro_vnni_vex
                                                   : &qgemm_micro_vnni_evex;
  return fn;
}

/// The byte-quad layout: A as [k/4][4 rows][4 k] unsigned bytes (s8 + 128,
/// a byte XOR 0x80), B panels as [k/4][16 cols][4 k] signed bytes. The A
/// shift is folded into the zero-point decomposition by using
/// azp_eff = a_zp + 128 against the unsigned row sums — never zero, so the
/// column-sum correction is always on. Padding bytes are 0 on both sides,
/// so padded k positions contribute 0 to every accumulator.
struct QuadLayout {
  using AElem = uint8_t;
  using BElem = int8_t;
  static constexpr size_t kStep = 4;
  using Micro = VnniMicroFn;
  static Micro micro() { return vnni_micro(); }
  static int32_t azp_eff(const QgemmParams& p) { return p.a_zp + 128; }

  /// Packs A rows [0, m) into row panels; rowsum (nullable) gets the row
  /// sums of the *unsigned* packed rows: signed sum + 128k.
  static void pack_a(const int8_t* a, size_t lda, size_t m, size_t k,
                     uint8_t* dst, int32_t* rowsum) {
    const size_t kq = (k + 3) / 4;
    for (size_t i0 = 0; i0 < m; i0 += kMr) {
      const size_t pr = std::min(kMr, m - i0);
      for (size_t q = 0; q < kq; ++q, dst += 4 * kMr) {
        const size_t k0 = 4 * q;
        const size_t ks = std::min<size_t>(4, k - k0);
        std::memset(dst, 0, 4 * kMr);
        for (size_t r = 0; r < pr; ++r)
          for (size_t s = 0; s < ks; ++s)
            dst[r * 4 + s] = static_cast<uint8_t>(
                static_cast<uint8_t>(a[(i0 + r) * lda + k0 + s]) ^ 0x80u);
      }
    }
    if (rowsum != nullptr)
      detail::row_sums(a, lda, m, k, 128 * static_cast<int32_t>(k), rowsum);
  }

  /// Packs one panel — a 4x16 byte transpose per quad in two unpack
  /// stages — and sums its columns from the packed quads (u8 ones times
  /// s8 bytes: pair sums fit int16 exactly, then widen to int32).
  template <typename Rows>
  static void pack_b(Rows& rows, size_t k, int8_t* dst, int32_t* colsum) {
    const __m256i ones8 = _mm256_set1_epi8(1);
    const __m256i ones16 = _mm256_set1_epi16(1);
    __m256i cs0 = _mm256_setzero_si256(), cs1 = _mm256_setzero_si256();
    for (size_t k0 = 0; k0 < k; k0 += 4, dst += 4 * kNr) {
      const __m128i a = rows.next();
      const __m128i b = next_or_zero(rows, k0 + 1, k);
      const __m128i c = next_or_zero(rows, k0 + 2, k);
      const __m128i d = next_or_zero(rows, k0 + 3, k);
      const __m128i ab_lo = _mm_unpacklo_epi8(a, b);  // a0 b0 a1 b1 .. 0-7
      const __m128i ab_hi = _mm_unpackhi_epi8(a, b);  // cols 8-15
      const __m128i cd_lo = _mm_unpacklo_epi8(c, d);
      const __m128i cd_hi = _mm_unpackhi_epi8(c, d);
      const __m256i v0 = _mm256_set_m128i(_mm_unpackhi_epi16(ab_lo, cd_lo),
                                          _mm_unpacklo_epi16(ab_lo, cd_lo));
      const __m256i v1 = _mm256_set_m128i(_mm_unpackhi_epi16(ab_hi, cd_hi),
                                          _mm_unpacklo_epi16(ab_hi, cd_hi));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v0);   // 0-7
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), v1);  // 8-15
      cs0 = _mm256_add_epi32(
          cs0, _mm256_madd_epi16(_mm256_maddubs_epi16(ones8, v0), ones16));
      cs1 = _mm256_add_epi32(
          cs1, _mm256_madd_epi16(_mm256_maddubs_epi16(ones8, v1), ones16));
    }
    if (colsum != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum), cs0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + 8), cs1);
    }
  }
};

void qgemm_vnni_gather(const int8_t* a, size_t lda, const QgemmB& b, float* c,
                       size_t ldc, size_t m, size_t k, size_t n,
                       const QgemmParams& p) {
  qgemm_panels<QuadLayout>(a, lda, b, c, ldc, m, k, n, p);
}

void qgemm_vnni(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  qgemm_vnni_gather(a, lda, QgemmB::matrix(b, ldb, n), c, ldc, m, k, n, p);
}

#endif  // ALF_INT8_VNNI

}  // namespace

#endif  // ALF_INT8_DOT

namespace detail {

QuantizeRowFn quantize_row_i8_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0)
    return &quantize_row_i8_avx2;
#endif
  return nullptr;
}

QuantizePlanesFn quantize_planes_i8_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0)
    return &quantize_planes_i8_avx2;
#endif
  return nullptr;
}

MaxAbsBlocksFn max_abs_col_blocks_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0)
    return &max_abs_col_blocks_avx2;
#endif
  return nullptr;
}

}  // namespace detail

const KernelBackend* int8_avx2_backend() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0) {
    static const KernelBackend be{
        .name = "int8-avx2",
        .quantized_datapath = true,
        .required_features = kCpuAvx2,
        .gemm = &detail::gemm_forward_best_float,
        .qgemm = &qgemm_avx2,
        .qgemm_gather = &qgemm_avx2_gather,
    };
    return &be;
  }
#endif
  return nullptr;
}

const KernelBackend* int8_vnni_backend() {
#if defined(ALF_INT8_VNNI)
  const uint32_t det = detected_cpu_features();
  if ((det & (kCpuAvxVnni | kCpuAvx512Vnni)) != 0) {
    static const KernelBackend be{
        .name = "int8-vnni",
        .quantized_datapath = true,
        .required_features = (detected_cpu_features() & kCpuAvxVnni) != 0
                                 ? static_cast<uint32_t>(kCpuAvxVnni)
                                 : static_cast<uint32_t>(kCpuAvx512Vnni),
        .gemm = &detail::gemm_forward_best_float,
        .qgemm = &qgemm_vnni,
        .qgemm_gather = &qgemm_vnni_gather,
    };
    return &be;
  }
#endif
  return nullptr;
}

}  // namespace alf::kernels
