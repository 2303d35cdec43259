#include "core/bitgemm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RRAMBNN_BITGEMM_X86 1
#include <immintrin.h>
#endif

namespace rrambnn::core {

namespace {

// 2 KiB of packed bits per operand row block: both row blocks stay resident
// in L1 while the (i, j) pair loop streams over them.
constexpr std::int64_t kWordBlock = 256;

using GemmKernel = void (*)(const std::uint64_t* x, std::int64_t n,
                            const std::uint64_t* w, std::int64_t m,
                            std::int64_t wpr, std::int32_t* out);

/// The AVX2 kernel inlines this one for rows under four words, where its
/// 256-bit loop would never run; there std::popcount compiles to the POPCNT
/// instruction, which the baseline x86-64 target lacks.
[[gnu::always_inline]] inline void GemmScalar(const std::uint64_t* x,
                                              std::int64_t n,
                                              const std::uint64_t* w,
                                              std::int64_t m, std::int64_t wpr,
                                              std::int32_t* out) {
  for (std::int64_t w0 = 0; w0 < wpr; w0 += kWordBlock) {
    const std::int64_t w1 = std::min(wpr, w0 + kWordBlock);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* a = x + i * wpr;
      std::int32_t* out_row = out + i * m;
      for (std::int64_t j = 0; j < m; ++j) {
        const std::uint64_t* b = w + j * wpr;
        std::int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
        std::int64_t k = w0;
        for (; k + 4 <= w1; k += 4) {
          c0 += std::popcount(~(a[k] ^ b[k]));
          c1 += std::popcount(~(a[k + 1] ^ b[k + 1]));
          c2 += std::popcount(~(a[k + 2] ^ b[k + 2]));
          c3 += std::popcount(~(a[k + 3] ^ b[k + 3]));
        }
        std::int64_t count = c0 + c1 + c2 + c3;
        for (; k < w1; ++k) count += std::popcount(~(a[k] ^ b[k]));
        out_row[j] += static_cast<std::int32_t>(count);
      }
    }
  }
}

#ifdef RRAMBNN_BITGEMM_X86

/// Per-byte popcount via two nibble table lookups, horizontally summed into
/// the four 64-bit lanes (the classic pshufb/psadbw popcount).
__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) void GemmAvx2(const std::uint64_t* x,
                                              std::int64_t n,
                                              const std::uint64_t* w,
                                              std::int64_t m, std::int64_t wpr,
                                              std::int32_t* out) {
  if (wpr < 4) {
    GemmScalar(x, n, w, m, wpr, out);
    return;
  }
  const __m256i all_ones = _mm256_set1_epi64x(-1);
  for (std::int64_t w0 = 0; w0 < wpr; w0 += kWordBlock) {
    const std::int64_t w1 = std::min(wpr, w0 + kWordBlock);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t* a = x + i * wpr;
      std::int32_t* out_row = out + i * m;
      for (std::int64_t j = 0; j < m; ++j) {
        const std::uint64_t* b = w + j * wpr;
        __m256i acc = _mm256_setzero_si256();
        std::int64_t k = w0;
        for (; k + 4 <= w1; k += 4) {
          const __m256i va =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
          const __m256i vb =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
          const __m256i xnor =
              _mm256_xor_si256(_mm256_xor_si256(va, vb), all_ones);
          acc = _mm256_add_epi64(acc, Popcount256(xnor));
        }
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
        std::int64_t count = static_cast<std::int64_t>(lanes[0] + lanes[1] +
                                                       lanes[2] + lanes[3]);
        for (; k < w1; ++k) count += std::popcount(~(a[k] ^ b[k]));
        out_row[j] += static_cast<std::int32_t>(count);
      }
    }
  }
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }

/// Four 16-lane compares per output word; the lane mask keeps the loads of
/// a short final word inside the arrays.
__attribute__((target("avx512f"))) void ThresholdBitsAvx512(
    const std::int32_t* pops, const std::int32_t* thresholds,
    std::int64_t count, std::uint64_t* dst) {
  for (std::int64_t base = 0; base < count; base += 64) {
    std::uint64_t bits = 0;
    for (std::int64_t k = base; k < std::min(count, base + 64); k += 16) {
      const std::int64_t left = count - k;
      const __mmask16 lanes =
          left >= 16 ? __mmask16{0xffff}
                     : static_cast<__mmask16>((1u << left) - 1);
      const __m512i p = _mm512_maskz_loadu_epi32(lanes, pops + k);
      const __m512i t = _mm512_maskz_loadu_epi32(lanes, thresholds + k);
      bits |= static_cast<std::uint64_t>(
                  _mm512_mask_cmpge_epi32_mask(lanes, p, t))
              << (k - base);
    }
    dst[base / 64] = bits;
  }
}

bool CpuHasAvx512() { return __builtin_cpu_supports("avx512f"); }

__attribute__((target("bmi2"))) std::uint64_t ExtractBitsBmi2(
    std::uint64_t value, std::uint64_t mask) {
  return _pext_u64(value, mask);
}

bool CpuHasBmi2() { return __builtin_cpu_supports("bmi2"); }

#else

bool CpuHasAvx2() { return false; }
bool CpuHasAvx512() { return false; }
bool CpuHasBmi2() { return false; }

#endif  // RRAMBNN_BITGEMM_X86

void ThresholdBitsScalar(const std::int32_t* pops,
                         const std::int32_t* thresholds, std::int64_t count,
                         std::uint64_t* dst) {
  for (std::int64_t base = 0; base < count; base += 64) {
    const std::int64_t len = std::min<std::int64_t>(64, count - base);
    std::uint64_t bits = 0;
    for (std::int64_t k = 0; k < len; ++k) {
      bits |= static_cast<std::uint64_t>(pops[base + k] >=
                                         thresholds[base + k])
              << k;
    }
    dst[base / 64] = bits;
  }
}

std::uint64_t ExtractBitsScalar(std::uint64_t value, std::uint64_t mask) {
  std::uint64_t out = 0;
  for (int k = 0; mask != 0; mask &= mask - 1, ++k) {
    out |= ((value >> std::countr_zero(mask)) & 1u) << k;
  }
  return out;
}

std::atomic<bool> g_force_scalar{false};

bool ForceScalar() { return g_force_scalar.load(std::memory_order_relaxed); }

GemmKernel ActiveKernel() {
#ifdef RRAMBNN_BITGEMM_X86
  static const bool has_avx2 = CpuHasAvx2();
  if (has_avx2 && !ForceScalar()) return GemmAvx2;
#endif
  return GemmScalar;
}

}  // namespace

void XnorPopcountGemm(const BitMatrix& x, const BitMatrix& w,
                      std::vector<std::int32_t>& out) {
  if (x.cols() != w.cols()) {
    throw std::invalid_argument("XnorPopcountGemm: column count mismatch (" +
                                std::to_string(x.cols()) + " vs " +
                                std::to_string(w.cols()) + ")");
  }
  const std::int64_t n = x.rows(), m = w.rows();
  out.resize(static_cast<std::size_t>(n * m));
  XnorPopcountGemm(x.words().data(), n, w.words().data(), m, x.cols(),
                   out.data());
}

void XnorPopcountGemm(const std::uint64_t* x, std::int64_t n,
                      const std::uint64_t* w, std::int64_t m,
                      std::int64_t cols, std::int32_t* out) {
  const std::int64_t wpr = (cols + 63) / 64;
  std::fill(out, out + n * m, static_cast<std::int32_t>(cols - wpr * 64));
  if (n == 0 || m == 0 || wpr == 0) return;
  ActiveKernel()(x, n, w, m, wpr, out);
}

void ThresholdBits(const std::int32_t* pops, const std::int32_t* thresholds,
                   std::int64_t count, std::uint64_t* dst) {
#ifdef RRAMBNN_BITGEMM_X86
  static const bool has_avx512 = CpuHasAvx512();
  if (has_avx512 && !ForceScalar()) {
    ThresholdBitsAvx512(pops, thresholds, count, dst);
    return;
  }
#endif
  ThresholdBitsScalar(pops, thresholds, count, dst);
}

std::uint64_t ExtractBits(std::uint64_t value, std::uint64_t mask) {
#ifdef RRAMBNN_BITGEMM_X86
  static const bool has_bmi2 = CpuHasBmi2();
  if (has_bmi2 && !ForceScalar()) return ExtractBitsBmi2(value, mask);
#endif
  return ExtractBitsScalar(value, mask);
}

const char* XnorGemmKernelName() {
  if (CpuHasAvx2() && !ForceScalar()) return "avx2";
  return "scalar";
}

bool SetXnorGemmForceScalar(bool force) {
  return g_force_scalar.exchange(force);
}

}  // namespace rrambnn::core
