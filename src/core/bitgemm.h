// Packed bit-plane GEMM: the batched XNOR-popcount kernel of Eq. (3), plus
// the word-level binarizing epilogue the packed program's stages share.
//
// For an activation batch X [N, L] and a weight matrix W [M, L], both packed
// as BitMatrix (bit 1 = +1), computes the popcount matrix
//     P[i][j] = popcount(XNOR(X.row(i), W.row(j)))
// over the logical L columns — one fused pass instead of N*M row kernels.
// Word-level cache blocking keeps the streamed operand resident in L1; the
// scalar kernel runs a 4x-unrolled std::popcount inner loop; on x86-64 a
// runtime dispatcher upgrades to an AVX2 kernel (256-bit XNOR + nibble-LUT
// popcount). Both kernels produce identical integers — the AVX2 path is an
// implementation detail, never a semantic one. The same holds for the
// epilogue kernels below (AVX-512 compare-to-mask, BMI2 bit extract).
//
// Padding discipline: BitMatrix keeps all padding bits of the final word
// zero, so XNOR sets exactly (words*64 - L) spurious ones per row pair; the
// kernels count full words and the wrapper subtracts that constant, which
// keeps tail masking out of the inner loop.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bitops.h"

namespace rrambnn::core {

/// out[i * w.rows() + j] = popcount(XNOR(x.row(i), w.row(j))).
/// Requires x.cols() == w.cols(); `out` is resized to x.rows() * w.rows().
void XnorPopcountGemm(const BitMatrix& x, const BitMatrix& w,
                      std::vector<std::int32_t>& out);

/// The same over raw packed rows: `x` holds n rows and `w` m rows of `cols`
/// logical bits, each ceil(cols / 64) words with zero padding bits;
/// out[i * m + j] is overwritten for all n * m pairs.
void XnorPopcountGemm(const std::uint64_t* x, std::int64_t n,
                      const std::uint64_t* w, std::int64_t m,
                      std::int64_t cols, std::int32_t* out);

/// Binarizing epilogue, 64 outputs per store: bit k of `dst` is
/// pops[k] >= thresholds[k] for k in [0, count). Writes all
/// ceil(count / 64) words of `dst`; bits past `count` are zero.
void ThresholdBits(const std::int32_t* pops, const std::int32_t* thresholds,
                   std::int64_t count, std::uint64_t* dst);

/// Parallel bit extract (BMI2 `pext`): the bits of `value` at the set
/// positions of `mask`, packed into the low bits in order.
std::uint64_t ExtractBits(std::uint64_t value, std::uint64_t mask);

/// Name of the kernel the runtime dispatcher selected ("avx2" or "scalar").
const char* XnorGemmKernelName();

/// Forces the scalar kernels — the GEMM and both epilogue kernels above —
/// regardless of CPU support (tests/benchmarks compare the two). Returns
/// the previous setting.
bool SetXnorGemmForceScalar(bool force);

}  // namespace rrambnn::core
