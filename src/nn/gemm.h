// Small GEMM kernels used by dense and (via im2col) convolutional layers.
// Plain single-threaded loops in ikj order over output rows; fast
// enough for the scaled experiment sizes this library trains on a CPU.
#pragma once

#include <cstdint>

namespace rrambnn::nn {

/// C[m,n] += A[m,k] * B[k,n]  (row-major, raw pointers; caller owns sizing).
void GemmAccumulate(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);

/// C[m,n] += A^T[k,m] * B[k,n] — A is stored [k,m].
void GemmTransAAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

/// C[m,n] += A[m,k] * B^T[n,k] — B is stored [n,k].
void GemmTransBAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace rrambnn::nn
