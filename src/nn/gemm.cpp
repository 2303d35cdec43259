#include "nn/gemm.h"

namespace rrambnn::nn {

void GemmAccumulate(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransAAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[kk * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransBAccumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

}  // namespace rrambnn::nn
