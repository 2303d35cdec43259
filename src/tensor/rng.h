// Deterministic random number generation.
//
// Every stochastic component in the library (weight init, dropout, device
// variability, synthetic data) draws from an explicitly passed Rng so that
// experiments are exactly reproducible from a seed. Rng is cheap to fork:
// Fork() derives an independent child stream, which lets parallel components
// stay deterministic regardless of call order.
#pragma once

#include <cstdint>
#include <random>

#include "tensor/tensor.h"

namespace rrambnn {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

  /// Derives an independent child generator; advances this generator once.
  Rng Fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ull); }

  /// Uniform float in [lo, hi).
  float Uniform(float lo = 0.0f, float hi = 1.0f) {
    return std::uniform_real_distribution<float>(lo, hi)(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n).
  std::int64_t UniformInt(std::int64_t n) {
    return std::uniform_int_distribution<std::int64_t>(0, n - 1)(engine_);
  }

  /// Gaussian with the given mean and standard deviation. One standard
  /// normal draw scaled and shifted, the formula std::normal_distribution
  /// applies itself (same values, same engine advance), so stddev = 0 is
  /// legal and returns the mean; the distribution type requires stddev > 0.
  float Normal(float mean = 0.0f, float stddev = 1.0f) {
    return std::normal_distribution<float>()(engine_) * stddev + mean;
  }

  double NormalDouble(double mean, double stddev) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  /// Log-normal: exp(N(log_mean, log_sigma)) — resistance distributions.
  double LogNormal(double log_mean, double log_sigma) {
    return std::exp(NormalDouble(log_mean, log_sigma));
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Fills a tensor with N(mean, stddev) samples.
  void FillNormal(Tensor& t, float mean = 0.0f, float stddev = 1.0f) {
    for (std::int64_t i = 0; i < t.size(); ++i) t[i] = Normal(mean, stddev);
  }

  /// Fills a tensor with U[lo, hi) samples.
  void FillUniform(Tensor& t, float lo, float hi) {
    for (std::int64_t i = 0; i < t.size(); ++i) t[i] = Uniform(lo, hi);
  }

  /// Fisher-Yates shuffle of an index vector.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1],
                v[static_cast<std::size_t>(UniformInt(
                    static_cast<std::int64_t>(i)))]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace rrambnn
