#include "tensor/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "tensor/stats.h"

namespace rrambnn {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The fork must not replay the parent's stream.
  Rng parent2(7);
  (void)parent2.Fork();
  EXPECT_EQ(parent.Uniform(), parent2.Uniform());
  int same = 0;
  Rng child_replay(7);
  for (int i = 0; i < 50; ++i) {
    if (child.Uniform() == child_replay.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.Uniform(-2.0f, 5.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 5.0f);
  }
}

TEST(Rng, UniformIntRange) {
  Rng rng(3);
  bool saw_zero = false, saw_max = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    saw_zero |= (v == 0);
    saw_max |= (v == 6);
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.NormalDouble(3.0, 2.0);
  EXPECT_NEAR(Mean(xs), 3.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.1);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(13);
  std::vector<double> xs(20001);
  for (auto& x : xs) x = rng.LogNormal(std::log(1000.0), 0.5);
  EXPECT_NEAR(Percentile(xs, 50.0), 1000.0, 50.0);
}

TEST(Rng, ZeroSigmaNormalReturnsMeanAndAdvancesLikeUnitSigma) {
  Rng zero(31), unit(31);
  for (int i = 0; i < 200; ++i) {
    const float m = 0.25f * static_cast<float>(i % 9) - 1.0f;
    EXPECT_EQ(zero.Normal(m, 0.0f), m);
    (void)unit.Normal(m, 1.0f);
    EXPECT_EQ(zero.NormalDouble(-2.5, 0.0), -2.5);
    (void)unit.NormalDouble(-2.5, 1.0);
    EXPECT_EQ(zero.LogNormal(0.5, 0.0), std::exp(0.5));
    (void)unit.LogNormal(0.5, 1.0);
  }
  // Both generators consumed the same engine draws.
  EXPECT_EQ(zero.engine()(), unit.engine()());
}

TEST(Rng, NormalMatchesStdNormalDistribution) {
  // Each Rng call is one fresh std::normal_distribution draw of the caller's
  // (mean, stddev), value for value.
  Rng rng(37);
  std::mt19937_64 twin(37);
  for (int i = 0; i < 20000; ++i) {
    const float m = 0.5f * static_cast<float>(i % 7) - 1.5f;
    const float s = 0.1f + 0.3f * static_cast<float>(i % 5);
    ASSERT_EQ(rng.Normal(m, s), std::normal_distribution<float>(m, s)(twin))
        << "float draw " << i;
    const double md = 1e-3 * static_cast<double>(i % 11) - 4.0;
    const double sd = 0.05 + 0.7 * static_cast<double>(i % 3);
    ASSERT_EQ(rng.NormalDouble(md, sd),
              std::normal_distribution<double>(md, sd)(twin))
        << "double draw " << i;
    ASSERT_EQ(rng.LogNormal(md, sd),
              std::exp(std::normal_distribution<double>(md, sd)(twin)))
        << "log-normal draw " << i;
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, FillNormalShapePreserved) {
  Rng rng(23);
  Tensor t({50, 50});
  rng.FillNormal(t, 0.0f, 1.0f);
  double mean = t.Sum() / static_cast<double>(t.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
}

}  // namespace
}  // namespace rrambnn
