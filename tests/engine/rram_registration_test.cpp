// The "rram" registration is a one-chip fleet of the sharded RRAM backend:
// on every device corner it must serve, report and heal exactly like
// "rram-sharded" deployed with rram_shards = 1. Programming noise is on in
// both corners, so agreement is not the trivial zero-error kind: the chips
// must draw identical device noise, and on the stochastic corner identical
// per-read sense offsets in the same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compile.h"
#include "engine/registry.h"
#include "health/adapter.h"
#include "health/health.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "tensor/rng.h"

namespace rrambnn::engine {
namespace {

// 150 inputs over 64-column macros leave padding cells in every row tile.
constexpr std::int64_t kIn = 150, kHidden = 40, kClasses = 4, kRows = 24;

/// Binarized dense classifier with random weights and fresh BN statistics:
/// a representative compiled program without a training loop.
core::BnnProgram RandomProgram(Rng& rng) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kIn, kHidden, rng, nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kHidden);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kHidden, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  return core::CompileProgram(net, 0);
}

core::BitMatrix RandomBatch(Rng& rng) {
  core::BitMatrix batch(kRows, kIn);
  for (std::int64_t r = 0; r < kRows; ++r) {
    for (std::int64_t c = 0; c < kIn; ++c) {
      batch.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return batch;
}

/// Aged devices (weak-programming probability ~0.1 at 3e8 cycles): the
/// fabric carries real programming errors. `sense_offset_sigma` picks the
/// corner: zero gives deterministic reads, > 0 a fresh offset per read.
arch::MapperConfig AgedCorner(double sense_offset_sigma) {
  arch::MapperConfig config;
  config.device.weak_prob_ref = 5e-3;
  config.device.sense_offset_sigma = sense_offset_sigma;
  config.pre_stress_cycles = 300000000;
  config.seed = 17;
  return config;
}

struct Deployed {
  std::unique_ptr<InferenceBackend> rram;
  std::unique_ptr<InferenceBackend> one_chip;
};

Deployed DeployBoth(const core::BnnProgram& program,
                    const arch::MapperConfig& mapper) {
  BackendSpec spec;
  spec.mapper = mapper;
  spec.rram_shards = 1;
  BackendSpec rram_spec = spec;
  rram_spec.rram_shards = 4;  // ignored: "rram" is always one chip
  return {MakeBackend("rram", program, rram_spec),
          MakeBackend("rram-sharded", program, spec)};
}

void ExpectSameCost(const arch::CostReport& a, const arch::CostReport& b) {
  EXPECT_EQ(a.read_energy_pj, b.read_energy_pj);
  EXPECT_EQ(a.program_energy_pj, b.program_energy_pj);
  EXPECT_EQ(a.area_mm2, b.area_mm2);
  EXPECT_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.sense_ops, b.sense_ops);
  EXPECT_EQ(a.program_ops, b.program_ops);
}

void ExpectSameEnergy(const InferenceBackend& a, const InferenceBackend& b) {
  const EnergyBreakdown ea = a.EnergyReport();
  const EnergyBreakdown eb = b.EnergyReport();
  EXPECT_TRUE(ea.available);
  EXPECT_EQ(ea.available, eb.available);
  ExpectSameCost(ea.programming, eb.programming);
  ExpectSameCost(ea.per_inference, eb.per_inference);
  EXPECT_EQ(ea.area_mm2, eb.area_mm2);
  EXPECT_EQ(ea.num_macros, eb.num_macros);
}

/// The whole batch, then one-row batches, in the same call order on both.
void ExpectSameScores(InferenceBackend& a, InferenceBackend& b,
                      const core::BitMatrix& batch) {
  EXPECT_EQ(a.ScoresBatch(batch), b.ScoresBatch(batch));
  for (std::int64_t i = 0; i < batch.rows(); ++i) {
    EXPECT_EQ(a.ScoresBatch(batch.RowSlice(i, i + 1)),
              b.ScoresBatch(batch.RowSlice(i, i + 1)))
        << "row " << i;
  }
}

void ExpectSamePlanes(const core::BnnProgram& a, const core::BnnProgram& b) {
  const auto ga = a.GemmStages(), gb = b.GemmStages();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(ga[i]->weights, gb[i]->weights) << "stage " << i;
    EXPECT_EQ(ga[i]->thresholds, gb[i]->thresholds) << "stage " << i;
    EXPECT_EQ(ga[i]->offset, gb[i]->offset) << "stage " << i;
  }
}

void ExpectSameCapabilities(InferenceBackend& a, InferenceBackend& b) {
  EXPECT_EQ(a.name(), "rram");
  EXPECT_EQ(a.input_size(), b.input_size());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.concurrent_readers(), b.concurrent_readers());
  ASSERT_NE(a.health_adapter(), nullptr);
  ASSERT_NE(b.health_adapter(), nullptr);
  EXPECT_EQ(a.health_adapter()->num_chips(), 1);
  EXPECT_EQ(b.health_adapter()->num_chips(), 1);
  EXPECT_EQ(a.health_adapter()->SupportsReadback(),
            b.health_adapter()->SupportsReadback());
}

TEST(RramRegistration, MatchesOneChipShardedOnNoisyDeterministicCorner) {
  Rng rng(3);
  const core::BnnProgram program = RandomProgram(rng);
  const core::BitMatrix batch = RandomBatch(rng);
  Deployed d = DeployBoth(program, AgedCorner(/*sense_offset_sigma=*/0.0));
  ExpectSameCapabilities(*d.rram, *d.one_chip);
  EXPECT_TRUE(d.rram->concurrent_readers());
  ExpectSameScores(*d.rram, *d.one_chip, batch);
  ExpectSameEnergy(*d.rram, *d.one_chip);

  health::BackendHealthAdapter& a = *d.rram->health_adapter();
  health::BackendHealthAdapter& b = *d.one_chip->health_adapter();
  ASSERT_TRUE(a.SupportsReadback());
  ExpectSamePlanes(a.ChipReadback(0), b.ChipReadback(0));
  EXPECT_GT(health::DiffBitErrors(program, a.ChipReadback(0)).error_bits, 0)
      << "the corner produced no programming errors; plane equality was "
         "trivial";

  // Drift, then a reseeded heal onto a physically new fabric: both must
  // land on the same generation-1 chip.
  a.InjectChipDrift(0, 0.05, 91);
  b.InjectChipDrift(0, 0.05, 91);
  ExpectSamePlanes(a.ChipReadback(0), b.ChipReadback(0));
  ExpectSameScores(*d.rram, *d.one_chip, batch);
  a.ReprogramChip(0, /*reseed=*/true);
  b.ReprogramChip(0, /*reseed=*/true);
  EXPECT_EQ(a.chip_generation(0), 1u);
  EXPECT_EQ(b.chip_generation(0), 1u);
  ExpectSamePlanes(a.ChipReadback(0), b.ChipReadback(0));
  ExpectSameScores(*d.rram, *d.one_chip, batch);
}

TEST(RramRegistration, MatchesOneChipShardedOnStochasticCorner) {
  Rng rng(4);
  const core::BnnProgram program = RandomProgram(rng);
  const core::BitMatrix batch = RandomBatch(rng);
  Deployed d = DeployBoth(program, AgedCorner(/*sense_offset_sigma=*/0.02));
  ExpectSameCapabilities(*d.rram, *d.one_chip);
  EXPECT_FALSE(d.rram->concurrent_readers());
  EXPECT_FALSE(d.rram->health_adapter()->SupportsReadback());
  ExpectSameScores(*d.rram, *d.one_chip, batch);
  ExpectSameEnergy(*d.rram, *d.one_chip);
}

}  // namespace
}  // namespace rrambnn::engine
