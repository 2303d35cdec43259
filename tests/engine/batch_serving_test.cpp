// Batched serving contract of the engine: at zero device noise, row i of an
// N-row ScoresBatch equals a one-row ScoresBatch of row i and the compiled
// program's per-row Scores for every registered backend; a stochastic
// one-chip fabric draws an N-row batch exactly like N one-row batches; and
// sharded-RRAM serving is deterministic and shard-count invariant under
// fixed seeds.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/bitgemm.h"
#include "engine/engine.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace rrambnn::engine {
namespace {

constexpr std::int64_t kIn = 70, kHidden = 24, kClasses = 3;

rram::DeviceParams IdealDevice() {
  rram::DeviceParams p;
  p.sense_offset_sigma = 0.0;
  p.weak_prob_ref = 0.0;
  return p;
}

/// Small trained binarized classifier (canonical compile grammar) with a
/// ragged input width so packed rows have tail words.
nn::Sequential WarmClassifier(Rng& rng) {
  nn::Sequential net;
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kIn, kHidden, rng, nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kHidden);
  net.Emplace<nn::SignSte>();
  net.Emplace<nn::Dense>(kHidden, kClasses, rng,
                         nn::DenseOptions{.binary = true});
  net.Emplace<nn::BatchNorm>(kClasses);
  nn::SoftmaxCrossEntropy loss;
  nn::Adam opt(net.Params(), 1e-2f);
  for (int step = 0; step < 25; ++step) {
    Tensor x({16, kIn});
    rng.FillNormal(x, 0.0f, 1.0f);
    std::vector<std::int64_t> y;
    for (int i = 0; i < 16; ++i) {
      y.push_back(x[static_cast<std::int64_t>(i) * kIn] > 0 ? 1 : 0);
    }
    opt.ZeroGrad();
    (void)loss.Forward(net.Forward(x, true), y);
    net.Backward(loss.Backward());
    opt.Step();
  }
  return net;
}

class BatchServing : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(29);
    EngineConfig cfg;
    cfg.WithDevice(IdealDevice());
    engine_ = new Engine(
        Engine::FromTrained(cfg, WarmClassifier(rng), /*classifier_start=*/0));
    (void)engine_->Compile();
    features_ = new Tensor({kRows, kIn});
    rng.FillNormal(*features_, 0.0f, 1.0f);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete features_;
    engine_ = nullptr;
    features_ = nullptr;
  }

  static core::BitMatrix Packed() {
    return core::BitMatrix::FromSignRows(
        std::span<const float>(features_->data(),
                               static_cast<std::size_t>(kRows * kIn)),
        kRows, kIn);
  }

  static constexpr std::int64_t kRows = 37;
  static Engine* engine_;
  static Tensor* features_;
};

Engine* BatchServing::engine_ = nullptr;
Tensor* BatchServing::features_ = nullptr;

TEST_F(BatchServing, OneRowBatchesMatchNRowBatchOnEveryRegisteredBackend) {
  BackendSpec spec = engine_->config().backend;
  spec.fault_ber = 0.0;
  spec.rram_shards = 3;
  const core::BnnProgram& program = engine_->compiled_program();
  const core::BitMatrix packed = Packed();
  for (const std::string& name : BackendRegistry::Instance().Names()) {
    auto batch_backend = MakeBackend(name, program, spec);
    auto row_backend = MakeBackend(name, program, spec);  // same-spec twin
    const std::vector<float> batch_scores = batch_backend->ScoresBatch(packed);
    ASSERT_EQ(batch_scores.size(),
              static_cast<std::size_t>(kRows * kClasses))
        << name;
    const std::vector<std::int64_t> preds =
        batch_backend->PredictPacked(packed);
    for (std::int64_t i = 0; i < kRows; ++i) {
      const std::vector<float> batch_row(
          batch_scores.begin() + i * kClasses,
          batch_scores.begin() + (i + 1) * kClasses);
      const std::vector<float> one_row =
          row_backend->ScoresBatch(packed.RowSlice(i, i + 1));
      EXPECT_EQ(batch_row, one_row) << name << " row " << i;
      EXPECT_EQ(batch_row, program.Scores(packed.Row(i)))
          << name << " row " << i;
      EXPECT_EQ(preds[static_cast<std::size_t>(i)],
                core::ArgmaxRows(one_row, 1, kClasses)[0])
          << name << " row " << i;
    }
  }
}

TEST_F(BatchServing, StochasticRramBatchDrawsLikeOneRowBatches) {
  // Noisy senses: every read draws a fresh PCSA offset, so equality below
  // holds only if an N-row batch consumes the fabric's draws in the same
  // order as N one-row batches.
  BackendSpec spec = engine_->config().backend;
  spec.mapper.device.sense_offset_sigma = 1.0;
  const core::BnnProgram& program = engine_->compiled_program();
  const core::BitMatrix packed = Packed();
  auto batch_backend = MakeBackend("rram", program, spec);
  auto row_backend = MakeBackend("rram", program, spec);  // same-seed twin
  ASSERT_FALSE(batch_backend->concurrent_readers());
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<float> batch_scores = batch_backend->ScoresBatch(packed);
    std::vector<float> row_scores;
    for (std::int64_t i = 0; i < kRows; ++i) {
      const std::vector<float> one =
          row_backend->ScoresBatch(packed.RowSlice(i, i + 1));
      row_scores.insert(row_scores.end(), one.begin(), one.end());
    }
    EXPECT_EQ(batch_scores, row_scores) << "pass " << pass;
    // The corner is really noisy: the fabric disagrees with exact software.
    EXPECT_NE(batch_scores, program.ScoresBatch(packed)) << "pass " << pass;
  }
}

TEST_F(BatchServing, ShardedRramInvariantToShardCountAtZeroNoise) {
  BackendSpec spec = engine_->config().backend;
  const core::BitMatrix packed = Packed();
  auto reference = MakeBackend("reference", engine_->compiled_program(), spec);
  const std::vector<std::int64_t> expected = reference->PredictPacked(packed);
  for (const int shards : {1, 2, 8}) {
    spec.rram_shards = shards;
    auto sharded =
        MakeBackend("rram-sharded", engine_->compiled_program(), spec);
    EXPECT_EQ(sharded->PredictPacked(packed), expected)
        << shards << " shard(s)";
    // Deterministic under a fixed seed: a second identical deployment
    // produces the same scores.
    auto again = MakeBackend("rram-sharded", engine_->compiled_program(), spec);
    EXPECT_EQ(again->ScoresBatch(packed), sharded->ScoresBatch(packed))
        << shards << " shard(s)";
  }
}

TEST_F(BatchServing, ShardedEnergyReportAggregatesAcrossChips) {
  BackendSpec spec = engine_->config().backend;
  spec.rram_shards = 1;
  auto one = MakeBackend("rram-sharded", engine_->compiled_program(), spec);
  spec.rram_shards = 4;
  auto four = MakeBackend("rram-sharded", engine_->compiled_program(), spec);
  const EnergyBreakdown e1 = one->EnergyReport();
  const EnergyBreakdown e4 = four->EnergyReport();
  EXPECT_TRUE(e4.available);
  EXPECT_EQ(e4.num_macros, 4 * e1.num_macros);
  EXPECT_DOUBLE_EQ(e4.area_mm2, 4.0 * e1.area_mm2);
  EXPECT_EQ(e4.programming.program_ops, 4 * e1.programming.program_ops);
  // Per-row inference runs on exactly one chip.
  EXPECT_DOUBLE_EQ(e4.per_inference.read_energy_pj,
                   e1.per_inference.read_energy_pj);
}

TEST_F(BatchServing, ScalarKernelServesIdenticalScores) {
  // The whole serving stack is kernel-agnostic: forcing the scalar GEMM
  // changes nothing observable.
  BackendSpec spec = engine_->config().backend;
  const core::BitMatrix packed = Packed();
  auto backend = MakeBackend("reference", engine_->compiled_program(), spec);
  const std::vector<float> fast = backend->ScoresBatch(packed);
  const bool prev = core::SetXnorGemmForceScalar(true);
  const std::vector<float> scalar = backend->ScoresBatch(packed);
  core::SetXnorGemmForceScalar(prev);
  EXPECT_EQ(fast, scalar);
}

}  // namespace
}  // namespace rrambnn::engine
