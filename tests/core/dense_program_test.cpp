// The pure-dense special case of core::BnnProgram: one dense GEMM stage per
// classifier layer, built from DenseHiddenStage / DenseOutputStage, plus
// the row-wise argmax every execution path decides with.
#include "core/bnn_program.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rrambnn::core {
namespace {

ProgramStage MakeHidden(std::int64_t out, std::int64_t in,
                        std::int32_t threshold) {
  return DenseHiddenStage(
      BitMatrix(out, in),
      std::vector<std::int32_t>(static_cast<std::size_t>(out), threshold));
}

ProgramStage MakeOutput(std::int64_t classes, std::int64_t in) {
  return DenseOutputStage(
      BitMatrix(classes, in),
      std::vector<float>(static_cast<std::size_t>(classes), 1.0f),
      std::vector<float>(static_cast<std::size_t>(classes), 0.0f));
}

/// `hidden` then `output`, entered by `in` bits.
BnnProgram MakeProgram(std::int64_t in, ProgramStage hidden,
                       ProgramStage output) {
  BnnProgram program;
  program.SetInputShape({in, 1, 1});
  program.AddStage(std::move(hidden));
  program.AddStage(std::move(output));
  return program;
}

TEST(DenseProgram, ThresholdSemantics) {
  // Hidden weights all -1 (default matrix). Input all -1 -> popcount = in
  // (all match). Threshold decides the output: unit 0 fires (8 >= 8), unit
  // 1 does not (8 < 9). The output rows read the two hidden bits back:
  // row 0 = [+1, -1] scores +2 only for h = [+1, -1], row 1 = [-1, -1]
  // scores 0 for any mixed h.
  ProgramStage hidden = MakeHidden(2, 8, 8);
  hidden.gemm.thresholds[1] = 9;
  ProgramStage output = MakeOutput(2, 2);
  output.gemm.weights.Set(0, 0, +1);
  const BnnProgram program =
      MakeProgram(8, std::move(hidden), std::move(output));
  program.Validate();
  const std::vector<float> s = program.Scores(BitVector(8));
  EXPECT_FLOAT_EQ(s[0], 2.0f);
  EXPECT_FLOAT_EQ(s[1], 0.0f);
}

TEST(DenseProgram, AffineScores) {
  BnnProgram program;
  program.SetInputShape({4, 1, 1});
  ProgramStage out = MakeOutput(2, 4);
  out.gemm.scale = {0.5f, -1.0f};
  out.gemm.offset = {1.0f, 2.0f};
  program.AddStage(std::move(out));
  program.Validate();
  // weights default -1; input all -1 -> dot = +4 for each row.
  const std::vector<float> s = program.Scores(BitVector(4));
  EXPECT_FLOAT_EQ(s[0], 0.5f * 4 + 1.0f);
  EXPECT_FLOAT_EQ(s[1], -1.0f * 4 + 2.0f);
}

TEST(DenseProgram, ValidateCatchesChainingErrors) {
  // 5 != 4: broken chain.
  const BnnProgram program = MakeProgram(8, MakeHidden(4, 8, 2),
                                         MakeOutput(2, 5));
  EXPECT_THROW(program.Validate(), std::invalid_argument);
}

TEST(DenseProgram, ValidateCatchesThresholdRange) {
  ProgramStage bad = MakeHidden(2, 8, 2);
  bad.gemm.thresholds[0] = 42;  // > in + 1
  EXPECT_THROW(MakeProgram(8, std::move(bad), MakeOutput(2, 2)).Validate(),
               std::invalid_argument);
  ProgramStage negative = MakeHidden(2, 8, 2);
  negative.gemm.thresholds[1] = -1;
  EXPECT_THROW(
      MakeProgram(8, std::move(negative), MakeOutput(2, 2)).Validate(),
      std::invalid_argument);
  // Both ends of [0, in + 1] are legal: a constant-on and a constant-off
  // unit, the values BN folding clamps to.
  ProgramStage edges = MakeHidden(2, 8, 0);
  edges.gemm.thresholds[1] = 9;
  EXPECT_NO_THROW(
      MakeProgram(8, std::move(edges), MakeOutput(2, 2)).Validate());
}

TEST(DenseProgram, PredictBatchShapesAndDeterminism) {
  const BnnProgram program =
      MakeProgram(4, MakeHidden(6, 4, 2), MakeOutput(3, 6));
  program.Validate();
  Tensor features({5, 4});
  for (std::int64_t i = 0; i < features.size(); ++i) {
    features[i] = (i % 3 == 0) ? 1.0f : -1.0f;
  }
  const auto p1 = program.PredictBatch(features);
  const auto p2 = program.PredictBatch(features);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 5u);
  for (const auto c : p1) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
  EXPECT_THROW(program.PredictBatch(Tensor({2, 9})), std::invalid_argument);
}

TEST(DenseProgram, TotalWeightBits) {
  const BnnProgram program = MakeProgram(2520, MakeHidden(80, 2520, 0),
                                         MakeOutput(2, 80));  // EEG FC-80, FC-2
  EXPECT_EQ(program.TotalWeightBits(), 80 * 2520 + 2 * 80);
  EXPECT_TRUE(program.IsPureDense());
}

TEST(DenseProgram, ConstructionValidation) {
  EXPECT_THROW(BnnProgram().Validate(), std::invalid_argument);
  ProgramStage mismatched = MakeHidden(2, 4, 0);
  mismatched.gemm.thresholds.pop_back();
  EXPECT_THROW(
      MakeProgram(4, std::move(mismatched), MakeOutput(2, 2)).Validate(),
      std::invalid_argument);
}

TEST(ArgmaxRows, FirstMaximumWinsPerRow) {
  const std::vector<float> scores{1.0f, 3.0f, 3.0f,   //
                                  -2.0f, -5.0f, -2.0f};
  EXPECT_EQ(ArgmaxRows(scores, 2, 3), (std::vector<std::int64_t>{1, 0}));
  EXPECT_THROW(ArgmaxRows(scores, 3, 3), std::invalid_argument);
}

}  // namespace
}  // namespace rrambnn::core
