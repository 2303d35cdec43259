// Bit-exact equivalence of the packed program's two execution paths on
// random programs: every float score of the batched, word-level
// ScoresBatch must equal, bit for bit, the per-row ScoresWith path — an
// independent implementation (per-pixel patch gather, per-bit pooling and
// thresholds). Compared through the program's own weights and through an
// arch::MappedBnn whose weak devices leave nonzero padding-cell popcount
// biases, with the packed kernels both forced scalar and dispatched
// (AVX2 GEMM, AVX-512 thresholds and BMI2 bit extract where the CPU has
// them).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/bnn_mapper.h"
#include "core/bitgemm.h"
#include "core/bnn_program.h"
#include "tensor/rng.h"

namespace rrambnn::core {
namespace {

enum class Kind { kConv, kDepthwise, kPool, kDense };

struct StageSpec {
  Kind kind;
  std::int64_t units = 0;  // conv / dense only
  std::int64_t kh = 1, kw = 1;
  std::int64_t sh = 1, sw = 1;
  std::int64_t ph = 0, pw = 0;
  bool per_pixel = false;
};

struct ProgramSpec {
  const char* name;
  StageShape input;
  std::vector<StageSpec> stages;
};

BitMatrix RandomBits(std::int64_t rows, std::int64_t cols, Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

/// A threshold near the popcount median of a `cols`-bit row, so activations
/// come out mixed; stays within Validate's [0, cols + 1].
std::int32_t RandomThreshold(std::int64_t cols, Rng& rng) {
  const std::int64_t r = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::sqrt(static_cast<double>(cols))));
  const std::int64_t t = cols / 2 + rng.UniformInt(2 * r + 1) - r;
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(t, 0, cols + 1));
}

void Flatten(BnnProgram& program, StageShape& shape) {
  if (shape.h == 1 && shape.w == 1) return;
  ProgramStage reshape;
  reshape.kind = StageKind::kReshape;
  shape = {shape.bits(), 1, 1};
  reshape.out_shape = shape;
  program.AddStage(std::move(reshape));
}

BnnProgram RandomProgram(const ProgramSpec& spec, std::int64_t classes,
                         Rng& rng) {
  BnnProgram program;
  program.SetInputShape(spec.input);
  StageShape shape = spec.input;
  for (const StageSpec& s : spec.stages) {
    ProgramStage stage;
    const StageGeometry geom{shape.c, shape.h, shape.w, s.kh, s.kw,
                             s.sh,    s.sw,    s.ph,    s.pw};
    switch (s.kind) {
      case Kind::kPool:
        stage.kind = StageKind::kPool;
        stage.pool.geom = geom;
        shape = {shape.c, geom.OutH(), geom.OutW()};
        stage.out_shape = shape;
        program.AddStage(std::move(stage));
        continue;
      case Kind::kDense: {
        Flatten(program, shape);
        std::vector<std::int32_t> thresholds;
        for (std::int64_t u = 0; u < s.units; ++u) {
          thresholds.push_back(RandomThreshold(shape.bits(), rng));
        }
        program.AddStage(DenseHiddenStage(
            RandomBits(s.units, shape.bits(), rng), std::move(thresholds)));
        shape = {s.units, 1, 1};
        continue;
      }
      case Kind::kConv:
      case Kind::kDepthwise:
        break;
    }
    PackedGemmStage& g = stage.gemm;
    const bool conv = s.kind == Kind::kConv;
    g.lowering = conv ? GemmLowering::kConv : GemmLowering::kDepthwise;
    g.geom = geom;
    const std::int64_t units = conv ? s.units : shape.c;
    const std::int64_t cols =
        conv ? geom.PatchSize() : geom.ChannelPatchSize();
    g.weights = RandomBits(units, cols, rng);
    g.per_pixel_thresholds = s.per_pixel;
    const std::int64_t count = s.per_pixel ? units * geom.NumPatches() : units;
    for (std::int64_t k = 0; k < count; ++k) {
      g.thresholds.push_back(RandomThreshold(cols, rng));
    }
    shape = {units, geom.OutH(), geom.OutW()};
    stage.out_shape = shape;
    program.AddStage(std::move(stage));
  }
  Flatten(program, shape);
  std::vector<float> scale, offset;
  for (std::int64_t k = 0; k < classes; ++k) {
    scale.push_back(rng.Normal(0.0f, 1.0f));
    offset.push_back(rng.Normal(0.0f, 0.5f));
  }
  program.AddStage(DenseOutputStage(RandomBits(classes, shape.bits(), rng),
                                    std::move(scale), std::move(offset)));
  program.Validate();
  return program;
}

/// Odd widths, padding 0/1/2, strides 1/2, per-pixel and per-unit
/// thresholds, rows wider than a word, and depthwise patches past 64 bits.
std::vector<ProgramSpec> Specs() {
  return {
      {"conv-pool-dw-dense",
       {3, 7, 9},
       {{Kind::kConv, 5, 3, 3, 1, 1, 1, 1, true},
        {Kind::kPool, 0, 2, 2, 2, 2},
        {Kind::kDepthwise, 0, 3, 3, 1, 1, 2, 2, true},
        {Kind::kDense, 13}}},
      {"strided-unpadded",
       {2, 11, 13},
       {{Kind::kConv, 7, 2, 3, 2, 2, 0, 0, false},
        {Kind::kDepthwise, 0, 3, 3, 2, 2, 1, 1, true},
        {Kind::kPool, 0, 3, 3, 1, 1}}},
      {"wide-rows",
       {2, 5, 70},
       {{Kind::kConv, 3, 3, 5, 1, 2, 1, 2, true},
        {Kind::kPool, 0, 1, 3, 1, 2},
        {Kind::kDepthwise, 0, 2, 3, 1, 1, 0, 1, false},
        {Kind::kPool, 0, 2, 2, 1, 1}}},
      {"large-depthwise-patch",
       {4, 10, 11},
       {{Kind::kDepthwise, 0, 9, 9, 1, 1, 2, 1, true},
        {Kind::kConv, 6, 1, 1, 1, 1, 0, 0, false},
        {Kind::kDense, 65},
        {Kind::kDense, 9}}},
      {"full-width-pool",
       {3, 4, 66},
       {{Kind::kPool, 0, 2, 64, 1, 2},
        {Kind::kConv, 4, 1, 2, 1, 1, 0, 0, true}}},
  };
}

constexpr std::int64_t kRowCounts[] = {1, 63, 64, 65, 130};
constexpr std::int64_t kMaxRows = 130;

/// Expects every float of `batch` (row-major [rows, classes]) to equal the
/// per-row oracle scores bit for bit.
void ExpectBitIdentical(const std::vector<float>& batch,
                        const std::vector<std::vector<float>>& oracle,
                        std::int64_t rows, const std::string& what) {
  ASSERT_GE(oracle.size(), static_cast<std::size_t>(rows));
  const std::size_t classes = oracle.front().size();
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(rows) * classes) << what;
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < classes; ++k) {
      const float got = batch[static_cast<std::size_t>(i) * classes + k];
      const float want = oracle[static_cast<std::size_t>(i)][k];
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                std::bit_cast<std::uint32_t>(want))
          << what << ": row " << i << " class " << k << " (" << got
          << " vs " << want << ")";
    }
  }
}

/// Runs `batch_scores` on the first N rows for every row count, with the
/// packed kernels forced scalar and dispatched.
template <typename BatchScores>
void CompareAllModes(const BitMatrix& input,
                     const std::vector<std::vector<float>>& oracle,
                     const std::string& what, BatchScores batch_scores) {
  for (const bool force_scalar : {true, false}) {
    const bool prev = SetXnorGemmForceScalar(force_scalar);
    for (const std::int64_t rows : kRowCounts) {
      ExpectBitIdentical(batch_scores(input.RowSlice(0, rows)), oracle, rows,
                         what + (force_scalar ? " scalar" : " dispatched") +
                             " rows=" + std::to_string(rows));
    }
    SetXnorGemmForceScalar(prev);
  }
}

TEST(StageEquivalence, ScoresBatchMatchesPerRowPathOnRandomPrograms) {
  Rng rng(2024);
  for (const ProgramSpec& spec : Specs()) {
    const BnnProgram program = RandomProgram(spec, 5, rng);
    const BitMatrix input = RandomBits(kMaxRows, program.input_size(), rng);
    std::vector<std::vector<float>> oracle;
    for (std::int64_t i = 0; i < kMaxRows; ++i) {
      oracle.push_back(program.Scores(input.Row(i)));
    }
    CompareAllModes(input, oracle, spec.name, [&](const BitMatrix& batch) {
      return program.ScoresBatch(batch);
    });
  }
}

TEST(StageEquivalence, MappedSubstrateWithPadBiasesMatchesFabricOracle) {
  arch::MapperConfig config;
  // Small macros leave padding cells in most tiles; weak programming on a
  // cycled chip makes some of them read back wrong, and deterministic
  // senses let the batch path serve from readback planes.
  config.macro_rows = 8;
  config.macro_cols = 24;
  config.device.sense_offset_sigma = 0.0;
  config.device.weak_prob_ref = 0.05;
  config.pre_stress_cycles = 100'000'000;
  config.seed = 77;
  Rng rng(99);
  std::int64_t biased_units = 0;
  for (const ProgramSpec& spec : Specs()) {
    const BnnProgram program = RandomProgram(spec, 4, rng);
    arch::MappedBnn mapped(program, config);
    ASSERT_TRUE(mapped.DeterministicReads());
    // Padding errors fold into the snapshot's thresholds and offsets.
    const std::vector<const PackedGemmStage*> intended = program.GemmStages();
    const std::vector<const PackedGemmStage*> sensed =
        mapped.ReadbackSnapshot().GemmStages();
    for (std::size_t s = 0; s < intended.size(); ++s) {
      for (std::size_t k = 0; k < intended[s]->thresholds.size(); ++k) {
        biased_units += intended[s]->thresholds[k] != sensed[s]->thresholds[k];
      }
      for (std::size_t k = 0; k < intended[s]->offset.size(); ++k) {
        biased_units += intended[s]->offset[k] != sensed[s]->offset[k];
      }
    }
    const BitMatrix input = RandomBits(kMaxRows, program.input_size(), rng);
    std::vector<std::vector<float>> oracle;
    for (std::int64_t i = 0; i < kMaxRows; ++i) {
      oracle.push_back(mapped.Scores(input.Row(i)));
    }
    CompareAllModes(input, oracle, std::string("mapped ") + spec.name,
                    [&](const BitMatrix& batch) {
                      return mapped.ScoresBatch(batch);
                    });
  }
  EXPECT_GT(biased_units, 0) << "no padding cell read back wrong: the "
                                "substrate path ran without biases";
}

}  // namespace
}  // namespace rrambnn::core
