// Shared helpers of the drift and heal contract tests (tests/arch and
// tests/health): an aged device corner, random packed bits, a small conv
// program, and field-by-field comparisons of two fabrics' readback snapshots
// and device state.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "arch/bnn_mapper.h"
#include "tensor/rng.h"

namespace rrambnn::arch::testing {

/// An aged device corner with deterministic senses: devices cycled to 5e8
/// before programming, so some program weak and a few pairs (padding cells
/// included) read back wrong. Seed-derived fabric identity is then a
/// nontrivial property, and readback snapshots are available.
inline MapperConfig AgedDeterministicCorner() {
  MapperConfig config;
  config.device.sense_offset_sigma = 0.0;
  config.pre_stress_cycles = 500000000;  // 5e8 cycles: some weak devices
  config.seed = 77;
  return config;
}

inline core::BitMatrix RandomBits(std::int64_t rows, std::int64_t cols,
                                  Rng& rng) {
  core::BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      m.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  return m;
}

/// A padded 3x3 conv (6 units, per-pixel thresholds) over a 3x8x8 input, a
/// 2x2 OR-pool and a dense output over the 96 pooled bits. On 64x64 macros
/// the conv region is one tile with partial rows and columns, and the output
/// region ends in a partial column tile.
inline core::BnnProgram ConvProgram(Rng& rng) {
  core::BnnProgram program;
  program.SetInputShape({3, 8, 8});
  core::ProgramStage conv;
  core::PackedGemmStage& g = conv.gemm;
  g.lowering = core::GemmLowering::kConv;
  g.geom = {3, 8, 8, 3, 3, 1, 1, 1, 1};
  g.weights = RandomBits(6, g.geom.PatchSize(), rng);
  g.per_pixel_thresholds = true;
  for (std::int64_t k = 0; k < 6 * g.geom.NumPatches(); ++k) {
    g.thresholds.push_back(static_cast<std::int32_t>(10 + rng.UniformInt(8)));
  }
  conv.out_shape = {6, 8, 8};
  program.AddStage(std::move(conv));
  core::ProgramStage pool;
  pool.kind = core::StageKind::kPool;
  pool.pool.geom = {6, 8, 8, 2, 2, 2, 2, 0, 0};
  pool.out_shape = {6, 4, 4};
  program.AddStage(std::move(pool));
  core::ProgramStage reshape;
  reshape.kind = core::StageKind::kReshape;
  reshape.out_shape = {96, 1, 1};
  program.AddStage(std::move(reshape));
  std::vector<float> scale, offset;
  for (int k = 0; k < 3; ++k) {
    scale.push_back(rng.Normal(0.0f, 1.0f));
    offset.push_back(rng.Normal(0.0f, 0.5f));
  }
  program.AddStage(core::DenseOutputStage(RandomBits(3, 96, rng),
                                          std::move(scale), std::move(offset)));
  program.Validate();
  return program;
}

/// Equality of two readback snapshots' GEMM stages: the sensed weight
/// planes, and the thresholds / offsets that carry the padding-cell terms.
inline void ExpectSameSnapshot(const core::BnnProgram& a,
                               const core::BnnProgram& b) {
  const auto ga = a.GemmStages();
  const auto gb = b.GemmStages();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t l = 0; l < ga.size(); ++l) {
    EXPECT_TRUE(ga[l]->weights == gb[l]->weights) << "weights, stage " << l;
    EXPECT_EQ(ga[l]->thresholds, gb[l]->thresholds) << "stage " << l;
    EXPECT_EQ(ga[l]->offset, gb[l]->offset) << "stage " << l;
  }
}

/// Equality of every device of two fabrics of one program and geometry:
/// both log resistances, cycle counts and weak flags of every pair, the
/// stored weights, and each array's program counter.
inline void ExpectSameDevices(const MappedBnn& a, const MappedBnn& b,
                              const MapperConfig& config) {
  const auto gemms = a.program().GemmStages();
  std::int64_t mismatches = 0;
  for (std::size_t l = 0; l < gemms.size(); ++l) {
    const std::int64_t row_tiles =
        (gemms[l]->weights.rows() + config.macro_rows - 1) / config.macro_rows;
    const std::int64_t col_tiles =
        (gemms[l]->weights.cols() + config.macro_cols - 1) / config.macro_cols;
    for (std::int64_t rt = 0; rt < row_tiles; ++rt) {
      for (std::int64_t ct = 0; ct < col_tiles; ++ct) {
        const rram::RramArray& x = a.macro(l, rt, ct).array();
        const rram::RramArray& y = b.macro(l, rt, ct).array();
        EXPECT_EQ(x.program_ops(), y.program_ops())
            << "stage " << l << " tile (" << rt << ", " << ct << ")";
        for (std::int64_t r = 0; r < x.rows(); ++r) {
          for (std::int64_t c = 0; c < x.cols(); ++c) {
            const rram::Cell2T2R& p = x.cell(r, c);
            const rram::Cell2T2R& q = y.cell(r, c);
            const bool same =
                p.bl().log_resistance() == q.bl().log_resistance() &&
                p.blb().log_resistance() == q.blb().log_resistance() &&
                p.bl().cycles() == q.bl().cycles() &&
                p.blb().cycles() == q.blb().cycles() &&
                p.bl().last_program_weak() == q.bl().last_program_weak() &&
                p.blb().last_program_weak() == q.blb().last_program_weak() &&
                p.programmed_weight() == q.programmed_weight();
            if (!same) ++mismatches;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "cells whose device state differs";
}

}  // namespace rrambnn::arch::testing
