// The hardware-mapped engine must be bit-exact against the software
// BnnProgram at zero device error, across tiling geometries; drift must keep
// its readback planes equal to a full re-read, and undoing drift must leave a
// freshly programmed fabric.
#include "arch/bnn_mapper.h"

#include <gtest/gtest.h>

#include "arch/xnor_macro.h"
#include "fabric_test_util.h"
#include "tensor/rng.h"

namespace rrambnn::arch {
namespace {

rram::DeviceParams IdealDevice() {
  rram::DeviceParams p;
  p.sense_offset_sigma = 0.0;
  p.weak_prob_ref = 0.0;
  return p;
}

core::BnnProgram RandomProgram(std::int64_t in, std::int64_t hidden,
                               std::int64_t classes, Rng& rng) {
  core::BitMatrix h(hidden, in);
  for (std::int64_t r = 0; r < hidden; ++r) {
    for (std::int64_t c = 0; c < in; ++c) {
      h.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  std::vector<std::int32_t> thresholds(static_cast<std::size_t>(hidden));
  for (auto& t : thresholds) {
    t = static_cast<std::int32_t>(in / 2 + rng.UniformInt(9) - 4);
  }
  core::BitMatrix out(classes, hidden);
  for (std::int64_t r = 0; r < classes; ++r) {
    for (std::int64_t c = 0; c < hidden; ++c) {
      out.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  std::vector<float> scale(static_cast<std::size_t>(classes), 1.0f);
  std::vector<float> offset(static_cast<std::size_t>(classes));
  for (auto& o : offset) o = rng.Normal(0.0f, 0.3f);
  core::BnnProgram program;
  program.SetInputShape({in, 1, 1});
  program.AddStage(core::DenseHiddenStage(std::move(h), std::move(thresholds)));
  program.AddStage(core::DenseOutputStage(std::move(out), std::move(scale),
                                          std::move(offset)));
  program.Validate();
  return program;
}

TEST(XnorMacro, PaddingContributesNothing) {
  XnorMacro macro(4, 64, IdealDevice(), 1);
  const std::vector<int> w{+1, -1, +1};
  macro.ProgramRow(0, w);
  const std::vector<int> x{+1, -1, -1};
  // Matches: +1*+1 agree, -1*-1 agree, +1 vs -1 disagree -> popcount 2.
  EXPECT_EQ(macro.RowXnorPopcount(0, x), 2);
  EXPECT_EQ(macro.used_synapses(), 3);
  EXPECT_THROW(macro.ProgramRow(0, std::vector<int>(65, 1)),
               std::invalid_argument);
}

struct TileGeometry {
  std::int64_t rows;
  std::int64_t cols;
};

class MapperTiling : public ::testing::TestWithParam<TileGeometry> {};

TEST_P(MapperTiling, BitExactAtZeroError) {
  Rng rng(42);
  const core::BnnProgram program = RandomProgram(150, 70, 4, rng);
  MapperConfig cfg;
  cfg.macro_rows = GetParam().rows;
  cfg.macro_cols = GetParam().cols;
  cfg.device = IdealDevice();
  MappedBnn mapped(program, cfg);
  for (int trial = 0; trial < 30; ++trial) {
    core::BitVector x(150);
    for (std::int64_t i = 0; i < 150; ++i) {
      x.Set(i, rng.Bernoulli(0.5) ? +1 : -1);
    }
    const auto sw = program.Scores(x);
    const auto hw = mapped.Scores(x);
    ASSERT_EQ(sw.size(), hw.size());
    for (std::size_t k = 0; k < sw.size(); ++k) {
      EXPECT_FLOAT_EQ(sw[k], hw[k]) << "tile " << GetParam().rows << "x"
                                    << GetParam().cols << " trial " << trial;
    }
    EXPECT_EQ(core::ArgmaxRows(sw, 1, 4), core::ArgmaxRows(hw, 1, 4));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MapperTiling,
    ::testing::Values(TileGeometry{32, 32}, TileGeometry{64, 64},
                      TileGeometry{16, 128}, TileGeometry{128, 16},
                      TileGeometry{256, 256}, TileGeometry{13, 17}));

TEST(MappedBnn, MacroCountMatchesTiling) {
  Rng rng(7);
  const core::BnnProgram program = RandomProgram(100, 50, 2, rng);
  MapperConfig cfg;
  cfg.macro_rows = 32;
  cfg.macro_cols = 32;
  cfg.device = IdealDevice();
  const MappedBnn mapped(program, cfg);
  // Hidden: ceil(50/32)*ceil(100/32) = 2*4 = 8; output: 1*2 = 2.
  EXPECT_EQ(mapped.num_macros(), 10);
  EXPECT_GT(mapped.Utilization(), 0.3);
  EXPECT_LE(mapped.Utilization(), 1.0);
}

TEST(MappedBnn, CostsArePositiveAndConsistent) {
  Rng rng(8);
  const core::BnnProgram program = RandomProgram(64, 32, 2, rng);
  MapperConfig cfg;
  cfg.macro_rows = 32;
  cfg.macro_cols = 64;
  cfg.device = IdealDevice();
  const MappedBnn mapped(program, cfg);
  const CostReport prog = mapped.ProgrammingCost();
  const CostReport inf = mapped.InferenceCost();
  EXPECT_GT(prog.program_energy_pj, 0.0);
  // Hidden 32x64 fills one macro (32 rows x 64 padded cols); the 2x32
  // output layer programs only its 2 used rows (again padded to 64 cols).
  EXPECT_EQ(prog.program_ops, 32u * 64u + 2u * 64u);
  EXPECT_GT(inf.read_energy_pj, 0.0);
  // Per-inference read energy must be far below one-time programming.
  EXPECT_LT(inf.read_energy_pj, prog.program_energy_pj);
  EXPECT_GT(mapped.AreaMm2(), 0.0);
}

TEST(MappedBnn, AgedUnrefreshedFabricDegradesGracefully) {
  Rng rng(9);
  const core::BnnProgram program = RandomProgram(128, 64, 2, rng);
  MapperConfig cfg;
  cfg.macro_rows = 64;
  cfg.macro_cols = 64;
  cfg.device = rram::DeviceParams{};  // real device statistics
  cfg.device.weak_prob_ref = 0.02;    // exaggerated aging
  cfg.pre_stress_cycles = static_cast<std::uint64_t>(7e8);
  MappedBnn mapped(program, cfg);
  // With elevated weak probability, some scores will deviate from the
  // software model, but outputs stay within the legal range.
  core::BitVector x(128);
  for (std::int64_t i = 0; i < 128; ++i) {
    x.Set(i, rng.Bernoulli(0.5) ? +1 : -1);
  }
  const std::int64_t pred = core::ArgmaxRows(mapped.Scores(x), 1, 2)[0];
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, 2);
}

/// The packed readback-snapshot path must reproduce the transaction-level
/// simulation bit for bit even when programming errors are present (heavy
/// pre-deployment stress), including errors on padding cells — those fold
/// into integer popcount biases.
TEST(MappedBnn, BatchedSnapshotExactUnderProgrammingErrors) {
  Rng rng(31);
  const std::int64_t in = 150, hidden = 40, classes = 4, rows = 24;
  const core::BnnProgram program = RandomProgram(in, hidden, classes, rng);
  MapperConfig config;
  config.macro_rows = 32;
  config.macro_cols = 64;
  config.device = IdealDevice();
  // Deterministic senses, but devices cycled to weak-probability saturation:
  // cells where both devices land weak (padding included) read back wrong
  // about half the time.
  config.device.weak_prob_ref = 4.0e-5;
  config.pre_stress_cycles = 3000000000ull;
  config.seed = 5;
  MappedBnn row_fabric(program, config);
  MappedBnn batch_fabric(program, config);
  ASSERT_TRUE(batch_fabric.DeterministicReads());

  core::BitMatrix batch(rows, in);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < in; ++c) {
      batch.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  const std::vector<float> batched = batch_fabric.ScoresBatch(batch);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::vector<float> per_row = row_fabric.Scores(batch.Row(i));
    for (std::int64_t k = 0; k < classes; ++k) {
      ASSERT_EQ(batched[static_cast<std::size_t>(i * classes + k)],
                per_row[static_cast<std::size_t>(k)])
          << "row " << i << " class " << k;
    }
  }
  // Sanity: the stress level actually produced readback errors, so the
  // equality above exercised the error-folding path.
  std::int64_t errors = 0;
  const auto& snapshot = batch_fabric.ReadbackSnapshot();
  for (std::int64_t r = 0; r < hidden; ++r) {
    for (std::int64_t c = 0; c < in; ++c) {
      if (snapshot.stages()[0].gemm.weights.Get(r, c) !=
          program.stages()[0].gemm.weights.Get(r, c)) {
        ++errors;
      }
    }
  }
  EXPECT_GT(errors, 0) << "stress produced no programming errors; the "
                          "snapshot equality was trivial";
}

TEST(MappedBnn, SnapshotInvalidatedByStress) {
  Rng rng(37);
  const core::BnnProgram program = RandomProgram(70, 20, 3, rng);
  MapperConfig config;
  config.device = IdealDevice();
  config.device.weak_prob_ref = 4.0e-5;  // refresh on worn devices can fail
  config.seed = 2;
  MappedBnn fabric(program, config);
  core::BitMatrix batch(4, 70);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 70; ++c) {
      batch.Set(r, c, rng.Bernoulli(0.5) ? +1 : -1);
    }
  }
  const std::vector<float> before = fabric.ScoresBatch(batch);
  // Heavy aging plus refresh: weights are re-programmed on worn devices, so
  // the cached snapshot is stale and must be rebuilt; the per-row path must
  // agree with the rebuilt snapshot afterwards.
  fabric.Stress(2000000000ull, /*reprogram_after=*/true);
  const std::vector<float> after = fabric.ScoresBatch(batch);
  for (std::int64_t i = 0; i < 4; ++i) {
    const std::vector<float> per_row = fabric.Scores(batch.Row(i));
    for (std::int64_t k = 0; k < 3; ++k) {
      EXPECT_EQ(after[static_cast<std::size_t>(i * 3 + k)],
                per_row[static_cast<std::size_t>(k)])
          << "row " << i << " class " << k;
    }
  }
  (void)before;
}

TEST(MappedBnn, SnapshotRequiresDeterministicSenses) {
  Rng rng(41);
  const core::BnnProgram program = RandomProgram(40, 12, 2, rng);
  MapperConfig config;  // default device: sense_offset_sigma > 0
  MappedBnn fabric(program, config);
  EXPECT_FALSE(fabric.DeterministicReads());
  EXPECT_THROW(fabric.ReadbackSnapshot(), std::logic_error);
  // The stochastic fallback still serves batches (per-row simulation).
  core::BitMatrix batch(2, 40);
  EXPECT_EQ(fabric.ScoresBatch(batch).size(), 4u);
}

TEST(MappedBnn, InputWidthValidated) {
  Rng rng(10);
  const core::BnnProgram program = RandomProgram(64, 32, 2, rng);
  MapperConfig cfg;
  cfg.device = IdealDevice();
  MappedBnn mapped(program, cfg);
  EXPECT_THROW(mapped.Scores(core::BitVector(63)), std::invalid_argument);
  EXPECT_THROW(mapped.ScoresBatch(core::BitMatrix(2, 63)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Drift bookkeeping and drift undo: the planes follow every drift site, and
// undoing the recorded sites restores a freshly programmed fabric.
// ---------------------------------------------------------------------------

using testing::AgedDeterministicCorner;
using testing::ExpectSameDevices;
using testing::ExpectSameSnapshot;
using testing::RandomBits;

enum class ProgramKind { kPartialTiles, kConv };

/// Dense 150 -> 70 -> 3 on 64x64 macros (partial row and column tiles in
/// both regions), or the conv program of fabric_test_util.h.
core::BnnProgram ContractProgram(ProgramKind kind, Rng& rng) {
  return kind == ProgramKind::kConv ? testing::ConvProgram(rng)
                                    : RandomProgram(150, 70, 3, rng);
}

/// Scores of every row of `batch` through the transaction-level simulation,
/// which reads the cells themselves.
std::vector<float> PerRowScores(MappedBnn& fabric,
                                const core::BitMatrix& batch) {
  std::vector<float> out;
  for (std::int64_t i = 0; i < batch.rows(); ++i) {
    const std::vector<float> row = fabric.Scores(batch.Row(i));
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

struct DriftCase {
  ProgramKind kind;
  double ber;
};

class DriftPlanes : public ::testing::TestWithParam<DriftCase> {};

TEST_P(DriftPlanes, EqualAForcedReReadAfterEveryDrift) {
  Rng rng(61);
  const core::BnnProgram program = ContractProgram(GetParam().kind, rng);
  const MapperConfig config = AgedDeterministicCorner();
  MappedBnn fabric(program, config);
  fabric.WarmReadback();
  MappedBnn twin(program, config);
  Rng drift(62), twin_drift(62);
  const core::BitMatrix batch = RandomBits(12, program.input_size(), rng);
  for (int event = 0; event < 3; ++event) {
    fabric.InjectDrift(GetParam().ber, drift);
    twin.InjectDrift(GetParam().ber, twin_drift);
    // Stress(0, false) ages nothing but drops the twin's planes, so its next
    // snapshot is a full re-read of the cells.
    twin.Stress(0, /*reprogram_after=*/false);
    ExpectSameSnapshot(fabric.ReadbackSnapshot(), twin.ReadbackSnapshot());
    const std::vector<float> batched = fabric.ScoresBatch(batch);
    EXPECT_EQ(batched, twin.ScoresBatch(batch)) << "event " << event;
    EXPECT_EQ(batched, PerRowScores(fabric, batch)) << "event " << event;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BerAndTiling, DriftPlanes,
    ::testing::Values(DriftCase{ProgramKind::kPartialTiles, 0.05},
                      DriftCase{ProgramKind::kPartialTiles, 0.5},
                      DriftCase{ProgramKind::kPartialTiles, 1.0},
                      DriftCase{ProgramKind::kConv, 0.05},
                      DriftCase{ProgramKind::kConv, 0.5},
                      DriftCase{ProgramKind::kConv, 1.0}));

class DriftUndo : public ::testing::TestWithParam<ProgramKind> {};

TEST_P(DriftUndo, RestoresAFreshlyProgrammedFabric) {
  Rng rng(63);
  const core::BnnProgram program = ContractProgram(GetParam(), rng);
  const MapperConfig config = AgedDeterministicCorner();
  MappedBnn fabric(program, config);
  fabric.WarmReadback();
  MappedBnn fresh(program, config);
  fresh.WarmReadback();
  const core::BitMatrix batch = RandomBits(12, program.input_size(), rng);
  const double bers[] = {0.05, 0.5, 1.0};
  Rng drift(64);
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (int d = 0; d <= cycle % 3; ++d) {
      fabric.InjectDrift(bers[(cycle + d) % 3], drift);
    }
    (void)fabric.ScoresBatch(batch);  // serving between drift and heal
    ASSERT_TRUE(fabric.UndoDrift()) << "cycle " << cycle;
    ExpectSameDevices(fabric, fresh, config);
    ExpectSameSnapshot(fabric.ReadbackSnapshot(), fresh.ReadbackSnapshot());
    EXPECT_EQ(fabric.ScoresBatch(batch), fresh.ScoresBatch(batch));
    EXPECT_EQ(fabric.ProgrammingCost().program_ops,
              fresh.ProgrammingCost().program_ops);
  }
  // The array RNGs were never drawn by drift or its undo: a refresh, which
  // draws fresh programming noise from them, lands both fabrics on the same
  // devices.
  fabric.Stress(100000000, /*reprogram_after=*/true);
  fresh.Stress(100000000, /*reprogram_after=*/true);
  ExpectSameDevices(fabric, fresh, config);
  ExpectSameSnapshot(fabric.ReadbackSnapshot(), fresh.ReadbackSnapshot());
}

INSTANTIATE_TEST_SUITE_P(Programs, DriftUndo,
                         ::testing::Values(ProgramKind::kPartialTiles,
                                           ProgramKind::kConv));

TEST(DriftUndo, RefusedOnceTheDevicesWereStressedOrSensesAreStochastic) {
  Rng rng(65);
  const core::BnnProgram program = RandomProgram(150, 70, 3, rng);
  const MapperConfig config = AgedDeterministicCorner();
  for (const bool refresh : {false, true}) {
    MappedBnn fabric(program, config);
    Rng drift(66);
    fabric.InjectDrift(0.1, drift);
    fabric.Stress(1000, refresh);
    MappedBnn twin(program, config);
    Rng twin_drift(66);
    twin.InjectDrift(0.1, twin_drift);
    twin.Stress(1000, refresh);
    // Refused, and nothing changed: the drift stays in place.
    EXPECT_FALSE(fabric.UndoDrift()) << "refresh " << refresh;
    ExpectSameDevices(fabric, twin, config);
  }
  MapperConfig stochastic = config;
  stochastic.device.sense_offset_sigma = 0.02;
  MappedBnn fabric(program, stochastic);
  Rng drift(67);
  fabric.InjectDrift(0.1, drift);
  EXPECT_FALSE(fabric.UndoDrift());
}

TEST(DriftUndo, BillsNoSenseReads) {
  Rng rng(69);
  const core::BnnProgram program = RandomProgram(150, 70, 3, rng);
  const MapperConfig config = AgedDeterministicCorner();
  MappedBnn fabric(program, config);
  fabric.WarmReadback();
  const auto sense_ops = [&] {
    std::uint64_t ops = 0;
    for (std::size_t l = 0; l < 2; ++l) {
      const std::int64_t cols = l == 0 ? 3 : 2;  // 150 and 70 inputs
      for (std::int64_t rt = 0; rt < (l == 0 ? 2 : 1); ++rt) {
        for (std::int64_t ct = 0; ct < cols; ++ct) {
          ops += fabric.macro(l, rt, ct).array().sense_ops();
        }
      }
    }
    return ops;
  };
  const std::uint64_t warm = sense_ops();
  ASSERT_GT(warm, 0u);
  Rng drift(70);
  fabric.InjectDrift(0.5, drift);
  ASSERT_TRUE(fabric.UndoDrift());
  EXPECT_EQ(sense_ops(), warm);
}

TEST(MappedBnn, MacroAccessorChecksTheAddress) {
  Rng rng(68);
  const core::BnnProgram program = RandomProgram(150, 70, 3, rng);
  const MappedBnn fabric(program, AgedDeterministicCorner());
  EXPECT_EQ(fabric.macro(0, 1, 2).used_synapses(), 6 * 22);
  EXPECT_THROW((void)fabric.macro(0, 2, 0), std::out_of_range);
  EXPECT_THROW((void)fabric.macro(0, 0, 3), std::out_of_range);
  EXPECT_THROW((void)fabric.macro(2, 0, 0), std::out_of_range);
}

}  // namespace
}  // namespace rrambnn::arch
