// Quickstart: the paper's whole workflow through the engine::Engine facade.
//
// One EngineConfig describes the pipeline; one Engine runs it:
//   Train   -- fit a CNN whose classifier is binarized (the paper's
//              recommended partial-binarization strategy),
//   Compile -- fold batch normalization into integer popcount thresholds,
//              producing the deployable XNOR-popcount model,
//   Deploy  -- instantiate an execution backend by name from the registry
//              ("reference" = exact software, "rram" = simulated 2T2R
//              fabric with energy accounting, "fault" = BER injection),
//   Evaluate/Predict -- batched serving: the float prefix in minibatches,
//              then one packed batch through the backend.
#include <cstdio>

#include "data/ecg_synth.h"
#include "engine/engine.h"
#include "models/ecg_model.h"

using namespace rrambnn;

int main() {
  // 1. Data: 12-lead synthetic ECGs; class 1 = a swapped electrode pair.
  Rng rng(7);
  data::EcgSynthConfig data_cfg;
  data_cfg.samples = 200;
  data_cfg.sample_rate_hz = 100.0;
  nn::Dataset data = data::MakeEcgDataset(data_cfg, 400, rng);
  std::vector<std::int64_t> tr, va;
  for (std::int64_t i = 0; i < 320; ++i) tr.push_back(i);
  for (std::int64_t i = 320; i < 400; ++i) va.push_back(i);
  const nn::Dataset train = data.Subset(tr), val = data.Subset(va);

  // 2. Pipeline configuration: strategy, training recipe, RRAM geometry.
  nn::TrainConfig tc;
  tc.epochs = 20;
  tc.batch_size = 16;
  tc.learning_rate = 1e-3f;
  tc.verbose = true;

  arch::MapperConfig mapper;  // 64x64 2T2R arrays with XNOR-PCSAs
  mapper.macro_rows = 64;
  mapper.macro_cols = 64;

  engine::EngineConfig cfg;
  cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier)
      .WithTrain(tc)
      .WithMapper(mapper);

  // 3. The engine builds the Table II CNN through this factory.
  engine::Engine eng(cfg, [&](const engine::EngineConfig& ec, Rng& mrng) {
    models::EcgNetConfig mc = models::EcgNetConfig::BenchScale();
    mc.samples = data_cfg.samples;
    mc.strategy = ec.strategy;
    auto built = models::BuildEcgNet(mc, mrng);
    return engine::ModelSpec{std::move(built.net), built.classifier_start};
  });

  // 4. Train -> compile -> deploy -> evaluate, one call each.
  const auto fit = eng.Train(train, val);
  std::printf("trained: val accuracy %.1f%%\n",
              100.0 * fit.final_val_accuracy);

  const core::BnnProgram& compiled = eng.Compile();
  std::printf("compiled classifier: %zu GEMM stage(s), %lld weight bits\n",
              compiled.num_gemm_stages(),
              static_cast<long long>(compiled.TotalWeightBits()));

  eng.Deploy("reference");
  std::printf("compiled accuracy:  %.1f%% (bit-exact vs trained model)\n",
              100.0 * eng.Evaluate(val));

  eng.Deploy("rram");
  const engine::EnergyBreakdown energy = eng.EnergyReport();
  std::printf("on-RRAM accuracy:   %.1f%%  (%lld macros, %.3f mm2, "
              "%.1f pJ / inference)\n",
              100.0 * eng.Evaluate(val),
              static_cast<long long>(energy.num_macros), energy.area_mm2,
              energy.per_inference.read_energy_pj);
  return 0;
}
