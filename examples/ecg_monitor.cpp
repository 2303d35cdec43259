// Scenario: a wearable ECG monitor that must keep detecting electrode
// misplacement over the device's lifetime. The classifier weights live in
// 2T2R RRAM; we age the arrays through hundreds of millions of cycles and
// watch accuracy with and without a reprogramming refresh — demonstrating
// the ECC-less reliability story of the paper on a concrete workload.
//
// The example is split along the paper's deployment model (train once
// offline, program the fabric, serve indefinitely):
//
//   example_ecg_monitor train [artifact]   trains + compiles the classifier
//                                          and saves it as an engine artifact
//   example_ecg_monitor serve [artifact]   loads the artifact in a process
//                                          that never calls Train()/Compile()
//                                          and runs the aging/refresh study —
//                                          each aging point is just a fresh
//                                          Deploy("rram") with more pre-stress
//
// With no arguments both phases run back to back through the default
// artifact path, preserving the old single-shot behaviour.
#include <cstdio>
#include <cstring>
#include <string>

#include "data/ecg_synth.h"
#include "engine/engine.h"
#include "models/ecg_model.h"

using namespace rrambnn;

namespace {

constexpr const char* kDefaultArtifact = "ecg_monitor.rbnn";

/// The validation split every phase regenerates from fixed seeds — the
/// serving process never needs the training data shipped to it.
nn::Dataset MakeValidation() {
  Rng rng(7);
  data::EcgSynthConfig dc;
  dc.samples = 200;
  dc.sample_rate_hz = 100.0;
  nn::Dataset data = data::MakeEcgDataset(dc, 400, rng);
  std::vector<std::int64_t> va;
  for (std::int64_t i = 320; i < 400; ++i) va.push_back(i);
  return data.Subset(va);
}

int Train(const std::string& artifact) {
  Rng rng(7);
  data::EcgSynthConfig dc;
  dc.samples = 200;
  dc.sample_rate_hz = 100.0;
  nn::Dataset data = data::MakeEcgDataset(dc, 400, rng);
  std::vector<std::int64_t> tr, va;
  for (std::int64_t i = 0; i < 320; ++i) tr.push_back(i);
  for (std::int64_t i = 320; i < 400; ++i) va.push_back(i);
  const nn::Dataset train = data.Subset(tr), val = data.Subset(va);

  nn::TrainConfig tc;
  tc.epochs = 25;
  tc.batch_size = 16;
  tc.learning_rate = 1e-3f;

  // An aggressive device corner so aging effects show at example scale.
  rram::DeviceParams device;
  device.weak_prob_ref = 5e-3;

  engine::EngineConfig cfg;
  cfg.WithStrategy(core::BinarizationStrategy::kBinaryClassifier)
      .WithTrain(tc)
      .WithDevice(device)
      .WithBackend("rram");

  engine::Engine eng(cfg, [](const engine::EngineConfig& ec, Rng& mrng) {
    models::EcgNetConfig mc = models::EcgNetConfig::BenchScale();
    mc.strategy = ec.strategy;
    auto built = models::BuildEcgNet(mc, mrng);
    return engine::ModelSpec{std::move(built.net), built.classifier_start};
  });
  const nn::FitResult fit = eng.Train(train, val);
  eng.SaveArtifact(artifact);
  std::printf("trained the ECG electrode-inversion classifier "
              "(val accuracy %.1f%%)\nsaved engine artifact: %s\n",
              100.0 * fit.final_val_accuracy, artifact.c_str());
  std::printf("serve it (possibly on another machine) with:\n"
              "  example_ecg_monitor serve %s\n", artifact.c_str());
  return 0;
}

int Serve(const std::string& artifact) {
  const nn::Dataset val = MakeValidation();
  // The serving half: everything — trained prefix, compiled bit planes,
  // mapper/device configuration — comes from the artifact.
  engine::Engine eng = engine::Engine::FromArtifact(artifact);

  std::printf("ECG electrode-inversion monitor on aging RRAM\n");
  std::printf("(model loaded from %s; this process never trains)\n\n",
              artifact.c_str());
  std::printf("%12s  %18s  %18s\n", "age (cycles)", "no refresh",
              "refresh (reprogram)");

  for (const double age : {0.0, 1e8, 3e8, 5e8, 7e8}) {
    eng.config().backend.mapper.pre_stress_cycles =
        static_cast<std::uint64_t>(age);
    // "No refresh": weights were written once on the aged fabric and read
    // with its error statistics. "Refresh": identical fabric, but the
    // controller reprograms the stored weights (fresh write noise draw).
    eng.Deploy("rram");
    const double acc_worn = eng.Evaluate(val);
    auto& refreshed =
        dynamic_cast<engine::ShardedRramBackend&>(eng.Deploy("rram"));
    refreshed.shard(0).Stress(0, /*reprogram_after=*/true);
    const double acc_ref = eng.Evaluate(val);
    std::printf("%12.0e  %17.1f%%  %17.1f%%\n", age, 100.0 * acc_worn,
                100.0 * acc_ref);
  }
  std::printf("\nBNN inference tolerates the 2T2R fabric's residual errors "
              "across its endurance life\nwithout any error-correcting "
              "code - the paper's core hardware claim.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string artifact = argc > 2 ? argv[2] : kDefaultArtifact;
  if (mode == "train") return Train(artifact);
  if (mode == "serve") return Serve(artifact);
  if (!mode.empty()) {
    std::fprintf(stderr,
                 "usage: example_ecg_monitor [train|serve] [artifact]\n");
    return 2;
  }
  const int rc = Train(artifact);
  if (rc != 0) return rc;
  std::printf("\n");
  return Serve(artifact);
}
