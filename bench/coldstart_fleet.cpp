// Cold-start and fleet-residency driver of the zero-copy artifact path:
// the same model stored as v1 (sequential, copy-on-load), v2 (page-aligned,
// mmap-ed, lazily verified) and v2c (v2 with RLZ-compressed bulk data),
// loaded alone and as a fleet of identical monitors. Emits machine-readable
// BENCH_coldstart.json so the load-path trajectory is tracked from PR to PR.
//
// The model is the paper's ECG inversion CNN (Table II) at double filter
// width — ~1 MB of parameters, a realistic bedside-monitor artifact —
// built untrained: cold-start measures the load path, and an untrained
// binary classifier exercises it identically to a trained one.
//
// Usage: bench_coldstart_fleet [--smoke] [--out PATH]
//   --smoke   tiny fleets, short timing windows (CI)
//   --out     output path of the JSON report (default BENCH_coldstart.json)
//
// Measures, per format:
//   - cold-start-to-first-predict: fresh Engine::FromArtifact + deploy +
//     a one-row predict, repeated and averaged (page cache warm, so this
//     is the CPU cost of parsing/copying vs mapping);
//   - resident and mapped bytes per model (ArtifactLoadInfo);
//   - fleet load: N distinct artifact files acquired through a
//     ModelRegistry (resident-mapped mode for mapped models), total
//     wall-clock and registry-wide resident bytes at N = 1 / 64 / 1024
//     (1 / 8 / 32 under --smoke);
//   - sustained round-robin predict throughput across the loaded fleet.
//
// The acceptance ratio `coldstart_speedup_v2_vs_v1` compares per-model
// fleet load time of v1-copy against v2-mmap at the largest fleet size.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "models/ecg_model.h"
#include "serve/demo_tasks.h"
#include "serve/model_registry.h"

namespace {

using namespace rrambnn;
namespace fs = std::filesystem;

struct FormatSpec {
  const char* name;  // "v1" | "v2" | "v2c"
  io::ArtifactWriteOptions write;
  io::LoadArtifactOptions load;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The first `rows` rows of `batch` as an owned tensor (a realistic
/// first-predict payload: one monitor window, not the whole validation set).
Tensor FirstRows(const Tensor& batch, std::int64_t rows) {
  Shape shape;
  shape.push_back(rows);
  std::int64_t row_elems = 1;
  for (std::int64_t d = 1; d < batch.rank(); ++d) {
    shape.push_back(batch.dim(d));
    row_elems *= batch.dim(d);
  }
  const float* src = batch.data();
  std::vector<float> data(src, src + rows * row_elems);
  return Tensor(std::move(shape), std::move(data));
}

struct ColdStart {
  double mean_us = 0.0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t mapped_bytes = 0;
  std::string mode;
};

ColdStart MeasureColdStart(const std::string& path,
                           const io::LoadArtifactOptions& load,
                           const Tensor& first_row, int repeats) {
  ColdStart result;
  double total = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    engine::Engine engine = engine::Engine::FromArtifact(path, load);
    engine.config().WithBackend("reference");
    engine.EnsureDeployed();
    (void)engine.Predict(first_row);
    total += Seconds(start);
    if (i == 0) {
      const io::ArtifactLoadInfo& info = engine.artifact_load_info();
      result.resident_bytes = info.resident_bytes;
      result.mapped_bytes = info.mapped_bytes;
      result.mode = io::ToString(info.mode);
    }
  }
  result.mean_us = 1e6 * total / repeats;
  return result;
}

struct FleetResult {
  std::string format;
  std::int64_t models = 0;
  double load_s = 0.0;
  double load_per_model_us = 0.0;
  std::uint64_t resident_bytes_total = 0;
  double rows_per_sec = 0.0;
};

FleetResult MeasureFleet(const FormatSpec& spec, const std::string& artifact,
                         const fs::path& dir, std::int64_t models,
                         const Tensor& batch, double min_seconds) {
  // N distinct files: a fleet of monitors is N artifacts on disk, not one
  // path registered N times (distinct inodes, distinct mappings).
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(models));
  for (std::int64_t i = 0; i < models; ++i) {
    const std::string name =
        std::string(spec.name) + "_" + std::to_string(i);
    const fs::path copy = dir / (name + ".rbnn");
    if (!fs::exists(copy)) fs::copy_file(artifact, copy);
    names.push_back(name);
  }

  serve::RegistryConfig config;
  config.capacity = static_cast<std::size_t>(models);
  config.hot_reload = false;
  config.backend_override = "reference";
  config.resident_mapped = true;
  config.load = spec.load;
  serve::ModelRegistry registry(config);
  for (const std::string& name : names) {
    registry.Register(name, (dir / (name + ".rbnn")).string());
  }

  FleetResult result;
  result.format = spec.name;
  result.models = models;

  const auto start = std::chrono::steady_clock::now();
  for (const std::string& name : names) {
    (void)registry.Acquire(name);
  }
  result.load_s = Seconds(start);
  result.load_per_model_us =
      1e6 * result.load_s / static_cast<double>(models);
  result.resident_bytes_total = registry.resident_bytes();

  // Sustained serving: round-robin predicts across (a rotation of) the
  // fleet — capped so the 1024-model point measures steady-state serving,
  // not 1024 cache-cold first touches per pass.
  const std::int64_t rotation =
      models < 32 ? models : static_cast<std::int64_t>(32);
  const std::int64_t rows = batch.dim(0);
  std::int64_t served = 0;
  std::size_t next = 0;
  const auto serve_start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    const std::shared_ptr<serve::ServedModel> model =
        registry.Acquire(names[next]);
    next = (next + 1) % static_cast<std::size_t>(rotation);
    std::shared_lock<std::shared_mutex> lock(model->serve_mutex());
    (void)model->engine().Predict(batch);
    served += rows;
    elapsed = Seconds(serve_start);
  } while (elapsed < min_seconds);
  result.rows_per_sec = static_cast<double>(served) / elapsed;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_coldstart.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const int coldstart_repeats = smoke ? 3 : 10;
  const double min_seconds = smoke ? 0.05 : 0.3;
  const std::vector<std::int64_t> fleet_sizes =
      smoke ? std::vector<std::int64_t>{1, 8, 32}
            : std::vector<std::int64_t>{1, 64, 1024};

  // v1 has no mmap path; v2/v2c load lazily-verified, the fleet posture
  // (structural chunks are parsed — and so page-faulted — immediately
  // regardless; what lazy verify skips is sweeping the bulk bit-planes).
  const FormatSpec formats[] = {
      {"v1", {io::kFormatVersion, false}, {false, true}},
      {"v2", {io::kFormatVersionV2, false}, {true, false}},
      {"v2c", {io::kFormatVersionV2, true}, {true, false}},
  };

  // -- Build the monitor model, save it under every format ------------------
  const fs::path dir = fs::temp_directory_path() / "rrambnn_bench_coldstart";
  fs::remove_all(dir);
  fs::create_directories(dir);
  models::EcgNetConfig mc;
  mc.samples = 200;            // 2 s at 100 Hz, the demo-task geometry
  mc.filter_augmentation = 2;  // ~1 MB of parameters (Fig. 7 x-axis = 2)
  mc.strategy = core::BinarizationStrategy::kBinaryClassifier;
  Rng rng(42);
  models::BuiltEcgNet built = models::BuildEcgNet(mc, rng);
  engine::EngineConfig config = serve::DemoServingConfig(/*epochs=*/1);
  engine::Engine trainer = engine::Engine::FromTrained(
      config, std::move(built.net), built.classifier_start);
  std::vector<std::string> artifact_paths;
  for (const FormatSpec& spec : formats) {
    const std::string path =
        (dir / (std::string("ecg_") + spec.name + ".rbnn")).string();
    trainer.SaveArtifact(path, spec.write);
    artifact_paths.push_back(path);
    std::printf("saved %-4s %s (%llu bytes)\n", spec.name, path.c_str(),
                static_cast<unsigned long long>(fs::file_size(path)));
  }

  // Synthetic monitor windows in the net's input layout [N, leads, T, 1].
  Tensor batch({16, mc.leads, mc.samples, 1});
  for (std::int64_t i = 0; i < batch.size(); ++i) batch[i] = rng.Normal();
  const Tensor first_row = FirstRows(batch, 1);

  // -- Single-model cold start ----------------------------------------------
  std::vector<ColdStart> cold;
  for (std::size_t f = 0; f < std::size(formats); ++f) {
    cold.push_back(MeasureColdStart(artifact_paths[f], formats[f].load,
                                    first_row, coldstart_repeats));
    std::printf("%-4s cold-start-to-first-predict %9.1f us  (%s, resident "
                "%llu B, mapped %llu B)\n",
                formats[f].name, cold.back().mean_us,
                cold.back().mode.c_str(),
                static_cast<unsigned long long>(cold.back().resident_bytes),
                static_cast<unsigned long long>(cold.back().mapped_bytes));
  }

  // -- Fleets ---------------------------------------------------------------
  std::vector<FleetResult> fleets;
  for (std::size_t f = 0; f < std::size(formats); ++f) {
    for (const std::int64_t models : fleet_sizes) {
      fleets.push_back(MeasureFleet(formats[f], artifact_paths[f], dir,
                                    models, batch, min_seconds));
      const FleetResult& r = fleets.back();
      std::printf("%-4s fleet %5lld  load %8.1f us/model  resident %9llu B "
                  "total  %10.0f rows/s\n",
                  r.format.c_str(), static_cast<long long>(r.models),
                  r.load_per_model_us,
                  static_cast<unsigned long long>(r.resident_bytes_total),
                  r.rows_per_sec);
    }
  }

  // -- Acceptance ratio: v1 copy vs v2 mmap at the largest fleet ------------
  const std::int64_t largest = fleet_sizes.back();
  double v1_per_model = 0.0, v2_per_model = 0.0;
  for (const FleetResult& r : fleets) {
    if (r.models != largest) continue;
    if (r.format == "v1") v1_per_model = r.load_per_model_us;
    if (r.format == "v2") v2_per_model = r.load_per_model_us;
  }
  const double speedup =
      v2_per_model > 0.0 ? v1_per_model / v2_per_model : 0.0;
  std::printf("\nv2-mmap vs v1-copy cold start at %lld models: %.1fx\n",
              static_cast<long long>(largest), speedup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"formats\": [\n");
  for (std::size_t f = 0; f < std::size(formats); ++f) {
    std::fprintf(out,
                 "    {\"format\": \"%s\", \"file_bytes\": %llu, "
                 "\"coldstart_us\": %.1f, \"load_mode\": \"%s\", "
                 "\"resident_bytes_per_model\": %llu, "
                 "\"mapped_bytes_per_model\": %llu}%s\n",
                 formats[f].name,
                 static_cast<unsigned long long>(
                     fs::file_size(artifact_paths[f])),
                 cold[f].mean_us, cold[f].mode.c_str(),
                 static_cast<unsigned long long>(cold[f].resident_bytes),
                 static_cast<unsigned long long>(cold[f].mapped_bytes),
                 f + 1 < std::size(formats) ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"fleets\": [\n");
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    const FleetResult& r = fleets[i];
    std::fprintf(out,
                 "    {\"format\": \"%s\", \"models\": %lld, "
                 "\"load_per_model_us\": %.1f, \"load_s\": %.4f, "
                 "\"resident_bytes_total\": %llu, "
                 "\"rows_per_sec\": %.1f}%s\n",
                 r.format.c_str(), static_cast<long long>(r.models),
                 r.load_per_model_us, r.load_s,
                 static_cast<unsigned long long>(r.resident_bytes_total),
                 r.rows_per_sec, i + 1 < fleets.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"largest_fleet\": %lld,\n",
               static_cast<long long>(largest));
  std::fprintf(out, "  \"coldstart_speedup_v2_vs_v1\": %.2f\n", speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  fs::remove_all(dir);
  return 0;
}
