// Artifact CLI: the train-once / serve-anywhere lifecycle as a command-line
// workflow, and the cross-process bit-identity check CI leans on.
//
//   artifact_tool save <path>  [--task ecg|eeg|image] [--epochs N]
//                              [--format v1|v2|v2c]
//       trains a bench-scale binarized-classifier model on the synthetic
//       task, compiles it, saves the artifact (default format v2;
//       v2c = v2 with RLZ-compressed bulk data), then — still in the
//       training process — deploys every built-in backend and prints one
//       `backend=... digest=... accuracy=...` line per backend.
//
//   artifact_tool inspect <path>
//       prints the artifact report (chunks with offsets, alignment and
//       compressed sizes, config, architecture, model).
//
//   artifact_tool eval <path> [--task ecg|eeg|image] [--backend NAME|all]
//                              [--no-mmap]
//       loads the artifact with Engine::FromArtifact (no Train/Compile in
//       this process), regenerates the same seeded validation set, serves
//       it, and prints the same digest lines.
//
//   artifact_tool migrate <src> <dst> [--format v1|v2|v2c]
//       rewrites the container version/codec (model bits unchanged; `dst`
//       may equal `src` — the write is atomic).
//
// Because data generation, deployment seeds and the serving path are fully
// deterministic (serve::MakeDemoTask is the single task definition shared
// with model_client and the benches), a digest line printed by `save` in one
// process must equal the line printed by `eval` in another — that equality
// (checked in CI) is the artifact round-trip guarantee.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "io/artifact.h"
#include "serve/demo_tasks.h"

using namespace rrambnn;

namespace {

/// Deploys `backend` on the engine, serves the validation set once, and
/// prints the digest line `save` and `eval` are compared on.
void ServeAndReport(engine::Engine& engine, const std::string& backend,
                    const nn::Dataset& val) {
  engine.Deploy(backend);
  const std::vector<std::int64_t> preds = engine.Predict(val.x);
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == val.y[i]) ++hits;
  }
  std::printf("backend=%s digest=%016llx accuracy=%.4f\n", backend.c_str(),
              static_cast<unsigned long long>(serve::PredictionDigest(preds)),
              static_cast<double>(hits) / static_cast<double>(preds.size()));
}

/// "--format v1|v2|v2c" -> write options; throws on anything else.
io::ArtifactWriteOptions ParseFormat(const std::string& format) {
  io::ArtifactWriteOptions options;
  if (format == "v1") {
    options.format_version = io::kFormatVersion;
  } else if (format == "v2") {
    options.format_version = io::kFormatVersionV2;
  } else if (format == "v2c") {
    options.format_version = io::kFormatVersionV2;
    options.compress = true;
  } else {
    throw std::invalid_argument("unknown --format '" + format +
                                "' (want v1, v2 or v2c)");
  }
  return options;
}

int Save(const std::string& path, const std::string& task_name,
         std::int64_t epochs, const std::string& format) {
  const io::ArtifactWriteOptions options = ParseFormat(format);
  serve::DemoTask task = serve::MakeDemoTask(task_name);
  engine::Engine engine(serve::DemoServingConfig(epochs), task.factory);
  std::printf("training %s (bench scale, %lld epochs)...\n", task_name.c_str(),
              static_cast<long long>(epochs));
  const nn::FitResult fit = engine.Train(task.train, task.val);
  std::printf("trained: final val accuracy %.4f\n", fit.final_val_accuracy);
  engine.SaveArtifact(path, options);
  std::printf("saved artifact: %s (format %s)\n", path.c_str(),
              format.c_str());
  // Reference digests from the training process, one per backend; `eval`
  // in a fresh process must reproduce these lines exactly.
  for (const std::string& backend : serve::AllBackendNames()) {
    ServeAndReport(engine, backend, task.val);
  }
  return 0;
}

int Eval(const std::string& path, const std::string& task_name,
         const std::string& backend, bool allow_mmap) {
  serve::DemoTask task = serve::MakeDemoTask(task_name);
  io::LoadArtifactOptions load;
  load.allow_mmap = allow_mmap;
  engine::Engine engine = engine::Engine::FromArtifact(path, load);
  const io::ArtifactLoadInfo& info = engine.artifact_load_info();
  std::printf(
      "loaded artifact: %s (no Train/Compile in this process; v%u, %s, "
      "resident %llu bytes, mapped %llu bytes)\n",
      path.c_str(), info.format_version, io::ToString(info.mode),
      static_cast<unsigned long long>(info.resident_bytes),
      static_cast<unsigned long long>(info.mapped_bytes));
  if (backend == "all") {
    for (const std::string& name : serve::AllBackendNames()) {
      ServeAndReport(engine, name, task.val);
    }
  } else {
    ServeAndReport(engine, backend, task.val);
  }
  return 0;
}

int Migrate(const std::string& src, const std::string& dst,
            const std::string& format) {
  io::MigrateArtifact(src, dst, ParseFormat(format));
  std::printf("migrated %s -> %s (format %s)\n", src.c_str(), dst.c_str(),
              format.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  artifact_tool save <path> [--task ecg|eeg|image] [--epochs N]\n"
               "                [--format v1|v2|v2c]\n"
               "  artifact_tool inspect <path>\n"
               "  artifact_tool eval <path> [--task ecg|eeg|image] "
               "[--backend NAME|all] [--no-mmap]\n"
               "  artifact_tool migrate <src> <dst> [--format v1|v2|v2c]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  std::string task = "ecg";
  std::string backend = "all";
  std::string format = "v2";
  std::string dst;
  std::int64_t epochs = 10;
  bool allow_mmap = true;
  int flags_from = 3;
  if (command == "migrate") {
    if (argc < 4) return Usage();
    dst = argv[3];
    flags_from = 4;
  }
  for (int i = flags_from; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--task" && has_value) {
      task = argv[++i];
    } else if (arg == "--epochs" && has_value) {
      epochs = std::atoll(argv[++i]);
    } else if (arg == "--backend" && has_value) {
      backend = argv[++i];
    } else if (arg == "--format" && has_value) {
      format = argv[++i];
    } else if (arg == "--no-mmap") {
      allow_mmap = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  try {
    if (command == "save") return Save(path, task, epochs, format);
    if (command == "inspect") {
      std::printf("%s", io::DescribeArtifact(path).c_str());
      return 0;
    }
    if (command == "eval") {
      return Eval(path, task, backend, allow_mmap);
    }
    if (command == "migrate") return Migrate(path, dst, format);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "artifact_tool: %s\n", e.what());
    return 1;
  }
  return Usage();
}
