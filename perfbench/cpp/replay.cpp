// The traced in-process replay. Spans are recorded from this file, around
// calls into each module's public functions — the library itself is not
// instrumented — so the serving path is rebuilt here step by step:
//
//   serve.decode         serve::DecodeRequest on the request payload
//   request              one reconstructed ModelServer::Handle predict
//     serve.acquire      ModelRegistry::Acquire (lookup, hot-reload stat)
//     engine.predict     Engine::Predict, step by step:
//       nn.prefix        the float prefix, per minibatch
//         nn.layer.*     one nn::Layer::Infer each
//       core.sign_pack   core::BitMatrix::FromSignRows
//       engine.backend   InferenceBackend::PredictPacked
//     health.drift       BackendHealthAdapter::InjectChipDrift, every chip
//     health.check       health::HealthManager::CheckNow (heal included)
//   serve.encode         serve::EncodeResponse of the answer
//   core.program         core::BnnProgram::PredictPacked on the same packed
//                        input (the compiled weights, one thread)
//   core.stage.*.patch   per GEMM stage, core::BuildPatchMatrix and
//   core.stage.*.gemm    core::XnorPopcountGemm on seeded bits of that
//                        stage's input shape, as the program calls them
//
// The reconstruction must give the served answers bit for bit, and its
// health hooks must reprogram exactly as often as ModelServer's do.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <span>
#include <stdexcept>

#include "bench.h"
#include "core/bitgemm.h"
#include "core/bnn_model.h"
#include "core/bnn_program.h"
#include "engine/engine.h"
#include "serve/model_server.h"

namespace perfbench {

using namespace rrambnn;

namespace {

struct Span {
  int name = 0;
  int parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Disabled, Begin/End do nothing, so the same
/// replay code runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Intern(const std::string& name) {
    const auto [it, inserted] =
        ids_.emplace(name, static_cast<int>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }
  int Begin(int name, std::uint64_t request) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, stack_.empty() ? -1 : stack_.back(), request, NowNs(), 0});
    stack_.push_back(index);
    return index;
  }
  void End(int span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }
  std::size_t num_names() const { return names_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, int name, std::uint64_t request)
      : tracer_(tracer), span_(tracer.Begin(name, request)) {}
  ~Scoped() { tracer_.End(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Layer kind of an nn::Layer::Name() such as "Conv2d 15x1".
std::string Kind(const std::string& name) {
  std::string kind = name.substr(0, name.find(' '));
  for (char& ch : kind) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return kind;
}

bool IsMatmulKind(const std::string& kind) {
  return kind == "Conv2d" || kind == "DepthwiseConv2d" || kind == "Dense";
}

const char* LoweringName(core::GemmLowering lowering) {
  switch (lowering) {
    case core::GemmLowering::kDense:
      return "dense";
    case core::GemmLowering::kConv:
      return "conv";
    case core::GemmLowering::kDepthwise:
      return "depthwise";
  }
  return "unknown";
}

struct StageNames {
  int patch = 0;
  int gemm = 0;
};

/// Span name ids shared by every model of a replay.
struct CommonNames {
  int request, acquire, engine_predict, nn_prefix, sign_pack, backend, drift,
      check, decode, encode, program;

  explicit CommonNames(Tracer& t)
      : request(t.Intern("request")),
        acquire(t.Intern("serve.acquire")),
        engine_predict(t.Intern("engine.predict")),
        nn_prefix(t.Intern("nn.prefix")),
        sign_pack(t.Intern("core.sign_pack")),
        backend(t.Intern("engine.backend")),
        drift(t.Intern("health.drift")),
        check(t.Intern("health.check")),
        decode(t.Intern("serve.decode")),
        encode(t.Intern("serve.encode")),
        program(t.Intern("core.program")) {}
};

/// One deployed model of a replay pass, with the per-model health request
/// counter ModelServer keeps in its stats cell.
struct ReplayModel {
  std::string name;
  engine::Engine engine;
  std::uint64_t requests = 0;
  std::vector<int> layer_names;
  std::vector<StageNames> stage_names;
  /// Seeded input bits of each GEMM stage's shape, one request's rows.
  std::vector<core::BitMatrix> stage_inputs;
};

struct LoadTimes {
  std::vector<double> load_us;
  std::vector<double> deploy_us;
};

engine::Engine LoadEngine(const std::string& path, const std::string& backend,
                          LoadTimes& times) {
  const Clock::time_point t0 = Clock::now();
  engine::Engine engine = engine::Engine::FromArtifact(path);
  const Clock::time_point t1 = Clock::now();
  engine.Deploy(backend);
  const Clock::time_point t2 = Clock::now();
  times.load_us.push_back(Micros(t1 - t0));
  times.deploy_us.push_back(Micros(t2 - t1));
  return engine;
}

ReplayModel MakeReplayModel(const RequestSet& requests, std::size_t m,
                            const Workload& workload, Tracer& tracer,
                            LoadTimes& times) {
  ReplayModel model{requests.model_name(m),
                    LoadEngine(requests.artifact(m), workload.backend, times),
                    0, {}, {}, {}};
  const nn::Sequential& net = model.engine.net();
  for (std::size_t i = 0; i < model.engine.classifier_start(); ++i) {
    char index[24];
    std::snprintf(index, sizeof(index), "%02zu", i);
    model.layer_names.push_back(tracer.Intern("nn.layer." + model.name + "." +
                                              index + "." +
                                              Kind(net[i].Name())));
  }
  std::mt19937_64 rng(m + 1);
  std::size_t g = 0;
  for (const core::PackedGemmStage* stage :
       model.engine.compiled_program().GemmStages()) {
    const std::string base = "core.stage." + model.name + "." +
                             std::to_string(g++) + "." +
                             LoweringName(stage->lowering);
    model.stage_names.push_back(
        {tracer.Intern(base + ".patch"), tracer.Intern(base + ".gemm")});
    const std::int64_t rows = workload.rows_per_request;
    std::vector<float> signs(static_cast<std::size_t>(rows * stage->in_bits()));
    for (float& v : signs) v = (rng() & 1u) ? 1.0f : -1.0f;
    model.stage_inputs.push_back(
        core::BitMatrix::FromSignRows(signs, rows, stage->in_bits()));
  }
  return model;
}

/// Engine::Predict, one public call at a time (Features in minibatches,
/// one sign-pack of the whole feature set, one backend call).
std::vector<std::int64_t> ReconstructedPredict(ReplayModel& model,
                                               const Tensor& batch,
                                               Tracer& tracer,
                                               const CommonNames& names,
                                               std::uint64_t request,
                                               core::BitMatrix& packed) {
  Scoped predict(tracer, names.engine_predict, request);
  engine::Engine& engine = model.engine;
  const nn::Sequential& net = engine.net();
  const std::int64_t n = batch.dim(0);
  const std::int64_t sample_elems = batch.size() / n;
  const std::int64_t minibatch = engine.config().batch_size;
  Tensor features({n, 0});
  for (std::int64_t start = 0; start < n; start += minibatch) {
    const std::int64_t stop = std::min(n, start + minibatch);
    Shape shape = batch.shape();
    shape[0] = stop - start;
    Tensor x(shape, std::vector<float>(batch.data() + start * sample_elems,
                                       batch.data() + stop * sample_elems));
    {
      Scoped prefix(tracer, names.nn_prefix, request);
      for (std::size_t i = 0; i < engine.classifier_start(); ++i) {
        Scoped layer(tracer, model.layer_names[i], request);
        x = net[i].Infer(x);
      }
    }
    if (x.rank() > 2) x = x.Reshape({stop - start, -1});
    if (features.dim(1) == 0) features = Tensor({n, x.dim(1)});
    std::copy(x.data(), x.data() + x.size(),
              features.data() + start * x.dim(1));
  }
  const std::int64_t f = features.dim(1);
  {
    Scoped pack(tracer, names.sign_pack, request);
    packed = core::BitMatrix::FromSignRows(
        std::span<const float>(features.data(),
                               static_cast<std::size_t>(n * f)),
        n, f);
  }
  Scoped backend(tracer, names.backend, request);
  return engine.backend().PredictPacked(packed);
}

/// ModelServer's post-serve hooks: drift, then a due check. Returns whether
/// either ran.
bool RunHooks(const Workload& workload, ReplayModel& model, Tracer& tracer,
              const CommonNames& names, std::uint64_t request) {
  ++model.requests;
  engine::Engine& engine = model.engine;
  if (!workload.hooks() || !engine.SupportsHealth()) return false;
  health::BackendHealthAdapter& adapter = *engine.backend().health_adapter();
  bool ran = false;
  if (workload.drift_ber > 0.0 && workload.drift_every > 0 &&
      model.requests % workload.drift_every == 0) {
    ran = true;
    Scoped drift(tracer, names.drift, request);
    const std::uint64_t seed = serve::HealthServingConfig{}.drift_seed;
    for (int chip = 0; chip < adapter.num_chips(); ++chip) {
      adapter.InjectChipDrift(chip, workload.drift_ber,
                              seed + model.requests * 1000003ull +
                                  static_cast<std::uint64_t>(chip) * 7919ull);
    }
  }
  if (workload.check_every > 0 && model.requests % workload.check_every == 0 &&
      adapter.SupportsReadback()) {
    ran = true;
    Scoped check(tracer, names.check, request);
    engine.Health().CheckNow();
  }
  return ran;
}

/// Each GEMM stage's patch gather and XNOR GEMM, as BnnProgram::ScoresBatch
/// calls them (a depthwise stage one channel at a time), on the stage's
/// seeded input bits: the kernels' cost does not depend on the bit values.
void StageKernels(const ReplayModel& model, Tracer& tracer,
                  std::uint64_t request) {
  const std::vector<const core::PackedGemmStage*> stages =
      model.engine.compiled_program().GemmStages();
  std::vector<std::int32_t> pops;
  for (std::size_t g = 0; g < stages.size(); ++g) {
    const core::PackedGemmStage& stage = *stages[g];
    const StageNames& sn = model.stage_names[g];
    const core::BitMatrix& input = model.stage_inputs[g];
    const std::int64_t channels =
        stage.lowering == core::GemmLowering::kDepthwise ? stage.units() : 1;
    for (std::int64_t c = 0; c < channels; ++c) {
      core::BitMatrix im2col;
      if (stage.lowering != core::GemmLowering::kDense) {
        Scoped patch(tracer, sn.patch, request);
        im2col = stage.lowering == core::GemmLowering::kConv
                     ? core::BuildPatchMatrix(input, stage.geom, 0,
                                              stage.geom.in_channels)
                     : core::BuildPatchMatrix(input, stage.geom, c, c + 1);
      }
      Scoped gemm(tracer, sn.gemm, request);
      if (stage.lowering == core::GemmLowering::kDepthwise) {
        core::XnorPopcountGemm(im2col, stage.weights.RowSlice(c, c + 1), pops);
      } else {
        core::XnorPopcountGemm(
            stage.lowering == core::GemmLowering::kConv ? im2col : input,
            stage.weights, pops);
      }
    }
  }
}

/// Median duration of a span with nothing in it: the tracer's own cost
/// inside every span it records.
double EmptySpanUs() {
  Tracer tracer(true);
  const int name = tracer.Intern("empty");
  for (int i = 0; i < 4096; ++i) tracer.End(tracer.Begin(name, 0));
  std::vector<double> us;
  for (const Span& s : tracer.spans()) {
    us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
  }
  return Percentile(std::move(us), 0.5);
}

std::uint64_t TotalReprograms(std::vector<ReplayModel>& models) {
  std::uint64_t total = 0;
  for (ReplayModel& m : models) {
    if (m.engine.SupportsHealth()) total += m.engine.Health().total_reprograms();
  }
  return total;
}

struct NameTotals {
  double total_us = 0.0;
  double self_us = 0.0;
};

void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  const std::int64_t origin =
      tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  for (const Span& s : tracer.spans()) {
    out << "{\"name\":\"" << tracer.name(s.name) << "\",\"start_ns\":"
        << s.start_ns - origin << ",\"end_ns\":" << s.end_ns - origin
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

}  // namespace

ReplayResult RunReplay(const Workload& workload, const RequestSet& requests,
                       const std::string& trace_path) {
  const std::uint64_t total = static_cast<std::uint64_t>(workload.replay_requests);
  ReplayResult result;
  LoadTimes loads;

  // Four arms per model, each with its own deployed engine and health
  // state: the in-process server (ModelServer::Handle), a plain engine
  // (Engine::Predict), and the reconstruction untraced and traced. Every
  // request runs on all four in turn, so drift of the host's speed affects
  // them alike.
  serve::RegistryConfig registry_config;
  registry_config.backend_override = workload.backend;
  serve::HealthServingConfig health_config;
  health_config.drift_ber = workload.drift_ber;
  health_config.drift_every_requests = workload.drift_every;
  health_config.check_every_requests = workload.check_every;
  serve::ModelServer server(registry_config, health_config);
  Tracer off(false), on(true);
  const CommonNames off_names(off), on_names(on);
  std::vector<engine::Engine> plain;
  std::vector<ReplayModel> untraced, traced;
  for (std::size_t m = 0; m < requests.num_models(); ++m) {
    server.registry().Register(requests.model_name(m), requests.artifact(m));
    (void)server.registry().Acquire(requests.model_name(m));
    plain.push_back(LoadEngine(requests.artifact(m), workload.backend, loads));
    untraced.push_back(MakeReplayModel(requests, m, workload, off, loads));
    traced.push_back(MakeReplayModel(requests, m, workload, on, loads));
  }

  // Warm-up: every distinct request once on every arm, through predicts
  // only, so no health hook fires and no span is recorded.
  core::BitMatrix packed;
  for (std::uint64_t k = 0; k < requests.cycle(); ++k) {
    const std::size_t m = requests.ModelOf(k);
    const Tensor& batch = requests.Get(k).batch;
    (void)server.registry()
        .Acquire(requests.model_name(m))
        ->engine()
        .Predict(batch);
    (void)plain[m].Predict(batch);
    (void)ReconstructedPredict(untraced[m], batch, off, off_names, k, packed);
    (void)ReconstructedPredict(traced[m], batch, off, on_names, k, packed);
  }

  std::vector<double> handle_us, predict_us, handle_glue_us, untraced_us;
  // Per request: model index * 2 + whether a health hook ran.
  std::vector<int> kind;
  std::vector<std::uint64_t> model_requests(requests.num_models(), 0);
  for (std::uint64_t k = 0; k < total; ++k) {
    const std::size_t m = requests.ModelOf(k);
    const serve::Request& request = requests.Get(k);
    const std::vector<std::int64_t>& expected = requests.Expected(k);
    ++model_requests[m];

    const Clock::time_point t0 = Clock::now();
    const serve::Response handled = server.Handle(request);
    const Clock::time_point t1 = Clock::now();
    const std::vector<std::int64_t> predicted = plain[m].Predict(request.batch);
    const Clock::time_point t2 = Clock::now();
    handle_us.push_back(Micros(t1 - t0));
    predict_us.push_back(Micros(t2 - t1));
    handle_glue_us.push_back(Micros((t1 - t0) - (t2 - t1)));
    if (!handled.ok || handled.predictions != expected ||
        predicted != expected) {
      ++result.mismatches;
    }

    // Both reconstructions look the model up in the server's registry, as
    // Handle does, then predict on their own engine.
    const Clock::time_point t3 = Clock::now();
    (void)server.registry().Acquire(request.model);
    if (ReconstructedPredict(untraced[m], request.batch, off, off_names, k,
                             packed) != expected) {
      ++result.mismatches;
    }
    (void)RunHooks(workload, untraced[m], off, off_names, k);
    untraced_us.push_back(Micros(Clock::now() - t3));

    const std::vector<std::uint8_t> payload = serve::EncodeRequest(request);
    serve::Request decoded;
    {
      Scoped decode(on, on_names.decode, k);
      decoded = serve::DecodeRequest(payload);
    }
    serve::Response response;
    response.id = decoded.id;
    response.model = decoded.model;
    response.backend = workload.backend;
    {
      Scoped root(on, on_names.request, k);
      {
        Scoped acquire(on, on_names.acquire, k);
        (void)server.registry().Acquire(decoded.model);
      }
      response.predictions = ReconstructedPredict(traced[m], decoded.batch, on,
                                                  on_names, k, packed);
      const bool hooked = RunHooks(workload, traced[m], on, on_names, k);
      kind.push_back(static_cast<int>(m) * 2 + (hooked ? 1 : 0));
    }
    {
      Scoped encode(on, on_names.encode, k);
      (void)serve::EncodeResponse(response);
    }
    if (response.predictions != expected) ++result.mismatches;
    {
      Scoped program(on, on_names.program, k);
      (void)traced[m].engine.compiled_program().PredictPacked(packed);
    }
    StageKernels(traced[m], on, k);
  }
  std::uint64_t reprograms_handle = 0;
  for (const serve::ModelHealthWire& h : server.CollectHealth("")) {
    reprograms_handle += h.reprograms;
  }
  const std::uint64_t reprograms_untraced = TotalReprograms(untraced);
  const std::uint64_t reprograms_traced = TotalReprograms(traced);
  if (reprograms_untraced != reprograms_handle ||
      reprograms_traced != reprograms_handle) {
    throw std::runtime_error(
        "health reprograms differ between replays of the same requests: "
        "Handle " + std::to_string(reprograms_handle) + ", untraced " +
        std::to_string(reprograms_untraced) + ", traced " +
        std::to_string(reprograms_traced));
  }
  WriteSpans(on, trace_path);

  // -- Aggregate spans into per-name totals and self times -----------------
  const std::vector<Span>& spans = on.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    }
  }
  // The leaf layers of a request: the registry lookup, every prefix layer,
  // the sign-pack, the backend call and the health hooks. Coverage counts
  // only their time, less the tracer's own cost inside each span, so copies
  // in nn.prefix and engine.predict and Handle's own work stay uncovered.
  // Each kind of request (model, and whether a health hook ran) counts with
  // its number of requests at the median time of that kind, in leaf and in
  // Handle time alike: a host stall in one arm moves nothing, and the rare
  // hook requests keep their share of the time.
  std::vector<char> leaf(on.num_names(), 0);
  for (const ReplayModel& model : traced) {
    for (const int id : model.layer_names) {
      leaf[static_cast<std::size_t>(id)] = 1;
    }
  }
  for (const int id : {on_names.acquire, on_names.sign_pack, on_names.backend,
                       on_names.drift, on_names.check}) {
    leaf[static_cast<std::size_t>(id)] = 1;
  }
  const double empty_span_us = EmptySpanUs();
  std::vector<double> leaf_us(total, 0.0);
  std::vector<NameTotals> by_name(on.num_names());
  std::vector<double> traced_request_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns -
                                           spans[i].start_ns) / 1000.0;
    NameTotals& t = by_name[static_cast<std::size_t>(spans[i].name)];
    t.total_us += dur;
    t.self_us += dur - child_us[i];
    if (spans[i].name == on_names.request) traced_request_us.push_back(dur);
    if (leaf[static_cast<std::size_t>(spans[i].name)]) {
      leaf_us[spans[i].request] += std::max(0.0, dur - empty_span_us);
    }
  }
  const auto per_request = [&](int name) {
    return by_name[static_cast<std::size_t>(name)].total_us /
           static_cast<double>(total);
  };
  double first_conv = 0.0, matmul = 0.0, elementwise = 0.0, gemm = 0.0;
  for (std::size_t m = 0; m < traced.size(); ++m) {
    const ReplayModel& model = traced[m];
    const double n_model = static_cast<double>(model_requests[m]);
    bool seen_conv = false;
    for (std::size_t i = 0; i < model.layer_names.size(); ++i) {
      const int id = model.layer_names[i];
      const double t = by_name[static_cast<std::size_t>(id)].total_us;
      const std::string kind = Kind(model.engine.net()[i].Name());
      (IsMatmulKind(kind) ? matmul : elementwise) += t;
      if (kind == "Conv2d" && !seen_conv) {
        first_conv += t;
        seen_conv = true;
      }
      result.detail.push_back({on.name(id) + "_us", t / n_model, "us"});
    }
    for (const StageNames& sn : model.stage_names) {
      const double patch = by_name[static_cast<std::size_t>(sn.patch)].total_us;
      const double g = by_name[static_cast<std::size_t>(sn.gemm)].total_us;
      gemm += g;
      if (patch > 0.0) {
        result.detail.push_back({on.name(sn.patch) + "_us", patch / n_model,
                                 "us"});
      }
      result.detail.push_back({on.name(sn.gemm) + "_us", g / n_model, "us"});
    }
  }
  const double n = static_cast<double>(total);
  const double handle_mean = Mean(handle_us);
  result.hooks_mean_us =
      per_request(on_names.drift) + per_request(on_names.check);
  result.predict_mean_us = Mean(predict_us);

  auto& out = result.metrics;
  out.push_back({"nn.prefix_us", per_request(on_names.nn_prefix), "us"});
  out.push_back({"nn.first_conv_us", first_conv / n, "us"});
  out.push_back({"nn.conv_us", matmul / n, "us"});
  out.push_back({"nn.elementwise_us", elementwise / n, "us"});
  out.push_back({"core.sign_pack_us", per_request(on_names.sign_pack), "us"});
  out.push_back({"core.program_us", per_request(on_names.program), "us"});
  out.push_back({"core.gemm_us", gemm / n, "us"});
  out.push_back({"engine.predict_us", result.predict_mean_us, "us"});
  out.push_back({"engine.backend_us", per_request(on_names.backend), "us"});
  out.push_back({"engine.glue_us",
                 by_name[static_cast<std::size_t>(on_names.engine_predict)]
                         .self_us / n,
                 "us"});
  out.push_back({"engine.deploy_us", Mean(loads.deploy_us), "us"});
  out.push_back({"io.load_us", Mean(loads.load_us), "us"});
  out.push_back({"serve.decode_us", per_request(on_names.decode), "us"});
  out.push_back({"serve.encode_us", per_request(on_names.encode), "us"});
  out.push_back({"serve.acquire_us", per_request(on_names.acquire), "us"});
  out.push_back({"serve.handle_us", handle_mean, "us"});
  // Median of the paired differences: the typical request runs no hook.
  out.push_back({"serve.handle_glue_us", Percentile(handle_glue_us, 0.5),
                 "us"});
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> kinds;
  for (std::uint64_t k = 0; k < total; ++k) {
    kinds[kind[k]].first.push_back(leaf_us[k]);
    kinds[kind[k]].second.push_back(handle_us[k]);
  }
  double covered_us = 0.0, handled_us = 0.0;
  for (auto& [key, times] : kinds) {
    const double count = static_cast<double>(times.first.size());
    covered_us += count * Percentile(std::move(times.first), 0.5);
    handled_us += count * Percentile(std::move(times.second), 0.5);
  }
  const double coverage = covered_us / handled_us;
  out.push_back({"trace.coverage", coverage, "fraction"});
  // Median of the paired per-request differences: one slow request in
  // either arm does not move it.
  std::vector<double> overhead_us;
  for (std::size_t k = 0; k < traced_request_us.size(); ++k) {
    overhead_us.push_back(traced_request_us[k] - untraced_us[k]);
  }
  out.push_back({"trace.overhead_us", Percentile(std::move(overhead_us), 0.5),
                 "us"});

  result.detail.push_back({"health.drift_us", per_request(on_names.drift), "us"});
  result.detail.push_back({"health.check_us", per_request(on_names.check), "us"});
  result.detail.push_back({"health.replay_reprograms",
                           static_cast<double>(reprograms_traced), "count"});
  result.detail.push_back({"trace.empty_span_us", empty_span_us, "us"});
  result.detail.push_back({"trace.spans_per_request",
                           static_cast<double>(spans.size()) / n, "count"});
  const double predict = result.predict_mean_us;
  result.checks.push_back(
      MakeCheck(workload, "trace.coverage", coverage, 0.95));
  result.checks.push_back(MakeCheck(workload, "share.prefix_of_predict",
                                    per_request(on_names.nn_prefix) / predict,
                                    0.9));
  result.checks.push_back(MakeCheck(workload, "share.backend_of_predict",
                                    per_request(on_names.backend) / predict,
                                    0.6));
  return result;
}

}  // namespace perfbench
