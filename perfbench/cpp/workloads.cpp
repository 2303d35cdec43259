#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "data/ecg_synth.h"
#include "data/eeg_synth.h"
#include "data/image_synth.h"
#include "data/preprocess.h"
#include "engine/engine.h"
#include "serve/demo_tasks.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace rrambnn;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w(3);
    // The float prefix is ~98% of each predict; the packed kernels <0.5%.
    w[0].name = "ecg-batch";
    w[0].models = {"ecg"};
    w[0].backend = "reference";
    w[0].rows_per_request = 60;
    w[0].pool_per_model = 8;
    w[0].replay_requests = 160;
    w[0].unloaded_requests = 100;
    w[0].rationale_check = "share.prefix_of_predict";
    // The packed conv program (patch gather + XNOR GEMM over readback
    // substrates, per-call shard threads) dominates each predict.
    w[1].name = "image-conv";
    w[1].models = {"image"};
    w[1].backend = "rram-sharded";
    w[1].rows_per_request = 60;
    w[1].pool_per_model = 16;
    w[1].replay_requests = 240;
    w[1].unloaded_requests = 150;
    w[1].rationale_check = "share.backend_of_predict";
    // One-window requests: per-request fixed costs and the exclusive health
    // write path (drift, check, reprogram) beside shared reads.
    w[2].name = "monitor-stream";
    w[2].models = {"ecg", "eeg"};
    w[2].backend = "rram-sharded";
    w[2].rows_per_request = 1;
    w[2].open_loop = true;
    w[2].rate_per_s = 1000.0;
    w[2].drift_ber = 0.05;
    w[2].drift_every = 32;
    w[2].check_every = 32;
    w[2].daemon_flags = {"--drift-ber", "0.05", "--drift-every", "32",
                         "--health-check-every", "32"};
    w[2].pool_per_model = 128;
    w[2].replay_requests = 1280;
    // 192 per model: exactly six drift + check events each, whatever the
    // phase of the daemon's request counters, as in the replay's mean.
    w[2].unloaded_requests = 384;
    w[2].rationale_check = "share.transport_wait_over_predict";
    return w;
  }();
  return workloads;
}

const Workload& FindWorkload(const std::string& name) {
  std::string known;
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

Check MakeCheck(const Workload& workload, const std::string& name,
                double value, double min) {
  const bool gated = name == "trace.coverage";
  return {name, value, min, gated || name == workload.rationale_check, gated};
}

std::string FixturePath(const std::string& dir, const std::string& model) {
  return (fs::path(dir) / (model + ".rbnn")).string();
}

void PrepareFixtures(const std::string& dir) {
  fs::create_directories(dir);
  for (const std::string task : {"ecg", "eeg", "image"}) {
    const std::string path = FixturePath(dir, task);
    if (fs::exists(path)) continue;
    const serve::DemoTask demo = serve::MakeDemoTask(task);
    engine::Engine trainer(serve::DemoServingConfig(3), demo.factory);
    (void)trainer.Train(demo.train, demo.val);
    trainer.SaveArtifact(path);  // atomic: temp file + rename
  }
}

namespace {

/// Raw inputs of `count` windows, drawn with the generators and
/// preprocessing of serve::MakeDemoTask for the same task.
Tensor GenerateInputs(const std::string& task, std::int64_t count, Rng& rng) {
  nn::Dataset data;
  if (task == "ecg") {
    data::EcgSynthConfig dc;
    dc.samples = 200;
    dc.sample_rate_hz = 100.0;
    data = data::MakeEcgDataset(dc, count, rng);
  } else if (task == "eeg") {
    data::EegSynthConfig dc;
    dc.channels = 16;
    dc.samples = 192;
    dc.sample_rate_hz = 80.0;
    dc.erd_attenuation = 0.5;
    dc.noise_amplitude = 1.2;
    data = data::MakeEegDataset(dc, count, rng);
    data::NormalizePerChannel(data);
  } else if (task == "image") {
    data::ImageSynthConfig dc;
    dc.size = 12;
    dc.channels = 2;
    dc.num_classes = 4;
    data = data::MakeImageDataset(dc, count, rng);
  } else {
    throw std::invalid_argument("no input generator for task '" + task + "'");
  }
  return data.x;
}

Tensor SliceRows(const Tensor& x, std::int64_t begin, std::int64_t end) {
  const std::int64_t per_row = x.size() / x.dim(0);
  Shape shape = x.shape();
  shape[0] = end - begin;
  return Tensor(shape, std::vector<float>(x.data() + begin * per_row,
                                          x.data() + end * per_row));
}

}  // namespace

RequestSet::RequestSet(const Workload& workload, const std::string& fixtures,
                       std::uint64_t seed)
    : fixtures_(fixtures) {
  Rng base(seed);
  for (const std::string& name : workload.models) {
    Rng rng = base.Fork();
    Pool pool;
    pool.name = name;
    const std::int64_t rows = workload.rows_per_request;
    const Tensor x = GenerateInputs(name, workload.pool_per_model * rows, rng);
    engine::Engine engine =
        engine::Engine::FromArtifact(FixturePath(fixtures, name));
    engine.Deploy(workload.backend);
    pool.num_classes = engine.compiled_program().num_classes();
    for (std::int64_t i = 0; i < workload.pool_per_model; ++i) {
      serve::Request request;
      request.kind = serve::RequestKind::kPredict;
      request.model = name;
      request.batch = SliceRows(x, i * rows, (i + 1) * rows);
      pool.expected.push_back(engine.Predict(request.batch));
      pool.requests.push_back(std::move(request));
    }
    models_.push_back(std::move(pool));
  }
}

std::string RequestSet::artifact(std::size_t m) const {
  return FixturePath(fixtures_, models_[m].name);
}

std::size_t RequestSet::PoolIndex(std::uint64_t k) const {
  const Pool& pool = models_[ModelOf(k)];
  return (k / models_.size()) % pool.requests.size();
}

const serve::Request& RequestSet::Get(std::uint64_t k) const {
  return models_[ModelOf(k)].requests[PoolIndex(k)];
}

const std::vector<std::int64_t>& RequestSet::Expected(std::uint64_t k) const {
  return models_[ModelOf(k)].expected[PoolIndex(k)];
}

void RequestSet::CorruptOneExpectation() {
  Pool& pool = models_.front();
  std::int64_t& label = pool.expected.front().front();
  label = (label + 1) % pool.num_classes;
}

void Tally::Record(const serve::Response& response,
                   const std::vector<std::int64_t>& expected,
                   double latency_us, double started) {
  if (!response.ok) {
    switch (response.code) {
      case serve::ErrorCode::kOverloaded:
        ++shed;
        break;
      case serve::ErrorCode::kDeadlineExceeded:
        ++deadline_exceeded;
        break;
      default:
        ++error_responses;
        break;
    }
    return;
  }
  if (response.predictions != expected) {
    ++mismatched;
    return;
  }
  ++ok;
  rows_ok += expected.size();
  latencies_us.push_back(latency_us);
  started_s.push_back(started);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  rows_ok += other.rows_ok;
  mismatched += other.mismatched;
  error_responses += other.error_responses;
  shed += other.shed;
  deadline_exceeded += other.deadline_exceeded;
  timeouts += other.timeouts;
  broken += other.broken;
  latencies_us.insert(latencies_us.end(), other.latencies_us.begin(),
                      other.latencies_us.end());
  started_s.insert(started_s.end(), other.started_s.begin(),
                   other.started_s.end());
}

double SlicedQuantile(const Tally& tally, double q, std::size_t slice) {
  std::vector<std::size_t> order(tally.latencies_us.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tally.started_s[a] < tally.started_s[b];
  });
  // A short last slice joins the one before it.
  const std::size_t slices = std::max<std::size_t>(1, order.size() / slice);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    const std::size_t end = s + 1 == slices ? order.size() : (s + 1) * slice;
    std::vector<double> values;
    for (std::size_t i = s * slice; i < end; ++i) {
      values.push_back(tally.latencies_us[order[i]]);
    }
    per_slice.push_back(Percentile(std::move(values), q));
  }
  return Percentile(std::move(per_slice), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace perfbench
