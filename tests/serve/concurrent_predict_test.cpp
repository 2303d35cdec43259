// Concurrent serving under the reader/writer serve locks: predicts on one
// model overlap when the backend declares concurrent_readers() (asserted
// through an instrumented backend that counts in-flight ScoresBatch
// calls), stay bit-identical while an operator thread holding the
// exclusive lock injects drift and heals the fabric between them, and the
// read-only fast path stays off for backends with health hooks configured
// (the PR 6 serve -> drift -> check ordering invariant).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "health/adapter.h"
#include "serve/model_server.h"
#include "serve_test_util.h"

namespace rrambnn::serve {
namespace {

Request PredictRequest(std::uint64_t id, const std::string& model,
                       const Tensor& batch) {
  Request request;
  request.id = id;
  request.kind = RequestKind::kPredict;
  request.model = model;
  request.batch = batch;
  return request;
}

/// Gauge shared by every InstrumentedBackend in this binary: how many
/// ScoresBatch calls are inside the backend right now, and the highest
/// the gauge ever read. Overlap is the whole point — under the old
/// per-model std::mutex the maximum could never exceed 1.
std::atomic<int> g_in_flight{0};
std::atomic<int> g_max_in_flight{0};

/// A reference backend that holds each ScoresBatch open long enough for
/// concurrent callers to pile up on the gauge. The engine serves each
/// predict as one whole ScoresBatch call, so the gauge counts request-level
/// overlap (distinct Handle() callers).
class InstrumentedBackend : public engine::InferenceBackend {
 public:
  explicit InstrumentedBackend(core::BnnProgram program)
      : inner_(std::move(program)) {}

  std::string name() const override { return "instrumented"; }
  std::int64_t input_size() const override { return inner_.input_size(); }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override {
    const int now = g_in_flight.fetch_add(1) + 1;
    int seen = g_max_in_flight.load();
    while (now > seen && !g_max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<float> result = inner_.ScoresBatch(batch);
    g_in_flight.fetch_sub(1);
    return result;
  }
  std::string Describe() const override { return "instrumented reference"; }
  engine::EnergyBreakdown EnergyReport() const override {
    return inner_.EnergyReport();
  }
  bool concurrent_readers() const override { return true; }

 private:
  engine::ReferenceBackend inner_;
};

void RegisterInstrumentedBackend() {
  static const bool once = [] {
    engine::BackendRegistry::Instance().Register(
        "instrumented",
        [](const core::BnnProgram& program, const engine::BackendSpec&) {
          return std::make_unique<InstrumentedBackend>(program);
        });
    return true;
  }();
  (void)once;
}

/// The tentpole property: predicts on ONE model from several threads
/// actually run inside the backend at the same time (shared locks), and
/// every one of them still answers the single-threaded digest.
TEST(ConcurrentPredict, SharedLocksOverlapOnOneModel) {
  RegisterInstrumentedBackend();
  const SharedArtifact& shared = GetSharedArtifact();
  RegistryConfig config;
  config.backend_override = "instrumented";
  ModelServer server(config);
  server.registry().Register("ecg", shared.path);

  const Response baseline =
      server.Handle(PredictRequest(1, "ecg", shared.data.x));
  ASSERT_TRUE(baseline.ok) << baseline.error;
  ASSERT_TRUE(server.registry()
                  .Peek("ecg")
                  ->engine()
                  .SupportsConcurrentPredict());

  g_in_flight.store(0);
  g_max_in_flight.store(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Response response = server.Handle(PredictRequest(
            static_cast<std::uint64_t>(t * 100 + i), "ecg", shared.data.x));
        if (!response.ok || response.predictions != baseline.predictions) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // 4 threads x 30 ms inside the backend: if predicts still serialized,
  // the gauge could never read 2.
  EXPECT_GE(g_max_in_flight.load(), 2)
      << "concurrent predicts serialized on the serve lock";
}

/// Shared readers racing the exclusive writer: reader threads hammer
/// predicts on a deterministic rram-sharded model while an operator thread
/// repeatedly takes the exclusive lock, drifts every chip, and heals
/// through a full CheckNow sweep. Every served answer — before, during and
/// after each drift/heal cycle — must equal the baseline digest: the
/// exclusive lock makes mutation invisible to readers, and healing restores
/// the exact fabric.
TEST(ConcurrentPredict, SharedPredictsStayBitIdenticalAcrossDriftAndHeal) {
  const SharedArtifact& shared = GetSharedArtifact();
  RegistryConfig config;
  config.backend_override = "rram-sharded";
  ModelServer server(config);
  server.registry().Register("ecg", shared.path);

  const Response baseline =
      server.Handle(PredictRequest(1, "ecg", shared.data.x));
  ASSERT_TRUE(baseline.ok) << baseline.error;
  const std::shared_ptr<ServedModel> model = server.registry().Peek("ecg");
  ASSERT_NE(model, nullptr);
  // Deterministic senses (the shared fixture's device corner): the serving
  // path is a pure read, so the shared-lock fast path is on.
  ASSERT_TRUE(model->engine().SupportsConcurrentPredict());
  ASSERT_TRUE(model->engine().SupportsHealth());

  std::atomic<bool> stop{false};
  std::atomic<bool> writer_waiting{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t id = static_cast<std::uint64_t>(t) * 1000;
      while (!stop.load()) {
        // glibc's rwlock prefers readers: an unbroken shared-lock stream
        // from 3 threads can starve the operator's exclusive acquire for
        // minutes (observed under TSan on one core). Yield while the
        // operator announces intent — the race coverage is unchanged,
        // predicts still overlap every drift/heal cycle.
        while (writer_waiting.load() && !stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const Response response =
            server.Handle(PredictRequest(++id, "ecg", shared.data.x));
        if (!response.ok || response.predictions != baseline.predictions) {
          mismatches.fetch_add(1);
        }
        served.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // The operator: exclusive lock -> drift every chip -> heal (CheckNow
  // estimates the raised BER, reprograms, verifies) -> release. Readers
  // must never observe the drifted fabric.
  for (int cycle = 0; cycle < 4; ++cycle) {
    {
      writer_waiting.store(true);
      std::unique_lock<std::shared_mutex> lock(model->serve_mutex());
      writer_waiting.store(false);
      engine::Engine& engine = model->engine();
      health::BackendHealthAdapter* adapter =
          engine.backend().health_adapter();
      ASSERT_NE(adapter, nullptr);
      for (int chip = 0; chip < adapter->num_chips(); ++chip) {
        adapter->InjectChipDrift(chip, 0.02,
                                 static_cast<std::uint64_t>(900 + cycle));
      }
      (void)engine.Health().CheckNow();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& thread : readers) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_GE(model->engine().Health().sweeps(), 4u);
}

/// The PR 6 ordering invariant's guard: a model with health hooks
/// configured must NOT take the shared-lock fast path — serve, drift and
/// check have to stay one atomic critical section per request. Hooks
/// active, drift at every request, healing at every request: digests stay
/// bit-identical under concurrency only because the whole triple holds the
/// exclusive lock. Drift BER matches the PR 6 single-threaded test (0.02):
/// the invariant requires each interval's drift to cross the EWMA-smoothed
/// heal threshold in one observation — sub-threshold drift is tolerated by
/// design and survives into later requests.
TEST(ConcurrentPredict, HealthHooksKeepServeDriftCheckAtomicUnderConcurrency) {
  const SharedArtifact& shared = GetSharedArtifact();
  RegistryConfig config;
  config.backend_override = "rram-sharded";
  HealthServingConfig health;
  health.drift_ber = 0.02;
  health.drift_every_requests = 1;
  health.check_every_requests = 1;
  ModelServer server(config, health);
  server.registry().Register("ecg", shared.path);

  const Response baseline =
      server.Handle(PredictRequest(1, "ecg", shared.data.x));
  ASSERT_TRUE(baseline.ok) << baseline.error;

  constexpr int kThreads = 3;
  constexpr int kIters = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Response response = server.Handle(PredictRequest(
            static_cast<std::uint64_t>(t * 100 + i), "ecg", shared.data.x));
        if (!response.ok || response.predictions != baseline.predictions) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  const std::shared_ptr<ServedModel> model = server.registry().Peek("ecg");
  ASSERT_NE(model, nullptr);
  // Drift really ran (every request), and every digest above still matched:
  // the exclusive-lock triple did its job.
  EXPECT_GE(model->engine().Health().sweeps(),
            static_cast<std::uint64_t>(kThreads * kIters));
}

}  // namespace
}  // namespace rrambnn::serve
