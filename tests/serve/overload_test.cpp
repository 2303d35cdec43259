// Admission control and deadlines under load: the accounting invariant
// (every sent predict is answered exactly once — accepted, shed with a
// retryable Overloaded, or DeadlineExceeded — and the three counts sum to
// the sends) holds on all four backends, accepted answers stay
// bit-identical to in-process evaluation, a slow backend pinned at the
// per-model cap is guaranteed to shed, deadlines expire both before
// admission and while waiting for the serve lock, and the TCP front end's
// queue-depth cap sheds predict frames on the loop thread while letting
// stats verbs through.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "engine/registry.h"
#include "serve/model_server.h"
#include "serve/tcp_transport.h"
#include "serve_test_util.h"

namespace rrambnn::serve {
namespace {

Request PredictRequest(std::uint64_t id, const std::string& model,
                       const Tensor& batch, std::uint64_t deadline_ms = 0) {
  Request request;
  request.id = id;
  request.kind = RequestKind::kPredict;
  request.model = model;
  request.batch = batch;
  request.deadline_ms = deadline_ms;
  return request;
}

/// A reference backend that holds each ScoresBatch open long enough for
/// concurrent callers to pile up against the admission caps.
class SlowBackend : public engine::InferenceBackend {
 public:
  explicit SlowBackend(core::BnnProgram program) : inner_(std::move(program)) {}
  std::string name() const override { return "slow"; }
  std::int64_t input_size() const override { return inner_.input_size(); }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return inner_.ScoresBatch(batch);
  }
  std::string Describe() const override { return "slow reference"; }
  engine::EnergyBreakdown EnergyReport() const override {
    return inner_.EnergyReport();
  }
  bool concurrent_readers() const override { return true; }

 private:
  engine::ReferenceBackend inner_;
};

void RegisterSlowBackend() {
  static const bool once = [] {
    engine::BackendRegistry::Instance().Register(
        "slow", [](const core::BnnProgram& program, const engine::BackendSpec&) {
          return std::make_unique<SlowBackend>(program);
        });
    return true;
  }();
  (void)once;
}

/// The soak + accounting invariant, per backend: hammer one model from
/// several threads through a tight per-model cap; every response is exactly
/// one of accepted / Overloaded / DeadlineExceeded, the three counts sum to
/// the number of sends, the server-side counters agree, and every accepted
/// answer is bit-identical to the in-process engine.
TEST(Overload, SoakAccountingAndBitIdentityOnAllBackends) {
  const SharedArtifact& shared = GetSharedArtifact();
  for (const std::string backend :
       {"reference", "fault", "rram", "rram-sharded"}) {
    RegistryConfig config;
    config.backend_override = backend;
    ServingLimits limits;
    limits.max_inflight_per_model = 1;
    ModelServer server(config, {}, limits);
    server.registry().Register("ecg", shared.path);
    const std::vector<std::int64_t> expected =
        InProcessPredictions(backend, shared.data.x);

    constexpr int kThreads = 4;
    constexpr int kIters = 4;
    std::atomic<std::uint64_t> accepted{0}, shed{0}, deadline{0}, other{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          const Response response = server.Handle(PredictRequest(
              static_cast<std::uint64_t>(t * 100 + i), "ecg", shared.data.x));
          if (response.ok) {
            accepted.fetch_add(1);
            if (response.predictions != expected) mismatches.fetch_add(1);
          } else if (response.code == ErrorCode::kOverloaded) {
            shed.fetch_add(1);
          } else if (response.code == ErrorCode::kDeadlineExceeded) {
            deadline.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : pool) thread.join();

    EXPECT_EQ(accepted + shed + deadline,
              static_cast<std::uint64_t>(kThreads * kIters))
        << backend;
    EXPECT_EQ(other.load(), 0u) << backend << ": hard errors under load";
    EXPECT_EQ(mismatches.load(), 0) << backend;
    EXPECT_EQ(server.shed_total(), shed.load()) << backend;
    EXPECT_EQ(server.deadline_exceeded_total(), deadline.load()) << backend;
    EXPECT_EQ(server.inflight_global(), 0u) << backend;
    const auto infos = server.registry().List();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].stats.requests, accepted.load()) << backend;
    EXPECT_EQ(infos[0].stats.shed, shed.load()) << backend;
  }
}

/// A slow backend pinned at max_inflight_per_model=1 must shed: while one
/// predict sleeps inside the backend, every concurrent arrival is refused
/// with the retryable tier, and refusals never run the predict.
TEST(Overload, SlowBackendAtPerModelCapIsGuaranteedToShed) {
  RegisterSlowBackend();
  const SharedArtifact& shared = GetSharedArtifact();
  RegistryConfig config;
  config.backend_override = "slow";
  ServingLimits limits;
  limits.max_inflight_per_model = 1;
  ModelServer server(config, {}, limits);
  server.registry().Register("ecg", shared.path);

  std::atomic<std::uint64_t> accepted{0}, shed{0};
  std::mutex refused_mutex;
  Response refused;
  const auto classify = [&](const Response& response) {
    if (response.ok) {
      accepted.fetch_add(1);
      return;
    }
    ASSERT_EQ(response.code, ErrorCode::kOverloaded) << response.error;
    shed.fetch_add(1);
    std::lock_guard<std::mutex> lock(refused_mutex);
    refused = response;
  };
  // Warm load outside the contention window.
  classify(server.Handle(PredictRequest(1, "ecg", shared.data.x)));
  ASSERT_EQ(accepted.load(), 1u);

  // The occupant keeps a predict inside the backend (30 ms each) while the
  // probe loop below looks for the guaranteed shed.
  std::atomic<bool> done{false};
  std::thread occupant([&] {
    std::uint64_t id = 1000;
    while (!done.load()) {
      classify(server.Handle(PredictRequest(++id, "ecg", shared.data.x)));
    }
  });
  for (int i = 0; i < 500 && shed.load() == 0; ++i) {
    classify(server.Handle(PredictRequest(10 + i, "ecg", shared.data.x)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  occupant.join();

  EXPECT_GE(shed.load(), 1u);
  EXPECT_NE(refused.error.find("retryable"), std::string::npos)
      << refused.error;
  EXPECT_EQ(server.shed_total(), shed.load());
  const auto infos = server.registry().List();
  EXPECT_EQ(infos[0].stats.shed, shed.load());
  EXPECT_EQ(infos[0].stats.requests, accepted.load());
}

/// The global cap trips even when no single model is over its own cap.
TEST(Overload, GlobalCapShedsAcrossModels) {
  RegisterSlowBackend();
  const SharedArtifact& shared = GetSharedArtifact();
  RegistryConfig config;
  config.backend_override = "slow";
  ServingLimits limits;
  limits.max_inflight_global = 1;
  ModelServer server(config, {}, limits);
  server.registry().Register("ecg", shared.path);
  server.registry().Register("ecg2", shared.path);
  ASSERT_TRUE(server.Handle(PredictRequest(1, "ecg", shared.data.x)).ok);
  ASSERT_TRUE(server.Handle(PredictRequest(2, "ecg2", shared.data.x)).ok);

  std::atomic<std::uint64_t> shed{0};
  const auto classify = [&](const Response& response) {
    if (!response.ok) {
      EXPECT_EQ(response.code, ErrorCode::kOverloaded) << response.error;
      shed.fetch_add(1);
    }
  };
  std::atomic<bool> done{false};
  std::thread occupant([&] {
    std::uint64_t id = 1000;
    while (!done.load()) {
      classify(server.Handle(PredictRequest(++id, "ecg", shared.data.x)));
    }
  });
  for (int i = 0; i < 500 && shed.load() == 0; ++i) {
    classify(server.Handle(PredictRequest(10 + i, "ecg2", shared.data.x)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  occupant.join();
  EXPECT_GE(shed.load(), 1u);
  EXPECT_EQ(server.shed_total(), shed.load());
}

/// A deadline that expired while the frame sat in a transport queue is
/// answered without ever loading or running the model.
TEST(Overload, ExpiredDeadlineIsRefusedBeforeTouchingTheModel) {
  const SharedArtifact& shared = GetSharedArtifact();
  ModelServer server;
  server.registry().Register("ecg", shared.path);

  RequestContext ctx;
  ctx.arrival =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(500);
  const Response response =
      server.Handle(PredictRequest(1, "ecg", shared.data.x, /*deadline=*/100),
                    ctx);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(response.error.find("never ran"), std::string::npos)
      << response.error;
  EXPECT_EQ(server.deadline_exceeded_total(), 1u);
  // The refusal was answered from the stats cell alone: no artifact load.
  EXPECT_EQ(server.registry().resident_count(), 0u);
  const auto infos = server.registry().List();
  EXPECT_EQ(infos[0].stats.deadline_exceeded, 1u);
  EXPECT_EQ(infos[0].stats.requests, 0u);
}

/// --default-deadline-ms applies the server-side deadline to requests that
/// carry none; a fresh arrival within budget still serves.
TEST(Overload, DefaultDeadlineAppliesToDeadlineFreeRequests) {
  const SharedArtifact& shared = GetSharedArtifact();
  ServingLimits limits;
  limits.default_deadline_ms = 100;
  ModelServer server({}, {}, limits);
  server.registry().Register("ecg", shared.path);

  RequestContext stale;
  stale.arrival =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(500);
  const Response expired =
      server.Handle(PredictRequest(1, "ecg", shared.data.x), stale);
  EXPECT_EQ(expired.code, ErrorCode::kDeadlineExceeded);

  const Response fresh = server.Handle(PredictRequest(2, "ecg", shared.data.x));
  EXPECT_TRUE(fresh.ok) << fresh.error;
}

/// A request whose deadline runs out while it waits for the serve lock is
/// refused after acquisition, without running the predict.
TEST(Overload, DeadlineExpiresWaitingForTheServeLock) {
  const SharedArtifact& shared = GetSharedArtifact();
  ModelServer server;
  server.registry().Register("ecg", shared.path);
  ASSERT_TRUE(server.Handle(PredictRequest(1, "ecg", shared.data.x)).ok);
  const std::shared_ptr<ServedModel> model = server.registry().Peek("ecg");
  ASSERT_NE(model, nullptr);
  const std::uint64_t requests_before = server.registry().List()[0].stats.requests;

  Response response;
  {
    // An operator holding the exclusive lock (drift injection, healing)
    // while a deadline-carrying predict arrives and waits.
    std::unique_lock<std::shared_mutex> operator_lock(model->serve_mutex());
    std::thread waiter([&] {
      response =
          server.Handle(PredictRequest(2, "ecg", shared.data.x, /*deadline=*/20));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    operator_lock.unlock();
    waiter.join();
  }
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(response.error.find("serve lock"), std::string::npos)
      << response.error;
  EXPECT_EQ(server.registry().List()[0].stats.requests, requests_before);
  EXPECT_EQ(server.deadline_exceeded_total(), 1u);
}

// ---------------------------------------------------------------------------
// TCP queue-depth cap
// ---------------------------------------------------------------------------

/// A daemon whose single worker is stuck inside a slow predict: further
/// predict frames past max_queued_frames are shed on the loop thread with
/// the retryable tier, a stats verb sails through the full queue, accepted
/// answers stay bit-identical, and accepted + shed covers every send.
TEST(Overload, TcpQueueCapShedsPredictsButAdmitsStatsVerbs) {
  RegisterSlowBackend();
  const SharedArtifact& shared = GetSharedArtifact();
  RegistryConfig registry_config;
  registry_config.backend_override = "slow";
  TcpServerConfig tcp_config;
  tcp_config.log_connections = false;
  tcp_config.worker_threads = 1;
  tcp_config.max_queued_frames = 1;
  ModelServer server(registry_config);
  server.registry().Register("ecg", shared.path);
  TcpServer tcp(server, tcp_config);
  const std::uint16_t port = tcp.Start();
  std::thread serving([&] { tcp.Run(); });
  const std::vector<std::int64_t> expected =
      InProcessPredictions("slow", shared.data.x);

  constexpr std::uint64_t kPredicts = 10;
  {
    TcpClient client("127.0.0.1", port);
    std::vector<std::uint8_t> wire;
    for (std::uint64_t id = 1; id <= kPredicts; ++id) {
      const std::vector<std::uint8_t> framed =
          FrameBytes(EncodeRequest(PredictRequest(id, "ecg", shared.data.x)));
      wire.insert(wire.end(), framed.begin(), framed.end());
    }
    // One stats verb in the middle of the overload: bypasses the cap.
    Request stats;
    stats.id = 1000;
    stats.kind = RequestKind::kStats;
    const std::vector<std::uint8_t> stats_framed =
        FrameBytes(EncodeRequest(stats));
    wire.insert(wire.end(), stats_framed.begin(), stats_framed.end());

    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(client.fd(), wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }

    std::uint64_t accepted = 0, shed = 0;
    bool stats_ok = false;
    // Sheds answer out of order relative to in-worker frames: match by id.
    for (std::uint64_t i = 0; i < kPredicts + 1; ++i) {
      const Response response = client.Receive();
      if (response.id == 1000) {
        EXPECT_TRUE(response.ok) << "stats verb shed: " << response.error;
        stats_ok = response.ok;
        continue;
      }
      ASSERT_GE(response.id, 1u);
      ASSERT_LE(response.id, kPredicts);
      if (response.ok) {
        ++accepted;
        EXPECT_EQ(response.predictions, expected) << "id " << response.id;
      } else {
        ASSERT_EQ(response.code, ErrorCode::kOverloaded) << response.error;
        EXPECT_NE(response.error.find("retryable"), std::string::npos);
        ++shed;
      }
    }
    EXPECT_TRUE(stats_ok);
    EXPECT_EQ(accepted + shed, kPredicts);
    EXPECT_GE(shed, 1u) << "queue cap never tripped";
    EXPECT_EQ(tcp.stats().shed_queue_full, shed);
    EXPECT_EQ(server.shed_total(), shed);
    EXPECT_EQ(tcp.stats().queued_frames, 0u);
  }
  tcp.RequestStop();
  serving.join();
}

}  // namespace
}  // namespace rrambnn::serve
