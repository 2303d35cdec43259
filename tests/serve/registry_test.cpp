// ModelRegistry semantics: lazy loading, LRU eviction at capacity,
// mtime-based hot reload, forced reload, stats persistence, and — the
// acceptance property — registry-served predictions bit-identical to
// Engine::FromArtifact + Predict in-process on every backend, including
// under concurrent eviction pressure.
#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve_test_util.h"

namespace rrambnn::serve {
namespace {

namespace fs = std::filesystem;

/// A registry over `copies` byte-identical copies of the shared artifact,
/// named m0, m1, ... (copies, not one file: eviction tests need distinct
/// registrations).
class CopiedArtifacts {
 public:
  explicit CopiedArtifacts(int copies) {
    const SharedArtifact& shared = GetSharedArtifact();
    for (int i = 0; i < copies; ++i) {
      files_.push_back(std::make_unique<TempFile>(
          "copy" + std::to_string(i) + ".rbnn"));
      fs::copy_file(shared.path, files_.back()->path(),
                    fs::copy_options::overwrite_existing);
    }
  }
  // Built with append, not operator+: GCC 12 raises a -Wrestrict false
  // positive on the inlined concatenation under -O2.
  std::string name(int i) const {
    std::string result("m");
    result.append(std::to_string(i));
    return result;
  }
  const std::string& path(int i) const {
    return files_[static_cast<std::size_t>(i)]->path();
  }
  void RegisterAll(ModelRegistry& registry) const {
    for (std::size_t i = 0; i < files_.size(); ++i) {
      registry.Register(name(static_cast<int>(i)), files_[i]->path());
    }
  }

 private:
  std::vector<std::unique_ptr<TempFile>> files_;
};

TEST(ModelRegistry, ConfigValidated) {
  RegistryConfig bad_capacity;
  bad_capacity.capacity = 0;
  EXPECT_THROW(ModelRegistry{bad_capacity}, std::invalid_argument);
  EXPECT_THROW(ModelRegistry{}.Register("", "x.rbnn"), std::invalid_argument);
}

TEST(ModelRegistry, UnknownModelThrowsWithRegisteredList) {
  ModelRegistry registry;
  registry.Register("ecg", GetSharedArtifact().path);
  try {
    registry.Acquire("no-such-model");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-model"), std::string::npos) << message;
    EXPECT_NE(message.find("ecg"), std::string::npos) << message;
  }
  EXPECT_THROW(registry.Reload("no-such-model"), std::invalid_argument);
}

TEST(ModelRegistry, MissingArtifactSurfacesRuntimeError) {
  ModelRegistry registry;
  registry.Register("ghost", "/nonexistent/ghost.rbnn");
  EXPECT_THROW(registry.Acquire("ghost"), std::runtime_error);
}

TEST(ModelRegistry, LazyLoadAndMemoizedAcquire) {
  ModelRegistry registry;
  registry.Register("ecg", GetSharedArtifact().path);
  EXPECT_EQ(registry.resident_count(), 0u);  // Register never touches disk
  EXPECT_EQ(registry.loads(), 0u);

  const std::shared_ptr<ServedModel> first = registry.Acquire("ecg");
  EXPECT_EQ(registry.resident_count(), 1u);
  EXPECT_EQ(registry.loads(), 1u);
  EXPECT_TRUE(first->engine().deployed());

  // A second Acquire hands back the same resident engine, no reload.
  EXPECT_EQ(registry.Acquire("ecg").get(), first.get());
  EXPECT_EQ(registry.loads(), 1u);
}

/// The acceptance property, registry edition: every backend's served
/// predictions equal a hand-loaded engine's, element for element.
TEST(ModelRegistry, PredictionsBitIdenticalToInProcessOnAllBackends) {
  const SharedArtifact& shared = GetSharedArtifact();
  for (const std::string backend :
       {"reference", "fault", "rram", "rram-sharded"}) {
    RegistryConfig config;
    config.backend_override = backend;
    ModelRegistry registry(config);
    registry.Register("ecg", shared.path);
    const std::shared_ptr<ServedModel> model = registry.Acquire("ecg");
    EXPECT_EQ(model->engine().backend().name(), backend);
    EXPECT_EQ(model->engine().Predict(shared.data.x),
              InProcessPredictions(backend, shared.data.x))
        << backend;
  }
}

TEST(ModelRegistry, LruEvictionAtCapacity) {
  CopiedArtifacts artifacts(3);
  RegistryConfig config;
  config.capacity = 2;
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  (void)registry.Acquire("m0");
  (void)registry.Acquire("m1");
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_EQ(registry.evictions(), 0u);

  (void)registry.Acquire("m2");  // evicts m0, the least recently used
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_EQ(registry.evictions(), 1u);
  for (const auto& info : registry.List()) {
    EXPECT_EQ(info.resident, info.name != "m0") << info.name;
  }

  (void)registry.Acquire("m1");  // touch: m2 becomes the LRU
  const std::uint64_t loads_before = registry.loads();
  (void)registry.Acquire("m0");  // reload; must evict m2, not m1
  EXPECT_EQ(registry.loads(), loads_before + 1);
  for (const auto& info : registry.List()) {
    EXPECT_EQ(info.resident, info.name != "m2") << info.name;
  }
}

TEST(ModelRegistry, EvictedModelSurvivesWhileHeld) {
  CopiedArtifacts artifacts(2);
  RegistryConfig config;
  config.capacity = 1;
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  const std::shared_ptr<ServedModel> held = registry.Acquire("m0");
  (void)registry.Acquire("m1");  // evicts m0 from the registry
  EXPECT_EQ(registry.resident_count(), 1u);
  // The in-flight handle still owns a live, deployed engine.
  const SharedArtifact& shared = GetSharedArtifact();
  EXPECT_EQ(held->engine().Predict(shared.data.x),
            InProcessPredictions("reference", shared.data.x));
}

TEST(ModelRegistry, HotReloadOnMtimeChange) {
  CopiedArtifacts artifacts(1);
  ModelRegistry registry;
  artifacts.RegisterAll(registry);

  const std::uint64_t gen1 = registry.Acquire("m0")->generation();
  // Same content, newer mtime — exactly what a trainer re-saving over the
  // serving path looks like (atomic rename, then a fresh timestamp). The
  // explicit +2s sidesteps filesystem timestamp granularity.
  fs::last_write_time(artifacts.path(0),
                      fs::last_write_time(artifacts.path(0)) +
                          std::chrono::seconds(2));
  const std::shared_ptr<ServedModel> reloaded = registry.Acquire("m0");
  EXPECT_NE(reloaded->generation(), gen1);
  EXPECT_EQ(registry.loads(), 2u);
  // Stable mtime: no further reloads.
  EXPECT_EQ(registry.Acquire("m0").get(), reloaded.get());
  EXPECT_EQ(registry.loads(), 2u);
}

TEST(ModelRegistry, HotReloadCanBeDisabled) {
  CopiedArtifacts artifacts(1);
  RegistryConfig config;
  config.hot_reload = false;
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  const std::shared_ptr<ServedModel> first = registry.Acquire("m0");
  fs::last_write_time(artifacts.path(0),
                      fs::last_write_time(artifacts.path(0)) +
                          std::chrono::seconds(2));
  EXPECT_EQ(registry.Acquire("m0").get(), first.get());
  EXPECT_EQ(registry.loads(), 1u);
}

TEST(ModelRegistry, ReloadForcesFreshEngineAndKeepsStats) {
  ModelRegistry registry;
  registry.Register("ecg", GetSharedArtifact().path);
  const std::shared_ptr<ServedModel> first = registry.Acquire("ecg");
  first->RecordRequest(60, 1000.0);

  registry.Reload("ecg");
  EXPECT_EQ(registry.resident_count(), 0u);
  const std::shared_ptr<ServedModel> second = registry.Acquire("ecg");
  EXPECT_NE(second->generation(), first->generation());
  // Statistics live with the registration, not the resident engine.
  EXPECT_EQ(second->stats().requests, 1u);
  EXPECT_EQ(second->stats().rows, 60u);
  const auto infos = registry.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].stats.requests, 1u);
}

/// Peek is a pure read: no load, no hot-reload, and no LRU recency touch —
/// the stats path must observe the registry without steering eviction.
TEST(ModelRegistry, PeekNeverLoadsNorTouchesLru) {
  CopiedArtifacts artifacts(3);
  RegistryConfig config;
  config.capacity = 2;
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  EXPECT_EQ(registry.Peek("m0"), nullptr);  // not resident, not loaded
  EXPECT_EQ(registry.loads(), 0u);
  EXPECT_EQ(registry.Peek("unknown"), nullptr);  // unknown: null, no throw

  const std::shared_ptr<ServedModel> m0 = registry.Acquire("m0");
  (void)registry.Acquire("m1");
  EXPECT_EQ(registry.Peek("m0").get(), m0.get());
  // Peeking m0 must NOT refresh its recency: m0 is still the LRU victim.
  (void)registry.Acquire("m2");
  for (const auto& info : registry.List()) {
    EXPECT_EQ(info.resident, info.name != "m0") << info.name;
  }
}

/// Eviction under load: threads hammer three models through a capacity-1
/// registry, so nearly every Acquire evicts and reloads while other threads
/// hold and serve the evicted engines. Every prediction must still be
/// bit-identical to the in-process reference.
TEST(ModelRegistry, ConcurrentAcquireUnderEvictionPressure) {
  CopiedArtifacts artifacts(3);
  RegistryConfig config;
  config.capacity = 1;
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  const SharedArtifact& shared = GetSharedArtifact();
  // A small slice keeps per-iteration cost low (the load, not the GEMM, is
  // the stressor here).
  const std::int64_t rows = 8;
  Shape slice_shape = shared.data.x.shape();
  slice_shape[0] = rows;
  const std::int64_t sample_elems = shared.data.x.size() / shared.data.x.dim(0);
  const Tensor slice(slice_shape,
                     std::vector<float>(shared.data.x.data(),
                                        shared.data.x.data() +
                                            rows * sample_elems));
  const std::vector<std::int64_t> expected =
      InProcessPredictions("reference", slice);

  constexpr int kThreads = 6;
  constexpr int kIters = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (int i = 0; i < kIters; ++i) {
          const std::shared_ptr<ServedModel> model =
              registry.Acquire(artifacts.name((t + i) % 3));
          std::unique_lock<std::shared_mutex> lock(model->serve_mutex());
          if (model->engine().Predict(slice) != expected) ++mismatches;
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(registry.resident_count(), 1u);
  EXPECT_GT(registry.evictions(), 0u);
}

/// The thousands-resident fleet mode: mapped models neither count against
/// capacity nor get evicted — their bulk bytes live in the shared page
/// cache, so keeping them "resident" costs only the structural chunks.
TEST(ModelRegistry, ResidentMappedModelsExemptFromEviction) {
  CopiedArtifacts artifacts(4);
  RegistryConfig config;
  config.capacity = 1;  // would evict aggressively in the default mode
  config.resident_mapped = true;
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  for (int i = 0; i < 4; ++i) (void)registry.Acquire(artifacts.name(i));
  EXPECT_EQ(registry.resident_count(), 4u);  // all stay, capacity 1
  EXPECT_EQ(registry.evictions(), 0u);
  EXPECT_GT(registry.resident_bytes(), 0u);

  std::uint64_t summed = 0;
  for (const ModelRegistry::ModelInfo& info : registry.List()) {
    ASSERT_TRUE(info.resident) << info.name;
    EXPECT_EQ(info.load_mode, io::ArtifactLoadMode::kMapped) << info.name;
    EXPECT_GT(info.mapped_bytes, info.resident_bytes) << info.name;
    summed += info.resident_bytes;
  }
  EXPECT_EQ(registry.resident_bytes(), summed);
}

/// Forced-copy loads stay under LRU discipline even in resident-mapped
/// mode: the exemption is for models whose bulk bytes are reclaimable page
/// cache, not for private copies.
TEST(ModelRegistry, CopiedModelsStillObeyLruInResidentMappedMode) {
  CopiedArtifacts artifacts(3);
  RegistryConfig config;
  config.capacity = 2;
  config.resident_mapped = true;
  config.load.allow_mmap = false;  // every load is a private copy
  ModelRegistry registry(config);
  artifacts.RegisterAll(registry);

  for (int i = 0; i < 3; ++i) (void)registry.Acquire(artifacts.name(i));
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_EQ(registry.evictions(), 1u);
  for (const ModelRegistry::ModelInfo& info : registry.List()) {
    if (!info.resident) continue;
    EXPECT_EQ(info.load_mode, io::ArtifactLoadMode::kCopied) << info.name;
    EXPECT_EQ(info.mapped_bytes, 0u) << info.name;
  }
}

}  // namespace
}  // namespace rrambnn::serve
