// Multi-model artifact registry of the serving daemon (see model_server.h).
//
// A fleet of always-on medical monitors serves many small BNNs from one
// process: the registry maps model names to `.rbnn` artifact paths and
// lazily stands each one up as a deployed engine::Engine on first use
// (Engine::FromArtifact + EnsureDeployed — predictions are therefore
// bit-identical to loading the artifact by hand). Resident engines are
// bounded by an LRU capacity, reloaded when the artifact file's mtime
// changes (a trainer re-saving over the serving path — safe because
// io::WriteChunkFile replaces artifacts atomically), and handed out as
// shared_ptr so eviction or hot-reload never rips a model out from under an
// in-flight request.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace rrambnn::serve {

/// Construction parameters of a ModelRegistry.
struct RegistryConfig {
  /// Maximum number of resident (loaded + deployed) engines; the
  /// least-recently-used model is evicted when a load would exceed it.
  std::size_t capacity = 8;
  /// Re-stat the artifact file on every Acquire and reload the model when
  /// its mtime changed since the load (hot reload).
  bool hot_reload = true;
  /// Non-empty: serve every model on this backend instead of the one stored
  /// in its artifact ("reference", "rram", "rram-sharded", "fault").
  std::string backend_override;
  /// Thousands-resident fleet mode: models whose bulk data is mmap-ed
  /// (ArtifactLoadMode::kMapped) do not count against `capacity` and are
  /// never LRU-evicted — their bit planes live in the kernel page cache
  /// (shared, reclaimable) and each model pins only its small structural
  /// copies. Copied and decompressed models still obey the LRU bound:
  /// they hold private heap bytes that eviction actually frees.
  bool resident_mapped = false;
  /// Zero-copy load policy forwarded to Engine::FromArtifact (mmap vs copy,
  /// eager vs first-touch CRC verification).
  io::LoadArtifactOptions load;
};

/// Log-bucketed latency histogram geometry, shared by the stats cells, the
/// revision-3 wire entries (protocol.h) and the metrics endpoint
/// (metrics.h): bucket i counts requests whose latency was at most 2^i
/// microseconds, and the last bucket is unbounded (+Inf). Power-of-two
/// bounds keep the cell a fixed array of relaxed atomic adds — no locks on
/// the predict path — at a 2x worst-case resolution, plenty for
/// p50/p99/p999 monitoring across the microsecond-to-minute span one
/// geometry must cover (reference sub-ms predicts and multi-second
/// transactional rram ones).
constexpr std::size_t kLatencyBuckets = 28;

/// Upper bound of bucket i in microseconds; +infinity for the last bucket.
double LatencyBucketUpperUs(std::size_t i);

/// The bucket a request latency lands in.
std::size_t LatencyBucketIndex(double latency_us);

/// Serving statistics of one resident model, accumulated by the server loop.
struct ModelStats {
  std::uint64_t requests = 0;
  std::uint64_t rows = 0;
  double total_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Per-bucket (not cumulative) request counts of the log-bucketed latency
  /// histogram — see kLatencyBuckets for the geometry.
  std::array<std::uint64_t, kLatencyBuckets> latency_buckets{};
  /// Predict requests rejected by admission control (retryable Overloaded).
  std::uint64_t shed = 0;
  /// Predict requests whose deadline expired before serving.
  std::uint64_t deadline_exceeded = 0;
  /// Predicts currently admitted and not yet answered (a gauge, not a
  /// counter: includes serve-lock wait and the Predict call itself).
  std::uint64_t inflight = 0;

  /// Aggregate serving throughput (rows over summed request latency).
  double RowsPerSec() const {
    return total_latency_us > 0.0 ? rows / (total_latency_us * 1e-6) : 0.0;
  }
  double MeanLatencyUs() const {
    return requests > 0 ? total_latency_us / static_cast<double>(requests)
                        : 0.0;
  }
  /// Upper-bound latency estimate at quantile q in [0, 1] from the log
  /// buckets (resolution: one power of two; the top bucket answers
  /// max_latency_us). Zero when no requests were recorded.
  double LatencyPercentileUs(double q) const;
};

/// Shared statistics cell of one registered model. Owned by the registry
/// entry (not the resident engine), so counters survive LRU eviction and
/// hot reloads — a fleet operator's `stats` view spans the model's whole
/// serving history in this process. Lock-free: concurrent shared-lock
/// predicts record through atomic counters rather than funneling every
/// request through one stats mutex. snapshot() reads the counters
/// individually, so a snapshot racing a record may mix fields from two
/// adjacent requests — fine for monitoring, and each counter is itself
/// never torn or lost.
class StatsCell {
 public:
  void RecordRequest(std::int64_t rows, double latency_us);

  /// Admission bookkeeping of one predict: BeginRequest returns the
  /// in-flight count including this request (the number the admission cap
  /// is checked against) and EndRequest releases the slot. Callers pair
  /// them RAII-style; a shed request releases before answering.
  std::uint64_t BeginRequest() {
    return inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void EndRequest() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

  void RecordShed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void RecordDeadlineExceeded() {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }

  ModelStats snapshot() const;

 private:
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<double> total_latency_us_{0.0};
  std::atomic<double> max_latency_us_{0.0};
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> latency_buckets_{};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> inflight_{0};
};

/// One resident model: a deployed Engine plus its serving statistics and the
/// per-model serve lock. The lock is reader/writer: backends whose serving
/// path is a pure read (engine().SupportsConcurrentPredict()) take shared
/// locks and predict concurrently on one model, while anything that mutates
/// the engine — health drift/heal hooks, a stochastic-fabric predict (the
/// simulated RRAM chip is one physical resource whose RNG state advances on
/// every read), reload bookkeeping — takes the exclusive lock.
class ServedModel {
 public:
  ServedModel(std::string name, std::string path, engine::Engine engine,
              std::filesystem::file_time_type mtime, std::uint64_t generation,
              std::shared_ptr<StatsCell> stats);

  const std::string& name() const { return name_; }
  const std::string& path() const { return path_; }
  /// Monotonic load counter of the owning registry: two ServedModels for the
  /// same name compare by generation to detect a hot reload.
  std::uint64_t generation() const { return generation_; }
  /// Artifact mtime observed at load time (the hot-reload watermark).
  std::filesystem::file_time_type loaded_mtime() const { return mtime_; }

  engine::Engine& engine() { return engine_; }
  const engine::Engine& engine() const { return engine_; }
  /// Hold while calling into engine() — see class comment. Shared for pure
  /// reads on concurrent-reader backends, exclusive for everything else.
  std::shared_mutex& serve_mutex() { return serve_mutex_; }

  void RecordRequest(std::int64_t rows, double latency_us);
  ModelStats stats() const;
  /// The registration's shared stats cell (outlives this resident engine;
  /// admission control and the metrics endpoint record through it).
  const std::shared_ptr<StatsCell>& stats_cell() const { return stats_; }

 private:
  std::string name_;
  std::string path_;
  engine::Engine engine_;
  std::filesystem::file_time_type mtime_;
  std::uint64_t generation_ = 0;
  std::shared_mutex serve_mutex_;
  std::shared_ptr<StatsCell> stats_;
};

/// Name -> artifact mapping with lazy loading, LRU eviction and hot reload.
/// All public members are safe to call from several threads at once; loads
/// happen under the registry lock (artifact loading is milliseconds, and a
/// single load per model beats a thundering herd of redundant ones).
class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config = {});

  /// Maps `name` to an artifact path (replacing any existing mapping; a
  /// resident engine under the old mapping is dropped). The file is not
  /// touched until the first Acquire.
  void Register(const std::string& name, const std::string& path);

  /// The resident engine for `name`, loading (and deploying) it on first
  /// use, hot-reloading when the artifact file changed on disk, and
  /// LRU-evicting over capacity. Throws std::invalid_argument for unknown
  /// names (the message lists what is registered) and std::runtime_error
  /// for missing/corrupt artifacts.
  std::shared_ptr<ServedModel> Acquire(const std::string& name);

  /// The resident engine for `name` if there is one, else null — a pure
  /// read: no load, no hot-reload check, and no LRU recency update (an
  /// operator polling stats must not reorder eviction priority or force
  /// artifact loads). Unknown names also answer null.
  std::shared_ptr<ServedModel> Peek(const std::string& name) const;

  /// The shared stats cell of `name`, or null for unknown names — a pure
  /// read like Peek, but answered even when the model is not resident
  /// (admission control must count sheds and deadline misses for models it
  /// never got to load).
  std::shared_ptr<StatsCell> StatsFor(const std::string& name) const;

  /// Drops the resident engine of `name` (if any); the next Acquire reloads
  /// from disk regardless of mtime. Throws std::invalid_argument for
  /// unknown names.
  void Reload(const std::string& name);

  /// Directory entry of List().
  struct ModelInfo {
    std::string name;
    std::string path;
    bool resident = false;
    std::uint64_t generation = 0;
    ModelStats stats;
    /// How the resident engine's artifact was materialized (copied / mapped
    /// / decompressed); kCopied with zero bytes when not resident.
    io::ArtifactLoadMode load_mode = io::ArtifactLoadMode::kCopied;
    /// Private heap bytes of the resident engine's artifact data (zero when
    /// not resident).
    std::uint64_t resident_bytes = 0;
    /// Bytes served from the shared file mapping (zero unless mapped).
    std::uint64_t mapped_bytes = 0;
  };
  /// Every registered model with residency and statistics, sorted by name.
  /// Statistics persist across eviction and hot reload (they live with the
  /// registration, not the resident engine).
  std::vector<ModelInfo> List() const;

  std::size_t resident_count() const;
  /// Summed private heap bytes of every resident engine's artifact data —
  /// what the fleet actually costs this process (mapped bulk bytes are
  /// page-cache-shared and excluded).
  std::uint64_t resident_bytes() const;
  /// Total artifact loads (initial, hot and forced reloads all count).
  std::uint64_t loads() const;
  /// Models dropped by the LRU capacity bound (reload drops not included).
  std::uint64_t evictions() const;

  const RegistryConfig& config() const { return config_; }

 private:
  struct Entry {
    std::string path;
    std::shared_ptr<ServedModel> model;  // null when not resident
    std::uint64_t last_use = 0;          // LRU clock tick of the last Acquire
    std::shared_ptr<StatsCell> stats;    // outlives evictions and reloads
    std::uint64_t last_generation = 0;   // generation of the latest load
  };

  /// Loads and deploys `name` from its artifact (caller holds mutex_).
  std::shared_ptr<ServedModel> LoadLocked(const std::string& name,
                                          Entry& entry);
  /// Evicts least-recently-used residents until within capacity, never
  /// evicting `keep` (the entry being acquired). Caller holds mutex_.
  void EvictOverCapacityLocked(const std::string& keep);

  mutable std::mutex mutex_;
  RegistryConfig config_;
  std::map<std::string, Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rrambnn::serve
