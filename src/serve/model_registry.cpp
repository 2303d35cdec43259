#include "serve/model_registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace rrambnn::serve {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Latency histogram geometry
// ---------------------------------------------------------------------------

double LatencyBucketUpperUs(std::size_t i) {
  if (i + 1 >= kLatencyBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(1ull << i);
}

std::size_t LatencyBucketIndex(double latency_us) {
  if (!(latency_us > 1.0)) return 0;  // also catches NaN and negatives
  // ceil(log2(us)) without floating-point log: the index of the smallest
  // power-of-two bound that is >= the latency.
  const double ceiled = std::ceil(latency_us);
  if (ceiled > static_cast<double>(1ull << (kLatencyBuckets - 2))) {
    return kLatencyBuckets - 1;  // the unbounded bucket
  }
  const auto v = static_cast<std::uint64_t>(ceiled);
  return static_cast<std::size_t>(std::bit_width(v - 1));
}

double ModelStats::LatencyPercentileUs(double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : latency_buckets) total += count;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    seen += latency_buckets[i];
    if (seen >= rank) {
      const double upper = LatencyBucketUpperUs(i);
      // The unbounded bucket has no finite upper edge; the tracked maximum
      // is the tightest honest answer there.
      return std::isinf(upper) ? max_latency_us : upper;
    }
  }
  return max_latency_us;
}

// ---------------------------------------------------------------------------
// ServedModel
// ---------------------------------------------------------------------------

void StatsCell::RecordRequest(std::int64_t rows, double latency_us) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(static_cast<std::uint64_t>(rows),
                  std::memory_order_relaxed);
  total_latency_us_.fetch_add(latency_us, std::memory_order_relaxed);
  latency_buckets_[LatencyBucketIndex(latency_us)].fetch_add(
      1, std::memory_order_relaxed);
  double seen = max_latency_us_.load(std::memory_order_relaxed);
  while (latency_us > seen &&
         !max_latency_us_.compare_exchange_weak(seen, latency_us,
                                                std::memory_order_relaxed)) {
  }
}

ModelStats StatsCell::snapshot() const {
  ModelStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.rows = rows_.load(std::memory_order_relaxed);
  stats.total_latency_us = total_latency_us_.load(std::memory_order_relaxed);
  stats.max_latency_us = max_latency_us_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    stats.latency_buckets[i] =
        latency_buckets_[i].load(std::memory_order_relaxed);
  }
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  return stats;
}

ServedModel::ServedModel(std::string name, std::string path,
                         engine::Engine engine, fs::file_time_type mtime,
                         std::uint64_t generation,
                         std::shared_ptr<StatsCell> stats)
    : name_(std::move(name)),
      path_(std::move(path)),
      engine_(std::move(engine)),
      mtime_(mtime),
      generation_(generation),
      stats_(std::move(stats)) {}

void ServedModel::RecordRequest(std::int64_t rows, double latency_us) {
  stats_->RecordRequest(rows, latency_us);
}

ModelStats ServedModel::stats() const { return stats_->snapshot(); }

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

ModelRegistry::ModelRegistry(RegistryConfig config)
    : config_(std::move(config)) {
  if (config_.capacity < 1) {
    throw std::invalid_argument("ModelRegistry: capacity must be >= 1");
  }
}

void ModelRegistry::Register(const std::string& name,
                             const std::string& path) {
  if (name.empty()) {
    throw std::invalid_argument("ModelRegistry::Register: empty model name");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  entry.path = path;
  entry.model.reset();  // a resident engine under the old mapping is stale
  if (!entry.stats) entry.stats = std::make_shared<StatsCell>();
}

std::shared_ptr<ServedModel> ModelRegistry::Acquire(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string registered;
    for (const auto& [known, entry] : entries_) {
      (void)entry;
      registered += registered.empty() ? known : ", " + known;
    }
    throw std::invalid_argument(
        "ModelRegistry: unknown model '" + name + "' (registered: " +
        (registered.empty() ? "<none>" : registered) + ")");
  }
  Entry& entry = it->second;
  if (entry.model && config_.hot_reload) {
    // A trainer re-saving the artifact bumps its mtime (the replacement is
    // an atomic rename, so the file is always a complete container). A stat
    // failure (file deleted mid-serve) keeps the resident engine: serving
    // continues from memory until a loadable artifact reappears.
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(entry.path, ec);
    if (!ec && mtime != entry.model->loaded_mtime()) {
      entry.model.reset();
    }
  }
  if (!entry.model) {
    entry.model = LoadLocked(name, entry);
    EvictOverCapacityLocked(name);
  }
  entry.last_use = ++clock_;
  return entry.model;
}

std::shared_ptr<ServedModel> ModelRegistry::Peek(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.model;
}

std::shared_ptr<StatsCell> ModelRegistry::StatsFor(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.stats;
}

void ModelRegistry::Reload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelRegistry::Reload: unknown model '" +
                                name + "'");
  }
  it->second.model.reset();
}

std::vector<ModelRegistry::ModelInfo> ModelRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    ModelInfo info;
    info.name = name;
    info.path = entry.path;
    info.resident = entry.model != nullptr;
    info.generation = entry.last_generation;
    if (entry.stats) info.stats = entry.stats->snapshot();
    if (entry.model) {
      const io::ArtifactLoadInfo& load =
          entry.model->engine().artifact_load_info();
      info.load_mode = load.mode;
      info.resident_bytes = load.resident_bytes;
      info.mapped_bytes = load.mapped_bytes;
    }
    infos.push_back(std::move(info));
  }
  return infos;  // std::map iteration is already name-sorted
}

std::size_t ModelRegistry::resident_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    if (entry.model) ++count;
  }
  return count;
}

std::uint64_t ModelRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t bytes = 0;
  for (const auto& [name, entry] : entries_) {
    (void)name;
    if (entry.model) {
      bytes += entry.model->engine().artifact_load_info().resident_bytes;
    }
  }
  return bytes;
}

std::uint64_t ModelRegistry::loads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loads_;
}

std::uint64_t ModelRegistry::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::shared_ptr<ServedModel> ModelRegistry::LoadLocked(const std::string& name,
                                                       Entry& entry) {
  // Record the mtime *before* reading: if a save lands between the stat and
  // the load we serve the newer content under the older watermark and the
  // next Acquire simply reloads once more — never the reverse (a stale
  // engine under a fresh watermark would mask the update).
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(entry.path, ec);
  engine::Engine engine = engine::Engine::FromArtifact(entry.path,
                                                       config_.load);
  if (!config_.backend_override.empty()) {
    engine.config().WithBackend(config_.backend_override);
  }
  engine.EnsureDeployed();
  ++loads_;
  entry.last_generation = loads_;
  return std::make_shared<ServedModel>(
      name, entry.path, std::move(engine),
      ec ? fs::file_time_type::min() : mtime, loads_, entry.stats);
}

void ModelRegistry::EvictOverCapacityLocked(const std::string& keep) {
  while (true) {
    std::size_t resident = 0;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.model) continue;
      if (config_.resident_mapped &&
          it->second.model->engine().artifact_load_info().mode ==
              io::ArtifactLoadMode::kMapped) {
        // Thousands-resident mode: a mapped model pins only its structural
        // copies (the bulk planes are reclaimable page cache), so it neither
        // consumes capacity nor is ever a victim.
        continue;
      }
      ++resident;
      if (it->first == keep) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (resident <= config_.capacity || victim == entries_.end()) return;
    victim->second.model.reset();  // in-flight shared_ptr holders keep it
    ++evictions_;
  }
}

}  // namespace rrambnn::serve
