// The built-in execution backend classes (see engine/backend.h) and the
// parameter bundle the registry hands every factory. Every backend executes
// a compiled core::BnnProgram — dense classifiers and im2col-lowered conv
// networks run through the same substrates. Three classes serve the four
// registered names: "reference", "fault", and one RRAM class behind both
// "rram" (one chip) and "rram-sharded".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/bnn_mapper.h"
#include "core/bnn_program.h"
#include "core/fault_injection.h"
#include "engine/backend.h"
#include "health/adapter.h"

namespace rrambnn::engine {

/// Construction parameters shared by all backend factories; each backend
/// reads the fields it cares about and ignores the rest.
struct BackendSpec {
  /// RRAM mapping geometry, device statistics, energy calibration and
  /// pre-deployment endurance stress (ShardedRramBackend).
  arch::MapperConfig mapper;
  /// Weight bit-error rate injected once at deployment
  /// (FaultInjectionBackend).
  double fault_ber = 0.0;
  /// Seed of the fault draw (FaultInjectionBackend).
  std::uint64_t fault_seed = 100;
  /// Number of independently programmed fabrics of the "rram-sharded"
  /// backend; each chip derives its programming-noise seed from
  /// mapper.seed through ShardedRramBackend::ShardSeed (chip 0 uses
  /// mapper.seed itself), so any single chip can be rebuilt bit-identically
  /// without touching its siblings.
  int rram_shards = 4;
};

/// Exact software execution of the compiled program — the golden reference
/// the other substrates are measured against.
class ReferenceBackend : public InferenceBackend {
 public:
  explicit ReferenceBackend(core::BnnProgram program);

  std::string name() const override { return "reference"; }
  std::int64_t input_size() const override { return program_.input_size(); }
  std::int64_t num_classes() const override { return program_.num_classes(); }
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  EnergyBreakdown EnergyReport() const override;
  /// The program is immutable: serving is pure, readers never conflict.
  bool concurrent_readers() const override { return true; }

  const core::BnnProgram& program() const { return program_; }

 private:
  const core::BnnProgram program_;
};

/// Software program with independent weight-bit flips applied once at
/// construction — the ideal-BER sweep substrate of Sec. II-B. Between
/// health interventions (drift injection, healing reprograms) the faulted
/// program is immutable, so inference is pure. As a health "chip" it is its
/// own readback: the faulted program *is* what the substrate reads, drift is
/// further weight-fault injection, and a reprogram restores the golden
/// program and re-draws the construction-time faults (same seed unless
/// reseeded, so a default heal is bit-identical to generation 0).
class FaultInjectionBackend : public InferenceBackend,
                              public health::BackendHealthAdapter {
 public:
  FaultInjectionBackend(core::BnnProgram program, double ber,
                        std::uint64_t seed);

  std::string name() const override { return "fault"; }
  std::int64_t input_size() const override { return program_.input_size(); }
  std::int64_t num_classes() const override { return program_.num_classes(); }
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  EnergyBreakdown EnergyReport() const override;
  /// Pure between health interventions; drift/reprogram mutate the program
  /// and must hold the exclusive serving lock (they do — see
  /// serve/model_server).
  bool concurrent_readers() const override { return true; }
  health::BackendHealthAdapter* health_adapter() override { return this; }

  // health::BackendHealthAdapter (the one software "chip"):
  int num_chips() const override { return 1; }
  bool SupportsReadback() const override { return true; }
  const core::BnnProgram& ChipReadback(int chip) override;
  void ReprogramChip(int chip, bool reseed) override;
  /// Single chip: there is nowhere to route to, so the flag is ignored.
  void SetChipServing(int chip, bool serving) override;
  bool chip_serving(int chip) const override;
  std::uint64_t chip_generation(int chip) const override;
  void InjectChipDrift(int chip, double ber, std::uint64_t seed) override;

  double ber() const { return ber_; }
  const core::FaultInjectionReport& fault_report() const { return report_; }

 private:
  void CheckChip(int chip) const;

  core::BnnProgram program_;
  core::BnnProgram golden_;  // pre-fault copy, the healing source
  double ber_ = 0.0;
  std::uint64_t seed_ = 0;
  std::uint64_t generation_ = 0;
  core::FaultInjectionReport report_;
};

/// Inference through a fleet of independently programmed, simulated 2T2R
/// RRAM fabrics (Fig. 5) serving one program, with device non-idealities
/// and full energy/area accounting — the multi-macro parallelism of Yin et
/// al.'s monolithic chip lifted to chip level. This is the one RRAM backend
/// class: the "rram" registration is a one-chip fleet, "rram-sharded" a
/// BackendSpec::rram_shards-chip one. Every shard is a full MappedBnn
/// programmed under its own programming-noise seed derived from the base
/// seed (chip 0 keeps the base seed itself, see ShardSeed), so batch rows
/// can be sharded across chips concurrently: contiguous row ranges, one
/// RunTasks task per chip (engine/worker_pool.h). With deterministic senses
/// each chip serves its shard through its packed readback snapshot and the
/// bit-plane GEMM; stochastic fabrics advance device RNG state on every
/// read and serve row by row.
///
/// Accuracy semantics: chips differ in their programming-noise draws, so at
/// nonzero device error rates a row's scores depend on which chip served it
/// (deterministically: row i of an N-row batch over S shards always lands on
/// chip i / ceil(N/S)). At zero device noise all chips agree bit-for-bit and
/// results are independent of the shard count.
class ShardedRramBackend : public InferenceBackend,
                           public health::BackendHealthAdapter {
 public:
  /// `name` is the registry key the backend answers to: "rram" for the
  /// one-chip registration, "rram-sharded" for the fleet.
  ShardedRramBackend(const core::BnnProgram& program,
                     const arch::MapperConfig& config, int num_shards,
                     std::string name = "rram-sharded");

  std::string name() const override { return name_; }
  std::int64_t input_size() const override;
  std::int64_t num_classes() const override;
  /// Shards rows across serving chips (contiguous ranges, one task per
  /// occupied chip: the caller serves the first, the process-wide worker
  /// pool the rest), so a one-row batch is served by the first serving chip.
  /// Chips routed out by the health layer receive no rows.
  std::vector<float> ScoresBatch(const core::BitMatrix& batch) override;
  std::string Describe() const override;
  /// Aggregated over chips: programming energy, area and macro count sum;
  /// per-inference cost is per chip (a row is served by exactly one chip).
  EnergyBreakdown EnergyReport() const override;
  /// True when every shard has deterministic senses: each chip's batch path
  /// reads its eagerly built readback planes, so whole batches from several
  /// reader threads interleave safely. Routing/drift/reprogram still need
  /// the exclusive serving lock.
  bool concurrent_readers() const override;
  health::BackendHealthAdapter* health_adapter() override { return this; }

  // health::BackendHealthAdapter (one chip per shard):
  int num_chips() const override { return num_shards(); }
  bool SupportsReadback() const override;
  const core::BnnProgram& ChipReadback(int chip) override;
  /// Reprograms one chip from the golden program without touching its
  /// siblings (each chip's seed is independently derived — see ShardSeed).
  /// `reseed` false keeps the chip's seed, so the healed chip is
  /// bit-identical to a freshly built chip of its current generation. When
  /// the chip has only drifted since it was programmed, that heal undoes the
  /// recorded drift flips in O(drift sites) (arch::MappedBnn::UndoDrift).
  /// A reseeded heal, a fabric whose devices were stressed, or a stochastic
  /// fabric (reads advance the array RNG) rebuilds the whole chip instead.
  void ReprogramChip(int chip, bool reseed) override;
  void SetChipServing(int chip, bool serving) override;
  bool chip_serving(int chip) const override;
  std::uint64_t chip_generation(int chip) const override;
  void InjectChipDrift(int chip, double ber, std::uint64_t seed) override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  arch::MappedBnn& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }

  /// Programming-noise seed of chip `shard` at reseed `generation`,
  /// derived from the base mapper seed. The derivation is the reason a
  /// single chip can be reprogrammed reproducibly: every (chip, generation)
  /// pair maps to its own fixed seed, so rebuilding chip k never perturbs
  /// chip j, and generation 0 of chip 0 is the base seed itself (chip 0 of
  /// every fleet is programmed exactly like the one-chip "rram" fabric).
  static std::uint64_t ShardSeed(std::uint64_t base_seed, int shard,
                                 std::uint64_t generation = 0);

 private:
  void CheckChip(int chip) const;

  /// Runs `serve(chip, begin, end)` for each serving chip's contiguous row
  /// range through RunTasks. Throws std::runtime_error when every chip is
  /// routed out of serving.
  void ForEachShard(
      std::int64_t rows,
      const std::function<void(std::size_t, std::int64_t, std::int64_t)>&
          serve);

  const std::string name_;
  core::BnnProgram golden_;  // healing source
  std::vector<std::unique_ptr<arch::MappedBnn>> shards_;
  std::vector<std::uint8_t> serving_;       // routing mask, 1 = serving
  std::vector<std::uint64_t> generations_;  // reseed generation per chip
  arch::MapperConfig config_;
  /// Cached at construction: concurrent_readers() is read lock-free by the
  /// serving layer to pick its lock mode, while ReprogramChip (exclusive)
  /// swaps shard pointers — the capability must not dereference live
  /// fabric state. Determinism is a device-corner property and never
  /// changes.
  const bool concurrent_readers_;
};

}  // namespace rrambnn::engine
