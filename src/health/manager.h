// HealthManager: the estimation/healing loop of the fleet health subsystem.
//
//   estimate ──> classify ──> (route around) ──> reprogram ──> verify
//
// Each CheckNow() sweep reads every chip back through its adapter, diffs the
// sensed weight planes against the golden compiled program (health.h), folds
// the raw rate into the chip's EWMA, classifies it, and — under the policy —
// routes sick chips out of serving, reprograms chips that need healing, and
// verifies the heal with a second readback before routing the chip back in.
// Every decision is recorded as a HealthEvent; the log keeps the most recent
// kEventLogCapacity events, while the counters cover the manager's whole
// life.
//
// The manager does no locking: the caller serializes it with serving
// exactly as it serializes inference (the per-model serve mutex of
// serve::ModelRegistry), because readback, drift and reprogramming touch
// the same simulated device state that inference reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "health/adapter.h"
#include "health/health.h"

namespace rrambnn::health {

/// One entry of the manager's decision log.
struct HealthEvent {
  enum class Kind {
    kStateChange,  // classification moved between healthy/degraded/sick
    kRoutedOff,    // chip removed from batch-row routing
    kRoutedOn,     // chip restored to batch-row routing
    kReprogram,    // chip reprogrammed from the golden model
  };

  Kind kind = Kind::kStateChange;
  int chip = 0;
  /// Monotonic sequence number across all events of this manager.
  std::uint64_t sequence = 0;
  /// Check sweep (CheckNow call) the event happened in, 1-based.
  std::uint64_t sweep = 0;
  double raw_ber = 0.0;
  double ewma_ber = 0.0;
  ChipState state = ChipState::kHealthy;
};

std::string ToString(HealthEvent::Kind kind);

class HealthManager {
 public:
  /// Events the log keeps: an always-on fleet records ~5 per chip per
  /// healing sweep, so an unbounded log would grow without limit.
  static constexpr std::size_t kEventLogCapacity = 4096;

  /// `golden` and `adapter` must outlive the manager (engine::Engine owns
  /// both and hands out a manager scoped to its deployed backend).
  HealthManager(const core::BnnProgram& golden, BackendHealthAdapter& adapter,
                HealthPolicy policy);

  /// One full estimation/healing sweep over every chip. Requires
  /// adapter.SupportsReadback() (throws std::logic_error otherwise).
  /// Returns the post-sweep scores.
  const std::vector<ChipHealthScore>& CheckNow();

  /// Current per-chip scores (serving flags refreshed from the adapter).
  const std::vector<ChipHealthScore>& scores();

  /// The most recent events (at most kEventLogCapacity), oldest first.
  /// Sequence numbers stay global, so a trimmed log starts above 1.
  const std::deque<HealthEvent>& events() const { return events_; }
  const HealthPolicy& policy() const { return policy_; }

  /// Completed CheckNow sweeps.
  std::uint64_t sweeps() const { return sweeps_; }
  /// Healing reprograms across all chips.
  std::uint64_t total_reprograms() const { return total_reprograms_; }
  /// Chip state transitions across all chips.
  std::uint64_t state_changes() const { return state_changes_; }
  /// Chips currently receiving batch rows.
  int serving_chips() const;

 private:
  /// Estimate + classify + heal one chip (the per-chip body of CheckNow).
  void CheckChip(int chip);
  void Record(HealthEvent::Kind kind, const ChipHealthScore& score);
  /// Observes a raw BER: updates EWMA, state and the event log.
  void Observe(ChipHealthScore& score, double raw, bool reset_history);

  const core::BnnProgram& golden_;
  BackendHealthAdapter& adapter_;
  HealthPolicy policy_;
  std::vector<ChipHealthScore> scores_;
  std::deque<HealthEvent> events_;  // ring of the most recent events
  std::uint64_t sweeps_ = 0;
  std::uint64_t total_reprograms_ = 0;
  std::uint64_t state_changes_ = 0;
  std::uint64_t sequence_ = 0;
};

}  // namespace rrambnn::health
