#include "health/manager.h"

#include <stdexcept>

namespace rrambnn::health {

std::string ToString(HealthEvent::Kind kind) {
  switch (kind) {
    case HealthEvent::Kind::kStateChange: return "state_change";
    case HealthEvent::Kind::kRoutedOff: return "routed_off";
    case HealthEvent::Kind::kRoutedOn: return "routed_on";
    case HealthEvent::Kind::kReprogram: return "reprogram";
  }
  return "unknown";
}

HealthManager::HealthManager(const core::BnnProgram& golden,
                             BackendHealthAdapter& adapter,
                             HealthPolicy policy)
    : golden_(golden), adapter_(adapter), policy_(policy) {
  if (policy_.ewma_alpha <= 0.0 || policy_.ewma_alpha > 1.0) {
    throw std::invalid_argument("HealthManager: ewma_alpha outside (0, 1]");
  }
  if (policy_.degraded_ber > policy_.sick_ber) {
    throw std::invalid_argument(
        "HealthManager: degraded_ber above sick_ber (thresholds crossed)");
  }
  const int chips = adapter_.num_chips();
  scores_.reserve(static_cast<std::size_t>(chips));
  for (int chip = 0; chip < chips; ++chip) {
    ChipHealthScore score;
    score.chip = chip;
    score.serving = adapter_.chip_serving(chip);
    score.generation = adapter_.chip_generation(chip);
    scores_.push_back(score);
  }
}

int HealthManager::serving_chips() const {
  int serving = 0;
  for (int chip = 0; chip < adapter_.num_chips(); ++chip) {
    if (adapter_.chip_serving(chip)) ++serving;
  }
  return serving;
}

void HealthManager::Record(HealthEvent::Kind kind,
                           const ChipHealthScore& score) {
  HealthEvent event;
  event.kind = kind;
  event.chip = score.chip;
  event.sequence = ++sequence_;
  event.sweep = sweeps_;
  event.raw_ber = score.last_raw_ber;
  event.ewma_ber = score.ewma_ber;
  event.state = score.state;
  if (events_.size() == kEventLogCapacity) events_.pop_front();
  events_.push_back(event);
}

void HealthManager::Observe(ChipHealthScore& score, double raw,
                            bool reset_history) {
  ++score.checks;
  score.last_raw_ber = raw;
  // A healing reprogram replaced the fabric, so the error history of the
  // old one must not bias the new one's estimate: reseed the EWMA.
  score.ewma_ber = (score.checks == 1 || reset_history)
                       ? raw
                       : policy_.ewma_alpha * raw +
                             (1.0 - policy_.ewma_alpha) * score.ewma_ber;
  const ChipState next = Classify(score.ewma_ber, policy_);
  if (next != score.state) {
    score.state = next;
    ++state_changes_;
    Record(HealthEvent::Kind::kStateChange, score);
  }
}

void HealthManager::CheckChip(int chip) {
  ChipHealthScore& score = scores_[static_cast<std::size_t>(chip)];
  const double raw =
      DiffBitErrors(golden_, adapter_.ChipReadback(chip)).raw_ber();
  Observe(score, raw, /*reset_history=*/false);

  const bool heal =
      policy_.auto_heal &&
      (score.state == ChipState::kSick ||
       (score.state == ChipState::kDegraded && policy_.heal_degraded));

  // A sick chip stops receiving batch rows before (or instead of) healing —
  // unless it is the last serving chip, which must keep answering.
  if (score.state == ChipState::kSick && policy_.route_around_sick &&
      adapter_.chip_serving(chip) && serving_chips() > 1) {
    adapter_.SetChipServing(chip, false);
    score.serving = false;
    Record(HealthEvent::Kind::kRoutedOff, score);
  }

  if (heal) {
    adapter_.ReprogramChip(chip, policy_.reprogram_reseed);
    ++score.reprograms;
    ++total_reprograms_;
    score.generation = adapter_.chip_generation(chip);
    Record(HealthEvent::Kind::kReprogram, score);
    // Verify the heal with a fresh readback before trusting the chip.
    const double verified =
        DiffBitErrors(golden_, adapter_.ChipReadback(chip)).raw_ber();
    Observe(score, verified, /*reset_history=*/true);
  }

  // Restore routing once the chip is no longer sick (a verified heal, or a
  // policy with healing off whose estimate recovered).
  if (!adapter_.chip_serving(chip) && score.state != ChipState::kSick) {
    adapter_.SetChipServing(chip, true);
    score.serving = true;
    Record(HealthEvent::Kind::kRoutedOn, score);
  }
  score.serving = adapter_.chip_serving(chip);
}

const std::vector<ChipHealthScore>& HealthManager::CheckNow() {
  if (!adapter_.SupportsReadback()) {
    throw std::logic_error(
        "HealthManager::CheckNow: the backend's senses are stochastic; "
        "readback-based BER estimation needs deterministic reads "
        "(sense_offset_sigma == 0)");
  }
  ++sweeps_;
  for (int chip = 0; chip < adapter_.num_chips(); ++chip) {
    CheckChip(chip);
  }
  return scores_;
}

const std::vector<ChipHealthScore>& HealthManager::scores() {
  for (ChipHealthScore& score : scores_) {
    score.serving = adapter_.chip_serving(score.chip);
    score.generation = adapter_.chip_generation(score.chip);
  }
  return scores_;
}

}  // namespace rrambnn::health
