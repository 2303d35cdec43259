// Memory cells: single-device 1T1R and differential 2T2R synapse.
//
// 2T2R convention (paper Sec. II-B): weight +1 <-> (BL = LRS, BLb = HRS);
// weight -1 <-> (BL = HRS, BLb = LRS).
#pragma once

#include "rram/device.h"
#include "rram/pcsa.h"

namespace rrambnn::rram {

/// One transistor / one resistor bit cell, read against a fixed reference.
class Cell1T1R {
 public:
  explicit Cell1T1R(const DeviceParams& params,
                    PairBranch branch = PairBranch::kBl)
      : device_(params, branch) {}

  /// Stores +1 as LRS, -1 as HRS.
  void ProgramWeight(int weight, Rng& rng);

  /// Reads back +1/-1 through the single-ended PCSA path.
  int ReadWeight(const Pcsa& pcsa, Rng& rng) const;

  RramDevice& device() { return device_; }
  const RramDevice& device() const { return device_; }

 private:
  RramDevice device_;
};

/// Two transistor / two resistor differential synapse (Fig. 2a).
class Cell2T2R {
 public:
  explicit Cell2T2R(const DeviceParams& params)
      : bl_(params, PairBranch::kBl), blb_(params, PairBranch::kBlb) {}

  /// Programs the pair complementarily; one endurance cycle per device.
  void ProgramWeight(int weight, Rng& rng);

  /// Differential read through the PCSA.
  int ReadWeight(const Pcsa& pcsa, Rng& rng) const;

  /// In-sense-amplifier binary multiply: XNOR(weight, input).
  int ReadXnor(const Pcsa& pcsa, int input, Rng& rng) const;

  /// Conductance-drift event: swaps the pair's resistances, so the
  /// differential margin crosses and the sensed weight flips relative to
  /// its current reading (fleet health aging simulation; deterministic —
  /// no programming pulse, no endurance cycle).
  void DriftFlip();

  /// The weight a zero-offset PCSA senses (Pcsa::IdealPair): no read is
  /// counted and no RNG is drawn.
  int SensedWeight() const {
    return Pcsa::IdealPair(bl_.log_resistance(), blb_.log_resistance());
  }

  int programmed_weight() const { return programmed_weight_; }
  RramDevice& bl() { return bl_; }
  RramDevice& blb() { return blb_; }
  const RramDevice& bl() const { return bl_; }
  const RramDevice& blb() const { return blb_; }

 private:
  RramDevice bl_;
  RramDevice blb_;
  int programmed_weight_ = -1;
};

}  // namespace rrambnn::rram
