// Precharge sense amplifier (PCSA) models, after Fig. 3 of the paper.
//
// The plain PCSA (Fig. 3a) compares the resistances of the two devices of a
// 2T2R pair: the branch with the lower resistance discharges faster and
// latches the output. The XNOR-augmented PCSA (Fig. 3b) adds four
// transistors that conditionally cross-couple the bit lines, so the latched
// value is XNOR(stored weight, input bit) — the BNN multiply of Eq. (3)
// executed inside the sensing circuit.
//
// Non-ideality: an input-referred comparator offset in the log-resistance
// domain (sense_offset_sigma), sampled per read.
#pragma once

#include "rram/device_params.h"
#include "tensor/rng.h"

namespace rrambnn::rram {

class Pcsa {
 public:
  explicit Pcsa(const DeviceParams& params) : params_(&params) {}

  /// Differential sense: returns +1 when the BL branch has the lower
  /// resistance (pair encodes weight +1), else -1.
  int SensePair(double log_r_bl, double log_r_blb, Rng& rng) const;

  /// The offset-free differential decision: what SensePair returns at
  /// sense_offset_sigma == 0, without an RNG. A pair with equal resistances
  /// (never programmed) senses -1.
  static int IdealPair(double log_r_bl, double log_r_blb) {
    return log_r_bl < log_r_blb ? +1 : -1;
  }

  /// Single-ended sense against the fixed 1T1R read reference: +1 when the
  /// device conducts more than the reference (LRS side).
  int SenseSingle(double log_r, Rng& rng) const;

  /// XNOR-augmented sense (Fig. 3b): `input` in {-1, +1}.
  int SenseXnor(double log_r_bl, double log_r_blb, int input, Rng& rng) const;

 private:
  const DeviceParams* params_;
};

}  // namespace rrambnn::rram
