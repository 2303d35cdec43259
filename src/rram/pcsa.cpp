#include "rram/pcsa.h"

#include <stdexcept>

namespace rrambnn::rram {

int Pcsa::SensePair(double log_r_bl, double log_r_blb, Rng& rng) const {
  const double offset =
      params_->sense_offset_sigma > 0.0
          ? rng.NormalDouble(0.0, params_->sense_offset_sigma)
          : 0.0;
  // Lower resistance on BL -> weight +1 (LRS/HRS convention, Sec. II-B).
  return IdealPair(log_r_bl + offset, log_r_blb);
}

int Pcsa::SenseSingle(double log_r, Rng& rng) const {
  const double offset =
      params_->sense_offset_sigma > 0.0
          ? rng.NormalDouble(0.0, params_->sense_offset_sigma)
          : 0.0;
  return (log_r + offset) < params_->read_reference_log ? +1 : -1;
}

int Pcsa::SenseXnor(double log_r_bl, double log_r_blb, int input,
                    Rng& rng) const {
  if (input != +1 && input != -1) {
    throw std::invalid_argument("Pcsa::SenseXnor: input must be +1 or -1");
  }
  const int weight = SensePair(log_r_bl, log_r_blb, rng);
  // The 4-transistor XNOR stage swaps the latched outputs when input = -1.
  return weight * input;
}

}  // namespace rrambnn::rram
