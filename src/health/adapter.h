// Backend health surface: the narrow interface through which the fleet
// health subsystem (health/manager.h) observes and heals an execution
// backend's physical substrate, one "chip" at a time.
//
// A chip is the unit of independent programming and replacement: the single
// fabric of the "rram" backend, each shard of "rram-sharded", or the one
// faulted software model of the "fault" backend. Backends with no notion of
// device health (the exact software reference) simply expose no adapter
// (engine::InferenceBackend::health_adapter() returns null).
//
// The adapter deliberately depends only on core: the health layer compares
// what a chip *reads back* against the golden compiled program, so every
// estimate is grounded in the same bit planes the serving path uses.
#pragma once

#include <cstdint>

#include "core/bnn_program.h"

namespace rrambnn::health {

class BackendHealthAdapter {
 public:
  virtual ~BackendHealthAdapter() = default;

  /// Independently programmed (and independently healable) fabrics.
  virtual int num_chips() const = 0;

  /// True when ChipReadback() is available: the chip's sensed weight planes
  /// can be snapshotted deterministically (e.g. zero PCSA sense offset).
  /// Estimation requires readback; drift injection and reprogramming do not.
  virtual bool SupportsReadback() const = 0;

  /// The chip's deployed program exactly as its hardware reads it —
  /// programming errors and accumulated drift included. Valid until the
  /// next state change (drift, reprogram) of the same chip. Throws
  /// std::logic_error when !SupportsReadback().
  virtual const core::BnnProgram& ChipReadback(int chip) = 0;

  /// Restores the chip to the golden program. With `reseed` false the
  /// chip's derived seed is kept, so the healed fabric is bit-identical to
  /// a freshly programmed chip of its current generation (an adapter may
  /// get there by undoing drift instead of reprogramming every device);
  /// with `reseed` true a fresh generation seed is derived (a physically new
  /// fabric — see ShardedRramBackend::ShardSeed).
  virtual void ReprogramChip(int chip, bool reseed) = 0;

  /// Routing hook: a chip marked not-serving receives no batch rows until
  /// marked serving again. The health manager never routes out the last
  /// serving chip; the single software chip of "fault" ignores the flag.
  virtual void SetChipServing(int chip, bool serving) = 0;
  virtual bool chip_serving(int chip) const = 0;

  /// Reseed generation of the chip (0 until the first reseeding reprogram).
  virtual std::uint64_t chip_generation(int chip) const = 0;

  /// Scenario hook of the aging simulator (health/aging.h): flips the
  /// sensed value of a `ber` fraction of the chip's synapses, modeling
  /// conductance drift past the differential margin. Deterministic in
  /// `seed`.
  virtual void InjectChipDrift(int chip, double ber, std::uint64_t seed) = 0;
};

}  // namespace rrambnn::health
