// Execution-backend interface of the serving engine: one trained-and-compiled
// binarized classifier, many possible execution substrates. A backend answers
// class scores for a packed batch of binary inputs; everything upstream
// (float feature extractor, minibatching, sign-packing) is owned by
// engine::Engine, and any row parallelism lives inside the backend.
//
// Implementations (see engine/backends.h):
//   ReferenceBackend       exact bit-packed software execution of the
//                          compiled core::BnnProgram
//   ShardedRramBackend     simulated 2T2R RRAM fabrics (arch::MappedBnn) with
//                          device non-idealities and energy accounting — one
//                          chip as "rram", several as "rram-sharded"
//   FaultInjectionBackend  software program with i.i.d. weight-bit flips at
//                          a configurable BER (core::fault_injection)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/energy_model.h"
#include "core/bitops.h"
#include "core/bnn_model.h"

namespace rrambnn::health {
class BackendHealthAdapter;
}  // namespace rrambnn::health

namespace rrambnn::engine {

/// Deployment-cost summary of a backend. Pure software backends report
/// `available = false` and zeroed figures; hardware-model backends fill in
/// the arch-level energy/area accounting.
struct EnergyBreakdown {
  bool available = false;
  arch::CostReport programming;    // one-time weight programming
  arch::CostReport per_inference;  // each row of a ScoresBatch() call
  double area_mm2 = 0.0;
  std::int64_t num_macros = 0;
};

/// An execution substrate for a compiled binarized classifier.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Registry key of this backend ("reference", "rram", "rram-sharded",
  /// "fault").
  virtual std::string name() const = 0;

  virtual std::int64_t input_size() const = 0;
  virtual std::int64_t num_classes() const = 0;

  /// Class scores for a packed batch [N, input_size], row-major
  /// [N, num_classes] — the backend's one inference operation. Contract: a
  /// one-row batch is the per-row answer, and at zero device noise row i of
  /// an N-row batch equals a one-row batch of row i on every backend
  /// (enforced by tests/engine/batch_serving_test.cpp). Backends with
  /// per-resource stochasticity may route rows of one batch to different
  /// resources — ShardedRramBackend serves a one-row batch on its first
  /// serving chip but shards an N-row batch across all of them, so at
  /// nonzero device noise the two sample different chips (see its class
  /// comment).
  virtual std::vector<float> ScoresBatch(const core::BitMatrix& batch) = 0;

  /// Argmax class per row of a packed batch (first maximum wins).
  std::vector<std::int64_t> PredictPacked(const core::BitMatrix& batch) {
    return core::ArgmaxRows(ScoresBatch(batch), batch.rows(), num_classes());
  }

  /// One-line human-readable description (substrate, key parameters).
  virtual std::string Describe() const = 0;

  /// Deployment/inference cost figures (see EnergyBreakdown).
  virtual EnergyBreakdown EnergyReport() const = 0;

  /// True when the whole serving path (ScoresBatch/PredictPacked) is
  /// read-only: concurrent callers holding only a *shared* lock on the model
  /// observe bit-identical results with no internal mutation — every scratch
  /// buffer is per-call and every readback plane/snapshot is built eagerly,
  /// never lazily under the reader lock. The serving daemon uses this to run
  /// many predicts on one model in parallel; mutating operations (drift
  /// injection, reprogramming, hot reload) still require the exclusive lock.
  virtual bool concurrent_readers() const { return false; }

  /// Health introspection/healing surface of this backend's physical
  /// substrate (see health/adapter.h), or null when the substrate has no
  /// notion of device health (the exact software reference). The adapter is
  /// owned by the backend and shares its lifetime.
  virtual health::BackendHealthAdapter* health_adapter() { return nullptr; }
};

}  // namespace rrambnn::engine
