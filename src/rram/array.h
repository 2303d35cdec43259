// Kilobit-class RRAM synaptic array, after Fig. 2(a) of the paper: a grid of
// 2T2R cells addressed by word lines (rows) and bit-line pairs (columns),
// with one PCSA per column. The fabricated test chip is 32x32 pairs (1K
// synapses / 2K devices); the class generalizes the geometry.
//
// In the Fig. 5 BNN architecture one word line holds (a tile of) one
// neuron's weight vector: activating the row while presenting the input bits
// at the columns makes every column PCSA emit XNOR(w_ij, x_j) in a single
// sensing step; a digital popcount then reduces the row.
#pragma once

#include <cstdint>
#include <vector>

#include "rram/cell.h"

namespace rrambnn::rram {

class RramArray {
 public:
  /// Builds a rows x cols array of 2T2R synapses. `seed` makes all device
  /// stochasticity reproducible.
  RramArray(std::int64_t rows, std::int64_t cols, const DeviceParams& params,
            std::uint64_t seed);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  /// Device count = 2 * rows * cols (two resistors per synapse).
  std::int64_t num_devices() const { return 2 * rows_ * cols_; }

  /// Programs one synapse to +1/-1.
  void ProgramWeight(std::int64_t row, std::int64_t col, int weight);

  /// Programs a full word line.
  void ProgramRow(std::int64_t row, const std::vector<int>& weights);

  /// Reads one synapse through its column PCSA (stochastic sense offset).
  int ReadWeight(std::int64_t row, std::int64_t col);

  /// Reads a full word line.
  std::vector<int> ReadRow(std::int64_t row);

  /// XNOR read of a word line against an input vector in {-1,+1}: the
  /// column PCSAs return XNOR(w, x) per Fig. 3(b).
  std::vector<int> ReadRowXnor(std::int64_t row,
                               const std::vector<int>& inputs);

  /// XNOR read + popcount: number of +1 outputs in the row, the quantity
  /// Eq. (3) thresholds.
  std::int64_t RowXnorPopcount(std::int64_t row,
                               const std::vector<int>& inputs);

  /// Ages every device by `n` cycles without reprogramming.
  void StressAll(std::uint64_t n);

  /// Re-programs every synapse to its currently stored weight (refresh);
  /// counts endurance cycles.
  void Reprogram();

  /// Number of synapses whose PCSA readback disagrees with the programmed
  /// weight, over one full-array read.
  std::int64_t CountReadErrors();

  /// Conductance drift at one synapse (Cell2T2R::DriftFlip), for per-site
  /// loops over the array's own geometry: the address is not checked.
  /// Returns what a zero-offset PCSA now senses there when the sensed
  /// weight flipped, or 0 when it did not (a never-programmed pair holds
  /// equal resistances and senses -1 either way). Not a read and not a
  /// program: no counter moves and no RNG is drawn.
  int DriftFlip(std::int64_t row, std::int64_t col) {
    Cell2T2R& c = cells_[static_cast<std::size_t>(row * cols_ + col)];
    const int before = c.SensedWeight();
    c.DriftFlip();
    const int after = c.SensedWeight();
    return after == before ? 0 : after;
  }

  const Cell2T2R& cell(std::int64_t row, std::int64_t col) const;
  Cell2T2R& cell(std::int64_t row, std::int64_t col);

  // Transaction counters consumed by the arch-level energy model.
  std::uint64_t program_ops() const { return program_ops_; }
  std::uint64_t sense_ops() const { return sense_ops_; }

 private:
  void CheckAddress(std::int64_t row, std::int64_t col) const;

  std::int64_t rows_;
  std::int64_t cols_;
  DeviceParams params_;  // owned copy: array lifetime independent of caller
  Pcsa pcsa_;
  std::vector<Cell2T2R> cells_;  // row-major
  Rng rng_;
  std::uint64_t program_ops_ = 0;
  std::uint64_t sense_ops_ = 0;
};

}  // namespace rrambnn::rram
