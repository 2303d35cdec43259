// Binary serializers for the numeric value types of an artifact: dense
// float tensors, packed bit matrices, and compiled programs
// (core::BnnProgram).
// Float data is stored as raw IEEE-754 bits and bit matrices as their packed
// 64-bit words, so a round trip is bit-identical by construction — the
// property the artifact lifecycle (train once, serve anywhere) rests on.
#pragma once

#include "core/bnn_program.h"
#include "io/serde.h"
#include "tensor/tensor.h"

namespace rrambnn::io {

void SaveTensor(const Tensor& t, ByteWriter& w);
Tensor LoadTensor(ByteReader& r);

void SaveBitMatrix(const core::BitMatrix& m, ByteWriter& w);
core::BitMatrix LoadBitMatrix(ByteReader& r);

/// A pure-dense program in the byte-stable "compiled-bnn" layout:
///   u64 hidden-stage count; per hidden stage the weight bit matrix, then
///   u64 threshold count + i32 thresholds; then the output stage's weight
///   bit matrix, u64 count + f32 scales, u64 count + f32 offsets.
/// SaveDenseProgram throws std::logic_error unless the program IsPureDense()
/// and ends in its output stage. LoadDenseProgram validates the result
/// (stage chaining, threshold counts and ranges) before returning it.
void SaveDenseProgram(const core::BnnProgram& program, ByteWriter& w);
core::BnnProgram LoadDenseProgram(ByteReader& r);

/// The compiled multi-stage program: input shape plus the ordered stage
/// list (per-stage kind/lowering flags, spatial geometry, packed weight
/// planes, thresholds and the output affine). Stage weights route through
/// the blob arena like every other bit plane, so a v2 program artifact
/// stays mmap-consumable. LoadBnnProgram validates the result (stage
/// chaining, geometry, threshold ranges) before returning it.
void SaveBnnProgram(const core::BnnProgram& program, ByteWriter& w);
core::BnnProgram LoadBnnProgram(ByteReader& r);

}  // namespace rrambnn::io
