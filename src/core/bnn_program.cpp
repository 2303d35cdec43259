#include "core/bnn_program.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "core/bitgemm.h"

namespace rrambnn::core {

namespace {

// -- Bit fields ---------------------------------------------------------------
//
// Patch gathers and pooling move runs of contiguous input bits (the kx taps
// of one (channel, ky) kernel row are adjacent along W in CHW bit order)
// with one field extract + one field deposit per run instead of per-bit
// Get/Set. A run is at most 64 bits, so it spans at most two source and two
// destination words.

/// Bits [bit, bit + len) of `words` as the low bits of a word; len in
/// [1, 64], bit + len must not exceed the span's bit capacity.
std::uint64_t ExtractField(std::span<const std::uint64_t> words,
                           std::int64_t bit, int len) {
  const auto w = static_cast<std::size_t>(bit >> 6);
  const int off = static_cast<int>(bit & 63);
  std::uint64_t v = words[w] >> off;
  if (off + len > 64) v |= words[w + 1] << (64 - off);
  if (len == 64) return v;
  return v & ((std::uint64_t{1} << len) - 1);
}

/// ORs the low `len` bits of `value` into `words` at bit offset `bit`.
/// The destination bits must be zero (freshly zeroed patch buffer).
void DepositField(std::uint64_t* words, std::int64_t bit, int len,
                  std::uint64_t value) {
  const auto w = static_cast<std::size_t>(bit >> 6);
  const int off = static_cast<int>(bit & 63);
  words[w] |= value << off;
  if (off + len > 64) words[w + 1] |= value >> (64 - off);
}

/// Gathers the patch of output pixel (oy, ox) over channels
/// [c_begin, c_end) from one packed CHW activation row into `dst`
/// (pre-zeroed; patch bit layout (c - c_begin)*kh*kw + ky*kw + kx).
/// Out-of-range padded taps are left as bit 0 (-1). The single-row path's
/// gather, kept apart from the batch path's GatherPatches so each checks
/// the other.
void GatherPatch(std::span<const std::uint64_t> src, const StageGeometry& g,
                 std::int64_t c_begin, std::int64_t c_end, std::int64_t oy,
                 std::int64_t ox, std::uint64_t* dst) {
  const std::int64_t h = g.in_h, w = g.in_w;
  const std::int64_t kh = g.kernel_h, kw = g.kernel_w;
  const std::int64_t y0 = oy * g.stride_h - g.pad_h;
  const std::int64_t x0 = ox * g.stride_w - g.pad_w;
  for (std::int64_t c = c_begin; c < c_end; ++c) {
    const std::int64_t dst_base = (c - c_begin) * kh * kw;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = y0 + ky;
      if (iy < 0 || iy >= h) continue;
      const std::int64_t kx0 = x0 < 0 ? -x0 : 0;
      const std::int64_t kx1 = std::min(kw, w - x0);
      if (kx1 <= kx0) continue;
      const int len = static_cast<int>(kx1 - kx0);
      const std::uint64_t bits =
          ExtractField(src, c * h * w + iy * w + x0 + kx0, len);
      DepositField(dst, dst_base + ky * kw + kx0, len, bits);
    }
  }
}

std::int32_t StageThreshold(const PackedGemmStage& g, std::int64_t unit,
                            std::int64_t patch) {
  const std::size_t idx =
      g.per_pixel_thresholds
          ? static_cast<std::size_t>(unit * g.num_patches() + patch)
          : static_cast<std::size_t>(unit);
  return g.thresholds[idx];
}

// -- Word-level batch stages --------------------------------------------------
//
// Each hidden stage of ScoresBatch lays one sample's popcounts out in the
// stage's CHW output order (unit-major, then output pixel) and hands them to
// ThresholdBits, which writes whole 64-bit words of activations — the
// software counterpart of a macro periphery thresholding every column of a
// row at once. Pooling ORs and compacts words the same way.

std::uint64_t LowBits(std::int64_t len) {
  return len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1;
}

/// Bits [bit, bit + 64) of `words` ANDed with `mask`. Reads the word after
/// the field's first unconditionally, so that word must exist.
std::uint64_t ReadBits(const std::uint64_t* words, std::int64_t bit,
                       std::uint64_t mask) {
  const std::uint64_t* p = words + (bit >> 6);
  const int off = static_cast<int>(bit & 63);
  // (p[1] << 1) << (63 - off) is p[1] << (64 - off), defined for off == 0.
  return ((p[0] >> off) | ((p[1] << 1) << (63 - off))) & mask;
}

/// One packed CHW activation row copied into a zero-padded
/// [C, in_h + 2 pad_h, in_w + 2 pad_w] plane: every tap of every patch lies
/// in range, and a padded tap reads bit 0 (-1) as in GatherPatch.
struct PaddedRow {
  std::int64_t h = 0;
  std::int64_t w = 0;
  std::vector<std::uint64_t> words;
};

void PadRow(std::span<const std::uint64_t> src, const StageGeometry& g,
            PaddedRow& out) {
  out.h = g.in_h + 2 * g.pad_h;
  out.w = g.in_w + 2 * g.pad_w;
  // One spare word past the last plane bit, for ReadBits.
  const std::int64_t plane_bits = g.in_channels * out.h * out.w;
  out.words.assign(static_cast<std::size_t>(plane_bits / 64 + 2), 0);
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t y = 0; y < g.in_h; ++y) {
      const std::int64_t from = (c * g.in_h + y) * g.in_w;
      const std::int64_t to = (c * out.h + y + g.pad_h) * out.w + g.pad_w;
      for (std::int64_t x = 0; x < g.in_w; x += 64) {
        const int len =
            static_cast<int>(std::min<std::int64_t>(64, g.in_w - x));
        DepositField(out.words.data(), to + x, len,
                     ExtractField(src, from + x, len));
      }
    }
  }
}

/// The im2col patches of one padded row over channels [c_begin, c_end), in
/// BuildPatchMatrix's layout: output pixel p's patch fills words
/// [p * wpp, (p + 1) * wpp) of `dst` (pre-zeroed), tap (c - c_begin, ky, kx)
/// at bit ((c - c_begin) * kh + ky) * kw + kx. One read of a kernel row's
/// input span serves a run of output columns: each column's kernel_w taps
/// are a shift of it.
void GatherPatches(const PaddedRow& in, const StageGeometry& g,
                   std::int64_t c_begin, std::int64_t c_end, std::int64_t wpp,
                   std::uint64_t* dst) {
  const std::int64_t kw = g.kernel_w, sw = g.stride_w;
  const std::uint64_t tap_mask = LowBits(kw);
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  // Output columns per read: the input span (k - 1) * sw + kw of k columns
  // fits one word.
  const std::int64_t per_read = std::max<std::int64_t>(1, (64 - kw) / sw + 1);
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox0 = 0; ox0 < ow; ox0 += per_read) {
      const std::int64_t k = std::min(per_read, ow - ox0);
      const std::uint64_t span_mask = LowBits((k - 1) * sw + kw);
      std::uint64_t* first = dst + (oy * ow + ox0) * wpp;
      std::int64_t pos = 0;
      for (std::int64_t c = c_begin; c < c_end; ++c) {
        for (std::int64_t ky = 0; ky < g.kernel_h; ++ky, pos += kw) {
          const std::uint64_t span = ReadBits(
              in.words.data(),
              (c * in.h + oy * g.stride_h + ky) * in.w + ox0 * sw, span_mask);
          std::uint64_t* d = first + (pos >> 6);
          const int off = static_cast<int>(pos & 63);
          if (off + kw <= 64) {
            for (std::int64_t t = 0; t < k; ++t) {
              d[t * wpp] |= ((span >> (t * sw)) & tap_mask) << off;
            }
          } else {
            for (std::int64_t t = 0; t < k; ++t) {
              const std::uint64_t taps = (span >> (t * sw)) & tap_mask;
              d[t * wpp] |= taps << off;
              d[t * wpp + 1] |= taps >> (64 - off);
            }
          }
        }
      }
    }
  }
}

/// The stage's `popcount + bias >= threshold` test as
/// `popcount >= eff[k]`, one entry per output bit in CHW order (a per-unit
/// threshold repeats over the unit's pixels).
std::vector<std::int32_t> EffectiveThresholds(const PackedGemmStage& g,
                                              const std::int32_t* bias) {
  const std::int64_t units = g.units(), patches = g.num_patches();
  std::vector<std::int32_t> eff(static_cast<std::size_t>(units * patches));
  for (std::int64_t u = 0; u < units; ++u) {
    const std::int32_t b = bias ? bias[u] : 0;
    for (std::int64_t p = 0; p < patches; ++p) {
      eff[static_cast<std::size_t>(u * patches + p)] =
          StageThreshold(g, u, p) - b;
    }
  }
  return eff;
}

/// One hidden GEMM stage over a packed batch, popcounting against `w` (the
/// program's weights or a substrate's readback planes) plus `bias`.
BitMatrix HiddenStage(const PackedGemmStage& g, const BitMatrix& in,
                      const BitMatrix& w, const std::int32_t* bias) {
  const std::int64_t n = in.rows();
  const std::int64_t units = g.units(), patches = g.num_patches();
  const std::int64_t out_bits = units * patches;
  if (n == 0 || out_bits == 0) return BitMatrix(n, out_bits);
  const std::int64_t out_wpr = (out_bits + 63) / 64;
  const std::vector<std::int32_t> eff = EffectiveThresholds(g, bias);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n * out_wpr));
  std::vector<std::int32_t> pops;
  if (g.lowering == GemmLowering::kDense) {
    // [n, units]: each row's popcounts are already in output order.
    XnorPopcountGemm(in, w, pops);
    for (std::int64_t i = 0; i < n; ++i) {
      ThresholdBits(pops.data() + i * units, eff.data(), units,
                    out.data() + i * out_wpr);
    }
    return BitMatrix::FromWords(n, out_bits, std::move(out));
  }
  const std::int64_t patch_bits = w.cols(), wpp = w.words_per_row();
  const std::uint64_t* weights = w.words().data();
  const std::uint64_t* rows = in.words().data();
  PaddedRow padded;
  std::vector<std::uint64_t> patch_words;
  pops.resize(static_cast<std::size_t>(out_bits));
  for (std::int64_t i = 0; i < n; ++i) {
    PadRow({rows + i * in.words_per_row(),
            static_cast<std::size_t>(in.words_per_row())},
           g.geom, padded);
    if (g.lowering == GemmLowering::kConv) {
      // Weights x patches^T: unit u's popcounts over consecutive pixels.
      patch_words.assign(static_cast<std::size_t>(patches * wpp), 0);
      GatherPatches(padded, g.geom, 0, g.geom.in_channels, wpp,
                    patch_words.data());
      XnorPopcountGemm(weights, units, patch_words.data(), patches,
                       patch_bits, pops.data());
    } else {
      // Depthwise, one pass over all channels: channel c's patches meet
      // only weight row c.
      patch_words.assign(static_cast<std::size_t>(units * patches * wpp), 0);
      for (std::int64_t c = 0; c < units; ++c) {
        std::uint64_t* channel = patch_words.data() + c * patches * wpp;
        GatherPatches(padded, g.geom, c, c + 1, wpp, channel);
        XnorPopcountGemm(weights + c * wpp, 1, channel, patches, patch_bits,
                         pops.data() + c * patches);
      }
    }
    ThresholdBits(pops.data(), eff.data(), out_bits, out.data() + i * out_wpr);
  }
  return BitMatrix::FromWords(n, out_bits, std::move(out));
}

/// Max pooling over {-1,+1} bits: a window is +1 iff any of its bits is
/// set. Per output row, the window's kernel rows are ORed as words, each
/// bit is ORed with its kernel_w - 1 higher neighbours by doubling shifts,
/// and every stride_w-th bit is kept (ExtractBits). Pooling has no padding,
/// so every window lies inside the input.
BitMatrix PoolBatch(const BitMatrix& batch, const StageGeometry& g) {
  const std::int64_t n = batch.rows();
  const std::int64_t h = g.in_h, w = g.in_w;
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  const std::int64_t kw = g.kernel_w, sw = g.stride_w;
  const std::int64_t out_bits = g.in_channels * oh * ow;
  const std::int64_t out_wpr = (out_bits + 63) / 64;
  // Output columns per pass: the input span (k - 1) * sw + kw of k
  // windows fits one word.
  const std::int64_t per_pass = std::max<std::int64_t>(1, (64 - kw) / sw + 1);
  std::uint64_t starts = 0;  // bit j set where a window starts
  for (std::int64_t b = 0; b < 64; b += sw) starts |= std::uint64_t{1} << b;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n * out_wpr), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::span<const std::uint64_t> src = batch.RowWords(i);
    std::uint64_t* dst = words.data() + i * out_wpr;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t row0 = (c * h + oy * g.stride_h) * w;
        for (std::int64_t ox = 0; ox < ow; ox += per_pass) {
          const std::int64_t k = std::min(per_pass, ow - ox);
          const int span = static_cast<int>((k - 1) * sw + kw);
          std::uint64_t v = 0;
          for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
            v |= ExtractField(src, row0 + ky * w + ox * sw, span);
          }
          for (std::int64_t width = 1; width < kw;) {
            const std::int64_t step = std::min(width, kw - width);
            v |= v >> step;
            width += step;
          }
          const std::uint64_t bits = sw == 1 ? v : ExtractBits(v, starts);
          DepositField(dst, (c * oh + oy) * ow + ox, static_cast<int>(k),
                       bits & LowBits(k));
        }
      }
    }
  }
  return BitMatrix::FromWords(n, out_bits, std::move(words));
}

BitVector PoolRow(const BitVector& x, const StageGeometry& g) {
  const std::int64_t c_n = g.in_channels, h = g.in_h, w = g.in_w;
  const std::int64_t oh = g.OutH(), ow = g.OutW();
  BitVector out(c_n * oh * ow);
  for (std::int64_t c = 0; c < c_n; ++c) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        bool any = false;
        for (std::int64_t ky = 0; ky < g.kernel_h && !any; ++ky) {
          for (std::int64_t kx = 0; kx < g.kernel_w && !any; ++kx) {
            any = x.Get(c * h * w + (oy * g.stride_h + ky) * w +
                        ox * g.stride_w + kx) > 0;
          }
        }
        if (any) out.Set(c * oh * ow + oy * ow + ox, +1);
      }
    }
  }
  return out;
}

/// Patch of one packed activation vector as a BitVector (the transactional
/// single-row path's gather).
BitVector GatherPatchVector(const BitVector& x, const StageGeometry& g,
                            std::int64_t c_begin, std::int64_t c_end,
                            std::int64_t oy, std::int64_t ox) {
  const std::int64_t patch_bits =
      (c_end - c_begin) * g.kernel_h * g.kernel_w;
  std::vector<std::uint64_t> words(
      static_cast<std::size_t>((patch_bits + 63) / 64), 0);
  GatherPatch(x.words(), g, c_begin, c_end, oy, ox, words.data());
  return BitMatrix::FromWords(1, patch_bits, std::move(words)).Row(0);
}

/// Default popcount oracle: the program's own weight matrices.
class WeightPopcounter final : public StagePopcounter {
 public:
  explicit WeightPopcounter(const BnnProgram& program)
      : weights_([&program] {
          std::vector<const BitMatrix*> w;
          for (const PackedGemmStage* g : program.GemmStages()) {
            w.push_back(&g->weights);
          }
          return w;
        }()) {}

  void StagePopcounts(std::size_t gemm_index, const BitVector& x,
                      std::int64_t row_begin, std::int64_t row_end,
                      std::int64_t* out) override {
    const BitMatrix& w = *weights_[gemm_index];
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      out[r - row_begin] = w.RowXnorPopcount(r, x);
    }
  }

 private:
  const std::vector<const BitMatrix*> weights_;
};

}  // namespace

BitMatrix BuildPatchMatrix(const BitMatrix& batch, const StageGeometry& geom,
                           std::int64_t c_begin, std::int64_t c_end) {
  if (c_begin < 0 || c_end <= c_begin || c_end > geom.in_channels) {
    throw std::invalid_argument("BuildPatchMatrix: bad channel range");
  }
  if (geom.kernel_w > 64) {
    throw std::invalid_argument(
        "BuildPatchMatrix: kernel_w > 64 exceeds the word-gather contract");
  }
  if (batch.cols() != geom.in_channels * geom.in_h * geom.in_w) {
    throw std::invalid_argument("BuildPatchMatrix: batch width mismatch");
  }
  const std::int64_t patches = geom.NumPatches();
  const std::int64_t patch_bits =
      (c_end - c_begin) * geom.kernel_h * geom.kernel_w;
  const std::int64_t wpr = (patch_bits + 63) / 64;
  const std::int64_t n = batch.rows();
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n * patches * wpr),
                                   0);
  PaddedRow padded;
  for (std::int64_t i = 0; i < n; ++i) {
    PadRow(batch.RowWords(i), geom, padded);
    GatherPatches(padded, geom, c_begin, c_end, wpr,
                  words.data() + i * patches * wpr);
  }
  return BitMatrix::FromWords(n * patches, patch_bits, std::move(words));
}

ProgramStage DenseHiddenStage(BitMatrix weights,
                              std::vector<std::int32_t> thresholds) {
  ProgramStage stage;
  stage.out_shape = {weights.rows(), 1, 1};
  stage.gemm.weights = std::move(weights);
  stage.gemm.thresholds = std::move(thresholds);
  return stage;
}

ProgramStage DenseOutputStage(BitMatrix weights, std::vector<float> scale,
                              std::vector<float> offset) {
  ProgramStage stage;
  stage.out_shape = {weights.rows(), 1, 1};
  stage.gemm.weights = std::move(weights);
  stage.gemm.is_output = true;
  stage.gemm.scale = std::move(scale);
  stage.gemm.offset = std::move(offset);
  return stage;
}

bool BnnProgram::IsPureDense() const {
  return std::all_of(stages_.begin(), stages_.end(), [](const ProgramStage& s) {
    return s.kind == StageKind::kPackedGemm &&
           s.gemm.lowering == GemmLowering::kDense;
  });
}

void BnnProgram::AddStage(ProgramStage stage) {
  stages_.push_back(std::move(stage));
}

std::int64_t BnnProgram::num_classes() const {
  if (stages_.empty() || stages_.back().kind != StageKind::kPackedGemm) {
    return 0;
  }
  return stages_.back().gemm.units();
}

std::size_t BnnProgram::num_gemm_stages() const {
  return static_cast<std::size_t>(
      std::count_if(stages_.begin(), stages_.end(), [](const ProgramStage& s) {
        return s.kind == StageKind::kPackedGemm;
      }));
}

std::vector<const PackedGemmStage*> BnnProgram::GemmStages() const {
  std::vector<const PackedGemmStage*> out;
  for (const ProgramStage& stage : stages_) {
    if (stage.kind == StageKind::kPackedGemm) out.push_back(&stage.gemm);
  }
  return out;
}

std::vector<float> BnnProgram::Scores(const BitVector& x) const {
  WeightPopcounter pop(*this);
  return ScoresWith(x, pop);
}

std::vector<float> BnnProgram::ScoresWith(const BitVector& x,
                                          StagePopcounter& pop) const {
  if (x.size() != input_size()) {
    throw std::invalid_argument("BnnProgram: input size mismatch");
  }
  BitVector act = x;
  std::size_t gi = 0;
  std::vector<std::int64_t> pops;
  for (const ProgramStage& stage : stages_) {
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        const std::int64_t units = g.units();
        if (g.is_output) {
          pops.resize(static_cast<std::size_t>(units));
          pop.StagePopcounts(gi, act, 0, units, pops.data());
          std::vector<float> scores(static_cast<std::size_t>(units));
          for (std::int64_t k = 0; k < units; ++k) {
            const auto dot = static_cast<float>(2 * pops[k] - g.weights.cols());
            scores[static_cast<std::size_t>(k)] =
                g.scale[static_cast<std::size_t>(k)] * dot +
                g.offset[static_cast<std::size_t>(k)];
          }
          return scores;
        }
        BitVector next(g.out_bits());
        switch (g.lowering) {
          case GemmLowering::kDense: {
            pops.resize(static_cast<std::size_t>(units));
            pop.StagePopcounts(gi, act, 0, units, pops.data());
            for (std::int64_t u = 0; u < units; ++u) {
              if (pops[u] >= g.thresholds[static_cast<std::size_t>(u)]) {
                next.Set(u, +1);
              }
            }
            break;
          }
          case GemmLowering::kConv: {
            const std::int64_t patches = g.num_patches();
            const std::int64_t ow = g.geom.OutW();
            pops.resize(static_cast<std::size_t>(units));
            for (std::int64_t p = 0; p < patches; ++p) {
              const BitVector patch = GatherPatchVector(
                  act, g.geom, 0, g.geom.in_channels, p / ow, p % ow);
              pop.StagePopcounts(gi, patch, 0, units, pops.data());
              for (std::int64_t u = 0; u < units; ++u) {
                if (pops[u] >= StageThreshold(g, u, p)) {
                  next.Set(u * patches + p, +1);
                }
              }
            }
            break;
          }
          case GemmLowering::kDepthwise: {
            const std::int64_t patches = g.num_patches();
            const std::int64_t ow = g.geom.OutW();
            for (std::int64_t c = 0; c < units; ++c) {
              for (std::int64_t p = 0; p < patches; ++p) {
                const BitVector patch =
                    GatherPatchVector(act, g.geom, c, c + 1, p / ow, p % ow);
                std::int64_t count = 0;
                pop.StagePopcounts(gi, patch, c, c + 1, &count);
                if (count >= StageThreshold(g, c, p)) {
                  next.Set(c * patches + p, +1);
                }
              }
            }
            break;
          }
        }
        act = std::move(next);
        ++gi;
        break;
      }
      case StageKind::kPool:
        act = PoolRow(act, stage.pool.geom);
        break;
      case StageKind::kReshape:
      case StageKind::kSign:
        break;
    }
  }
  throw std::invalid_argument("BnnProgram: program has no output stage");
}

std::vector<float> BnnProgram::ScoresBatch(
    const BitMatrix& batch, std::span<const StageSubstrate> substrates) const {
  if (batch.cols() != input_size()) {
    throw std::invalid_argument("BnnProgram: batch width mismatch");
  }
  if (!substrates.empty() && substrates.size() != num_gemm_stages()) {
    throw std::invalid_argument("BnnProgram: substrate count mismatch");
  }
  const std::int64_t n = batch.rows();
  const BitMatrix* cur = &batch;
  BitMatrix act;
  std::size_t gi = 0;
  for (const ProgramStage& stage : stages_) {
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        const BitMatrix* w = &g.weights;
        const std::int32_t* bias = nullptr;
        if (!substrates.empty()) {
          w = substrates[gi].weights;
          bias = substrates[gi].pop_bias;
          if (w->rows() != g.weights.rows() || w->cols() != g.weights.cols()) {
            throw std::invalid_argument(
                "BnnProgram: substrate weight shape mismatch");
          }
        }
        if (g.is_output) {
          const std::int64_t units = g.units();
          std::vector<std::int32_t> pops;
          XnorPopcountGemm(*cur, *w, pops);
          std::vector<float> scores(static_cast<std::size_t>(n * units));
          for (std::int64_t i = 0; i < n; ++i) {
            const std::int32_t* row = pops.data() + i * units;
            float* out = scores.data() + i * units;
            for (std::int64_t k = 0; k < units; ++k) {
              // Same int -> float conversion and affine as the per-row path
              // and the mapper's snapshot path, so floats are bit-identical.
              const std::int64_t count =
                  static_cast<std::int64_t>(row[k]) + (bias ? bias[k] : 0);
              const auto dot =
                  static_cast<float>(2 * count - g.weights.cols());
              out[k] = g.scale[static_cast<std::size_t>(k)] * dot +
                       g.offset[static_cast<std::size_t>(k)];
            }
          }
          return scores;
        }
        act = HiddenStage(g, *cur, *w, bias);
        cur = &act;
        ++gi;
        break;
      }
      case StageKind::kPool:
        act = PoolBatch(*cur, stage.pool.geom);
        cur = &act;
        break;
      case StageKind::kReshape:
      case StageKind::kSign:
        break;
    }
  }
  throw std::invalid_argument("BnnProgram: program has no output stage");
}

std::vector<std::int64_t> BnnProgram::PredictPacked(
    const BitMatrix& batch) const {
  return ArgmaxRows(ScoresBatch(batch), batch.rows(), num_classes());
}

std::vector<std::int64_t> BnnProgram::PredictBatch(
    const Tensor& features) const {
  if (features.rank() != 2) {
    throw std::invalid_argument("PredictBatch: expected [N, F]");
  }
  const std::int64_t n = features.dim(0), f = features.dim(1);
  if (f != input_size()) {
    throw std::invalid_argument("PredictBatch: feature width mismatch");
  }
  const BitMatrix packed = BitMatrix::FromSignRows(
      std::span<const float>(features.data(), static_cast<std::size_t>(n * f)),
      n, f);
  return PredictPacked(packed);
}

std::int64_t BnnProgram::TotalWeightBits() const {
  std::int64_t bits = 0;
  for (const ProgramStage& stage : stages_) {
    if (stage.kind == StageKind::kPackedGemm) bits += stage.gemm.weights.bits();
  }
  return bits;
}

namespace {

void CheckGeometry(const StageGeometry& g, const StageShape& in,
                   std::size_t index, const char* what) {
  const std::string at = std::string("BnnProgram: stage ") +
                         std::to_string(index) + " (" + what + ") ";
  if (g.in_channels != in.c || g.in_h != in.h || g.in_w != in.w) {
    throw std::invalid_argument(at + "geometry does not match input shape");
  }
  if (g.kernel_h < 1 || g.kernel_w < 1 || g.stride_h < 1 || g.stride_w < 1 ||
      g.pad_h < 0 || g.pad_w < 0) {
    throw std::invalid_argument(at + "has a non-positive kernel/stride");
  }
  if (g.kernel_w > 64) {
    throw std::invalid_argument(
        at + "kernel_w > 64 exceeds the word-gather contract");
  }
  // Compared directly: OutH()/OutW() truncate a negative numerator toward
  // zero, so an oversized kernel can still read as one output row/column.
  if (g.kernel_h > g.in_h + 2 * g.pad_h || g.kernel_w > g.in_w + 2 * g.pad_w) {
    throw std::invalid_argument(at + "kernel does not fit the input");
  }
}

void CheckThresholds(const PackedGemmStage& g, std::size_t index) {
  const std::string at = "BnnProgram: stage " + std::to_string(index);
  const std::size_t expected = static_cast<std::size_t>(
      g.per_pixel_thresholds ? g.units() * g.num_patches() : g.units());
  if (g.thresholds.size() != expected) {
    throw std::invalid_argument(at + " threshold count mismatch");
  }
  // A popcount over `cols` bits lies in [0, cols]; a threshold outside
  // [0, cols + 1] makes the unit constant in a way BN folding over finite
  // statistics never produces (FoldThreshold clamps to this range).
  const std::int64_t max_threshold = g.weights.cols() + 1;
  for (const std::int32_t t : g.thresholds) {
    if (t < 0 || t > max_threshold) {
      throw std::invalid_argument(at + " threshold out of range");
    }
  }
}

}  // namespace

void BnnProgram::Validate() const {
  if (input_shape_.c < 1 || input_shape_.h < 1 || input_shape_.w < 1) {
    throw std::invalid_argument("BnnProgram: non-positive input shape");
  }
  if (stages_.empty()) {
    throw std::invalid_argument("BnnProgram: empty program");
  }
  StageShape shape = input_shape_;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const ProgramStage& stage = stages_[i];
    const bool last = i + 1 == stages_.size();
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        if (g.is_output != last || (last && g.lowering != GemmLowering::kDense)) {
          throw std::invalid_argument(
              "BnnProgram: the output stage must be the final dense stage");
        }
        switch (g.lowering) {
          case GemmLowering::kDense:
            if (g.weights.cols() != shape.bits()) {
              throw std::invalid_argument("BnnProgram: stage " +
                                          std::to_string(i) +
                                          " input width mismatch");
            }
            break;
          case GemmLowering::kConv:
            CheckGeometry(g.geom, shape, i, "conv");
            if (g.weights.cols() != g.geom.PatchSize()) {
              throw std::invalid_argument("BnnProgram: stage " +
                                          std::to_string(i) +
                                          " conv patch width mismatch");
            }
            break;
          case GemmLowering::kDepthwise:
            CheckGeometry(g.geom, shape, i, "dwconv");
            if (g.weights.rows() != g.geom.in_channels ||
                g.weights.cols() != g.geom.ChannelPatchSize()) {
              throw std::invalid_argument("BnnProgram: stage " +
                                          std::to_string(i) +
                                          " depthwise weight shape mismatch");
            }
            break;
        }
        if (g.is_output) {
          if (!g.thresholds.empty() ||
              g.scale.size() != static_cast<std::size_t>(g.units()) ||
              g.offset.size() != static_cast<std::size_t>(g.units())) {
            throw std::invalid_argument(
                "BnnProgram: output stage affine size mismatch");
          }
          shape = {g.units(), 1, 1};
        } else {
          CheckThresholds(g, i);
          shape = g.lowering == GemmLowering::kDense
                      ? StageShape{g.units(), 1, 1}
                      : StageShape{g.units(), g.geom.OutH(), g.geom.OutW()};
        }
        break;
      }
      case StageKind::kPool:
        CheckGeometry(stage.pool.geom, shape, i, "pool");
        if (stage.pool.geom.padded()) {
          throw std::invalid_argument("BnnProgram: padded pooling unsupported");
        }
        shape = {shape.c, stage.pool.geom.OutH(), stage.pool.geom.OutW()};
        break;
      case StageKind::kReshape:
        if (stage.out_shape.bits() != shape.bits()) {
          throw std::invalid_argument("BnnProgram: reshape changes bit count");
        }
        shape = stage.out_shape;
        break;
      case StageKind::kSign:
        break;
    }
    if (!(stage.out_shape == shape)) {
      throw std::invalid_argument("BnnProgram: stage " + std::to_string(i) +
                                  " output shape mismatch");
    }
  }
  if (stages_.back().kind != StageKind::kPackedGemm ||
      !stages_.back().gemm.is_output) {
    throw std::invalid_argument("BnnProgram: program has no output stage");
  }
}

std::string BnnProgram::Describe() const {
  auto geo = [](const StageGeometry& g) {
    std::string s = std::to_string(g.kernel_h) + "x" +
                    std::to_string(g.kernel_w) + "/s" +
                    std::to_string(g.stride_h);
    if (g.stride_w != g.stride_h) s += "x" + std::to_string(g.stride_w);
    if (g.padded()) {
      s += " p" + std::to_string(g.pad_h);
      if (g.pad_w != g.pad_h) s += "x" + std::to_string(g.pad_w);
    }
    return s;
  };
  auto shape3 = [](const StageGeometry& g) {
    return std::to_string(g.in_channels) + "x" + std::to_string(g.in_h) + "x" +
           std::to_string(g.in_w);
  };
  std::string out;
  for (const ProgramStage& stage : stages_) {
    if (!out.empty()) out += " | ";
    switch (stage.kind) {
      case StageKind::kPackedGemm: {
        const PackedGemmStage& g = stage.gemm;
        switch (g.lowering) {
          case GemmLowering::kDense:
            out += "dense " + std::to_string(g.weights.cols()) + "->" +
                   std::to_string(g.units());
            break;
          case GemmLowering::kConv:
            out += "conv " + shape3(g.geom) + "->" + std::to_string(g.units()) +
                   " " + geo(g.geom);
            break;
          case GemmLowering::kDepthwise:
            out += "dwconv " + shape3(g.geom) + " " + geo(g.geom);
            break;
        }
        if (g.is_output) out += " (output)";
        break;
      }
      case StageKind::kPool:
        out += "pool " + geo(stage.pool.geom);
        break;
      case StageKind::kReshape:
        out += "reshape " + std::to_string(stage.out_shape.bits());
        break;
      case StageKind::kSign:
        out += "sign";
        break;
    }
  }
  return out;
}

}  // namespace rrambnn::core
