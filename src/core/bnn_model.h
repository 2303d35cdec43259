// Row-wise argmax over a class-score matrix: the decision rule shared by
// every execution path of a compiled core::BnnProgram (the program itself
// and every engine backend).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rrambnn::core {

/// Argmax per row of a row-major [rows, classes] score matrix; the first
/// maximum wins.
std::vector<std::int64_t> ArgmaxRows(std::span<const float> scores,
                                     std::int64_t rows, std::int64_t classes);

}  // namespace rrambnn::core
