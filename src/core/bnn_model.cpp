#include "core/bnn_model.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace rrambnn::core {

std::vector<std::int64_t> ArgmaxRows(std::span<const float> scores,
                                     std::int64_t rows,
                                     std::int64_t classes) {
  if (static_cast<std::int64_t>(scores.size()) != rows * classes) {
    throw std::invalid_argument("ArgmaxRows: score count mismatch");
  }
  std::vector<std::int64_t> preds(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* row = scores.data() + i * classes;
    preds[static_cast<std::size_t>(i)] =
        std::distance(row, std::max_element(row, row + classes));
  }
  return preds;
}

}  // namespace rrambnn::core
