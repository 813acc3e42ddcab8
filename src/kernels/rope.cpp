#include "kernels/rope.hpp"

#include <cmath>

#include "util/check.hpp"

namespace distmcu::kernels {

RopeTable::RopeTable(int positions, int head_dim, float base)
    : positions_(positions), head_dim_(head_dim) {
  DISTMCU_CHECK(positions > 0 && head_dim > 0, "rope: dimensions must be positive");
  DISTMCU_CHECK(head_dim % 2 == 0, "rope: head_dim must be even");
  std::vector<float> freq(static_cast<std::size_t>(head_dim / 2));
  for (int j = 0; j < head_dim; j += 2) {
    freq[static_cast<std::size_t>(j / 2)] =
        std::pow(base, -static_cast<float>(j) / static_cast<float>(head_dim));
  }
  cos_sin_.resize(static_cast<std::size_t>(positions) * static_cast<std::size_t>(head_dim));
  float* out = cos_sin_.data();
  for (int pos = 0; pos < positions; ++pos) {
    for (const float f : freq) {
      const float angle = static_cast<float>(pos) * f;
      *out++ = std::cos(angle);
      *out++ = std::sin(angle);
    }
  }
}

std::span<const float> RopeTable::row(int pos) const {
  DISTMCU_CHECK(pos >= 0 && pos < positions_, "rope: position outside the table");
  return std::span<const float>(cos_sin_).subspan(
      static_cast<std::size_t>(pos) * static_cast<std::size_t>(head_dim_),
      static_cast<std::size_t>(head_dim_));
}

void rope_apply(std::span<float> x, int n_pos, int width, int pos_offset,
                const RopeTable& table) {
  const int p = table.head_dim();
  DISTMCU_CHECK(n_pos > 0 && width > 0, "rope: dimensions must be positive");
  DISTMCU_CHECK(width % p == 0, "rope: row width is not a whole number of heads");
  DISTMCU_CHECK(x.size() == static_cast<std::size_t>(n_pos) * static_cast<std::size_t>(width),
                "rope: size mismatch");
  DISTMCU_CHECK(pos_offset >= 0 && pos_offset + n_pos <= table.positions(),
                "rope: position outside the table");
  for (int i = 0; i < n_pos; ++i) {
    const float* cs = table.row(pos_offset + i).data();
    float* row = x.data() + static_cast<std::size_t>(i) * width;
    for (int h = 0; h < width; h += p) {
      float* head = row + h;
      for (int j = 0; j < p; j += 2) {
        const float c = cs[j];
        const float s = cs[j + 1];
        const float x0 = head[j];
        const float x1 = head[j + 1];
        head[j] = x0 * c - x1 * s;
        head[j + 1] = x0 * s + x1 * c;
      }
    }
  }
}

}  // namespace distmcu::kernels
