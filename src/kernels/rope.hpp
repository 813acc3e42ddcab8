#ifndef DISTMCU_KERNELS_ROPE_HPP
#define DISTMCU_KERNELS_ROPE_HPP

#include <span>
#include <vector>

namespace distmcu::kernels {

/// Rotary position embedding angles (Llama family), precomputed once per
/// block executor: for every position pos < positions() and every pair
/// (2j, 2j+1) of a `head_dim`-wide head, the cosine and sine of
/// pos / base^(2j/head_dim). Each entry is computed with exactly the
/// float expressions of a direct evaluation,
///   freq = std::pow(base, -float(2j) / float(head_dim)),
///   angle = float(pos) * freq, std::cos(angle), std::sin(angle),
/// so reading the table is bit-equal to evaluating them per row.
class RopeTable {
 public:
  RopeTable(int positions, int head_dim, float base);

  [[nodiscard]] int positions() const { return positions_; }
  [[nodiscard]] int head_dim() const { return head_dim_; }

  /// Position `pos`'s `head_dim` floats: cos then sin of each pair's
  /// angle, pair by pair. Requires 0 <= pos < positions().
  [[nodiscard]] std::span<const float> row(int pos) const;

 private:
  int positions_;
  int head_dim_;
  std::vector<float> cos_sin_;  // [positions, head_dim]
};

/// RoPE applied in place to `n_pos` rows of `width` floats each, read
/// from `table`: row i holds the features of absolute position
/// `pos_offset + i`, cut into width / head_dim heads, and every head's
/// pair (2j, 2j+1) is rotated by that position's pair-j angle. The
/// rotation depends only on the position and the pair index, never on
/// the head, so a chip rotates all its heads of a row at once and the
/// partitioned rotation stays chip-local with no communication, a
/// property the partition tests assert. Positions past the table throw.
void rope_apply(std::span<float> x, int n_pos, int width, int pos_offset,
                const RopeTable& table);

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_ROPE_HPP
