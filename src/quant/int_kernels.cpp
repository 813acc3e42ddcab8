#include "quant/int_kernels.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::quant {

namespace {
constexpr int kRowBlock = 4;
constexpr int kDepthBlock = 4;

// The row-block / k-unroll loop of kernels::gemm: each group of
// kDepthBlock p values reads its B rows once per block of kRowBlock output
// rows and updates each C row once. Integer sums are exact in any order,
// so only an all-zero group of A values is skipped.
template <typename Int, typename Acc>
[[gnu::always_inline]] inline void gemm_int(std::span<const Int> a, std::span<const Int> b,
                                            std::span<Acc> c, int m, int n, int k) {
  DISTMCU_CHECK(m > 0 && n > 0 && k > 0, "gemm_int: dimensions must be positive");
  DISTMCU_CHECK(a.size() == static_cast<std::size_t>(m) * static_cast<std::size_t>(k),
              "gemm_int: A size mismatch");
  DISTMCU_CHECK(b.size() == static_cast<std::size_t>(k) * static_cast<std::size_t>(n),
              "gemm_int: B size mismatch");
  DISTMCU_CHECK(c.size() == static_cast<std::size_t>(m) * static_cast<std::size_t>(n),
              "gemm_int: C size mismatch");
  std::fill(c.begin(), c.end(), Acc{0});
  for (int i0 = 0; i0 < m; i0 += kRowBlock) {
    const int i1 = std::min(m, i0 + kRowBlock);
    int p = 0;
    for (; p + kDepthBlock <= k; p += kDepthBlock) {
      const Int* b0 = b.data() + static_cast<std::size_t>(p) * n;
      const Int* b1 = b0 + n;
      const Int* b2 = b1 + n;
      const Int* b3 = b2 + n;
      for (int i = i0; i < i1; ++i) {
        const Int* ap = a.data() + static_cast<std::size_t>(i) * k + p;
        const auto a0 = static_cast<Acc>(ap[0]), a1 = static_cast<Acc>(ap[1]),
                   a2 = static_cast<Acc>(ap[2]), a3 = static_cast<Acc>(ap[3]);
        if (a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0) continue;
        Acc* crow = c.data() + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          crow[j] += a0 * static_cast<Acc>(b0[j]) + a1 * static_cast<Acc>(b1[j]) +
                     a2 * static_cast<Acc>(b2[j]) + a3 * static_cast<Acc>(b3[j]);
        }
      }
    }
    for (; p < k; ++p) {
      const Int* brow = b.data() + static_cast<std::size_t>(p) * n;
      for (int i = i0; i < i1; ++i) {
        const auto av = static_cast<Acc>(a[static_cast<std::size_t>(i) * k + p]);
        if (av == 0) continue;
        Acc* crow = c.data() + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * static_cast<Acc>(brow[j]);
      }
    }
  }
}
}  // namespace

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)  // see kernels/gemm.hpp
__attribute__((target_clones("avx2", "default")))
#endif
void gemm_i8_i32(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                 std::span<std::int32_t> c, int m, int n, int k) {
  gemm_int<std::int8_t, std::int32_t>(a, b, c, m, n, k);
}

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)  // see kernels/gemm.hpp
__attribute__((target_clones("avx2", "default")))
#endif
void gemm_i16_i64(std::span<const std::int16_t> a, std::span<const std::int16_t> b,
                  std::span<std::int64_t> c, int m, int n, int k) {
  gemm_int<std::int16_t, std::int64_t>(a, b, c, m, n, k);
}

void requant_i32_i8(std::span<const std::int32_t> acc, std::int32_t mult, int shift,
                    std::span<std::int8_t> out) {
  DISTMCU_CHECK(acc.size() == out.size(), "requant: size mismatch");
  DISTMCU_CHECK(shift >= 0 && shift < 63, "requant: bad shift");
  const std::int64_t rounding = shift > 0 ? (1ll << (shift - 1)) : 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::int64_t v =
        (static_cast<std::int64_t>(acc[i]) * static_cast<std::int64_t>(mult) + rounding) >>
        shift;
    out[i] = static_cast<std::int8_t>(std::clamp<std::int64_t>(v, -128, 127));
  }
}

}  // namespace distmcu::quant
