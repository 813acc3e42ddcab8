#include "kernels/gemm.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace distmcu::kernels {

namespace {
void check_sizes(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, int m, int n, int k, std::size_t b_expected) {
  DISTMCU_CHECK(m > 0 && n > 0 && k > 0, "gemm: dimensions must be positive");
  DISTMCU_CHECK(a.size() == static_cast<std::size_t>(m) * static_cast<std::size_t>(k),
              "gemm: A size mismatch");
  DISTMCU_CHECK(b.size() == b_expected, "gemm: B size mismatch");
  DISTMCU_CHECK(c.size() == static_cast<std::size_t>(m) * static_cast<std::size_t>(n),
              "gemm: C size mismatch");
}

bool overlaps(std::span<const float> x, std::span<const float> y) {
  const std::less<const float*> before;
  return before(x.data(), y.data() + y.size()) && before(y.data(), x.data() + x.size());
}

constexpr int kRowBlock = 4;
constexpr int kDepthBlock = 4;
}  // namespace

// C rows are taken in blocks of kRowBlock and p in groups of kDepthBlock:
// each group reads its B rows once for the whole block, and a row whose A
// values in the group are all nonzero updates C once with the four
// products chained in p order; any other row falls back to one pass per
// nonzero A value. Either way every C element sees the same multiplies and
// adds in the same order as a one-p-at-a-time loop (see gemm.hpp).
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)  // see gemm.hpp
__attribute__((target_clones("avx2", "default")))
#endif
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          int m, int n, int k, std::span<const float> bias) {
  check_sizes(a, b, c, m, n, k,
              static_cast<std::size_t>(k) * static_cast<std::size_t>(n));
  DISTMCU_CHECK(bias.empty() || bias.size() == static_cast<std::size_t>(n),
              "gemm: bias size mismatch");
  DISTMCU_CHECK(!overlaps(c, a) && !overlaps(c, b), "gemm: C must not alias A or B");
  for (int i = 0; i < m; ++i) {
    float* crow = c.data() + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(j)];
  }
  for (int i0 = 0; i0 < m; i0 += kRowBlock) {
    const int i1 = std::min(m, i0 + kRowBlock);
    int p = 0;
    for (; p + kDepthBlock <= k; p += kDepthBlock) {
      const float* b0 = b.data() + static_cast<std::size_t>(p) * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      for (int i = i0; i < i1; ++i) {
        const float* ap = a.data() + static_cast<std::size_t>(i) * k + p;
        float* crow = c.data() + static_cast<std::size_t>(i) * n;
        const float a0 = ap[0], a1 = ap[1], a2 = ap[2], a3 = ap[3];
        if (a0 != 0.0f && a1 != 0.0f && a2 != 0.0f && a3 != 0.0f) {
          for (int j = 0; j < n; ++j) {
            crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
          }
          continue;
        }
        for (int q = 0; q < kDepthBlock; ++q) {
          const float av = ap[q];
          if (av == 0.0f) continue;
          const float* brow = b0 + static_cast<std::size_t>(q) * n;
          for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
    for (; p < k; ++p) {
      const float* brow = b.data() + static_cast<std::size_t>(p) * n;
      for (int i = i0; i < i1; ++i) {
        const float av = a[static_cast<std::size_t>(i) * k + p];
        if (av == 0.0f) continue;
        float* crow = c.data() + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             int m, int n, int k) {
  check_sizes(a, b, c, m, n, k,
              static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (int i = 0; i < m; ++i) {
    const float* arow = a.data() + static_cast<std::size_t>(i) * k;
    float* crow = c.data() + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b.data() + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void gemv(std::span<const float> x, std::span<const float> b, std::span<float> out,
          int n, int k, std::span<const float> bias) {
  gemm(x, b, out, 1, n, k, bias);
}

}  // namespace distmcu::kernels
