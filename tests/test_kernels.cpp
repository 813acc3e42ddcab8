// Numeric tests for the functional kernels: hand-checked small cases plus
// algebraic properties (softmax normalization, norm invariances, RoPE
// isometry, attention limits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "quant/int_kernels.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
namespace k = distmcu::kernels;

TEST(Gemm, HandComputed2x2) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]]
  const std::vector<float> a{1, 2, 3, 4};
  const std::vector<float> b{5, 6, 7, 8};
  std::vector<float> c(4);
  k::gemm(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, BiasBroadcastsOverRows) {
  const std::vector<float> a{1, 0, 0, 1};  // identity
  const std::vector<float> b{2, 3, 4, 5};
  const std::vector<float> bias{10, 20};
  std::vector<float> c(4);
  k::gemm(a, b, c, 2, 2, 2, bias);
  EXPECT_FLOAT_EQ(c[0], 12);
  EXPECT_FLOAT_EQ(c[1], 23);
  EXPECT_FLOAT_EQ(c[2], 14);
  EXPECT_FLOAT_EQ(c[3], 25);
}

TEST(Gemm, NtMatchesExplicitTranspose) {
  util::Rng rng(3);
  const int m = 5, n = 7, p = 9;
  std::vector<float> a(static_cast<std::size_t>(m * p));
  std::vector<float> bt(static_cast<std::size_t>(n * p));  // B^T stored [n,p]
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : bt) v = rng.uniform(-1, 1);
  // Zeros of both signs in A: gemm skips them, gemm_nt adds their +-0
  // products to an accumulator that is never -0, so the bits still agree.
  // Row 4 is all -0 and B's column 0 all positive: every product there
  // is -0, and the sum must still be +0.
  a[1] = 0.0f;
  a[static_cast<std::size_t>(p + 4)] = -0.0f;
  a[static_cast<std::size_t>(2 * p + 8)] = 0.0f;
  for (int i = 0; i < p; ++i) a[static_cast<std::size_t>(4 * p + i)] = -0.0f;
  for (int i = 0; i < p; ++i) {
    bt[static_cast<std::size_t>(i)] = std::fabs(bt[static_cast<std::size_t>(i)]);
  }
  // Build B [p,n] explicitly.
  std::vector<float> b(static_cast<std::size_t>(p * n));
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < n; ++j) {
      b[static_cast<std::size_t>(i * n + j)] = bt[static_cast<std::size_t>(j * p + i)];
    }
  }
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c2(static_cast<std::size_t>(m * n));
  k::gemm(a, b, c1, m, n, p);
  k::gemm_nt(a, bt, c2, m, n, p);
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)), 0);
  for (int j = 0; j < n; ++j) {  // the all-zero row sums to +0, not -0
    EXPECT_FALSE(std::signbit(c2[static_cast<std::size_t>(4 * n + j)]));
  }
}

TEST(Gemm, GemvEqualsSingleRowGemm) {
  util::Rng rng(5);
  const int n = 16, kk = 24;
  std::vector<float> x(static_cast<std::size_t>(kk)), b(static_cast<std::size_t>(kk * n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<float> o1(static_cast<std::size_t>(n)), o2(static_cast<std::size_t>(n));
  k::gemv(x, b, o1, n, kk);
  k::gemm(x, b, o2, 1, n, kk);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(o1[static_cast<std::size_t>(i)], o2[static_cast<std::size_t>(i)]);
}

TEST(Gemm, SizeMismatchThrows) {
  std::vector<float> a(4), b(4), c(3);
  EXPECT_THROW(k::gemm(a, b, c, 2, 2, 2), Error);
}

TEST(Gemm, AliasedOutputThrows) {
  // The blocked kernel writes a whole block of C rows before it reads the
  // next block's A rows, so C may share storage with neither input.
  std::vector<float> buf(16, 1.0f);
  const std::vector<float> other(4, 1.0f);
  const std::span<float> all(buf);
  EXPECT_THROW(k::gemm(all.subspan(0, 4), other, all.subspan(2, 4), 2, 2, 2), Error);
  EXPECT_THROW(k::gemm(other, all.subspan(4, 4), all.subspan(4, 4), 2, 2, 2), Error);
  EXPECT_THROW(k::gemm(other, all.subspan(6, 4), all.subspan(3, 4), 2, 2, 2), Error);
  // Adjacent but disjoint storage is fine.
  EXPECT_NO_THROW(k::gemm(all.subspan(0, 4), all.subspan(4, 4), all.subspan(8, 4), 2, 2, 2));
}

namespace {
// The plain one-p-at-a-time loop: every C element adds its products in
// ascending p and skips a zero A value. The blocked kernels::gemm must
// reproduce it bit for bit.
void gemm_reference(const std::vector<float>& a, const std::vector<float>& b,
                    std::vector<float>& c, int m, int n, int kk,
                    const std::vector<float>& bias) {
  for (int i = 0; i < m; ++i) {
    float* crow = c.data() + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(j)];
    const float* arow = a.data() + static_cast<std::size_t>(i) * kk;
    for (int p = 0; p < kk; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.data() + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

int draw(util::Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

// A [m, k] of integers or floats in [-hi, hi] with isolated exact zeros,
// aligned and unaligned runs of four zeros, and (for float) -0.0f.
template <typename T>
std::vector<T> sparse_operand(util::Rng& rng, int m, int kk, float hi) {
  std::vector<T> a(static_cast<std::size_t>(m) * kk);
  for (auto& v : a) v = static_cast<T>(rng.uniform(-hi, hi));
  for (auto& v : a) {
    const auto roll = rng.next_below(10);
    if (roll == 0) v = T{0};
    if constexpr (std::is_floating_point_v<T>) {
      if (roll == 1) v = -0.0f;
    }
  }
  const int runs = draw(rng, 0, m);
  for (int r = 0; r < runs; ++r) {
    const int i = draw(rng, 0, m - 1), p = draw(rng, 0, kk - 1);
    const int start = rng.next_below(2) == 0 ? p - p % 4 : p;
    for (int q = start; q < std::min(kk, start + 4); ++q) a[static_cast<std::size_t>(i) * kk + q] = T{0};
  }
  return a;
}
}  // namespace

TEST(GemmDifferential, BlockedKernelMatchesScalarLoopBitForBit) {
  util::Rng rng(1313);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  int odd_n = 0, ragged_k = 0, ragged_m = 0, poisoned = 0, neg_zero_bias = 0;
  int full_groups = 0;  // aligned groups of four nonzero A values
  for (int trial = 0; trial < 400; ++trial) {
    const int m = draw(rng, 1, 19), n = draw(rng, 1, 70), kk = draw(rng, 1, 37);
    auto a = sparse_operand<float>(rng, m, kk, 1.0f);
    std::vector<float> b(static_cast<std::size_t>(kk) * n);
    for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
    // A column of zeros whose B row holds inf/NaN: the zero skip must
    // keep 0 * inf out of every C element.
    if (rng.next_below(3) == 0) {
      const int p = draw(rng, 0, kk - 1);
      for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * kk + p] = 0.0f;
      for (int j = 0; j < n; ++j) {
        b[static_cast<std::size_t>(p) * n + j] = j % 3 == 0 ? kNan : (j % 3 == 1 ? kInf : -kInf);
      }
      ++poisoned;
    }
    std::vector<float> bias;
    if (rng.next_below(2) == 0) {
      bias.resize(static_cast<std::size_t>(n));
      for (auto& v : bias) v = rng.next_below(3) == 0 ? -0.0f : rng.uniform(-1.0f, 1.0f);
      ++neg_zero_bias;
    }
    for (int i = 0; i < m; ++i) {
      for (int p = 0; p + 4 <= kk; p += 4) {
        const float* g = a.data() + static_cast<std::size_t>(i) * kk + p;
        full_groups += g[0] != 0.0f && g[1] != 0.0f && g[2] != 0.0f && g[3] != 0.0f ? 1 : 0;
      }
    }
    odd_n += n % 2;
    ragged_k += kk % 4 != 0 ? 1 : 0;
    ragged_m += m % 4 != 0 ? 1 : 0;

    std::vector<float> want(static_cast<std::size_t>(m) * n, 7.0f);
    std::vector<float> got(want.size(), -7.0f);
    gemm_reference(a, b, want, m, n, kk, bias);
    k::gemm(a, b, got, m, n, kk, bias);
    ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "m=" << m << " n=" << n << " k=" << kk << " bias=" << !bias.empty();
  }
  // The draws must have exercised every remainder and every special value.
  EXPECT_GT(full_groups, 1000);
  EXPECT_GT(odd_n, 50);
  EXPECT_GT(ragged_k, 50);
  EXPECT_GT(ragged_m, 50);
  EXPECT_GT(poisoned, 50);
  EXPECT_GT(neg_zero_bias, 50);
}

namespace {
template <typename Int, typename Acc, typename Kernel>
void check_int_gemm_against_naive(Kernel kernel, float hi, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = draw(rng, 1, 19), n = draw(rng, 1, 70), kk = draw(rng, 1, 37);
    const auto a = sparse_operand<Int>(rng, m, kk, hi);
    std::vector<Int> b(static_cast<std::size_t>(kk) * n);
    for (auto& v : b) v = static_cast<Int>(rng.uniform(-hi, hi));
    std::vector<Acc> want(static_cast<std::size_t>(m) * n, Acc{0});
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        Acc sum = 0;
        for (int p = 0; p < kk; ++p) {
          sum += static_cast<Acc>(a[static_cast<std::size_t>(i) * kk + p]) *
                 static_cast<Acc>(b[static_cast<std::size_t>(p) * n + j]);
        }
        want[static_cast<std::size_t>(i) * n + j] = sum;
      }
    }
    std::vector<Acc> got(want.size(), Acc{-1});
    kernel(a, b, got, m, n, kk);
    ASSERT_EQ(want, got) << "m=" << m << " n=" << n << " k=" << kk;
  }
}
}  // namespace

TEST(GemmDifferential, Int8KernelMatchesNaiveLoop) {
  check_int_gemm_against_naive<std::int8_t, std::int32_t>(
      [](const auto& a, const auto& b, auto& c, int m, int n, int kk) {
        quant::gemm_i8_i32(a, b, c, m, n, kk);
      },
      128.0f, 88);
}

TEST(GemmDifferential, Int16KernelMatchesNaiveLoop) {
  check_int_gemm_against_naive<std::int16_t, std::int64_t>(
      [](const auto& a, const auto& b, auto& c, int m, int n, int kk) {
        quant::gemm_i16_i64(a, b, c, m, n, kk);
      },
      32768.0f, 1616);
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(7);
  const int rows = 6, cols = 33;
  std::vector<float> x(static_cast<std::size_t>(rows * cols));
  for (auto& v : x) v = rng.uniform(-4, 4);
  k::softmax_rows(x, rows, cols);
  for (int r = 0; r < rows; ++r) {
    float sum = 0;
    for (int c = 0; c < cols; ++c) sum += x[static_cast<std::size_t>(r * cols + c)];
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Softmax, StableForLargeInputs) {
  std::vector<float> x{1000.0f, 1000.0f, 1000.0f, 999.0f};
  k::softmax_rows(x, 1, 4);
  for (const float v : x) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(x[0], x[3]);
}

TEST(Softmax, ShiftInvariance) {
  std::vector<float> a{0.5f, -1.0f, 2.0f};
  std::vector<float> b{10.5f, 9.0f, 12.0f};  // a + 10
  k::softmax_rows(a, 1, 3);
  k::softmax_rows(b, 1, 3);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-6);
}

TEST(RmsNorm, UnitGammaGivesUnitRms) {
  util::Rng rng(9);
  const int cols = 64;
  std::vector<float> x(cols), gamma(cols, 1.0f), out(cols);
  for (auto& v : x) v = rng.uniform(-3, 3);
  k::rmsnorm_rows(x, gamma, out, 1, cols, 1e-6f);
  float ss = 0;
  for (const float v : out) ss += v * v;
  EXPECT_NEAR(std::sqrt(ss / cols), 1.0f, 1e-3);
}

TEST(RmsNorm, ScaleInvariance) {
  const int cols = 8;
  std::vector<float> x{1, 2, 3, 4, -1, -2, -3, -4};
  std::vector<float> x2(x);
  for (auto& v : x2) v *= 7.0f;
  std::vector<float> gamma(cols, 1.0f), o1(cols), o2(cols);
  k::rmsnorm_rows(x, gamma, o1, 1, cols, 0.0f);
  k::rmsnorm_rows(x2, gamma, o2, 1, cols, 0.0f);
  for (int i = 0; i < cols; ++i) EXPECT_NEAR(o1[static_cast<std::size_t>(i)], o2[static_cast<std::size_t>(i)], 1e-5);
}

TEST(LayerNorm, ZeroMeanUnitVar) {
  util::Rng rng(11);
  const int cols = 128;
  std::vector<float> x(cols), gamma(cols, 1.0f), beta(cols, 0.0f), out(cols);
  for (auto& v : x) v = rng.uniform(0, 10);
  k::layernorm_rows(x, gamma, beta, out, 1, cols, 1e-6f);
  float mean = 0;
  for (const float v : out) mean += v;
  mean /= cols;
  float var = 0;
  for (const float v : out) var += (v - mean) * (v - mean);
  var /= cols;
  EXPECT_NEAR(mean, 0.0f, 1e-4);
  EXPECT_NEAR(var, 1.0f, 1e-3);
}

TEST(LayerNorm, BetaShifts) {
  const int cols = 4;
  std::vector<float> x{1, 2, 3, 4}, gamma(cols, 1.0f), beta(cols, 5.0f), out(cols);
  k::layernorm_rows(x, gamma, beta, out, 1, cols, 1e-6f);
  float mean = 0;
  for (const float v : out) mean += v;
  EXPECT_NEAR(mean / cols, 5.0f, 1e-4);
}

TEST(Activations, GeluKnownValues) {
  std::vector<float> x{0.0f, 100.0f, -100.0f, 1.0f};
  k::gelu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], 100.0f, 1e-3);
  EXPECT_NEAR(x[2], 0.0f, 1e-3);
  EXPECT_NEAR(x[3], 0.8413447f, 1e-4);  // x * Phi(1)
}

TEST(Activations, SiluKnownValues) {
  std::vector<float> x{0.0f, 100.0f};
  k::silu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_NEAR(x[1], 100.0f, 1e-3);
}

TEST(Activations, ReluClampsNegatives) {
  std::vector<float> x{-1.0f, 0.0f, 2.5f};
  k::relu(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.5f);
}

TEST(Elementwise, AddAndMul) {
  std::vector<float> out{1, 2, 3};
  const std::vector<float> x{10, 20, 30};
  k::add_inplace(out, x);
  EXPECT_FLOAT_EQ(out[1], 22);
  k::mul_inplace(out, x);
  EXPECT_FLOAT_EQ(out[2], 990);
}

TEST(Rope, PositionZeroIsIdentity) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> orig(x);
  k::rope_apply(x, 1, 4, 0, k::RopeTable(1, 4, 10000.0f));
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[static_cast<std::size_t>(i)], orig[static_cast<std::size_t>(i)], 1e-6);
}

TEST(Rope, PreservesPairNorms) {
  util::Rng rng(13);
  const int dim = 64;
  std::vector<float> x(dim);
  for (auto& v : x) v = rng.uniform(-2, 2);
  const std::vector<float> orig(x);
  k::rope_apply(x, 1, dim, 37, k::RopeTable(38, dim, 10000.0f));
  for (int j = 0; j < dim; j += 2) {
    const float n0 = orig[static_cast<std::size_t>(j)] * orig[static_cast<std::size_t>(j)] +
                     orig[static_cast<std::size_t>(j + 1)] * orig[static_cast<std::size_t>(j + 1)];
    const float n1 = x[static_cast<std::size_t>(j)] * x[static_cast<std::size_t>(j)] +
                     x[static_cast<std::size_t>(j + 1)] * x[static_cast<std::size_t>(j + 1)];
    EXPECT_NEAR(n0, n1, 1e-4);
  }
}

TEST(Rope, RelativePhaseProperty) {
  // Rotating the same vector at positions p and p+d: the dot product
  // between the two depends only on d (relative encoding).
  const int dim = 8;
  std::vector<float> base(dim, 0.5f);
  const k::RopeTable table(25, dim, 10000.0f);
  auto rotated = [&](int pos) {
    std::vector<float> v(base);
    k::rope_apply(v, 1, dim, pos, table);
    return v;
  };
  auto dot = [&](const std::vector<float>& a, const std::vector<float>& b) {
    float s = 0;
    for (int i = 0; i < dim; ++i) s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    return s;
  };
  const float d1 = dot(rotated(3), rotated(7));
  const float d2 = dot(rotated(20), rotated(24));
  EXPECT_NEAR(d1, d2, 1e-4);
}

TEST(Rope, OddHeadDimRejected) {
  EXPECT_THROW(k::RopeTable(4, 3, 10000.0f), Error);
}

namespace {

/// The per-row RoPE evaluation the table replaced, kept as the reference:
/// one head of `head_dim` floats at position `pos`, pow/cos/sin per pair.
void rope_direct(float* row, int head_dim, int pos, float base) {
  const auto fpos = static_cast<float>(pos);
  for (int j = 0; j < head_dim; j += 2) {
    const float freq = std::pow(base, -static_cast<float>(j) / static_cast<float>(head_dim));
    const float angle = fpos * freq;
    const float c = std::cos(angle);
    const float s = std::sin(angle);
    const float x0 = row[j];
    const float x1 = row[j + 1];
    row[j] = x0 * c - x1 * s;
    row[j + 1] = x0 * s + x1 * c;
  }
}

}  // namespace

// Every entry of the table is the direct formula's cos/sin, bit for bit,
// at every position below the largest shipped ar_context (MobileBERT's
// 268) and the shipped head widths: 8 (fleet-sized blocks), 64
// (TinyLlama) and 128 (MobileBERT).
TEST(Rope, TableMatchesDirectFormulaAtEveryPosition) {
  constexpr int kContext = 268;
  constexpr float kBase = 10000.0f;
  for (const int dim : {8, 64, 128}) {
    const k::RopeTable table(kContext, dim, kBase);
    ASSERT_EQ(table.positions(), kContext);
    ASSERT_EQ(table.head_dim(), dim);
    for (int pos = 0; pos < kContext; ++pos) {
      const auto row = table.row(pos);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(dim));
      for (int j = 0; j < dim; j += 2) {
        const float freq = std::pow(kBase, -static_cast<float>(j) / static_cast<float>(dim));
        const float angle = static_cast<float>(pos) * freq;
        const float want[2] = {std::cos(angle), std::sin(angle)};
        ASSERT_EQ(std::memcmp(&row[static_cast<std::size_t>(j)], want, sizeof want), 0)
            << "dim " << dim << " pos " << pos << " pair " << j / 2;
      }
    }
  }
}

// rope_apply over several heads per row and several rows equals the
// direct per-head rotation bit for bit, with +-0 in the input.
TEST(Rope, TableApplyMatchesDirectRotation) {
  constexpr int kContext = 268;
  constexpr float kBase = 10000.0f;
  util::Rng rng(29);
  for (const int dim : {8, 64, 128}) {
    const k::RopeTable table(kContext, dim, kBase);
    const int heads = 3;
    const int width = heads * dim;
    for (const int pos_offset : {0, 1, 100, kContext - 5}) {
      const int rows = 5;
      std::vector<float> x(static_cast<std::size_t>(rows * width));
      for (auto& v : x) v = rng.uniform(-3, 3);
      x[1] = 0.0f;
      x[2] = -0.0f;
      std::vector<float> want = x;
      for (int r = 0; r < rows; ++r) {
        for (int h = 0; h < heads; ++h) {
          rope_direct(want.data() + static_cast<std::size_t>(r * width + h * dim), dim,
                      pos_offset + r, kBase);
        }
      }
      k::rope_apply(x, rows, width, pos_offset, table);
      ASSERT_EQ(std::memcmp(x.data(), want.data(), x.size() * sizeof(float)), 0)
          << "dim " << dim << " pos_offset " << pos_offset;
    }
  }
}

TEST(Rope, PositionsOutsideTheTableThrow) {
  const k::RopeTable table(4, 8, 10000.0f);
  std::vector<float> x(16);
  EXPECT_NO_THROW(k::rope_apply(x, 2, 8, 2, table));
  EXPECT_THROW(k::rope_apply(x, 2, 8, 3, table), Error);
  EXPECT_THROW(k::rope_apply(x, 2, 8, -1, table), Error);
  EXPECT_THROW((void)table.row(4), Error);
  std::vector<float> odd_width(12);
  EXPECT_THROW(k::rope_apply(odd_width, 1, 12, 0, table), Error);
}

TEST(Attention, UniformScoresAverageValues) {
  // Q orthogonal to all keys -> uniform probabilities -> output is the
  // mean of V rows.
  const int p = 4, s_kv = 3;
  const std::vector<float> q(p, 0.0f);
  std::vector<float> kmat(static_cast<std::size_t>(s_kv * p));
  std::vector<float> vmat{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3};
  util::Rng rng(17);
  for (auto& v : kmat) v = rng.uniform(-1, 1);
  std::vector<float> out(p);
  k::attention_head_ar(q, kmat, vmat, out, s_kv, p);
  for (const float v : out) EXPECT_NEAR(v, 2.0f, 1e-5);
}

TEST(Attention, SharpScoresSelectValue) {
  const int p = 2, s_kv = 2;
  const std::vector<float> q{100.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, -1.0f, 0.0f};  // key0 aligned, key1 anti
  const std::vector<float> vmat{7.0f, 8.0f, -5.0f, -6.0f};
  std::vector<float> out(p);
  k::attention_head_ar(q, kmat, vmat, out, s_kv, p);
  EXPECT_NEAR(out[0], 7.0f, 1e-3);
  EXPECT_NEAR(out[1], 8.0f, 1e-3);
}

TEST(Attention, CausalMaskBlocksFuture) {
  // Two queries, two keys; causal: row 0 may only see key 0.
  const int p = 2, s = 2;
  const std::vector<float> q{1.0f, 0.0f, 1.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, 100.0f, 0.0f};  // key1 would dominate
  const std::vector<float> vmat{1.0f, 1.0f, 9.0f, 9.0f};
  std::vector<float> out(static_cast<std::size_t>(s * p));
  k::attention_head(q, p, kmat, vmat, p, out, p, s, s, p, /*causal=*/true, /*pos_offset=*/0);
  // Row 0 can only attend to key 0 -> exactly v0.
  EXPECT_NEAR(out[0], 1.0f, 1e-5);
  EXPECT_NEAR(out[1], 1.0f, 1e-5);
  // Row 1 sees both; key1 dominates -> close to v1.
  EXPECT_GT(out[2], 5.0f);
}

TEST(Attention, BidirectionalSeesAll) {
  const int p = 2, s = 2;
  const std::vector<float> q{1.0f, 0.0f, 1.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, 100.0f, 0.0f};
  const std::vector<float> vmat{1.0f, 1.0f, 9.0f, 9.0f};
  std::vector<float> out(static_cast<std::size_t>(s * p));
  k::attention_head(q, p, kmat, vmat, p, out, p, s, s, p, /*causal=*/false, /*pos_offset=*/0);
  EXPECT_GT(out[0], 5.0f);  // row 0 now also dominated by key 1
}

TEST(Attention, PosOffsetExtendsVisibility) {
  // With pos_offset=1, query row 0 is absolute position 1 and may see
  // keys 0 and 1.
  const int p = 2;
  const std::vector<float> q{1.0f, 0.0f};
  const std::vector<float> kmat{1.0f, 0.0f, 100.0f, 0.0f};
  const std::vector<float> vmat{1.0f, 1.0f, 9.0f, 9.0f};
  std::vector<float> out(p);
  k::attention_head(q, p, kmat, vmat, p, out, p, 1, 2, p, /*causal=*/true, /*pos_offset=*/1);
  EXPECT_GT(out[0], 5.0f);
}

namespace {

/// The composition the strided kernel replaced, kept as the reference:
/// copy one head out contiguously, then gemm_nt(Q, K), scale, causal
/// mask, softmax_rows and gemm(P, V).
std::vector<float> attention_by_composition(const std::vector<float>& q, int ldq,
                                            const std::vector<float>& kv_k,
                                            const std::vector<float>& kv_v, int ldkv,
                                            int s_q, int s_kv, int p, bool causal,
                                            int pos_offset) {
  const auto copy_rows = [p](const std::vector<float>& src, int rows, int ld) {
    std::vector<float> out(static_cast<std::size_t>(rows * p));
    for (int r = 0; r < rows; ++r) {
      std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(r) * ld, p,
                  out.begin() + static_cast<std::ptrdiff_t>(r) * p);
    }
    return out;
  };
  const auto qc = copy_rows(q, s_q, ldq);
  const auto kc = copy_rows(kv_k, s_kv, ldkv);
  const auto vc = copy_rows(kv_v, s_kv, ldkv);
  std::vector<float> scores(static_cast<std::size_t>(s_q * s_kv));
  k::gemm_nt(qc, kc, scores, s_q, s_kv, p);
  const float scale = 1.0f / std::sqrt(static_cast<float>(p));
  for (float& x : scores) x *= scale;
  if (causal) {
    for (int i = 0; i < s_q; ++i) {
      for (int j = pos_offset + i + 1; j < s_kv; ++j) {
        scores[static_cast<std::size_t>(i * s_kv + j)] = -std::numeric_limits<float>::infinity();
      }
    }
  }
  k::softmax_rows(scores, s_q, s_kv);
  std::vector<float> out(static_cast<std::size_t>(s_q * p));
  k::gemm(scores, vc, out, s_q, p, s_kv);
  return out;
}

}  // namespace

// The strided kernel is bit-equal to the copy + gemm_nt + softmax + gemm
// composition for the shipped head widths, causal (with a cached prefix)
// and bidirectional, contiguous and padded strides, +-0 in Q/K/V, keys
// past the causal horizon holding inf, and a visible key whose
// probability underflows to exactly 0 holding inf in V: a zero
// probability must add nothing, masked or not. Padding between rows is
// never written.
TEST(AttentionStrided, MatchesCopiedGemmCompositionBitForBit) {
  struct Shape {
    int s_q, s_kv, pos_offset;
  };
  util::Rng rng(41);
  int underflowed = 0;
  for (const int p : {8, 64, 128}) {
    for (const bool causal : {true, false}) {
      for (const Shape sh : {Shape{1, 48, 47}, Shape{4, 20, 16}, Shape{16, 16, 0},
                             Shape{3, 12, 5}, Shape{1, 1, 0}}) {
        for (const bool padded : {false, true}) {
          const int ldq = padded ? 4 * p : p;
          const int ldkv = padded ? 3 * p + 2 : p;
          const int ldo = padded ? 2 * p + 1 : p;
          std::vector<float> q(static_cast<std::size_t>(sh.s_q * ldq));
          std::vector<float> kk(static_cast<std::size_t>(sh.s_kv * ldkv));
          std::vector<float> vv(kk.size());
          for (auto& x : q) x = rng.uniform(0.25f, 1.0f);
          for (auto& x : kk) x = rng.uniform(-1, 1);
          for (auto& x : vv) x = rng.uniform(-1, 1);
          q[0] = 0.0f;
          q[1] = -0.0f;
          kk[2] = -0.0f;
          vv[3] = -0.0f;
          vv[static_cast<std::size_t>(p - 1)] = 0.0f;
          constexpr float kInf = std::numeric_limits<float>::infinity();
          // A key every query scores far below the rest: its probability
          // underflows to exactly +0 while it stays visible.
          const int sink = sh.s_kv > 1 ? 1 : -1;
          if (sink > 0) {
            for (int c = 0; c < p; ++c) {
              kk[static_cast<std::size_t>(sink * ldkv + c)] = -1.0e4f;
            }
            vv[static_cast<std::size_t>(sink * ldkv)] = kInf;
          }
          // Keys past every query's causal horizon.
          if (causal) {
            for (int j = sh.pos_offset + sh.s_q; j < sh.s_kv; ++j) {
              vv[static_cast<std::size_t>(j * ldkv + 1)] = -kInf;
            }
          }
          const auto want = attention_by_composition(q, ldq, kk, vv, ldkv, sh.s_q, sh.s_kv, p,
                                                     causal, sh.pos_offset);
          constexpr float kPad = 12345.0f;
          std::vector<float> out(static_cast<std::size_t>(sh.s_q * ldo), kPad);
          k::attention_head(q, ldq, kk, vv, ldkv, out, ldo, sh.s_q, sh.s_kv, p, causal,
                            sh.pos_offset);
          for (int i = 0; i < sh.s_q; ++i) {
            const float* got = out.data() + static_cast<std::size_t>(i * ldo);
            ASSERT_EQ(std::memcmp(got, want.data() + static_cast<std::size_t>(i * p),
                                  static_cast<std::size_t>(p) * sizeof(float)),
                      0)
                << "p " << p << " causal " << causal << " s_q " << sh.s_q << " s_kv "
                << sh.s_kv << " padded " << padded << " row " << i;
            for (int c = p; c < ldo; ++c) ASSERT_EQ(got[c], kPad);
            ASSERT_TRUE(std::isfinite(got[0])) << "p " << p << " row " << i;
          }
          if (sink > 0) ++underflowed;
        }
      }
    }
  }
  EXPECT_GT(underflowed, 0);
}

TEST(AttentionStrided, RejectsShortOperandsAndAliasing) {
  const int p = 4;
  std::vector<float> q(2 * 8), kv(3 * 8), out(2 * 8);
  EXPECT_NO_THROW(k::attention_head(q, 8, kv, kv, 8, out, 8, 2, 3, p, true, 1));
  EXPECT_THROW(k::attention_head(q, 8, kv, kv, 8, out, 8, 3, 3, p, true, 0), Error);
  EXPECT_THROW(k::attention_head(q, 8, kv, kv, 8, out, 8, 2, 4, p, true, 0), Error);
  EXPECT_THROW(k::attention_head(q, 2, kv, kv, 8, out, 8, 2, 3, p, true, 0), Error);
  EXPECT_THROW(k::attention_head(q, 8, kv, kv, 8, q, 8, 2, 3, p, true, 0), Error);
  EXPECT_THROW(k::attention_head(q, 8, kv, kv, 8, out, 8, 2, 3, p, true, -1), Error);
}
