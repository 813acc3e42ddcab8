#include "kernels/attention.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "kernels/ops.hpp"
#include "util/check.hpp"

namespace distmcu::kernels {

namespace {

/// Elements a strided operand of `rows` rows of `p` floats, `ld` apart,
/// must hold: the last row need not be padded out to `ld`.
std::size_t strided_extent(int rows, int ld, int p) {
  return static_cast<std::size_t>(rows - 1) * static_cast<std::size_t>(ld) +
         static_cast<std::size_t>(p);
}

bool overlaps(std::span<const float> x, std::span<const float> y) {
  const std::less<const float*> before;
  return before(x.data(), y.data() + y.size()) && before(y.data(), x.data() + x.size());
}

}  // namespace

void attention_head(std::span<const float> q, int ldq, std::span<const float> k,
                    std::span<const float> v, int ldkv, std::span<float> out, int ldo,
                    int s_q, int s_kv, int p, bool causal, int pos_offset) {
  DISTMCU_CHECK(s_q > 0 && s_kv > 0 && p > 0, "attention: dimensions must be positive");
  DISTMCU_CHECK(ldq >= p && ldkv >= p && ldo >= p, "attention: row stride below p");
  DISTMCU_CHECK(!causal || pos_offset >= 0, "attention: negative position offset");
  DISTMCU_CHECK(q.size() >= strided_extent(s_q, ldq, p), "attention: Q size mismatch");
  DISTMCU_CHECK(k.size() >= strided_extent(s_kv, ldkv, p), "attention: K size mismatch");
  DISTMCU_CHECK(v.size() >= strided_extent(s_kv, ldkv, p), "attention: V size mismatch");
  DISTMCU_CHECK(out.size() >= strided_extent(s_q, ldo, p), "attention: out size mismatch");
  DISTMCU_CHECK(!overlaps(out, q) && !overlaps(out, k) && !overlaps(out, v),
                "attention: out must not alias Q, K or V");

  // Keys a query row may see: all of them, or 0 .. pos_offset + i.
  const auto visible = [&](int i) {
    return causal ? std::min(pos_offset + i + 1, s_kv) : s_kv;
  };
  const float scale = 1.0f / std::sqrt(static_cast<float>(p));
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();

  std::vector<float> scores(static_cast<std::size_t>(s_q) * static_cast<std::size_t>(s_kv));
  for (int i = 0; i < s_q; ++i) {
    const float* qrow = q.data() + static_cast<std::size_t>(i) * ldq;
    float* srow = scores.data() + static_cast<std::size_t>(i) * s_kv;
    const int n = visible(i);
    for (int j = 0; j < n; ++j) {
      const float* krow = k.data() + static_cast<std::size_t>(j) * ldkv;
      float acc = 0.0f;
      for (int c = 0; c < p; ++c) acc += qrow[c] * krow[c];
      srow[j] = acc * scale;
    }
    std::fill(srow + n, srow + s_kv, kNegInf);
  }
  softmax_rows(scores, s_q, s_kv);

  for (int i = 0; i < s_q; ++i) {
    const float* prow = scores.data() + static_cast<std::size_t>(i) * s_kv;
    float* orow = out.data() + static_cast<std::size_t>(i) * ldo;
    std::fill(orow, orow + p, 0.0f);
    const int n = visible(i);
    for (int j = 0; j < n; ++j) {
      const float pj = prow[j];
      if (pj == 0.0f) continue;
      const float* vrow = v.data() + static_cast<std::size_t>(j) * ldkv;
      for (int c = 0; c < p; ++c) orow[c] += pj * vrow[c];
    }
  }
}

void attention_head_ar(std::span<const float> q, std::span<const float> k,
                       std::span<const float> v, std::span<float> out, int s_kv,
                       int p) {
  // A single query attending to the full cache: causality is implied by
  // the cache containing only past positions.
  attention_head(q, p, k, v, p, out, p, /*s_q=*/1, s_kv, p, /*causal=*/false,
                 /*pos_offset=*/0);
}

}  // namespace distmcu::kernels
