#ifndef DISTMCU_KERNELS_ATTENTION_HPP
#define DISTMCU_KERNELS_ATTENTION_HPP

#include <span>

namespace distmcu::kernels {

/// Single-head scaled dot-product attention for prompt mode (paper
/// Eq. 2), read and written in place: query row i is the `p` floats at
/// q[i * ldq], key/value row j the `p` floats at k[j * ldkv] and
/// v[j * ldkv], and output row i is written to out[i * ldo]. Contiguous
/// [s, p] operands pass `p` as their stride; a chip's stacked [R, P*H/N]
/// projections or its KvCache ([length, dim]) pass their row width, so
/// one head is read where it lies with no copy.
///
/// When `causal` is true, query row i may attend to key positions
/// 0 .. (pos_offset + i); `pos_offset` is the absolute position of the
/// first query row (non-zero when a prompt is processed with an existing
/// KV cache prefix).
///
/// Exactness contract: the result is bit-equal to copying the operands
/// out contiguously and running gemm_nt(Q, K) * 1/sqrt(p), the causal
/// mask (-inf), softmax_rows and gemm(P, V). Each score is one scalar
/// accumulator from +0 adding Q[i,c] * K[j,c] in ascending c (gemm_nt's
/// contract); each output element starts at +0 and adds P[i,j] * V[j,c]
/// in ascending j, skipping zero probabilities (gemm's contract). Masked
/// scores are never computed: they are -inf either way. `out` must not
/// overlap q, k or v.
void attention_head(std::span<const float> q, int ldq, std::span<const float> k,
                    std::span<const float> v, int ldkv, std::span<float> out, int ldo,
                    int s_q, int s_kv, int p, bool causal, int pos_offset);

/// Single-head single-query attention for autoregressive mode: q [p],
/// K/V hold `s_kv` contiguous cached positions, output [p]. This is the
/// GEMV-shaped kernel that dominates the paper's autoregressive workload.
void attention_head_ar(std::span<const float> q, std::span<const float> k,
                       std::span<const float> v, std::span<float> out, int s_kv,
                       int p);

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_ATTENTION_HPP
