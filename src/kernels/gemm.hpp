#ifndef DISTMCU_KERNELS_GEMM_HPP
#define DISTMCU_KERNELS_GEMM_HPP

#include <span>

namespace distmcu::kernels {

/// C[M,N] = A[M,K] * B[K,N] (+ bias broadcast over rows when given).
/// All tensors row-major. This is the functional reference used for
/// numeric validation; performance on the simulated platform comes from
/// chip::KernelTiming, not from this host implementation.
///
/// Exactness contract (what keeps token streams bit-identical across chip
/// counts, row stacking and builds): every C element starts at its bias
/// (or +0) and adds its products A[i,p] * B[p,j] one at a time in
/// ascending p, rounding once per multiply and once per add — no fused
/// multiply-add and no reassociation. A zero A[i,p] (either sign) adds
/// nothing, so -0.0 results survive and inf/NaN in the B row it would
/// multiply never reach C. The kernel blocks rows and unrolls p by four
/// for speed and is compiled with target_clones("avx2", "default") on
/// x86-64; AVX2 has no FMA, and tools/lint_domain.py rejects options that
/// would enable one. ThreadSanitizer builds keep only the default clone:
/// the clone resolver runs while the program is still being loaded,
/// before the sanitizer's runtime has started, and an instrumented
/// resolver crashes there. C must not overlap A or B (checked).
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          int m, int n, int k, std::span<const float> bias = {});

/// C[M,N] = A[M,K] * B^T where B is [N,K] row-major (the Q*K^T pattern).
///
/// Exactness contract: every C element is one scalar accumulator that
/// starts at +0 and adds A[i,p] * B[j,p] in ascending p, rounding once
/// per multiply and once per add, with no fused multiply-add. Such an
/// accumulator is never -0 (+0 + -0 is +0, and exact cancellation rounds
/// to +0), so adding a zero product changes nothing: when B is finite,
/// C is bit-equal to gemm(A, B^T), which skips zero A values instead.
/// model::Embedding relies on this to run its tied head through gemm on
/// a transposed table. The dot-product loop neither vectorizes nor
/// blocks; prefer gemm on a [K,N] layout for large N.
void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             int m, int n, int k);

/// out[N] = x[K] * B[K,N] — the GEMV that dominates autoregressive mode.
void gemv(std::span<const float> x, std::span<const float> b, std::span<float> out,
          int n, int k, std::span<const float> bias = {});

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_GEMM_HPP
