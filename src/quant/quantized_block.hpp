#ifndef DISTMCU_QUANT_QUANTIZED_BLOCK_HPP
#define DISTMCU_QUANT_QUANTIZED_BLOCK_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/tensor.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "quant/quantize.hpp"

namespace distmcu::quant {

/// Whole-layer integer execution of the transformer block — the A8W8
/// deployment path the paper actually ships, generalized from the
/// FFN-only `QuantizedDistributedFfn` to the full serving block so an
/// int8 deployment can run end to end behind `runtime::BatchedEngine`.
///
/// Numerics are chosen so the per-request token stream is **bit-exact
/// for any chip count and any reduce-tree shape** (the property the
/// serving invariants pin):
///
///  * QKV projections, RoPE and per-head attention stay float. Each
///    head's computation touches only that head's weight columns and KV
///    slice, so regrouping heads onto different chips cannot change a
///    single value.
///  * The attention-output (WO) and both FFN GEMMs are real A8W8:
///    activations quantize with one *shared* dynamic scale derived from
///    a global absmax (grouping-invariant), weights carry one static
///    per-layer per-tensor scale over ALL shards, and the int32 partial
///    outputs all-reduce over the topology — int32 addition is exact,
///    so any tree shape and any chip partitioning sum to the same bits.
///  * The root dequantizes once, folds the skip connection in, and
///    normalizes in float (root values are chip-count invariant by
///    induction).
///
/// When constructed with `kv_bits` <= 8, appended K/V rows are
/// fake-quantized **per head sub-slice** before entering the cache
/// (scale = that head slice's absmax). Per-head scales are essential: a
/// chip's cache row concatenates its local heads, so a per-row scale
/// would mix heads and silently break chip-count invariance.
class QuantizedBlock {
 public:
  /// `kv_bits`: stored KV entry width; <= 8 enables the packed
  /// fake-quant append path (8 = int8 KV, 4 = int4 KV), larger widths
  /// store rows verbatim. Weights and plan/topo must agree on chips.
  QuantizedBlock(const model::TransformerConfig& cfg, const model::Weights& weights,
                 const partition::ShardedWeights& shards,
                 const partition::PartitionPlan& plan, const noc::Topology& topo,
                 int kv_bits);

  /// Drop-in replacement for `partition::DistributedBlock::forward`:
  /// run block `layer` over x [S, E], appending K/V into
  /// `chip_caches[chip][layer]` when non-null.
  [[nodiscard]] model::Tensor forward(
      const model::Tensor& x, int layer,
      std::vector<std::vector<model::KvCache>>* chip_caches, int pos_offset,
      partition::CommRecord* comm = nullptr) const;

  /// The stacked interface of `partition::DistributedBlock::forward`,
  /// run one segment at a time. The A8W8 activation scales are one
  /// absmax over the whole input tensor, so stacking requests would let
  /// one request's values move another's scales and bits; a segment
  /// run alone keeps every request's stream its own.
  [[nodiscard]] model::Tensor forward(const model::Tensor& x, int layer,
                                      std::span<const partition::RowSegment> segments,
                                      partition::CommRecord* comm = nullptr) const;

  [[nodiscard]] int kv_bits() const { return kv_bits_; }

 private:
  struct LayerChipShard {
    std::vector<std::int8_t> wo;  // [pw, E] row slice
    std::vector<std::int8_t> w1;  // [E, fw] column slice
    std::vector<std::int8_t> w2;  // [fw, E] row slice
    int pw = 0;
    int fw = 0;
  };
  struct LayerQuant {
    // One static scale per tensor per layer, shared by every chip's
    // shard — what keeps int32 partials commensurable on the reduce
    // tree and the sums identical for every chip grouping.
    QuantParams wo_params;
    QuantParams w1_params;
    QuantParams w2_params;
    std::vector<LayerChipShard> chips;
  };

  [[nodiscard]] model::Tensor root_norm(const model::Tensor& x,
                                        const model::Tensor& gamma,
                                        const model::Tensor& beta) const;
  void apply_activation(std::vector<float>& t) const;
  /// Float Q/K/V + RoPE + per-head attention for one chip; returns the
  /// chip's context slice [S, pw]. Fake-quantizes appended KV rows.
  [[nodiscard]] model::Tensor attn_context(
      const model::Tensor& x, int chip, int layer,
      std::vector<std::vector<model::KvCache>>* caches, int pos_offset) const;
  [[nodiscard]] model::Tensor reduce_dequant_skip(
      std::vector<std::vector<std::int32_t>>& partials, float scale, int rows,
      const model::Tensor& skip, partition::CommRecord* comm) const;
  void broadcast(model::Tensor& t, partition::CommRecord* comm) const;

  // cfg/plan/topo owned by value (cheap; avoids the dangling-reference
  // trap the FFN path had). The weights and shards stay references:
  // they are the heavy float tensors owned by the enclosing
  // InferenceSession (norm gammas/betas and the float Q/K/V shards are
  // read from them on every forward), same lifetime discipline as
  // partition::DistributedBlock.
  model::TransformerConfig cfg_;
  const model::Weights& weights_;
  const partition::ShardedWeights& shards_;
  partition::PartitionPlan plan_;
  noc::Topology topo_;
  int kv_bits_ = 0;
  std::vector<LayerQuant> layers_;
};

}  // namespace distmcu::quant

#endif  // DISTMCU_QUANT_QUANTIZED_BLOCK_HPP
