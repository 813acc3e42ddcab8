#ifndef DISTMCU_PARTITION_DISTRIBUTED_BLOCK_HPP
#define DISTMCU_PARTITION_DISTRIBUTED_BLOCK_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "kernels/rope.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/tensor.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"

namespace distmcu::partition {

/// Communication accounting of one distributed block execution —
/// cross-checked by tests against the timed simulation's C2C byte
/// counters (both must derive the same traffic from the same plan).
struct CommRecord {
  int reduces = 0;
  int broadcasts = 0;
  std::uint64_t payload_elems = 0;    // elements per [S, E] partial buffer
  std::uint64_t total_hop_elems = 0;  // sum over all hops of payload elems

  [[nodiscard]] int synchronizations() const { return reduces; }
};

/// One request's rows inside a stacked block input: `rows` consecutive
/// rows of x at absolute positions pos_offset, pos_offset + 1, ...
/// `chip_caches`, when non-null, is indexed [chip][layer] and holds this
/// request's per-chip KV slices (dim = proj_width); the rows append to
/// them and attend over them. Without caches the rows attend only to
/// each other.
struct RowSegment {
  int rows = 0;
  std::vector<std::vector<model::KvCache>>* chip_caches = nullptr;
  int pos_offset = 0;
};

/// Throws unless `segments` is non-empty, every segment has rows, the
/// rows sum to `total_rows`, and no two segments share KV caches (a
/// shared cache would let one segment see another's appended rows).
/// Every segment's caches must also hold one `layer` cache per chip of
/// `plan`, each as wide as that chip's head slice and with room for the
/// segment's rows — checked before any chip appends, so a forward that
/// throws leaves every cache as it was.
void check_row_segments(std::span<const RowSegment> segments, int total_rows,
                        const PartitionPlan& plan, int layer);

/// One chip's matmul weight elements in each phase of a block, for the
/// widest chip (chip 0): the Q/K/V projection columns, the WO rows, and
/// the FFN's W1 (and W3 under SwiGLU) columns plus W2 rows. Times the
/// stacked rows, these are the chip's multiply-accumulates in a phase.
struct ChipPhaseWeights {
  std::int64_t qkv = 0;
  std::int64_t wo = 0;
  std::int64_t ffn = 0;
};
[[nodiscard]] ChipPhaseWeights chip_phase_weights(const model::TransformerConfig& cfg,
                                                  const PartitionPlan& plan);

/// Per-chip multiply-accumulates at which a block phase runs its chips
/// as concurrent host tasks. A fork-join on the worker pool costs a few
/// microseconds; below this much work per chip it would cost more than
/// it saves, so the chips run one after another on the calling thread.
inline constexpr std::int64_t kConcurrentChipMacs = std::int64_t{1} << 17;

/// Run `chip_work(c)` for chips 0..chips-1: on util::parallel_for when
/// `chip_macs` (one chip's work in this phase) reaches
/// kConcurrentChipMacs, else in chip order on the calling thread. Each
/// chip's work must write only that chip's state.
void for_each_chip(int chips, std::int64_t chip_macs,
                   const std::function<void(int)>& chip_work);

/// Functional (numerically real) execution of one Transformer block under
/// the paper's partitioning, following Fig. 3 exactly:
///
///   1. the input X [S, E] is present on every chip (broadcast);
///   2. each chip projects Q/K/V for its own heads, applies RoPE
///      locally, appends its KV-cache slice, runs attention per owned
///      head and applies its rows of WO -> a partial output [S, E];
///   3. hierarchical reduce of partials to the root; the skip connection
///      is merged into the reduction (the root holds the full input);
///      the root normalizes and broadcasts;
///   4. the FFN repeats the pattern along the F dimension.
///
/// Exactly two reduce+broadcast synchronizations per block; no weight is
/// present on more than one chip. Every test of the partitioning scheme
/// validates this class against the single-chip ReferenceModel.
class DistributedBlock {
 public:
  /// `weights` provides the (root-resident) norm parameters; the matmul
  /// weights come exclusively from `shards`. All references must outlive
  /// the block.
  DistributedBlock(const model::TransformerConfig& cfg, const model::Weights& weights,
                   const ShardedWeights& shards, const PartitionPlan& plan,
                   const noc::Topology& topo);

  /// Execute one block over a stack of requests. `x` [R, E] is the
  /// block input (logically broadcast to all chips), cut top to bottom
  /// into `segments`, one per request. Every projection, norm, reduce
  /// and broadcast runs once over all R rows, so each weight shard is
  /// read once for the whole stack; RoPE, the KV append and attention
  /// run per segment. Every kernel is row-independent, so each output
  /// row and each segment's caches are bit-identical to running that
  /// segment alone. The per-chip work of each phase (projections, KV
  /// append, attention, the FFN slice) runs one chip per task through
  /// for_each_chip; the reduces, broadcasts and `comm` accounting stay
  /// on the calling thread, in chip order.
  [[nodiscard]] model::Tensor forward(const model::Tensor& x, int layer,
                                      std::span<const RowSegment> segments,
                                      CommRecord* comm = nullptr) const;

  /// One request: the one-segment case of the stacked forward above.
  /// `chip_caches`, when non-null, is indexed [chip][layer] and holds
  /// each chip's KV slice; `pos_offset` is the absolute position of x's
  /// first row.
  [[nodiscard]] model::Tensor forward(const model::Tensor& x, int layer,
                                      std::vector<std::vector<model::KvCache>>* chip_caches,
                                      int pos_offset, CommRecord* comm = nullptr) const {
    const RowSegment whole{x.rows(), chip_caches, pos_offset};
    return forward(x, layer, {&whole, 1}, comm);
  }

  /// Per-chip, per-layer KV caches sized for each chip's head slice.
  [[nodiscard]] std::vector<std::vector<model::KvCache>> make_chip_caches(
      int capacity) const;

  [[nodiscard]] const PartitionPlan& plan() const { return plan_; }
  [[nodiscard]] const noc::Topology& topology() const { return topo_; }

 private:
  /// Per-chip partial MHSA output [R, E] for chip `c`.
  [[nodiscard]] model::Tensor mhsa_partial(const model::Tensor& x, int chip, int layer,
                                           std::span<const RowSegment> segments) const;
  /// RoPE, KV append and per-head attention of one segment, whose rows
  /// start at `r0` of the chip's stacked q/k/v; writes ctx's rows.
  void attend_segment(model::Tensor& q, model::Tensor& k, const model::Tensor& v,
                      model::Tensor& ctx, int r0, const RowSegment& seg, int chip,
                      int layer) const;
  /// Per-chip partial FFN output [S, E].
  [[nodiscard]] model::Tensor ffn_partial(const model::Tensor& h, int chip,
                                          int layer) const;
  [[nodiscard]] model::Tensor root_norm(const model::Tensor& x, const model::Tensor& gamma,
                                        const model::Tensor& beta) const;
  void apply_activation(model::Tensor& t) const;

  /// Reduce per-chip partials (tree order), merge the skip tensor, and
  /// return the root's result; records comm stats.
  [[nodiscard]] model::Tensor reduce_with_skip(std::vector<model::Tensor>& partials,
                                               const model::Tensor& skip,
                                               CommRecord* comm) const;
  void record_broadcast(std::uint64_t elems, CommRecord* comm) const;

  const model::TransformerConfig& cfg_;
  const model::Weights& weights_;
  const ShardedWeights& shards_;
  const PartitionPlan& plan_;
  const noc::Topology& topo_;
  ChipPhaseWeights phase_weights_;
  /// RoPE angles for positions < cfg.ar_context; empty without RoPE.
  std::optional<kernels::RopeTable> rope_;
};

}  // namespace distmcu::partition

#endif  // DISTMCU_PARTITION_DISTRIBUTED_BLOCK_HPP
