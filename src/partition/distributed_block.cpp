#include "partition/distributed_block.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "noc/collectives.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace distmcu::partition {

void check_row_segments(std::span<const RowSegment> segments, int total_rows,
                        const PartitionPlan& plan, int layer) {
  DISTMCU_CHECK(!segments.empty(), "row segments: need at least one segment");
  int rows = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const RowSegment& seg = segments[i];
    DISTMCU_CHECK(seg.rows > 0, "row segments: every segment needs rows");
    rows += seg.rows;
    for (std::size_t j = 0; j < i; ++j) {
      DISTMCU_CHECK(seg.chip_caches == nullptr || seg.chip_caches != segments[j].chip_caches,
                    "row segments: two segments share KV caches");
    }
    if (seg.chip_caches == nullptr) continue;
    DISTMCU_CHECK(seg.chip_caches->size() == static_cast<std::size_t>(plan.num_chips()),
                  "row segments: KV caches are not one per chip");
    for (int c = 0; c < plan.num_chips(); ++c) {
      const auto& layers = (*seg.chip_caches)[static_cast<std::size_t>(c)];
      DISTMCU_CHECK(layer >= 0 && static_cast<std::size_t>(layer) < layers.size(),
                    "row segments: no KV cache for this layer");
      const model::KvCache& cache = layers[static_cast<std::size_t>(layer)];
      DISTMCU_CHECK(cache.dim() == plan.proj_width(c),
                    "row segments: KV cache width != the chip's head slice");
      DISTMCU_CHECK(cache.length() <= cache.capacity() - seg.rows,
                    "row segments: KV cache has no room for the segment's rows");
    }
  }
  DISTMCU_CHECK(rows == total_rows, "row segments: rows do not cover the input");
}

ChipPhaseWeights chip_phase_weights(const model::TransformerConfig& cfg,
                                    const PartitionPlan& plan) {
  const std::int64_t e = cfg.embed_dim;
  const std::int64_t pw = plan.proj_width(0);
  const std::int64_t fw = plan.slice(0).f_width();
  const std::int64_t ffn_mats = cfg.ffn == model::FfnKind::swiglu ? 3 : 2;
  return {.qkv = 3 * e * pw, .wo = pw * e, .ffn = ffn_mats * e * fw};
}

void for_each_chip(int chips, std::int64_t chip_macs,
                   const std::function<void(int)>& chip_work) {
  if (chip_macs >= kConcurrentChipMacs) {
    util::parallel_for(chips, chip_work);
  } else {
    for (int c = 0; c < chips; ++c) chip_work(c);
  }
}

DistributedBlock::DistributedBlock(const model::TransformerConfig& cfg,
                                   const model::Weights& weights,
                                   const ShardedWeights& shards, const PartitionPlan& plan,
                                   const noc::Topology& topo)
    : cfg_(cfg),
      weights_(weights),
      shards_(shards),
      plan_(plan),
      topo_(topo),
      phase_weights_(chip_phase_weights(cfg, plan)) {
  DISTMCU_CHECK(topo.num_chips() == plan.num_chips(),
              "DistributedBlock: topology/plan chip count mismatch");
  DISTMCU_CHECK(shards.num_chips() == plan.num_chips(),
              "DistributedBlock: shards/plan chip count mismatch");
  if (cfg.pos == model::PosEmbed::rope) rope_.emplace(cfg.ar_context, cfg.head_dim, cfg.rope_base);
}

std::vector<std::vector<model::KvCache>> DistributedBlock::make_chip_caches(
    int capacity) const {
  std::vector<std::vector<model::KvCache>> caches;
  caches.reserve(static_cast<std::size_t>(plan_.num_chips()));
  for (int c = 0; c < plan_.num_chips(); ++c) {
    std::vector<model::KvCache> per_layer;
    per_layer.reserve(static_cast<std::size_t>(cfg_.num_layers));
    for (int l = 0; l < cfg_.num_layers; ++l) {
      per_layer.emplace_back(capacity, plan_.proj_width(c));
    }
    caches.push_back(std::move(per_layer));
  }
  return caches;
}

model::Tensor DistributedBlock::root_norm(const model::Tensor& x,
                                          const model::Tensor& gamma,
                                          const model::Tensor& beta) const {
  model::Tensor out(x.rows(), x.cols());
  if (cfg_.norm == model::NormKind::rmsnorm) {
    kernels::rmsnorm_rows(x.span(), gamma.span(), out.span(), x.rows(), x.cols(),
                          cfg_.norm_eps);
  } else {
    kernels::layernorm_rows(x.span(), gamma.span(), beta.span(), out.span(), x.rows(),
                            x.cols(), cfg_.norm_eps);
  }
  return out;
}

void DistributedBlock::apply_activation(model::Tensor& t) const {
  switch (cfg_.act) {
    case model::Activation::gelu: kernels::gelu(t.span()); break;
    case model::Activation::silu: kernels::silu(t.span()); break;
    case model::Activation::relu: kernels::relu(t.span()); break;
  }
}

model::Tensor DistributedBlock::mhsa_partial(const model::Tensor& x, int chip, int layer,
                                             std::span<const RowSegment> segments) const {
  const WeightShard& w = shards_.shard(chip, layer);
  const int s = x.rows();
  const int e = cfg_.embed_dim;
  const int pw = plan_.proj_width(chip);

  model::Tensor q(s, pw), k(s, pw), v(s, pw);
  kernels::gemm(x.span(), w.wq.span(), q.span(), s, pw, e);
  kernels::gemm(x.span(), w.wk.span(), k.span(), s, pw, e);
  kernels::gemm(x.span(), w.wv.span(), v.span(), s, pw, e);

  model::Tensor ctx(s, pw);
  int r0 = 0;
  for (const RowSegment& seg : segments) {
    attend_segment(q, k, v, ctx, r0, seg, chip, layer);
    r0 += seg.rows;
  }

  // Partial output: this chip's rows of WO applied to its context slice.
  model::Tensor partial(s, e);
  kernels::gemm(ctx.span(), w.wo.span(), partial.span(), s, e, pw);
  return partial;
}

void DistributedBlock::attend_segment(model::Tensor& q, model::Tensor& k,
                                      const model::Tensor& v, model::Tensor& ctx, int r0,
                                      const RowSegment& seg, int chip, int layer) const {
  const int n = seg.rows;
  const int p = cfg_.head_dim;
  const int pw = plan_.proj_width(chip);
  const int local_heads = plan_.slice(chip).num_heads();
  // The segment's rows of the chip's [R, pw] q/k/v/ctx: `count` elements
  // from element `first`.
  const std::size_t first = static_cast<std::size_t>(r0) * static_cast<std::size_t>(pw);
  const std::size_t count = static_cast<std::size_t>(n) * static_cast<std::size_t>(pw);

  if (rope_) {
    // RoPE depends only on the absolute position, never on the head
    // index, so each chip rotates its own slice with no communication.
    kernels::rope_apply(q.span().subspan(first, count), n, pw, seg.pos_offset, *rope_);
    kernels::rope_apply(k.span().subspan(first, count), n, pw, seg.pos_offset, *rope_);
  }

  model::KvCache* cache =
      seg.chip_caches == nullptr
          ? nullptr
          : &(*seg.chip_caches)[static_cast<std::size_t>(chip)][static_cast<std::size_t>(layer)];
  if (cache != nullptr) {
    for (int r = 0; r < n; ++r) cache->append(k.row(r0 + r), v.row(r0 + r));
  }

  // Every head reads its columns where they lie, `pw` floats a row: the
  // cache's [length, pw] rows, or without a cache the segment's own K/V
  // rows; each writes its context columns straight into ctx.
  const std::span<const float> keys =
      cache != nullptr ? cache->k() : std::as_const(k).span().subspan(first, count);
  const std::span<const float> values =
      cache != nullptr ? cache->v() : v.span().subspan(first, count);
  const int s_kv = cache != nullptr ? cache->length() : n;
  const bool causal = cfg_.mask == model::MaskKind::causal;
  for (int h = 0; h < local_heads; ++h) {
    const auto c0 = static_cast<std::size_t>(h * p);
    kernels::attention_head(q.span().subspan(first + c0), pw, keys.subspan(c0),
                            values.subspan(c0), pw, ctx.span().subspan(first + c0), pw, n, s_kv,
                            p, causal, seg.pos_offset);
  }
}

model::Tensor DistributedBlock::ffn_partial(const model::Tensor& h, int chip,
                                            int layer) const {
  const WeightShard& w = shards_.shard(chip, layer);
  const int s = h.rows();
  const int fw = plan_.slice(chip).f_width();
  model::Tensor hidden(s, fw);
  kernels::gemm(h.span(), w.w1.span(), hidden.span(), s, fw, cfg_.embed_dim);
  apply_activation(hidden);
  if (cfg_.ffn == model::FfnKind::swiglu) {
    // The gate shards along F exactly like W1: chip-local, zero comm.
    model::Tensor gate(s, fw);
    kernels::gemm(h.span(), w.w3.span(), gate.span(), s, fw, cfg_.embed_dim);
    kernels::mul_inplace(hidden.span(), gate.span());
  }
  model::Tensor partial(s, cfg_.embed_dim);
  kernels::gemm(hidden.span(), w.w2.span(), partial.span(), s, cfg_.embed_dim, fw);
  return partial;
}

model::Tensor DistributedBlock::reduce_with_skip(std::vector<model::Tensor>& partials,
                                                 const model::Tensor& skip,
                                                 CommRecord* comm) const {
  // The skip connection is merged into the all-reduce (paper Sec. IV):
  // every chip holds the block input, so the root simply folds it in
  // after accumulating the partials.
  std::vector<std::span<float>> views;
  views.reserve(partials.size());
  for (auto& p : partials) views.emplace_back(p.span());
  noc::reduce_numeric(topo_, views);
  model::Tensor& root = partials[static_cast<std::size_t>(topo_.root())];
  kernels::add_inplace(root.span(), skip.span());
  if (comm != nullptr) {
    comm->reduces += 1;
    comm->payload_elems = root.size();
    comm->total_hop_elems += topo_.hops_per_reduce() * root.size();
  }
  return root;
}

void DistributedBlock::record_broadcast(std::uint64_t elems, CommRecord* comm) const {
  if (comm != nullptr) {
    comm->broadcasts += 1;
    comm->total_hop_elems += topo_.hops_per_reduce() * elems;
  }
}

model::Tensor DistributedBlock::forward(const model::Tensor& x, int layer,
                                        std::span<const RowSegment> segments,
                                        CommRecord* comm) const {
  DISTMCU_CHECK(x.cols() == cfg_.embed_dim, "DistributedBlock::forward: input width != E");
  check_row_segments(segments, x.rows(), plan_, layer);
  const model::LayerWeights& lw = weights_.layer(layer);
  const int n = plan_.num_chips();
  const std::int64_t rows = x.rows();

  // --- MHSA phase -------------------------------------------------------
  // Pre-norm models normalize the broadcast input locally on every chip
  // (replicated O(S*E) work, zero communication — Megatron-style);
  // post-norm (paper Fig. 3) feeds x directly.
  model::Tensor attn_in = cfg_.pre_norm
                              ? root_norm(x, lw.norm1_gamma, lw.norm1_beta)
                              : x;
  std::vector<model::Tensor> partials(static_cast<std::size_t>(n));
  for_each_chip(n, rows * (phase_weights_.qkv + phase_weights_.wo), [&](int c) {
    partials[static_cast<std::size_t>(c)] = mhsa_partial(attn_in, c, layer, segments);
  });
  const model::Tensor a = reduce_with_skip(partials, x, comm);

  // Root normalizes (post-norm) and broadcasts; pre-norm broadcasts the
  // residual stream and normalizes locally in the FFN phase.
  model::Tensor h = cfg_.pre_norm ? a : root_norm(a, lw.norm1_gamma, lw.norm1_beta);
  {
    // Numerically execute the broadcast: non-root chips start from
    // zeroed buffers, so taking the last chip's copy afterwards proves
    // the data really travelled the tree.
    std::vector<model::Tensor> copies;
    copies.reserve(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      copies.push_back(c == topo_.root() ? h : model::Tensor(h.rows(), h.cols()));
    }
    std::vector<std::span<float>> views;
    views.reserve(copies.size());
    for (auto& t : copies) views.emplace_back(t.span());
    noc::broadcast_numeric(topo_, views);
    record_broadcast(h.size(), comm);
    h = copies[static_cast<std::size_t>(n - 1)];  // any chip's copy
  }

  // --- FFN phase ---------------------------------------------------------
  const model::Tensor ffn_in =
      cfg_.pre_norm ? root_norm(h, lw.norm2_gamma, lw.norm2_beta) : h;
  std::vector<model::Tensor> partials2(static_cast<std::size_t>(n));
  for_each_chip(n, rows * phase_weights_.ffn, [&](int c) {
    partials2[static_cast<std::size_t>(c)] = ffn_partial(ffn_in, c, layer);
  });
  model::Tensor out = reduce_with_skip(partials2, h, comm);
  if (!cfg_.pre_norm) out = root_norm(out, lw.norm2_gamma, lw.norm2_beta);
  record_broadcast(out.size(), comm);
  return out;
}

}  // namespace distmcu::partition
