#include "partition/distributed_block.hpp"

#include <algorithm>
#include <span>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "noc/collectives.hpp"
#include "util/check.hpp"

namespace distmcu::partition {

namespace {

/// Copy of the [rows, cols] block of `t` at (r0, c0): one head's columns
/// of one segment's rows.
model::Tensor head_rows(const model::Tensor& t, int r0, int rows, int c0, int cols) {
  model::Tensor out(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const auto src = t.row(r0 + r).subspan(static_cast<std::size_t>(c0),
                                           static_cast<std::size_t>(cols));
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

}  // namespace

void check_row_segments(std::span<const RowSegment> segments, int total_rows) {
  DISTMCU_CHECK(!segments.empty(), "row segments: need at least one segment");
  int rows = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    DISTMCU_CHECK(segments[i].rows > 0, "row segments: every segment needs rows");
    rows += segments[i].rows;
    for (std::size_t j = 0; j < i; ++j) {
      DISTMCU_CHECK(segments[i].chip_caches == nullptr ||
                        segments[i].chip_caches != segments[j].chip_caches,
                    "row segments: two segments share KV caches");
    }
  }
  DISTMCU_CHECK(rows == total_rows, "row segments: rows do not cover the input");
}

DistributedBlock::DistributedBlock(const model::TransformerConfig& cfg,
                                   const model::Weights& weights,
                                   const ShardedWeights& shards, const PartitionPlan& plan,
                                   const noc::Topology& topo)
    : cfg_(cfg), weights_(weights), shards_(shards), plan_(plan), topo_(topo) {
  DISTMCU_CHECK(topo.num_chips() == plan.num_chips(),
              "DistributedBlock: topology/plan chip count mismatch");
  DISTMCU_CHECK(shards.num_chips() == plan.num_chips(),
              "DistributedBlock: shards/plan chip count mismatch");
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
  const int local_heads = plan_.slice(chip).num_heads();

  if (cfg_.pos == model::PosEmbed::rope) {
    // RoPE depends only on the absolute position, never on the head
    // index, so each chip rotates its own slice with no communication.
    for (int r = 0; r < n; ++r) {
      for (int h = 0; h < local_heads; ++h) {
        const auto c0 = static_cast<std::size_t>(h * p);
        const auto width = static_cast<std::size_t>(p);
        kernels::rope_apply(q.row(r0 + r).subspan(c0, width), 1, p, seg.pos_offset + r,
                            cfg_.rope_base);
        kernels::rope_apply(k.row(r0 + r).subspan(c0, width), 1, p, seg.pos_offset + r,
                            cfg_.rope_base);
      }
    }
  }

  model::KvCache* cache =
      seg.chip_caches == nullptr
          ? nullptr
          : &(*seg.chip_caches)[static_cast<std::size_t>(chip)][static_cast<std::size_t>(layer)];
  if (cache != nullptr) {
    for (int r = 0; r < n; ++r) cache->append(k.row(r0 + r), v.row(r0 + r));
  }

  const bool causal = cfg_.mask == model::MaskKind::causal;
  for (int h = 0; h < local_heads; ++h) {
    const model::Tensor qh = head_rows(q, r0, n, h * p, p);
    const model::Tensor kh =
        cache != nullptr ? cache->k_slice(h * p, (h + 1) * p) : head_rows(k, r0, n, h * p, p);
    const model::Tensor vh =
        cache != nullptr ? cache->v_slice(h * p, (h + 1) * p) : head_rows(v, r0, n, h * p, p);
    model::Tensor oh(n, p);
    kernels::attention_head(qh.span(), kh.span(), vh.span(), oh.span(), n, kh.rows(), p,
                            causal, seg.pos_offset);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < p; ++c) ctx.at(r0 + r, h * p + c) = oh.at(r, c);
    }
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
  check_row_segments(segments, x.rows());
  const model::LayerWeights& lw = weights_.layer(layer);
  const int n = plan_.num_chips();

  // --- MHSA phase -------------------------------------------------------
  // Pre-norm models normalize the broadcast input locally on every chip
  // (replicated O(S*E) work, zero communication — Megatron-style);
  // post-norm (paper Fig. 3) feeds x directly.
  model::Tensor attn_in = cfg_.pre_norm
                              ? root_norm(x, lw.norm1_gamma, lw.norm1_beta)
                              : x;
  std::vector<model::Tensor> partials;
  partials.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    partials.push_back(mhsa_partial(attn_in, c, layer, segments));
  }
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
  std::vector<model::Tensor> partials2;
  partials2.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    partials2.push_back(ffn_partial(ffn_in, c, layer));
  }
  model::Tensor out = reduce_with_skip(partials2, h, comm);
  if (!cfg_.pre_norm) out = root_norm(out, lw.norm2_gamma, lw.norm2_beta);
  record_broadcast(out.size(), comm);
  return out;
}

}  // namespace distmcu::partition
