#include "model/reference_model.hpp"

#include <algorithm>
#include <utility>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "kernels/rope.hpp"
#include "util/check.hpp"

namespace distmcu::model {

ReferenceModel::ReferenceModel(const TransformerConfig& cfg, const Weights& weights)
    : cfg_(cfg), weights_(weights) {
  cfg_.validate();
  DISTMCU_CHECK(weights.num_layers() == cfg.num_layers,
              "ReferenceModel: weights/config layer mismatch");
  if (cfg.pos == PosEmbed::rope) rope_.emplace(cfg.ar_context, cfg.head_dim, cfg.rope_base);
}

std::vector<KvCache> ReferenceModel::make_caches(int capacity) const {
  std::vector<KvCache> caches;
  caches.reserve(static_cast<std::size_t>(cfg_.num_layers));
  for (int l = 0; l < cfg_.num_layers; ++l) caches.emplace_back(capacity, cfg_.proj_dim());
  return caches;
}

Tensor ReferenceModel::norm(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta) const {
  Tensor out(x.rows(), x.cols());
  if (cfg_.norm == NormKind::rmsnorm) {
    kernels::rmsnorm_rows(x.span(), gamma.span(), out.span(), x.rows(), x.cols(),
                          cfg_.norm_eps);
  } else {
    kernels::layernorm_rows(x.span(), gamma.span(), beta.span(), out.span(), x.rows(),
                            x.cols(), cfg_.norm_eps);
  }
  return out;
}

void ReferenceModel::apply_activation(Tensor& x) const {
  switch (cfg_.act) {
    case Activation::gelu: kernels::gelu(x.span()); break;
    case Activation::silu: kernels::silu(x.span()); break;
    case Activation::relu: kernels::relu(x.span()); break;
  }
}

Tensor ReferenceModel::mhsa(const Tensor& x, int layer, std::vector<KvCache>* caches,
                            int pos_offset) const {
  const LayerWeights& w = weights_.layer(layer);
  const int s = x.rows();
  const int e = cfg_.embed_dim;
  const int ph = cfg_.proj_dim();
  const int p = cfg_.head_dim;

  Tensor q(s, ph), k(s, ph), v(s, ph);
  kernels::gemm(x.span(), w.wq.span(), q.span(), s, ph, e);
  kernels::gemm(x.span(), w.wk.span(), k.span(), s, ph, e);
  kernels::gemm(x.span(), w.wv.span(), v.span(), s, ph, e);

  if (rope_) {
    // RoPE per head on Q and K (cached K is post-rotation).
    kernels::rope_apply(q.span(), s, ph, pos_offset, *rope_);
    kernels::rope_apply(k.span(), s, ph, pos_offset, *rope_);
  }

  KvCache* cache = caches != nullptr ? &(*caches)[static_cast<std::size_t>(layer)] : nullptr;
  if (cache != nullptr) {
    for (int r = 0; r < s; ++r) cache->append(k.row(r), v.row(r));
  }

  // Per-head attention, read in place (rows `ph` floats apart), into the
  // concatenated context tensor.
  const std::span<const float> keys = cache != nullptr ? cache->k() : std::as_const(k).span();
  const std::span<const float> values = cache != nullptr ? cache->v() : std::as_const(v).span();
  const int s_kv = cache != nullptr ? cache->length() : s;
  Tensor ctx(s, ph);
  const bool causal = cfg_.mask == MaskKind::causal;
  for (int h = 0; h < cfg_.num_heads; ++h) {
    const auto c0 = static_cast<std::size_t>(h * p);
    kernels::attention_head(q.span().subspan(c0), ph, keys.subspan(c0), values.subspan(c0), ph,
                            ctx.span().subspan(c0), ph, s, s_kv, p, causal, pos_offset);
  }

  Tensor out(s, e);
  kernels::gemm(ctx.span(), w.wo.span(), out.span(), s, e, ph);
  return out;
}

Tensor ReferenceModel::ffn(const Tensor& x, int layer) const {
  const LayerWeights& w = weights_.layer(layer);
  const int s = x.rows();
  Tensor hidden(s, cfg_.ffn_dim);
  kernels::gemm(x.span(), w.w1.span(), hidden.span(), s, cfg_.ffn_dim, cfg_.embed_dim);
  apply_activation(hidden);
  if (cfg_.ffn == FfnKind::swiglu) {
    // hidden = act(x*W1) elementwise* (x*W3) — the gated Llama FFN.
    Tensor gate(s, cfg_.ffn_dim);
    kernels::gemm(x.span(), w.w3.span(), gate.span(), s, cfg_.ffn_dim, cfg_.embed_dim);
    kernels::mul_inplace(hidden.span(), gate.span());
  }
  Tensor out(s, cfg_.embed_dim);
  kernels::gemm(hidden.span(), w.w2.span(), out.span(), s, cfg_.embed_dim, cfg_.ffn_dim);
  return out;
}

Tensor ReferenceModel::block_prompt(const Tensor& x, int layer,
                                    std::vector<KvCache>* caches, int pos_offset) const {
  DISTMCU_CHECK(x.cols() == cfg_.embed_dim, "block_prompt: input width != E");
  const LayerWeights& w = weights_.layer(layer);

  if (cfg_.pre_norm) {
    // a = x + MHSA(Norm1(x)); out = a + FFN(Norm2(a))
    Tensor h1 = norm(x, w.norm1_gamma, w.norm1_beta);
    Tensor a = mhsa(h1, layer, caches, pos_offset);
    kernels::add_inplace(a.span(), x.span());
    Tensor h2 = norm(a, w.norm2_gamma, w.norm2_beta);
    Tensor f = ffn(h2, layer);
    kernels::add_inplace(f.span(), a.span());
    return f;
  }
  // Post-norm (paper Fig. 3): h = Norm1(x + MHSA(x)); out = Norm2(h + FFN(h))
  Tensor a = mhsa(x, layer, caches, pos_offset);
  kernels::add_inplace(a.span(), x.span());
  Tensor h = norm(a, w.norm1_gamma, w.norm1_beta);
  Tensor f = ffn(h, layer);
  kernels::add_inplace(f.span(), h.span());
  return norm(f, w.norm2_gamma, w.norm2_beta);
}

Tensor ReferenceModel::block_ar(const Tensor& x, int layer, std::vector<KvCache>& caches,
                                int pos) const {
  DISTMCU_CHECK(x.rows() == 1, "block_ar: autoregressive input must be a single row");
  DISTMCU_CHECK(caches[static_cast<std::size_t>(layer)].length() == pos,
              "block_ar: cache length inconsistent with position");
  return block_prompt(x, layer, &caches, pos);
}

Tensor ReferenceModel::forward_prompt(const Tensor& x, std::vector<KvCache>* caches,
                                      int pos_offset) const {
  Tensor cur = x;
  for (int l = 0; l < cfg_.num_layers; ++l) {
    cur = block_prompt(cur, l, caches, pos_offset);
  }
  return cur;
}

Tensor ReferenceModel::forward_ar(const Tensor& x, std::vector<KvCache>& caches,
                                  int pos) const {
  Tensor cur = x;
  for (int l = 0; l < cfg_.num_layers; ++l) {
    cur = block_ar(cur, l, caches, pos);
  }
  return cur;
}

}  // namespace distmcu::model
