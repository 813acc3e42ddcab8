#ifndef DISTMCU_MODEL_REFERENCE_MODEL_HPP
#define DISTMCU_MODEL_REFERENCE_MODEL_HPP

#include <optional>
#include <vector>

#include "kernels/rope.hpp"
#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "model/tensor.hpp"
#include "model/weights.hpp"

namespace distmcu::model {

/// Single-chip float reference implementation of the Transformer block
/// (paper Sec. II-A) — the golden model every distributed execution is
/// validated against. It supports both inference modes:
///
///  * prompt: the full [S, E] input is processed at once; attention is
///    causal or bidirectional per the config;
///  * autoregressive: one [1, E] token is processed against a KV cache.
///
/// The block structure follows the paper's Fig. 3 (post-norm: Norm is
/// applied to the all-reduced sublayer output); pre-norm is supported via
/// TransformerConfig::pre_norm.
class ReferenceModel {
 public:
  /// Keeps references to `cfg`/`weights`; both must outlive the model.
  ReferenceModel(const TransformerConfig& cfg, const Weights& weights);

  /// One block, prompt mode. When `caches` is non-null, the projected
  /// (post-RoPE) K/V rows are appended to (*caches)[layer] and attention
  /// runs against the cache (supporting a pre-existing prefix of
  /// `pos_offset` positions); otherwise attention runs against the local
  /// projections.
  [[nodiscard]] Tensor block_prompt(const Tensor& x, int layer,
                                    std::vector<KvCache>* caches = nullptr,
                                    int pos_offset = 0) const;

  /// One block, autoregressive mode: `x` is [1, E] at absolute position
  /// `pos`; K/V are appended to `caches[layer]` before attending.
  [[nodiscard]] Tensor block_ar(const Tensor& x, int layer,
                                std::vector<KvCache>& caches, int pos) const;

  /// All layers, prompt mode.
  [[nodiscard]] Tensor forward_prompt(const Tensor& x,
                                      std::vector<KvCache>* caches = nullptr,
                                      int pos_offset = 0) const;

  /// All layers, autoregressive mode.
  [[nodiscard]] Tensor forward_ar(const Tensor& x, std::vector<KvCache>& caches,
                                  int pos) const;

  /// One KV cache per layer with the given position capacity.
  [[nodiscard]] std::vector<KvCache> make_caches(int capacity) const;

  [[nodiscard]] const TransformerConfig& config() const { return cfg_; }
  [[nodiscard]] const Weights& weights() const { return weights_; }

 private:
  [[nodiscard]] Tensor mhsa(const Tensor& x, int layer, std::vector<KvCache>* caches,
                            int pos_offset) const;
  [[nodiscard]] Tensor ffn(const Tensor& x, int layer) const;
  [[nodiscard]] Tensor norm(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta) const;
  void apply_activation(Tensor& x) const;

  const TransformerConfig& cfg_;
  const Weights& weights_;
  /// RoPE angles for positions < cfg.ar_context; empty without RoPE.
  std::optional<kernels::RopeTable> rope_;
};

}  // namespace distmcu::model

#endif  // DISTMCU_MODEL_REFERENCE_MODEL_HPP
