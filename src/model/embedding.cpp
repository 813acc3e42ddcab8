#include "model/embedding.hpp"

#include <cmath>

#include "kernels/gemm.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace distmcu::model {

Embedding::Embedding(const TransformerConfig& cfg, std::uint64_t seed)
    : head_(cfg.embed_dim, cfg.vocab_size) {
  util::Rng rng(seed ^ 0xe5b5u);
  const float scale = 1.0f / std::sqrt(static_cast<float>(cfg.embed_dim));
  // Token-major draw order, as a row-major [vocab, E] random_init draws:
  // token v's E values fill column v, one table row apart.
  const std::size_t vocab = static_cast<std::size_t>(head_.cols());
  const std::span<float> head = head_.span();
  for (std::size_t v = 0; v < vocab; ++v) {
    for (std::size_t i = v; i < head.size(); i += vocab) head[i] = rng.uniform(-scale, scale);
  }
}

Tensor Embedding::lookup(const std::vector<int>& ids) const {
  DISTMCU_CHECK(!ids.empty(), "Embedding::lookup: empty id list");
  Tensor out(static_cast<int>(ids.size()), head_.rows());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    DISTMCU_CHECK(ids[i] >= 0 && ids[i] < head_.cols(),
                "Embedding::lookup: id out of vocabulary");
    auto dst = out.row(static_cast<int>(i));
    for (int e = 0; e < head_.rows(); ++e) dst[static_cast<std::size_t>(e)] = head_.at(e, ids[i]);
  }
  return out;
}

Tensor Embedding::logits(const Tensor& x) const {
  DISTMCU_CHECK(x.cols() == head_.rows(), "Embedding::logits: width mismatch");
  Tensor out(x.rows(), head_.cols());
  kernels::gemm(x.span(), head_.span(), out.span(), x.rows(), head_.cols(), x.cols());
  return out;
}

std::vector<int> Embedding::greedy_rows(const Tensor& x) const {
  const Tensor lg = logits(x);
  std::vector<int> picks(static_cast<std::size_t>(lg.rows()));
  for (int r = 0; r < lg.rows(); ++r) {
    const auto row = lg.row(r);
    int best = 0;
    for (int v = 1; v < lg.cols(); ++v) {
      if (row[static_cast<std::size_t>(v)] > row[static_cast<std::size_t>(best)]) best = v;
    }
    picks[static_cast<std::size_t>(r)] = best;
  }
  return picks;
}

int Embedding::greedy_next(const Tensor& x) const {
  return greedy_rows(x.slice_rows(x.rows() - 1, x.rows())).front();
}

}  // namespace distmcu::model
