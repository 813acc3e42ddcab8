#ifndef DISTMCU_MODEL_EMBEDDING_HPP
#define DISTMCU_MODEL_EMBEDDING_HPP

#include <vector>

#include "model/config.hpp"
#include "model/tensor.hpp"

namespace distmcu::model {

/// Token embedding table with a tied LM head (logits = x * table^T), the
/// minimal vocabulary machinery the end-to-end generation examples need.
/// Embeddings never live in MCU on-chip memory (they stream row-wise from
/// L3 at lookup), so they are excluded from the block-level memory
/// planning, matching the paper's per-block scope.
///
/// The table is stored once, transposed ([E, vocab]), so the head is a
/// plain row-blocked kernels::gemm; a lookup gathers a column. Token t's
/// embedding is column t, and every logit has the bits the [vocab, E]
/// kernels::gemm_nt form gives (see gemm.hpp).
class Embedding {
 public:
  Embedding(const TransformerConfig& cfg, std::uint64_t seed);

  /// [ids.size(), E] matrix of embedding rows.
  [[nodiscard]] Tensor lookup(const std::vector<int>& ids) const;

  /// Logits [x.rows, vocab] with the tied head.
  [[nodiscard]] Tensor logits(const Tensor& x) const;

  /// argmax of each row's logits (lowest index on ties), from one GEMM —
  /// greedy decoding for a stack of independent rows.
  [[nodiscard]] std::vector<int> greedy_rows(const Tensor& x) const;

  /// greedy_rows of the last row alone.
  [[nodiscard]] int greedy_next(const Tensor& x) const;

  [[nodiscard]] int vocab_size() const { return head_.cols(); }
  [[nodiscard]] int embed_dim() const { return head_.rows(); }

 private:
  Tensor head_;  // [E, vocab]: column t is token t's embedding
};

}  // namespace distmcu::model

#endif  // DISTMCU_MODEL_EMBEDDING_HPP
