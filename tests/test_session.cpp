// Tests for the public API facade: InferenceSession block measurements,
// end-to-end greedy generation (distributed numerics must produce the
// same tokens as the single-chip reference), the encoder path, the
// embedding, and the steady-state multi-block simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/gemm.hpp"
#include "model/embedding.hpp"
#include "model/reference_model.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/steady_state.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::Mode;
using model::TransformerConfig;
using runtime::InferenceSession;
using runtime::SteadyStateSimulation;
using runtime::SystemConfig;

namespace {

TransformerConfig small_llama() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = 24;
  cfg.prompt_len = 4;
  cfg.validate();
  return cfg;
}

TransformerConfig small_bert() {
  TransformerConfig cfg = TransformerConfig::mobile_bert();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 32;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 64;
  cfg.ar_context = 16;
  cfg.prompt_len = 8;
  cfg.validate();
  return cfg;
}

}  // namespace

TEST(Embedding, LookupReturnsTableRows) {
  const auto cfg = small_llama();
  const model::Embedding emb(cfg, 1);
  const auto x = emb.lookup({3, 7, 3});
  EXPECT_EQ(x.rows(), 3);
  EXPECT_EQ(x.cols(), cfg.embed_dim);
  // Same id -> same row.
  for (int c = 0; c < cfg.embed_dim; ++c) EXPECT_FLOAT_EQ(x.at(0, c), x.at(2, c));
}

TEST(Embedding, RejectsOutOfVocab) {
  const auto cfg = small_llama();
  const model::Embedding emb(cfg, 1);
  EXPECT_THROW((void)emb.lookup({cfg.vocab_size}), Error);
  EXPECT_THROW((void)emb.lookup({-1}), Error);
  EXPECT_THROW((void)emb.lookup({}), Error);
}

TEST(Embedding, GreedyPicksArgmax) {
  const auto cfg = small_llama();
  const model::Embedding emb(cfg, 1);
  // The logit of token t for input = embedding(t) is that row's squared
  // norm — the diagonal dominates, so greedy should return t itself for
  // most rows; check the mechanism on one row.
  const auto x = emb.lookup({5});
  const auto lg = emb.logits(x);
  int best = 0;
  for (int v = 1; v < lg.cols(); ++v) {
    if (lg.at(0, v) > lg.at(0, best)) best = v;
  }
  EXPECT_EQ(emb.greedy_next(x), best);
}

namespace {

model::Embedding make_embedding(int vocab, int embed, std::uint64_t seed) {
  TransformerConfig cfg = small_llama();
  cfg.vocab_size = vocab;
  cfg.embed_dim = embed;
  return {cfg, seed};
}

// Hidden rows that exercise the head's exactness corners: a plain row,
// zeros of both signs mixed with subnormal and large values, an all-zero
// row, and a row large enough that some logits overflow to +-inf.
model::Tensor corner_hidden_rows(int embed, std::uint64_t seed) {
  util::Rng rng(seed);
  model::Tensor h(5, embed);
  h.random_init(rng, 1.0f);
  for (int e = 0; e < embed; ++e) {
    switch (e % 6) {
      case 0: h.at(1, e) = 0.0f; break;
      case 1: h.at(1, e) = -0.0f; break;
      case 2: h.at(1, e) = std::numeric_limits<float>::denorm_min() * static_cast<float>(e); break;
      case 3: h.at(1, e) = 1e30f; break;
      case 4: h.at(1, e) = -3e35f; break;
      default: break;
    }
    h.at(2, e) = e % 2 == 0 ? 0.0f : -0.0f;
    h.at(3, e) = std::numeric_limits<float>::max();
    if (e % 4 == 0) h.at(4, e) = 0.0f;
  }
  return h;
}

}  // namespace

TEST(Embedding, LogitsBitEqualTiedGemmNt) {
  for (const auto& [vocab, embed] : {std::pair{512, 512}, std::pair{128, 32}}) {
    const model::Embedding emb = make_embedding(vocab, embed, 11);
    ASSERT_EQ(emb.vocab_size(), vocab);
    ASSERT_EQ(emb.embed_dim(), embed);
    std::vector<int> ids(static_cast<std::size_t>(vocab));
    for (int v = 0; v < vocab; ++v) ids[static_cast<std::size_t>(v)] = v;
    const model::Tensor table = emb.lookup(ids);  // the tied [V, E] table
    // The transposed storage keeps the token-major draws of a [V, E]
    // random_init, value for value.
    util::Rng rng(11 ^ 0xe5b5u);
    model::Tensor drawn(vocab, embed);
    drawn.random_init(rng, 1.0f / std::sqrt(static_cast<float>(embed)));
    EXPECT_EQ(std::memcmp(table.span().data(), drawn.span().data(),
                          drawn.size() * sizeof(float)),
              0);
    const model::Tensor h = corner_hidden_rows(embed, 5);
    const model::Tensor lg = emb.logits(h);
    std::vector<float> ref(lg.size());
    kernels::gemm_nt(h.span(), table.span(), ref, h.rows(), vocab, embed);
    EXPECT_EQ(std::memcmp(lg.span().data(), ref.data(), ref.size() * sizeof(float)), 0)
        << "V=" << vocab << " E=" << embed;
    for (int v = 0; v < vocab; ++v) EXPECT_FALSE(std::signbit(lg.at(2, v)));
  }
}

TEST(Embedding, GreedyRowsMatchPerRowGreedyNext) {
  const model::Embedding emb = make_embedding(512, 512, 11);
  const model::Tensor h = corner_hidden_rows(512, 5);
  const std::vector<int> picks = emb.greedy_rows(h);
  ASSERT_EQ(picks.size(), static_cast<std::size_t>(h.rows()));
  for (int r = 0; r < h.rows(); ++r) {
    EXPECT_EQ(picks[static_cast<std::size_t>(r)], emb.greedy_next(h.slice_rows(r, r + 1)))
        << "row " << r;
  }
  // Ties go to the lowest index: every logit of the all-zero row is +0,
  // and the overflowing row reaches +inf at several tokens.
  EXPECT_EQ(picks[2], 0);
  const model::Tensor lg = emb.logits(h);
  std::vector<int> inf_tokens;
  for (int v = 0; v < lg.cols(); ++v) {
    if (lg.at(3, v) == std::numeric_limits<float>::infinity()) inf_tokens.push_back(v);
  }
  ASSERT_GE(inf_tokens.size(), 2u);
  EXPECT_EQ(picks[3], inf_tokens.front());
  EXPECT_EQ(emb.greedy_next(h), picks.back());
}

TEST(Session, BlockResultConsistent) {
  const InferenceSession session(TransformerConfig::tiny_llama_42m(), 8);
  const auto block = session.run_block(Mode::autoregressive);
  EXPECT_EQ(block.report.num_chips, 8);
  EXPECT_EQ(block.report.breakdown.total(), block.report.block_cycles);
  EXPECT_GT(block.energy_mj(), 0.0);
  EXPECT_GT(block.latency_ms(500e6), 0.0);
  EXPECT_NEAR(block.edp_mj_ms(500e6),
              block.energy_mj() * block.latency_ms(500e6), 1e-12);
  EXPECT_EQ(block.memory.residency, partition::Residency::double_buffered);
}

TEST(Session, GenerateProducesRequestedTokens) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 4);
  const std::vector<int> prompt{1, 2, 3};
  const auto gen = session.generate(prompt, 5);
  EXPECT_EQ(gen.tokens.size(), prompt.size() + 5);
  EXPECT_EQ(gen.generated, 5);
  EXPECT_GT(gen.total_cycles, 0u);
  EXPECT_GT(gen.total_energy_mj, 0.0);
  EXPECT_GT(gen.tokens_per_s(500e6), 0.0);
  EXPECT_GT(gen.mj_per_token(), 0.0);
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    EXPECT_EQ(gen.tokens[i], prompt[static_cast<std::size_t>(i)]);
  }
}

TEST(Session, DistributedGenerationMatchesReferenceTokens) {
  // The full pipeline (embed -> distributed blocks -> greedy head) must
  // produce the same token sequence as a single-chip reference model.
  const auto cfg = small_llama();
  const std::vector<int> prompt{4, 9, 2};
  const int steps = 6;

  const InferenceSession dist(cfg, 4, SystemConfig::siracusa_system(), 42);
  const auto gen = dist.generate(prompt, steps);

  // Reference: same weights/embedding seed, single chip.
  const model::Weights w(cfg, 42);
  const model::Embedding emb(cfg, 42);
  const model::ReferenceModel ref(cfg, w);
  auto caches = ref.make_caches(cfg.ar_context);
  std::vector<int> ref_tokens = prompt;
  model::Tensor h = emb.lookup(prompt);
  h = ref.forward_prompt(h, &caches, 0);
  int next = emb.greedy_next(h);
  int pos = static_cast<int>(prompt.size());
  for (int t = 0; t < steps; ++t) {
    ref_tokens.push_back(next);
    if (t + 1 == steps) break;
    model::Tensor x = emb.lookup({next});
    x = ref.forward_ar(x, caches, pos);
    next = emb.greedy_next(x);
    ++pos;
  }
  EXPECT_EQ(gen.tokens, ref_tokens);
}

TEST(Session, EncodeMatchesReference) {
  const auto cfg = small_bert();
  const InferenceSession session(cfg, 4, SystemConfig::siracusa_system(), 7);
  std::vector<int> tokens;
  for (int i = 0; i < cfg.prompt_len; ++i) tokens.push_back(i % cfg.vocab_size);
  const auto h = session.encode(tokens);

  const model::Weights w(cfg, 7);
  const model::Embedding emb(cfg, 7);
  const model::ReferenceModel ref(cfg, w);
  const auto h_ref = ref.forward_prompt(emb.lookup(tokens));
  EXPECT_LE(model::Tensor::max_abs_diff(h, h_ref), 5e-3f);
}

TEST(Session, EncodeRejectsWrongLength) {
  const auto cfg = small_bert();
  const InferenceSession session(cfg, 2);
  EXPECT_THROW((void)session.encode({1, 2, 3}), Error);
}

TEST(Session, GenerateRejectsContextOverflow) {
  const auto cfg = small_llama();
  const InferenceSession session(cfg, 2);
  EXPECT_THROW((void)session.generate({1}, cfg.ar_context + 1), Error);
  EXPECT_THROW((void)session.generate({}, 1), Error);
}

TEST(Session, MoreChipsSameTokensLowerLatency) {
  const auto cfg = small_llama();
  const std::vector<int> prompt{1, 2};
  const InferenceSession s1(cfg, 1);
  const InferenceSession s4(cfg, 4);
  const auto g1 = s1.generate(prompt, 4);
  const auto g4 = s4.generate(prompt, 4);
  EXPECT_EQ(g1.tokens, g4.tokens);  // numerics independent of partitioning
}

// --- steady state ---------------------------------------------------------

TEST(SteadyState, DoubleBufferedSustainedSlowerThanIsolated) {
  // The accounting gap DESIGN.md documents: at 8 chips the prefetch
  // (786 KiB @ 0.5 GB/s) outlasts the block compute.
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = partition::PartitionPlan::create(cfg, 8);
  const SteadyStateSimulation sim(SystemConfig::siracusa_system());
  const auto ss = sim.run(plan, Mode::autoregressive);
  EXPECT_EQ(ss.residency, partition::Residency::double_buffered);
  EXPECT_EQ(ss.blocks, cfg.num_layers);
  EXPECT_GT(ss.per_block_sustained, ss.per_block_isolated);
  EXPECT_GT(ss.prefetch_stall_cycles, 0u);
}

TEST(SteadyState, FullyResidentHasNoStall) {
  const auto cfg = TransformerConfig::tiny_llama_scaled(64);
  const auto plan = partition::PartitionPlan::create(cfg, 32);
  const SteadyStateSimulation sim(SystemConfig::siracusa_system());
  const auto ss = sim.run(plan, Mode::autoregressive);
  EXPECT_EQ(ss.residency, partition::Residency::fully_resident);
  EXPECT_EQ(ss.prefetch_stall_cycles, 0u);
  EXPECT_EQ(ss.per_block_sustained, ss.per_block_isolated);
}

TEST(SteadyState, StreamedChainsBackToBack) {
  const auto cfg = TransformerConfig::tiny_llama_42m();
  const auto plan = partition::PartitionPlan::create(cfg, 2);
  const SteadyStateSimulation sim(SystemConfig::siracusa_system());
  const auto ss = sim.run(plan, Mode::autoregressive);
  EXPECT_EQ(ss.residency, partition::Residency::streamed);
  EXPECT_EQ(ss.total_cycles,
            ss.per_block_isolated * static_cast<Cycles>(cfg.num_layers));
}
