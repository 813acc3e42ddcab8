// The partitioning scheme's functional correctness: distributed execution
// across N chips must reproduce the single-chip reference bit-for-bit up
// to float reduction-order tolerance, for every chip count, both modes,
// both norm placements, and across multi-layer stacks with KV caches.
// The stacked forward over row segments must equal separate
// one-segment forwards bit for bit, outputs and KV caches alike; at
// TinyLlama width, where each chip's work runs as a concurrent host
// task, it must equal a forward whose chips run one by one. A forward
// that throws must leave every KV cache as it was.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "invariant_env.hpp"
#include "model/reference_model.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "quant/quantized_block.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace distmcu;
using model::KvCache;
using model::ReferenceModel;
using model::Tensor;
using model::TransformerConfig;
using model::Weights;
using partition::CommRecord;
using partition::DistributedBlock;
using partition::PartitionPlan;
using partition::RowSegment;
using partition::ShardedWeights;

namespace {

TransformerConfig test_config(bool bert, bool pre_norm, int heads = 8) {
  TransformerConfig cfg =
      bert ? TransformerConfig::mobile_bert() : TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 64;
  cfg.ffn_dim = bert ? 64 : 128;
  cfg.num_heads = heads;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.ar_context = 24;
  cfg.prompt_len = 6;
  cfg.pre_norm = pre_norm;
  cfg.validate();
  return cfg;
}

Tensor random_input(int rows, int cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x(rows, cols);
  x.random_init(rng, 1.0f);
  return x;
}

constexpr float kTol = 5e-4f;  // float reduction-order tolerance

}  // namespace

// Sweep: (chips, bert?, pre_norm?) — prompt mode, single block.
class DistributedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(DistributedEquivalence, PromptBlockMatchesReference) {
  const auto [n_chips, bert, pre_norm] = GetParam();
  const auto cfg = test_config(bert, pre_norm);
  const Weights w(cfg, 101);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, n_chips);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(n_chips, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 55);
  const Tensor y_ref = ref.block_prompt(x, 0);
  const Tensor y_dist = block.forward(x, 0, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y_ref, y_dist), kTol)
      << "chips=" << n_chips << " bert=" << bert << " pre_norm=" << pre_norm;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
      return "chips" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_bert" : "_llama") +
             (std::get<2>(info.param) ? "_prenorm" : "_postnorm");
    });

TEST(DistributedBlockTest, MultiLayerStackMatchesReference) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 7);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, 4);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(4, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 9);
  const Tensor y_ref = ref.forward_prompt(x);
  Tensor y = x;
  for (int l = 0; l < cfg.num_layers; ++l) y = block.forward(y, l, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y_ref, y), 4 * kTol);
}

// Autoregressive decoding with per-chip KV cache slices must agree with
// the reference's full cache — the partitioned cache is the paper's
// mechanism for keeping attention entirely chip-local.
class DistributedArEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DistributedArEquivalence, TokenByTokenWithPartitionedKvCache) {
  const int n_chips = GetParam();
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 31);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, n_chips);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(n_chips, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  auto ref_caches = ref.make_caches(cfg.ar_context);
  auto chip_caches = block.make_chip_caches(cfg.ar_context);

  const int steps = 5;
  for (int t = 0; t < steps; ++t) {
    const Tensor xt = random_input(1, cfg.embed_dim, 1000 + static_cast<std::uint64_t>(t));
    Tensor y_ref = xt, y_dist = xt;
    for (int l = 0; l < cfg.num_layers; ++l) {
      y_ref = ref.block_ar(y_ref, l, ref_caches, t);
      y_dist = block.forward(y_dist, l, &chip_caches, t);
    }
    ASSERT_LE(Tensor::max_abs_diff(y_ref, y_dist), 4 * kTol)
        << "chips=" << n_chips << " token=" << t;
  }
  // Per-chip caches hold disjoint slices summing to the full cache width.
  int total_dim = 0;
  for (int c = 0; c < n_chips; ++c) total_dim += chip_caches[static_cast<std::size_t>(c)][0].dim();
  EXPECT_EQ(total_dim, cfg.proj_dim());
}

INSTANTIATE_TEST_SUITE_P(ChipCounts, DistributedArEquivalence,
                         ::testing::Values(1, 2, 4, 8));

TEST(DistributedBlockTest, CommRecordCountsTwoSyncsPerBlock) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 3);
  const auto plan = PartitionPlan::create(cfg, 8);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(8, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);

  CommRecord comm;
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 5);
  (void)block.forward(x, 0, nullptr, 0, &comm);
  EXPECT_EQ(comm.reduces, 2);
  EXPECT_EQ(comm.broadcasts, 2);
  EXPECT_EQ(comm.synchronizations(), PartitionPlan::kSyncsPerBlock);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(cfg.prompt_len) * static_cast<std::uint64_t>(cfg.embed_dim);
  EXPECT_EQ(comm.payload_elems, payload);
  // 7 hops per reduce/broadcast for 8 chips; 4 collective phases total.
  EXPECT_EQ(comm.total_hop_elems, 7u * payload * 4u);
}

TEST(DistributedBlockTest, SingleChipHasNoCommunication) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 3);
  const auto plan = PartitionPlan::create(cfg, 1);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(1, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  CommRecord comm;
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 5);
  (void)block.forward(x, 0, nullptr, 0, &comm);
  EXPECT_EQ(comm.total_hop_elems, 0u);
}

TEST(DistributedBlockTest, GroupSizeDoesNotChangeNumerics) {
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 3);
  const auto plan = PartitionPlan::create(cfg, 8);
  const ShardedWeights shards(w, plan);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 5);

  const auto topo4 = noc::Topology::hierarchical(8, 4);
  const auto topo2 = noc::Topology::hierarchical(8, 2);
  const auto flat = noc::Topology::flat(8);
  const DistributedBlock b4(cfg, w, shards, plan, topo4);
  const DistributedBlock b2(cfg, w, shards, plan, topo2);
  const DistributedBlock bf(cfg, w, shards, plan, flat);
  const Tensor y4 = b4.forward(x, 0, nullptr, 0);
  const Tensor y2 = b2.forward(x, 0, nullptr, 0);
  const Tensor yf = bf.forward(x, 0, nullptr, 0);
  EXPECT_LE(Tensor::max_abs_diff(y4, y2), kTol);
  EXPECT_LE(Tensor::max_abs_diff(y4, yf), kTol);
}

TEST(DistributedBlockTest, UnevenHeadDistributionStillCorrect) {
  // 8 heads on 3 chips: 3+3+2 — remainder handling must not corrupt
  // results.
  const auto cfg = test_config(false, false);
  const Weights w(cfg, 77);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, 3);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(3, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 13);
  EXPECT_LE(Tensor::max_abs_diff(ref.block_prompt(x, 0), block.forward(x, 0, nullptr, 0)),
            kTol);
}

TEST(DistributedBlockTest, SixtyFourChipScaledModel) {
  // The scaling-study configuration: 64 heads on 64 chips, one head each.
  auto cfg = test_config(false, false, /*heads=*/64);
  const Weights w(cfg, 19);
  const ReferenceModel ref(cfg, w);
  const auto plan = PartitionPlan::create(cfg, 64);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(64, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  const Tensor x = random_input(cfg.prompt_len, cfg.embed_dim, 23);
  EXPECT_LE(Tensor::max_abs_diff(ref.block_prompt(x, 0), block.forward(x, 0, nullptr, 0)),
            2 * kTol);
}

// --- stacked row segments ---------------------------------------------------

namespace {

using ChipCaches = std::vector<std::vector<KvCache>>;

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// One randomized stacking scenario: a block shape, a layer, and 1..8
/// segments of 1..8 rows, each with (or, encoder style, without) its own
/// KV caches already holding `pos_offset` rows.
struct StackDraw {
  TransformerConfig cfg;
  int chips = 1;
  int layer = 0;
  std::vector<int> rows;
  std::vector<int> pos;
  std::vector<bool> cached;
};

StackDraw draw_stack(std::uint64_t seed, bool int8_shape) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  StackDraw d;
  TransformerConfig& cfg = d.cfg;
  cfg.embed_dim = 32;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.ffn_dim = 48;
  cfg.num_layers = 2;
  cfg.vocab_size = 16;
  cfg.ar_context = 24;
  cfg.prompt_len = 8;
  cfg.pos = rng.next_below(2) == 0 ? model::PosEmbed::rope : model::PosEmbed::none;
  cfg.mask = rng.next_below(2) == 0 ? model::MaskKind::causal
                                    : model::MaskKind::bidirectional;
  cfg.norm = rng.next_below(2) == 0 ? model::NormKind::rmsnorm
                                    : model::NormKind::layernorm;
  cfg.ffn = int8_shape || rng.next_below(2) == 0 ? model::FfnKind::mlp
                                                 : model::FfnKind::swiglu;
  cfg.act = rng.next_below(2) == 0 ? model::Activation::silu : model::Activation::gelu;
  cfg.pre_norm = rng.next_below(2) == 0;
  cfg.validate();
  d.chips = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cfg.num_heads)));
  d.layer = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cfg.num_layers)));
  const int n = 1 + static_cast<int>(rng.next_below(8));
  for (int i = 0; i < n; ++i) {
    d.rows.push_back(1 + static_cast<int>(rng.next_below(8)));
    const bool cached = rng.next_below(4) != 0;
    d.cached.push_back(cached);
    d.pos.push_back(cached ? static_cast<int>(rng.next_below(9)) : 0);
  }
  return d;
}

/// Runs `d` through `block` twice — one stacked forward, then one
/// forward per segment on copies of the same caches — and requires every
/// output row and every segment's per-chip caches to match bit for bit.
/// `geometry` shapes each request's caches, which are primed with
/// `pos_offset` rows through one-segment forwards of every layer.
template <typename Block>
void expect_stack_matches_segments(const StackDraw& d, const Block& block,
                                   const DistributedBlock& geometry,
                                   std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(d.rows.size()) +
               " segments on " + std::to_string(d.chips) + " chips");
  const int e = d.cfg.embed_dim;
  std::vector<ChipCaches> stacked_caches;
  std::vector<RowSegment> segments;
  int total = 0;
  for (std::size_t i = 0; i < d.rows.size(); ++i) {
    stacked_caches.push_back(geometry.make_chip_caches(d.cfg.ar_context));
    if (d.pos[i] > 0) {
      const Tensor prefix = random_input(d.pos[i], e, seed * 31 + i);
      Tensor h = prefix;
      for (int l = 0; l < d.cfg.num_layers; ++l) {
        h = block.forward(h, l, &stacked_caches.back(), 0);
      }
    }
    total += d.rows[i];
  }
  std::vector<ChipCaches> solo_caches = stacked_caches;
  for (std::size_t i = 0; i < d.rows.size(); ++i) {
    segments.push_back({d.rows[i], d.cached[i] ? &stacked_caches[i] : nullptr, d.pos[i]});
  }

  const Tensor x = random_input(total, e, seed + 7);
  const Tensor stacked = block.forward(x, d.layer, segments);
  ASSERT_EQ(stacked.rows(), total);

  int r0 = 0;
  for (std::size_t i = 0; i < d.rows.size(); ++i) {
    const int n = d.rows[i];
    const Tensor solo = block.forward(x.slice_rows(r0, r0 + n), d.layer,
                                      d.cached[i] ? &solo_caches[i] : nullptr, d.pos[i]);
    EXPECT_TRUE(same_bits(stacked.slice_rows(r0, r0 + n).span(), solo.span()))
        << "segment " << i << " output rows differ";
    for (int c = 0; c < d.chips; ++c) {
      for (int l = 0; l < d.cfg.num_layers; ++l) {
        const KvCache& a = stacked_caches[i][static_cast<std::size_t>(c)][static_cast<std::size_t>(l)];
        const KvCache& b = solo_caches[i][static_cast<std::size_t>(c)][static_cast<std::size_t>(l)];
        ASSERT_EQ(a.length(), b.length()) << "segment " << i << " chip " << c;
        EXPECT_TRUE(same_bits(a.k(), b.k()) && same_bits(a.v(), b.v()))
            << "segment " << i << " chip " << c << " layer " << l << " caches differ";
      }
    }
    r0 += n;
  }
}

}  // namespace

TEST(StackedSegments, FloatBlockMatchesSeparateForwardsBitForBit) {
  const std::uint64_t kDraws = distmcu::testing::invariant_seed_count(200);
  for (std::uint64_t seed = 0; seed < kDraws; ++seed) {
    const StackDraw d = draw_stack(seed, /*int8_shape=*/false);
    const Weights w(d.cfg, 1000 + seed);
    const auto plan = PartitionPlan::create(d.cfg, d.chips);
    const ShardedWeights shards(w, plan);
    const auto topo = noc::Topology::hierarchical(d.chips, 2);
    const DistributedBlock block(d.cfg, w, shards, plan, topo);
    expect_stack_matches_segments(d, block, block, seed);
  }
}

TEST(StackedSegments, QuantizedBlockLoopMatchesSeparateForwardsBitForBit) {
  const std::uint64_t kDraws = distmcu::testing::invariant_seed_count(100);
  for (std::uint64_t seed = 0; seed < kDraws; ++seed) {
    const StackDraw d = draw_stack(seed, /*int8_shape=*/true);
    const Weights w(d.cfg, 2000 + seed);
    const auto plan = PartitionPlan::create(d.cfg, d.chips);
    const ShardedWeights shards(w, plan);
    const auto topo = noc::Topology::hierarchical(d.chips, 2);
    const DistributedBlock geometry(d.cfg, w, shards, plan, topo);
    const int kv_bits = seed % 3 == 0 ? 4 : (seed % 3 == 1 ? 8 : 16);
    const quant::QuantizedBlock block(d.cfg, w, shards, plan, topo, kv_bits);
    expect_stack_matches_segments(d, block, geometry, seed);
  }
}

TEST(StackedSegments, RejectsMalformedSegments) {
  const auto cfg = test_config(false, true);
  const Weights w(cfg, 5);
  const auto plan = PartitionPlan::create(cfg, 2);
  const ShardedWeights shards(w, plan);
  const auto topo = noc::Topology::hierarchical(2, 4);
  const DistributedBlock block(cfg, w, shards, plan, topo);
  auto caches = block.make_chip_caches(cfg.ar_context);
  const Tensor x = random_input(3, cfg.embed_dim, 1);

  const std::vector<RowSegment> short_cover{{2, nullptr, 0}};
  EXPECT_THROW((void)block.forward(x, 0, short_cover), Error);
  const std::vector<RowSegment> empty_segment{{3, nullptr, 0}, {0, nullptr, 0}};
  EXPECT_THROW((void)block.forward(x, 0, empty_segment), Error);
  const std::vector<RowSegment> shared_caches{{1, &caches, 0}, {2, &caches, 1}};
  EXPECT_THROW((void)block.forward(x, 0, shared_caches), Error);
  EXPECT_THROW((void)block.forward(x, 0, std::span<const RowSegment>{}), Error);
}

TEST(StackedSegments, OverflowingLastSegmentLeavesEveryCacheUnchanged) {
  const auto cfg = test_config(false, true);
  const Weights w(cfg, 9);
  for (const int chips : {2, 4}) {
    SCOPED_TRACE(std::to_string(chips) + " chips");
    const auto plan = PartitionPlan::create(cfg, chips);
    const ShardedWeights shards(w, plan);
    const auto topo = noc::Topology::hierarchical(chips, 2);
    const DistributedBlock fp(cfg, w, shards, plan, topo);
    const quant::QuantizedBlock q8(cfg, w, shards, plan, topo, 8);

    // Request A has room; request B's layer-0 caches are full.
    ChipCaches a = fp.make_chip_caches(cfg.ar_context);
    ChipCaches b = fp.make_chip_caches(cfg.ar_context);
    (void)fp.forward(random_input(3, cfg.embed_dim, 1), 0, &a, 0);
    (void)fp.forward(random_input(cfg.ar_context, cfg.embed_dim, 2), 0, &b, 0);
    const std::vector<RowSegment> segments{{2, &a, 3}, {1, nullptr, 0}, {1, &b, cfg.ar_context}};
    const Tensor x = random_input(4, cfg.embed_dim, 3);

    const auto expect_unchanged = [&](const char* what) {
      for (int c = 0; c < chips; ++c) {
        const auto uc = static_cast<std::size_t>(c);
        EXPECT_EQ(a[uc][0].length(), 3) << what << ": chip " << c;
        EXPECT_EQ(b[uc][0].length(), cfg.ar_context) << what << ": chip " << c;
        EXPECT_EQ(a[uc][1].length(), 0) << what << ": chip " << c;
        EXPECT_EQ(b[uc][1].length(), 0) << what << ": chip " << c;
      }
    };
    EXPECT_THROW((void)fp.forward(x, 0, segments), Error);
    expect_unchanged("fp16");
    EXPECT_THROW((void)q8.forward(x, 0, segments), Error);
    expect_unchanged("int8");
    // One request alone: the same check guards the one-segment forward.
    EXPECT_THROW((void)fp.forward(x.slice_rows(0, 1), 0, &b, cfg.ar_context), Error);
    EXPECT_THROW((void)q8.forward(x.slice_rows(0, 1), 0, &b, cfg.ar_context), Error);
    expect_unchanged("one segment");
  }
}

// --- concurrent chips at full width -------------------------------------------

namespace {

/// One TinyLlama-42M-width block (E = 512, F = 2048, 8 heads of 64).
/// The int8 block supports only the plain MLP FFN.
TransformerConfig full_width_config(bool int8) {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 1;
  cfg.vocab_size = 16;
  cfg.ar_context = 16;
  cfg.prompt_len = 8;
  if (int8) cfg.ffn = model::FfnKind::mlp;
  cfg.validate();
  return cfg;
}

/// The fleet benchmark's 32-wide decoder block.
TransformerConfig fleet_decoder_config() {
  TransformerConfig cfg = TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 128;
  cfg.ar_context = 64;
  cfg.prompt_len = 16;
  cfg.validate();
  return cfg;
}

/// Runs stacked segments with primed caches through `block` twice: once
/// as is, and once inside a parallel_for task, where the block's own
/// parallel_for runs inline and its chips one by one on one thread.
/// Output rows and every chip's caches must match bit for bit.
template <typename Block>
void expect_concurrent_matches_serial(const TransformerConfig& cfg, const Block& block,
                                      const DistributedBlock& geometry, int chips) {
  SCOPED_TRACE(std::to_string(chips) + " chips");
  const std::vector<int> rows{1, 4, 2, 1};
  const std::vector<int> primed{6, 3, 0, 9};
  const std::vector<bool> cached{true, true, false, true};
  std::vector<ChipCaches> caches;
  std::vector<RowSegment> segments;
  int total = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    caches.push_back(geometry.make_chip_caches(cfg.ar_context));
    if (primed[i] > 0) {
      (void)block.forward(random_input(primed[i], cfg.embed_dim, 40 + i), 0, &caches.back(), 0);
    }
    total += rows[i];
  }
  std::vector<ChipCaches> serial_caches = caches;
  std::vector<RowSegment> serial_segments;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    segments.push_back({rows[i], cached[i] ? &caches[i] : nullptr, primed[i]});
    serial_segments.push_back({rows[i], cached[i] ? &serial_caches[i] : nullptr, primed[i]});
  }
  const Tensor x = random_input(total, cfg.embed_dim, 77);

  const Tensor concurrent = block.forward(x, 0, segments);
  Tensor serial;
  util::parallel_for(1, [&](int) { serial = block.forward(x, 0, serial_segments); });

  EXPECT_TRUE(same_bits(concurrent.span(), serial.span())) << "output rows differ";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (int c = 0; c < chips; ++c) {
      const KvCache& a = caches[i][static_cast<std::size_t>(c)][0];
      const KvCache& b = serial_caches[i][static_cast<std::size_t>(c)][0];
      ASSERT_EQ(a.length(), b.length()) << "segment " << i << " chip " << c;
      EXPECT_EQ(a.length(), primed[i] + (cached[i] ? rows[i] : 0));
      EXPECT_TRUE(same_bits(a.k(), b.k()) && same_bits(a.v(), b.v()))
          << "segment " << i << " chip " << c << " caches differ";
    }
  }
}

}  // namespace

TEST(StackedSegments, ConcurrentChipsMatchSerialChipsAtTinyLlamaWidth) {
  for (const bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8" : "fp16");
    const TransformerConfig cfg = full_width_config(int8);
    const Weights w(cfg, 31);
    for (const int chips : {4, 8}) {
      const auto plan = PartitionPlan::create(cfg, chips);
      const ShardedWeights shards(w, plan);
      const auto topo = noc::Topology::hierarchical(chips, 4);
      const DistributedBlock fp(cfg, w, shards, plan, topo);
      if (int8) {
        const quant::QuantizedBlock q8(cfg, w, shards, plan, topo, 8);
        expect_concurrent_matches_serial(cfg, q8, fp, chips);
      } else {
        expect_concurrent_matches_serial(cfg, fp, fp, chips);
      }
    }
  }
}

TEST(StackedSegments, ConcurrencyThresholdSplitsTinyLlamaFromTheFleetShapes) {
  // A TinyLlama-width block runs both phases of a one-row decode
  // concurrently, so the test above exercises the pool...
  const TransformerConfig wide = full_width_config(false);
  for (const int chips : {4, 8}) {
    const auto pw = partition::chip_phase_weights(wide, PartitionPlan::create(wide, chips));
    EXPECT_GE(1 * (pw.qkv + pw.wo), partition::kConcurrentChipMacs) << chips << " chips";
    EXPECT_GE(1 * pw.ffn, partition::kConcurrentChipMacs) << chips << " chips";
  }
  // ...while the fleet benchmark's 32-wide decoder and encoder blocks
  // stay inline at any batch they form: their stacked forwards peak at
  // 24 rows, and 32 rows on their narrowest split still fall short.
  constexpr std::int64_t kFleetMaxRows = 32;
  TransformerConfig encoder = fleet_decoder_config();
  encoder.ffn_dim = 96;
  encoder.mask = model::MaskKind::bidirectional;
  for (const TransformerConfig& cfg : {fleet_decoder_config(), encoder}) {
    for (const int chips : {2, 4}) {
      const auto pw = partition::chip_phase_weights(cfg, PartitionPlan::create(cfg, chips));
      EXPECT_LT(kFleetMaxRows * (pw.qkv + pw.wo), partition::kConcurrentChipMacs);
      EXPECT_LT(kFleetMaxRows * pw.ffn, partition::kConcurrentChipMacs);
    }
  }
}
