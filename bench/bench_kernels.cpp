// Ablation A6: google-benchmark microbenchmarks of the functional
// kernels (host execution speed) and of the simulator itself (cost of
// one timed block simulation) — keeps the library honest about its own
// overheads and provides a regression baseline for the numeric kernels.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "model/config.hpp"
#include "model/embedding.hpp"
#include "model/kv_cache.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "quant/int_kernels.hpp"
#include "runtime/timed_simulation.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace distmcu;

namespace {
std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}
}  // namespace

static void BM_GemmFloat(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const auto a = random_vec(static_cast<std::size_t>(d * d), 1);
  const auto b = random_vec(static_cast<std::size_t>(d * d), 2);
  std::vector<float> c(static_cast<std::size_t>(d * d));
  for (auto _ : state) {
    kernels::gemm(a, b, c, d, d, d);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d) * d * d);
}
BENCHMARK(BM_GemmFloat)->Arg(64)->Arg(128)->Arg(256);

static void BM_GemmInt8(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::vector<std::int8_t> a(static_cast<std::size_t>(d * d), 3);
  std::vector<std::int8_t> b(static_cast<std::size_t>(d * d), -5);
  std::vector<std::int32_t> c(static_cast<std::size_t>(d * d));
  for (auto _ : state) {
    quant::gemm_i8_i32(a, b, c, d, d, d);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d) * d * d);
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256);

// The per-chip GEMMs of one fp16 TinyLlama-42M block on 4 chips (chip 0's
// shards): Wq/Wk/Wv [E, P*H/4], WO [P*H/4, E], W1/W3 [E, F/4] and
// W2 [F/4, E], one call each per iteration for M stacked rows. M = 1 is a
// single decode row; M > 1 is what a serving step stacks per tenant.
// items/s counts rows.
namespace {
struct ShardShape {
  int k, n;
};
std::vector<ShardShape> tinyllama_shard_shapes(bool int8_only) {
  constexpr int kChips = 4;
  const auto cfg = model::TransformerConfig::tiny_llama_42m();
  const int e = cfg.embed_dim, pw = cfg.proj_dim() / kChips, fw = cfg.ffn_dim / kChips;
  // The int8 path quantizes WO and the FFN; Q/K/V stay float.
  if (int8_only) return {{pw, e}, {e, fw}, {fw, e}};
  return {{e, pw}, {e, pw}, {e, pw}, {pw, e}, {e, fw}, {e, fw}, {fw, e}};
}
}  // namespace

static void BM_GemmShard(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  struct Operands {
    ShardShape s;
    std::vector<float> a, b, c;
  };
  std::vector<Operands> ops;
  std::uint64_t seed = 20;
  for (const auto s : tinyllama_shard_shapes(false)) {
    ops.push_back({s, random_vec(static_cast<std::size_t>(m) * s.k, seed),
                   random_vec(static_cast<std::size_t>(s.k) * s.n, seed + 1),
                   std::vector<float>(static_cast<std::size_t>(m) * s.n)});
    seed += 2;
  }
  for (auto _ : state) {
    for (auto& op : ops) {
      kernels::gemm(op.a, op.b, op.c, m, op.s.n, op.s.k);
      benchmark::DoNotOptimize(op.c.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_GemmShard)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

static void BM_GemmShardInt8(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  struct Operands {
    ShardShape s;
    std::vector<std::int8_t> a, b;
    std::vector<std::int32_t> c;
  };
  const auto to_i8 = [](const std::vector<float>& v) {
    std::vector<std::int8_t> q(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) q[i] = static_cast<std::int8_t>(v[i] * 127.0f);
    return q;
  };
  std::vector<Operands> ops;
  std::uint64_t seed = 40;
  for (const auto s : tinyllama_shard_shapes(true)) {
    ops.push_back({s, to_i8(random_vec(static_cast<std::size_t>(m) * s.k, seed)),
                   to_i8(random_vec(static_cast<std::size_t>(s.k) * s.n, seed + 1)),
                   std::vector<std::int32_t>(static_cast<std::size_t>(m) * s.n)});
    seed += 2;
  }
  for (auto _ : state) {
    for (auto& op : ops) {
      quant::gemm_i8_i32(op.a, op.b, op.c, m, op.s.n, op.s.k);
      benchmark::DoNotOptimize(op.c.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_GemmShardInt8)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

static void BM_Softmax(benchmark::State& state) {
  const int rows = 128, cols = static_cast<int>(state.range(0));
  auto x = random_vec(static_cast<std::size_t>(rows * cols), 3);
  for (auto _ : state) {
    auto copy = x;
    kernels::softmax_rows(copy, rows, cols);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(512);

// One decode row of one chip's attention, read in place: 4 heads of
// p = 8 (the fleet-sized blocks) or p = 64 (TinyLlama), each reading its
// columns of a [48, 4p] KvCache and writing its slice of the context row
// (what partition::DistributedBlock::attend_segment runs per head).
static void BM_AttentionHead(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  constexpr int kHeads = 4;
  constexpr int kCached = 48;
  const int pw = kHeads * p;
  model::KvCache cache(kCached, pw);
  for (int pos = 0; pos < kCached; ++pos) {
    const auto k = random_vec(static_cast<std::size_t>(pw), 100 + pos);
    const auto v = random_vec(static_cast<std::size_t>(pw), 200 + pos);
    cache.append(k, v);
  }
  const auto q = random_vec(static_cast<std::size_t>(pw), 4);
  std::vector<float> ctx(static_cast<std::size_t>(pw));
  const std::span<const float> keys = cache.k();
  const std::span<const float> values = cache.v();
  for (auto _ : state) {
    for (int h = 0; h < kHeads; ++h) {
      const auto c0 = static_cast<std::size_t>(h * p);
      kernels::attention_head(std::span<const float>(q).subspan(c0), pw, keys.subspan(c0),
                              values.subspan(c0), pw, std::span<float>(ctx).subspan(c0), pw,
                              1, kCached, p, /*causal=*/true, kCached - 1);
    }
    benchmark::DoNotOptimize(ctx.data());
  }
}
BENCHMARK(BM_AttentionHead)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

static void BM_TimedBlockSimulation(benchmark::State& state) {
  const int chips = static_cast<int>(state.range(0));
  const auto cfg = chips > 8 ? model::TransformerConfig::tiny_llama_scaled(64)
                             : model::TransformerConfig::tiny_llama_42m();
  const auto plan = partition::PartitionPlan::create(cfg, chips);
  const runtime::TimedBlockSimulation sim(runtime::SystemConfig::siracusa_system());
  for (auto _ : state) {
    auto rep = sim.run(plan, model::Mode::autoregressive);
    benchmark::DoNotOptimize(&rep);
  }
}
BENCHMARK(BM_TimedBlockSimulation)->Arg(1)->Arg(8)->Arg(64);

// Decode of M requests, one token each, through fp16 TinyLlama-42M
// blocks on 4 chips as one stacked forward per block: M = 1 is the
// per-request pass a serving step used to run M times. Four blocks, as
// in the streamed serving deployments, so one pass reads ~48 MB of fp32
// weight shards — more than the host keeps cached between passes, the
// regime where stacking pays. items/s counts decoded rows. The chips of
// each phase run as concurrent host tasks, so the time is wall time.
static void BM_BlockForwardStacked(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  constexpr int kChips = 4;
  constexpr int kContext = 16;  // cached positions each request attends to
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 4;
  cfg.vocab_size = 16;
  cfg.ar_context = kContext + 1;
  const model::Weights weights(cfg, 7);
  const auto plan = partition::PartitionPlan::create(cfg, kChips);
  const partition::ShardedWeights shards(weights, plan);
  const auto topo = noc::Topology::hierarchical(kChips, 4);
  const partition::DistributedBlock block(cfg, weights, shards, plan, topo);

  // Each request's caches hold kContext positions; every iteration
  // restores them (a copy of kContext rows per cache) so the decode row
  // appends at the same position each time.
  auto primed = block.make_chip_caches(cfg.ar_context);
  util::Rng rng(11);
  model::Tensor prefix(kContext, cfg.embed_dim);
  prefix.random_init(rng, 1.0f);
  for (int l = 0; l < cfg.num_layers; ++l) prefix = block.forward(prefix, l, &primed, 0);
  std::vector<std::vector<std::vector<model::KvCache>>> caches(
      static_cast<std::size_t>(m), primed);
  std::vector<partition::RowSegment> segments;
  for (auto& c : caches) segments.push_back({1, &c, kContext});
  model::Tensor x(m, cfg.embed_dim);
  x.random_init(rng, 1.0f);

  for (auto _ : state) {
    for (auto& c : caches) {
      for (std::size_t chip = 0; chip < c.size(); ++chip) {
        for (std::size_t l = 0; l < c[chip].size(); ++l) {
          c[chip][l].copy_state_from(primed[chip][l]);
        }
      }
    }
    model::Tensor h = x;
    for (int l = 0; l < cfg.num_layers; ++l) h = block.forward(h, l, segments);
    benchmark::DoNotOptimize(h.span().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_BlockForwardStacked)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Tied LM head of M hidden rows at the serving benchmarks' shape
// (V = E = 512): Embedding::logits, one kernels::gemm over the [E, V]
// table. M = 1 is a single request's greedy pick; M = 8 is one
// step's stacked decode rows.
static void BM_LmHead(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.vocab_size = 512;
  const model::Embedding emb(cfg, 3);
  util::Rng rng(13);
  model::Tensor x(m, cfg.embed_dim);
  x.random_init(rng, 1.0f);
  for (auto _ : state) {
    const model::Tensor lg = emb.logits(x);
    benchmark::DoNotOptimize(lg.span().data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_LmHead)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond)->UseRealTime();

// One fork-join of N empty chip tasks on the host worker pool: the fixed
// cost partition::kConcurrentChipMacs must amortize before a block phase
// is worth running its chips concurrently.
static void BM_ChipDispatch(benchmark::State& state) {
  const int chips = static_cast<int>(state.range(0));
  for (auto _ : state) {
    util::parallel_for(chips, [](int c) { benchmark::DoNotOptimize(c); });
  }
}
BENCHMARK(BM_ChipDispatch)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond)->UseRealTime();

BENCHMARK_MAIN();
