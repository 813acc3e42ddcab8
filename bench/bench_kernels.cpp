// Ablation A6: google-benchmark microbenchmarks of the functional
// kernels (host execution speed) and of the simulator itself (cost of
// one timed block simulation) — keeps the library honest about its own
// overheads and provides a regression baseline for the numeric kernels.
#include <benchmark/benchmark.h>

#include <vector>

#include "kernels/attention.hpp"
#include "kernels/gemm.hpp"
#include "kernels/ops.hpp"
#include "model/config.hpp"
#include "model/weights.hpp"
#include "noc/topology.hpp"
#include "partition/distributed_block.hpp"
#include "partition/plan.hpp"
#include "partition/sharder.hpp"
#include "quant/int_kernels.hpp"
#include "runtime/timed_simulation.hpp"
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

static void BM_AttentionHead(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0)), p = 64;
  const auto q = random_vec(static_cast<std::size_t>(s * p), 4);
  const auto k = random_vec(static_cast<std::size_t>(s * p), 5);
  const auto v = random_vec(static_cast<std::size_t>(s * p), 6);
  std::vector<float> out(static_cast<std::size_t>(s * p));
  for (auto _ : state) {
    kernels::attention_head(q, k, v, out, s, s, p, true, 0);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_AttentionHead)->Arg(16)->Arg(128);

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
// regime where stacking pays. items/s counts decoded rows.
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
BENCHMARK(BM_BlockForwardStacked)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
