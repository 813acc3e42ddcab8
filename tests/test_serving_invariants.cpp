// Randomized serving-invariant suite: seeded workloads with varying
// arrival patterns, prompt/new-token lengths, chunk sizes, and KV
// capacities, asserting the conservation invariants of the batched
// serving cost model —
//   * per-request compute + stall shares sum exactly to the aggregate
//     cycles (and energy sums match),
//   * the shared decode stream splits exactly into stall + hidden,
//   * the chunk-stream windows split exactly into tails + hidden,
//   * admission stamps are monotone in admission order and no request is
//     charged for steps past its final token,
// plus the deterministic cross-check that a single request through
// BatchedEngine with chunking disabled is cycle-for-cycle identical to
// InferenceSession::generate / SteadyStateSimulation on the same
// deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "invariant_env.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/steady_state.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace distmcu;
using runtime::BatchedEngine;
using runtime::InferenceSession;
using runtime::kNoDeadline;
using runtime::RequestId;
using runtime::RequestResult;
using runtime::SchedulePolicy;
using runtime::ServingStats;
using runtime::SloSpec;

namespace {

using distmcu::testing::invariant_seed_count;
using distmcu::testing::SeedReproLog;

/// One shared deployment the randomized scenarios draw from, with its
/// per-step serial decode stream precomputed for the conservation
/// checks. Sessions are expensive (weights + plan + sharding), so each
/// variant is built once for the whole suite.
struct Deployment {
  std::unique_ptr<InferenceSession> session;
  Cycles ar_stream = 0;  // serial decode weight stream, all layers
  bool cheap_numerics = false;  // token cross-checks affordable

  explicit Deployment(model::TransformerConfig cfg, int n_chips,
                      bool cheap = true)
      : session(std::make_unique<InferenceSession>(cfg, n_chips)),
        cheap_numerics(cheap) {
    const auto ar = session->run_block(model::Mode::autoregressive);
    ar_stream = ar.report.breakdown.dma_l3_l2 *
                static_cast<Cycles>(cfg.num_layers);
  }
};

model::TransformerConfig tiny_cfg(int ar_context, int prompt_len) {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.embed_dim = 32;
  cfg.ffn_dim = 64;
  cfg.num_heads = 4;
  cfg.head_dim = 8;
  cfg.num_layers = 2;
  cfg.vocab_size = 100;
  cfg.ar_context = ar_context;
  cfg.prompt_len = prompt_len;
  cfg.validate();
  return cfg;
}

/// Full-width blocks on 4 chips: the streamed regime, where decode
/// weights cross L3 every step and the overlap machinery is live.
model::TransformerConfig streamed_cfg() {
  model::TransformerConfig cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.num_layers = 2;
  cfg.vocab_size = 200;
  cfg.ar_context = 32;
  cfg.prompt_len = 6;
  cfg.validate();
  return cfg;
}

/// The suite's deployment pool, covering chip counts and KV capacities
/// (ar_context bounds both the caches and the admissible workloads).
const std::vector<Deployment>& deployments() {
  static const auto* pool = [] {
    auto* v = new std::vector<Deployment>();
    v->emplace_back(tiny_cfg(/*ar_context=*/24, /*prompt_len=*/6), 4);
    v->emplace_back(tiny_cfg(/*ar_context=*/12, /*prompt_len=*/4), 2);
    v->emplace_back(tiny_cfg(/*ar_context=*/48, /*prompt_len=*/8), 4);
    v->emplace_back(streamed_cfg(), 4, /*cheap=*/false);
    return v;
  }();
  return *pool;
}

struct Scenario {
  int deployment = 0;
  BatchedEngine::Options opts;
  struct Job {
    runtime::ModelId model = 0;  // tenant; multi-tenant legs only
    std::vector<int> prompt;
    int new_tokens = 0;
    int submit_after_step = 0;  // arrival pattern: 0 = before serving
    bool attempted = false;     // submitted exactly once at its arrival
    SloSpec slo;                // zero by default (best-effort, class 0)
    std::optional<RequestId> id;
  };
  std::vector<Job> jobs;
};

Scenario make_scenario(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Scenario sc;
  sc.deployment = static_cast<int>(rng.next_below(deployments().size()));
  const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
  const auto& cfg = dep.session->config();

  sc.opts.max_batch = 1 + static_cast<int>(rng.next_below(4));
  sc.opts.max_pending = static_cast<int>(rng.next_below(10));
  // Chunk sizes sweep disabled (0), tiny, mid, and whole-prompt.
  const int chunk_choices[] = {0, 1, 2, 3, cfg.prompt_len, cfg.prompt_len + 7};
  sc.opts.prefill_chunk_tokens =
      chunk_choices[rng.next_below(std::size(chunk_choices))];

  const int n_jobs =
      (dep.cheap_numerics ? 3 : 2) + static_cast<int>(rng.next_below(5));
  for (int j = 0; j < n_jobs; ++j) {
    Scenario::Job job;
    const int plen = 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(cfg.prompt_len)));
    for (int t = 0; t < plen; ++t) {
      job.prompt.push_back(static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(cfg.vocab_size))));
    }
    const int room = cfg.ar_context - plen;
    job.new_tokens = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(std::min(room, 6)) + 1));
    job.submit_after_step = static_cast<int>(rng.next_below(6));
    sc.jobs.push_back(std::move(job));
  }
  return sc;
}

/// Decorate a scenario's jobs with randomized SLOs: priority classes
/// 0..3 and, for two thirds of the jobs, deadlines spanning "hopeless"
/// through "trivially met" — the conservation invariants must hold
/// whatever the mix, under every admission policy.
void decorate_slo(Scenario& sc, std::uint64_t seed) {
  util::Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
  for (auto& job : sc.jobs) {
    job.slo.priority = static_cast<int>(rng.next_below(4));
    if (rng.next_below(3) != 0) {
      job.slo.deadline_cycles = (1 + rng.next_below(64)) * 1'000'000;
    }
  }
}

/// Best-effort first, tight later: the first jobs fill the batch before
/// serving starts as best-effort requests that decode as long as their
/// context allows, and every later job arrives from step 2 on with a
/// deadline between 1.125x and 1.5x its own idle-engine cost estimate. Such
/// a job is feasible when it arrives but not after waiting for a running
/// request to finish: the shape under which deadline-aware preemption
/// evicts. Prompts and the later jobs' lengths are make_scenario's.
void decorate_best_effort_first(Scenario& sc, std::uint64_t seed) {
  util::Rng rng(seed * 0x5851f42d4c957f2dull + 5);
  const int n = static_cast<int>(sc.jobs.size());
  sc.opts.max_batch = std::max(1, std::min(sc.opts.max_batch, n - 1));
  sc.opts.max_pending = std::max(sc.opts.max_pending, n);
  const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
  const int ctx = dep.session->config().ar_context;
  const BatchedEngine estimator(*dep.session, sc.opts);
  for (int j = 0; j < n; ++j) {
    auto& job = sc.jobs[static_cast<std::size_t>(j)];
    const int plen = static_cast<int>(job.prompt.size());
    if (j < sc.opts.max_batch) {
      job.submit_after_step = 0;
      job.new_tokens = std::min(ctx - plen, 6);
      job.slo = {};
      continue;
    }
    job.submit_after_step = std::max(job.submit_after_step, 2);
    const Cycles est = estimator.estimate_cost(job.model, plen, job.new_tokens);
    job.slo.priority = static_cast<int>(rng.next_below(4));
    job.slo.deadline_cycles = est + est * (1 + rng.next_below(4)) / 8;
  }
}

/// Run one scenario (mid-serving arrivals included) and return the
/// completed results; rejected submits simply drop their job id.
std::vector<RequestResult> run_scenario(Scenario& sc, BatchedEngine& engine) {
  int step_idx = 0;
  bool work = true;
  for (;;) {
    bool submitted_any = false;
    for (auto& job : sc.jobs) {
      if (job.attempted || job.submit_after_step > step_idx) continue;
      job.id = engine.submit(job.model, job.prompt, job.new_tokens, job.slo);
      job.attempted = true;
      submitted_any = true;
    }
    const bool pending_arrivals =
        std::any_of(sc.jobs.begin(), sc.jobs.end(),
                    [](const auto& j) { return !j.attempted; });
    work = engine.step();
    ++step_idx;
    if (!work && !pending_arrivals && !submitted_any) break;
    if (step_idx > 500) {
      ADD_FAILURE() << "scenario did not drain";
      break;
    }
  }
  return engine.finished();
}

const RequestResult& result_for(const std::vector<RequestResult>& results,
                                RequestId id) {
  for (const auto& r : results) {
    if (r.id == id) return r;
  }
  throw Error("result_for: no such request id");
}

void check_invariants(const Scenario& sc, const BatchedEngine& engine,
                      const std::vector<RequestResult>& results,
                      std::uint64_t seed, bool fifo_admission = true) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
  const ServingStats& stats = engine.stats();

  // Everything accepted completed; nothing is still resident.
  int accepted = 0;
  for (const auto& job : sc.jobs) accepted += job.id.has_value() ? 1 : 0;
  EXPECT_EQ(static_cast<int>(results.size()), accepted);
  EXPECT_EQ(stats.completed, accepted);
  EXPECT_EQ(stats.rejected, static_cast<int>(sc.jobs.size()) - accepted);
  EXPECT_EQ(engine.active_requests(), 0);
  EXPECT_EQ(engine.pending_requests(), 0);
  EXPECT_LE(stats.peak_batch, sc.opts.max_batch);

  // Conservation: per-request compute + stall shares sum EXACTLY to the
  // aggregate cycles; energy sums match; token counts match.
  Cycles cycle_sum = 0;
  double energy_sum = 0.0;
  int generated_sum = 0;
  for (const auto& r : results) {
    cycle_sum += r.gen.total_cycles;
    energy_sum += r.gen.total_energy_mj;
    generated_sum += r.gen.generated;
  }
  EXPECT_EQ(cycle_sum, stats.total_cycles);
  EXPECT_NEAR(energy_sum, stats.total_energy_mj,
              1e-9 * std::max(1.0, energy_sum));
  EXPECT_EQ(generated_sum, stats.total_generated);

  // Decode-stream conservation: stall + hidden == one serial stream per
  // decode step.
  EXPECT_EQ(stats.prefetch_stall_cycles + stats.stream_cycles_hidden,
            static_cast<Cycles>(stats.decode_steps) * dep.ar_stream);
  // Chunk-stream conservation (chunked mode; all three stay zero in the
  // serial mode).
  EXPECT_EQ(stats.prefill_stall_cycles + stats.prefill_cycles_hidden,
            stats.prefill_stream_cycles);
  if (engine.chunk_tokens() == 0) {
    EXPECT_EQ(stats.prefill_stream_cycles, 0u);
  }

  // Admission stamps are monotone in admission order. Under FIFO ids are
  // issued in submit order and admitted in that order; other policies
  // reorder admission, so the FIFO-only check is skipped for them.
  if (fifo_admission) {
    std::vector<const RequestResult*> by_id;
    by_id.reserve(results.size());
    for (const auto& r : results) by_id.push_back(&r);
    std::sort(by_id.begin(), by_id.end(),
              [](const auto* a, const auto* b) { return a->id < b->id; });
    for (std::size_t i = 1; i < by_id.size(); ++i) {
      EXPECT_LE(by_id[i - 1]->admitted_step, by_id[i]->admitted_step);
      EXPECT_LE(by_id[i - 1]->admitted_at, by_id[i]->admitted_at);
    }
  }

  // Per-request sanity: residence covers the attributed charge (no
  // request is charged for steps outside its own span), spans sit inside
  // the engine timeline, and a request never outlives the drain.
  for (const auto& r : results) {
    EXPECT_GE(r.finished_at, r.admitted_at);
    EXPECT_GE(r.latency_cycles(), r.gen.total_cycles);
    EXPECT_LE(r.finished_at, stats.total_cycles);
    EXPECT_GE(r.finished_step, r.admitted_step);
    EXPECT_GT(r.gen.total_cycles, 0u);  // prefill is always charged
  }

  // SLO bookkeeping reconciles with the per-request results under every
  // policy: queue delays are the submit-to-admission spans, the deadline
  // counters match the individual verdicts, and the percentile snapshot
  // brackets the observed delays.
  int slo_requests = 0;
  int deadline_misses = 0;
  Cycles qd_total = 0;
  Cycles qd_max = 0;
  for (const auto& r : results) {
    EXPECT_GE(r.admitted_at, r.submitted_at);
    EXPECT_EQ(r.queue_delay_cycles(), r.admitted_at - r.submitted_at);
    EXPECT_GE(r.attained_cycles(), r.latency_cycles());
    qd_total += r.queue_delay_cycles();
    qd_max = std::max(qd_max, r.queue_delay_cycles());
    if (r.deadline_at != kNoDeadline) {
      // Saturating resolve: a near-max relative deadline pins to the end
      // of the timeline instead of wrapping into the past.
      EXPECT_EQ(r.deadline_at,
                util::sat_add(r.submitted_at, r.slo.deadline_cycles));
      ++slo_requests;
      if (r.missed_deadline()) ++deadline_misses;
    } else {
      EXPECT_FALSE(r.missed_deadline());
    }
  }
  EXPECT_EQ(stats.slo_requests, slo_requests);
  EXPECT_EQ(stats.deadline_misses, deadline_misses);
  EXPECT_EQ(stats.queue_delay_total, qd_total);
  EXPECT_LE(stats.queue_delay_p50, stats.queue_delay_p95);
  EXPECT_LE(stats.queue_delay_p95, stats.queue_delay_p99);
  EXPECT_LE(stats.queue_delay_p99, qd_max);
}

}  // namespace

TEST(ServingInvariants, RandomizedScenariosHoldConservation) {
  // >= 100 seeded scenarios across deployments, chunk sizes, batch
  // shapes, and arrival patterns (default 120; the nightly job raises
  // it via DISTMCU_INVARIANT_SEEDS).
  const std::uint64_t kSeeds = invariant_seed_count(120);
  SeedReproLog repro("./test_serving_invariants",
                     "ServingInvariants.RandomizedScenariosHoldConservation");
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    Scenario sc = make_scenario(seed);
    const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
    BatchedEngine engine(*dep.session, sc.opts);
    const auto results = run_scenario(sc, engine);
    check_invariants(sc, engine, results, seed);
    repro.end(seed);
  }
}

TEST(ServingInvariants, RandomizedTokenStreamsMatchDedicatedGenerate) {
  // Functional spot-check on the cheap deployments: every accepted
  // request's stream equals a dedicated generate call, whatever the
  // chunking and arrival pattern. The engine stacks a step's rows into
  // one forward per tenant, so the sweep must also prove it stacked:
  // some step decoded several rows, some step ran several chunks, and
  // some request decoded in the step of its last chunk (from the token
  // that chunk's output picked).
  bool stacked_decode = false;
  bool stacked_chunks = false;
  bool chunk_then_decode = false;
  for (std::uint64_t seed = 1000; seed < 1024; ++seed) {
    Scenario sc = make_scenario(seed);
    const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
    if (!dep.cheap_numerics) continue;
    BatchedEngine engine(*dep.session, sc.opts);
    const auto results = run_scenario(sc, engine);
    for (const auto& job : sc.jobs) {
      if (!job.id.has_value()) continue;
      const auto solo = dep.session->generate(job.prompt, job.new_tokens);
      EXPECT_EQ(result_for(results, *job.id).gen.tokens, solo.tokens)
          << "seed " << seed;
    }

    // A request generating N >= 1 tokens runs N - 1 decode rows (its
    // final token leaves without another forward); more rows than decode
    // steps means some step stacked several.
    const ServingStats& stats = engine.stats();
    int decode_rows = stats.total_generated;
    for (const auto& r : results) decode_rows -= r.gen.generated > 0 ? 1 : 0;
    stacked_decode = stacked_decode || stats.decode_steps < decode_rows;

    const int chunk = engine.chunk_tokens();
    if (chunk == 0) continue;
    int chunks = 0;
    for (const auto& job : sc.jobs) {
      if (!job.id.has_value()) continue;
      const int c = (static_cast<int>(job.prompt.size()) + chunk - 1) / chunk;
      chunks += c;
      // One chunk per step from admission, then one token per step; the
      // first token commits (and the second decodes) in the step of the
      // last chunk.
      const auto& r = result_for(results, *job.id);
      chunk_then_decode =
          chunk_then_decode || (job.new_tokens >= 2 &&
                                r.finished_step - r.admitted_step == c + job.new_tokens - 2);
    }
    stacked_chunks = stacked_chunks || stats.prefill_steps < chunks;
  }
  EXPECT_TRUE(stacked_decode) << "no step decoded two rows of one tenant";
  EXPECT_TRUE(stacked_chunks) << "no step ran two chunk segments";
  EXPECT_TRUE(chunk_then_decode) << "no request decoded in its last chunk's step";
}

TEST(ServingInvariants, ScenariosAreDeterministic) {
  // The whole pipeline — admission, chunk scheduling, attribution — is
  // replay-stable: the same seed produces identical stats and stamps.
  for (const std::uint64_t seed : {3u, 57u, 91u}) {
    Scenario a = make_scenario(seed);
    Scenario b = make_scenario(seed);
    const auto& dep = deployments()[static_cast<std::size_t>(a.deployment)];
    BatchedEngine ea(*dep.session, a.opts);
    BatchedEngine eb(*dep.session, b.opts);
    const auto ra = run_scenario(a, ea);
    const auto rb = run_scenario(b, eb);
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_EQ(ea.stats().total_cycles, eb.stats().total_cycles);
    EXPECT_EQ(ea.stats().prefill_stream_cycles, eb.stats().prefill_stream_cycles);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_EQ(ra[i].gen.total_cycles, rb[i].gen.total_cycles);
      EXPECT_EQ(ra[i].admitted_at, rb[i].admitted_at);
      EXPECT_EQ(ra[i].finished_at, rb[i].finished_at);
      EXPECT_EQ(ra[i].gen.tokens, rb[i].gen.tokens);
    }
  }
}

// --- scheduling policies ---------------------------------------------------

TEST(ServingInvariants, RandomizedSloScenariosHoldConservationUnderEveryPolicy) {
  // The conservation and SLO-bookkeeping invariants are policy-blind:
  // schedulers only permute admission, never the cost model. Every
  // scenario runs under all three built-in policies with randomized
  // priorities and deadlines.
  const std::uint64_t kSeeds = invariant_seed_count(25);
  SeedReproLog repro(
      "./test_serving_invariants",
      "ServingInvariants.RandomizedSloScenariosHoldConservationUnderEveryPolicy");
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    for (const auto policy : {SchedulePolicy::fifo, SchedulePolicy::priority,
                              SchedulePolicy::edf}) {
      Scenario sc = make_scenario(seed);
      decorate_slo(sc, seed);
      sc.opts.scheduler = runtime::make_scheduler(policy);
      const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
      BatchedEngine engine(*dep.session, sc.opts);
      const auto results = run_scenario(sc, engine);
      SCOPED_TRACE(std::string("policy ") + runtime::policy_name(policy));
      check_invariants(sc, engine, results, seed,
                       /*fifo_admission=*/policy == SchedulePolicy::fifo);
    }
    repro.end(seed);
  }
}

TEST(ServingInvariants, FifoSchedulerBitExactWithDefaultEngine) {
  // The refactor's null hypothesis: an explicit FifoScheduler and the
  // default (no scheduler configured) produce identical serving — same
  // stats, same stamps, same streams — across randomized scenarios.
  for (std::uint64_t seed = 200; seed < 216; ++seed) {
    Scenario sa = make_scenario(seed);
    Scenario sb = make_scenario(seed);
    decorate_slo(sa, seed);
    decorate_slo(sb, seed);
    sb.opts.scheduler = std::make_shared<runtime::FifoScheduler>();
    const auto& dep = deployments()[static_cast<std::size_t>(sa.deployment)];
    BatchedEngine ea(*dep.session, sa.opts);
    BatchedEngine eb(*dep.session, sb.opts);
    const auto ra = run_scenario(sa, ea);
    const auto rb = run_scenario(sb, eb);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_EQ(ea.stats().total_cycles, eb.stats().total_cycles);
    EXPECT_EQ(ea.stats().deadline_misses, eb.stats().deadline_misses);
    EXPECT_EQ(ea.stats().queue_delay_p99, eb.stats().queue_delay_p99);
    EXPECT_NEAR(ea.stats().total_energy_mj, eb.stats().total_energy_mj, 1e-12);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_EQ(ra[i].gen.tokens, rb[i].gen.tokens);
      EXPECT_EQ(ra[i].gen.total_cycles, rb[i].gen.total_cycles);
      EXPECT_EQ(ra[i].admitted_at, rb[i].admitted_at);
      EXPECT_EQ(ra[i].finished_at, rb[i].finished_at);
      EXPECT_EQ(ra[i].submitted_at, rb[i].submitted_at);
    }
  }
}

TEST(ServingInvariants, PriorityAgingPreventsStarvation) {
  // One low-priority request against a continuous stream of high-priority
  // arrivals through a single KV slot. With aggressive aging the starved
  // request outranks fresh arrivals after one admission round; with aging
  // disabled it is admitted dead last.
  const auto& dep = deployments()[0];
  constexpr int kHighPrioJobs = 8;

  const auto run = [&](Cycles aging_cycles) {
    BatchedEngine engine(
        *dep.session,
        {.max_batch = 1,
         .max_pending = 64,
         .scheduler = std::make_shared<runtime::PriorityScheduler>(
             runtime::PriorityScheduler::Options{.aging_cycles = aging_cycles})});
    // Submitted first, least urgent class.
    const auto low = *engine.submit({5, 3}, 2, {.priority = 5});
    std::vector<RequestId> high;
    (void)*engine.submit({1, 2}, 2, {.priority = 0});
    int arrivals = 1;
    bool work = true;
    while (work || arrivals < kHighPrioJobs) {
      if (arrivals < kHighPrioJobs) {
        high.push_back(*engine.submit({1 + arrivals, 2}, 2, {.priority = 0}));
        ++arrivals;
      }
      work = engine.step();
    }
    return std::pair{low, engine.finished()};
  };

  // Aggressive aging (every waited cycle promotes a class): the starved
  // request wins the second admission, so most high-priority jobs are
  // admitted after it.
  {
    const auto [low, results] = run(/*aging_cycles=*/1);
    const RequestResult& lr = result_for(results, low);
    int admitted_after_low = 0;
    for (const auto& r : results) {
      if (r.id != low && r.admitted_at > lr.admitted_at) ++admitted_after_low;
    }
    EXPECT_GE(admitted_after_low, kHighPrioJobs - 2);
  }
  // Aging disabled: static classes starve it to the very end.
  {
    const auto [low, results] = run(/*aging_cycles=*/0);
    const RequestResult& lr = result_for(results, low);
    for (const auto& r : results) {
      if (r.id != low) {
        EXPECT_LT(r.admitted_at, lr.admitted_at);
      }
    }
  }
}

TEST(ServingInvariants, EdfMeetsFeasibleDeadlinesAndNeverExceedsFifoMisses) {
  // Deadline-feasible workloads by construction: a probe run serves the
  // jobs sequentially (single slot, serial prefill) in a random
  // permutation and each job's deadline is set 10% above its probe
  // finish time, so that service order provably meets every deadline.
  // Jackson's rule: with equal release times and one non-preemptive
  // server, earliest-deadline-first is optimal for max lateness — EDF
  // must meet ALL deadlines, whatever (adversarial) order the jobs were
  // submitted in, while FIFO in submit order generally misses some.
  int fifo_misses_total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 77);
    const auto& dep = deployments()[seed % 2];
    const auto& cfg = dep.session->config();

    struct Job {
      std::vector<int> prompt;
      int new_tokens = 0;
      Cycles deadline = kNoDeadline;
    };
    const int n_jobs = 3 + static_cast<int>(rng.next_below(4));
    std::vector<Job> jobs;
    for (int j = 0; j < n_jobs; ++j) {
      Job job;
      const int plen = 1 + static_cast<int>(rng.next_below(
                               static_cast<std::uint64_t>(cfg.prompt_len)));
      for (int t = 0; t < plen; ++t) {
        job.prompt.push_back(static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(cfg.vocab_size))));
      }
      job.new_tokens = 1 + static_cast<int>(rng.next_below(5));
      jobs.push_back(std::move(job));
    }
    // Random service permutation for the probe.
    std::vector<std::size_t> perm(jobs.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }

    const BatchedEngine::Options opts{.max_batch = 1, .max_pending = 64};
    {
      BatchedEngine probe(*dep.session, opts);
      std::vector<RequestId> ids;
      for (const std::size_t j : perm) {
        ids.push_back(*probe.submit(jobs[j].prompt, jobs[j].new_tokens));
      }
      const auto finished = probe.run_to_completion();
      for (std::size_t k = 0; k < perm.size(); ++k) {
        const Cycles finish = result_for(finished, ids[k]).finished_at;
        jobs[perm[k]].deadline = finish + finish / 10;
      }
    }

    const auto run_policy = [&](SchedulePolicy policy) {
      auto o = opts;
      o.scheduler = runtime::make_scheduler(policy);
      BatchedEngine engine(*dep.session, o);
      for (const auto& job : jobs) {
        (void)*engine.submit(job.prompt, job.new_tokens,
                             {.priority = 0, .deadline_cycles = job.deadline});
      }
      (void)engine.run_to_completion();
      return engine.stats().deadline_misses;
    };
    const int fifo_misses = run_policy(SchedulePolicy::fifo);
    const int edf_misses = run_policy(SchedulePolicy::edf);
    EXPECT_EQ(edf_misses, 0);
    EXPECT_LE(edf_misses, fifo_misses);
    fifo_misses_total += fifo_misses;
  }
  // The adversarial submit orders must have cost FIFO something, or the
  // comparison is vacuous.
  EXPECT_GT(fifo_misses_total, 0);
}

// --- overload safety -------------------------------------------------------

TEST(ServingInvariants, OverloadScenariosConserveEveryRequest) {
  // Under sustained overload with bounded queues, fail-fast rejection,
  // and fair shedding, every offered request is accounted for exactly
  // once: offered == accepted + rejected, accepted == completed + shed,
  // and the rejection reasons partition the rejects. The cycle/energy
  // books must balance over the completions alone (shed requests were
  // never admitted, so they carry no charge). Fair shedding only ever
  // drops another tenant's request, so every scenario also runs as a
  // two-tenant leg: the same session deployed twice, every third job on
  // the second tenant.
  const std::uint64_t kSeeds = invariant_seed_count(40);
  SeedReproLog repro("./test_serving_invariants",
                     "ServingInvariants.OverloadScenariosConserveEveryRequest");
  const int pending_bounds[] = {0, 1, 64};
  int shed_total = 0;
  int queue_full_total = 0;
  int hopeless_total = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    for (const int max_pending : pending_bounds) {
      for (const int tenants : {1, 2}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " max_pending " +
                     std::to_string(max_pending) + " tenants " +
                     std::to_string(tenants));
        Scenario sc = make_scenario(seed);
        decorate_slo(sc, seed);
        sc.opts.max_pending = max_pending;
        sc.opts.fair_shedding = true;
        sc.opts.fail_fast_deadlines = (seed % 2) == 0;
        const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
        runtime::ModelRegistry registry;
        std::unique_ptr<BatchedEngine> owned;
        if (tenants == 1) {
          owned = std::make_unique<BatchedEngine>(*dep.session, sc.opts);
        } else {
          for (const char* name : {"a", "b"}) {
            (void)registry.add(*dep.session, name, sc.opts.prefill_chunk_tokens);
          }
          for (std::size_t j = 0; j < sc.jobs.size(); ++j) {
            sc.jobs[j].model = j % 3 == 2 ? 1 : 0;
          }
          owned = std::make_unique<BatchedEngine>(
              registry,
              BatchedEngine::MultiOptions{
                  .total_kv_slots = std::max(2, sc.opts.max_batch),
                  .max_pending = max_pending,
                  .fail_fast_deadlines = sc.opts.fail_fast_deadlines,
                  .fair_shedding = true});
        }
        BatchedEngine& engine = *owned;
        const auto results = run_scenario(sc, engine);
        const ServingStats& stats = engine.stats();

        const int offered = static_cast<int>(sc.jobs.size());
        int accepted = 0;
        for (const auto& job : sc.jobs) accepted += job.id.has_value() ? 1 : 0;
        EXPECT_EQ(stats.rejected, offered - accepted);
        EXPECT_EQ(stats.rejected,
                  stats.rejected_queue_full + stats.rejected_hopeless_deadline);
        if (!sc.opts.fail_fast_deadlines) {
          EXPECT_EQ(stats.rejected_hopeless_deadline, 0);
        }
        EXPECT_EQ(stats.completed, accepted - stats.shed);
        EXPECT_EQ(static_cast<int>(results.size()), stats.completed);
        EXPECT_EQ(static_cast<int>(engine.shed_ids().size()), stats.shed);
        EXPECT_EQ(engine.active_requests(), 0);
        EXPECT_EQ(engine.pending_requests(), 0);
        shed_total += stats.shed;
        queue_full_total += stats.rejected_queue_full;
        hopeless_total += stats.rejected_hopeless_deadline;

        // Shed ids were accepted, and never finish.
        for (const RequestId shed : engine.shed_ids()) {
          EXPECT_TRUE(std::any_of(
              sc.jobs.begin(), sc.jobs.end(),
              [&](const auto& j) { return j.id && *j.id == shed; }));
          EXPECT_FALSE(std::any_of(
              results.begin(), results.end(),
              [&](const RequestResult& r) { return r.id == shed; }));
        }

        Cycles cycle_sum = 0;
        double energy_sum = 0.0;
        for (const auto& r : results) {
          cycle_sum += r.gen.total_cycles;
          energy_sum += r.gen.total_energy_mj;
        }
        EXPECT_EQ(cycle_sum, stats.total_cycles);
        EXPECT_NEAR(energy_sum, stats.total_energy_mj,
                    1e-9 * std::max(1.0, energy_sum));
      }
    }
    repro.end(seed);
  }
  // Every overload path must have fired somewhere in the sweep, or its
  // conservation checks above are vacuous.
  EXPECT_GT(shed_total, 0);
  EXPECT_GT(queue_full_total, 0);
  EXPECT_GT(hopeless_total, 0);
}

TEST(ServingInvariants, PreemptionKeepsEveryInvariantUnderEveryPolicy) {
  // Preemption-safety property: with deadline-aware eviction live,
  // every serving invariant — exact cycle/energy conservation, SLO
  // bookkeeping, drain completeness — still holds under all three
  // admission policies, and on the cheap deployments every completed
  // stream stays bit-identical to a dedicated generate() call however
  // many checkpoint round trips it took.
  const std::uint64_t kSeeds = invariant_seed_count(15);
  SeedReproLog repro(
      "./test_serving_invariants",
      "ServingInvariants.PreemptionKeepsEveryInvariantUnderEveryPolicy");
  std::map<SchedulePolicy, int> preemptions;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    for (const auto policy : {SchedulePolicy::fifo, SchedulePolicy::priority,
                              SchedulePolicy::edf}) {
      Scenario sc = make_scenario(seed);
      // Odd seeds keep the random SLO mix; even seeds take the shape
      // that makes preemption fire.
      if (seed % 2 == 0) {
        decorate_best_effort_first(sc, seed);
      } else {
        decorate_slo(sc, seed);
      }
      sc.opts.scheduler = runtime::make_scheduler(policy);
      sc.opts.preemption = std::make_shared<runtime::DeadlineAwarePreemption>();
      const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
      BatchedEngine engine(*dep.session, sc.opts);
      const auto results = run_scenario(sc, engine);
      SCOPED_TRACE(std::string("policy ") + runtime::policy_name(policy));
      check_invariants(sc, engine, results, seed, /*fifo_admission=*/false);
      EXPECT_EQ(engine.stats().preemptions, engine.stats().resumes);
      preemptions[policy] += engine.stats().preemptions;
      if (dep.cheap_numerics) {
        for (const auto& job : sc.jobs) {
          if (!job.id.has_value()) continue;
          EXPECT_EQ(result_for(results, *job.id).gen.tokens,
                    dep.session->generate(job.prompt, job.new_tokens).tokens)
              << "seed " << seed;
        }
      }
    }
    repro.end(seed);
  }
  // Every policy must have evicted somewhere in the sweep, or the
  // checkpoint/resume invariants above are vacuous for it.
  for (const auto& [policy, total] : preemptions) {
    EXPECT_GT(total, 0) << runtime::policy_name(policy);
  }
  EXPECT_EQ(preemptions.size(), 3u);
}

// --- deterministic cross-checks against the single-stream runtimes --------

TEST(ServingCrossCheck, SerialModeSingleRequestMatchesSessionAndSteadyState) {
  // Chunking disabled, one request, fully resident deployment: the
  // engine must reproduce InferenceSession::generate cycle-for-cycle,
  // and generate itself must compose from SteadyStateSimulation's
  // full-pass totals (prefill pass + (n-1) decode passes).
  const auto cfg = tiny_cfg(/*ar_context=*/24, /*prompt_len=*/6);
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_NE(ar.report.residency, partition::Residency::double_buffered);

  const std::vector<int> prompt{3, 1, 4, 1};
  const int steps = 5;
  BatchedEngine engine(session, {.max_batch = 1, .max_pending = 4});
  ASSERT_TRUE(engine.submit(prompt, steps).has_value());
  const auto results = engine.run_to_completion();
  const auto solo = session.generate(prompt, steps);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].gen.tokens, solo.tokens);
  EXPECT_EQ(results[0].gen.total_cycles, solo.total_cycles);
  EXPECT_EQ(results[0].latency_cycles(), solo.total_cycles);

  const runtime::SteadyStateSimulation steady(session.system());
  const auto ss_prompt = steady.run(session.plan(), model::Mode::prompt);
  const auto ss_ar = steady.run(session.plan(), model::Mode::autoregressive);
  ASSERT_NE(ss_prompt.residency, partition::Residency::double_buffered);
  const Cycles composed =
      ss_prompt.total_cycles +
      static_cast<Cycles>(steps - 1) * ss_ar.total_cycles;
  EXPECT_EQ(solo.total_cycles, composed);
  EXPECT_EQ(results[0].gen.total_cycles, composed);
}

TEST(ServingCrossCheck, SerialModeStreamedDeploymentReconstructsSerialModel) {
  // Streamed deployment: the engine's overlap hides stream time, but the
  // serial-charging model is exactly reconstructible as
  // total + stream_cycles_hidden — and equals both generate() and the
  // SteadyStateSimulation composition.
  const auto cfg = streamed_cfg();
  const InferenceSession session(cfg, 4);
  const auto ar = session.run_block(model::Mode::autoregressive);
  ASSERT_EQ(ar.report.residency, partition::Residency::streamed);

  const std::vector<int> prompt{2, 4, 6};
  const int steps = 6;
  BatchedEngine engine(session, {.max_batch = 1, .max_pending = 4});
  ASSERT_TRUE(engine.submit(prompt, steps).has_value());
  (void)engine.run_to_completion();
  const auto solo = session.generate(prompt, steps);
  EXPECT_EQ(engine.stats().total_cycles + engine.stats().stream_cycles_hidden,
            solo.total_cycles);

  const runtime::SteadyStateSimulation steady(session.system());
  const auto ss_prompt = steady.run(session.plan(), model::Mode::prompt);
  const auto ss_ar = steady.run(session.plan(), model::Mode::autoregressive);
  ASSERT_EQ(ss_prompt.residency, partition::Residency::streamed);
  EXPECT_EQ(solo.total_cycles,
            ss_prompt.total_cycles +
                static_cast<Cycles>(steps - 1) * ss_ar.total_cycles);
}

// --- paged KV serving ------------------------------------------------------

namespace {

/// Page sizes that divide every deployment's context evenly, so a
/// paged scenario occupies exactly the KV bytes its slot twin would
/// (cap pages * page bytes == cap slots * set bytes).
int pick_page_tokens(int ar_context, std::uint64_t pick) {
  const int choices[] = {2, 4, ar_context / 2, ar_context};
  return choices[pick % std::size(choices)];
}

/// Rewrite a slot scenario as its equal-KV-bytes paged twin: max_batch
/// switches from whole-request slots to the same bytes' worth of pages.
void make_paged(Scenario& sc, std::uint64_t seed, bool sharing) {
  const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
  const int ctx = dep.session->config().ar_context;
  const int pt = pick_page_tokens(ctx, seed);
  sc.opts.kv_page_tokens = pt;
  sc.opts.max_batch = sc.opts.max_batch * (ctx / pt);
  sc.opts.prefix_sharing = sharing;
}

/// Start every job's prompt with one common prefix, of a drawn length
/// that often ends mid-page (an adopter of such a prefix forks its
/// partial last page copy-on-write); a prompt too short to hold the
/// prefix and one token of its own is lengthened to do so.
void share_prompt_prefix(Scenario& sc, std::uint64_t seed) {
  const auto& cfg = deployments()[static_cast<std::size_t>(sc.deployment)]
                        .session->config();
  util::Rng rng(seed * 0xbf58476d1ce4e5b9ull + 7);
  const auto token = [&] {
    return static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(cfg.vocab_size)));
  };
  std::vector<int> prefix(
      1 + rng.next_below(static_cast<std::uint64_t>(cfg.prompt_len - 1)));
  for (int& t : prefix) t = token();
  for (auto& job : sc.jobs) {
    while (job.prompt.size() <= prefix.size()) job.prompt.push_back(token());
    std::copy(prefix.begin(), prefix.end(), job.prompt.begin());
  }
}

/// Shape a scenario so deadline-aware preemption has to fire: `slots`
/// full-context best-effort requests (one per whole-context share of
/// the KV budget) arrive first, then three short requests arrive one per
/// step once those are decoding, each with a deadline its own service
/// demand meets only when admitted promptly (one to three decode
/// forwards of slack) — waiting for a long request's natural release
/// would blow it. The queue is unbounded so the short requests reach
/// the engine whatever the budget's occupancy.
void add_preemption_pressure(Scenario& sc, const BatchedEngine& engine,
                             int slots, std::uint64_t seed) {
  util::Rng rng(seed * 0x94d049bb133111ebull + 5);
  const auto& cfg = engine.model_config(0);
  const Cycles per_decode =
      engine.estimate_cost(0, 1, 2) - engine.estimate_cost(0, 1, 1);
  for (int i = 0; i < slots; ++i) {
    Scenario::Job job;
    for (int t = 0; t < cfg.prompt_len; ++t) {
      job.prompt.push_back(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.vocab_size))));
    }
    job.new_tokens = cfg.ar_context - cfg.prompt_len;
    sc.jobs.push_back(std::move(job));
  }
  for (int j = 0; j < 3; ++j) {
    Scenario::Job job;
    const int plen = 1 + static_cast<int>(rng.next_below(2));
    for (int t = 0; t < plen; ++t) {
      job.prompt.push_back(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(cfg.vocab_size))));
    }
    job.new_tokens = 2;
    // Every long request is past its prefill by then, whatever the
    // chunk size.
    job.submit_after_step = cfg.prompt_len + 1 + j;
    job.slo.deadline_cycles = engine.estimate_cost(0, plen, 2) +
                              static_cast<Cycles>(1 + j) * per_decode;
    sc.jobs.push_back(std::move(job));
  }
}

}  // namespace

TEST(ServingInvariants, PagedRandomizedScenariosConservePages) {
  // The paged twin of the core conservation sweep: every serving
  // invariant holds page-granular, the arena's reference accounting
  // stays consistent at every step boundary (refs >= physical pages in
  // use >= the registry's pins), and a drained engine holds exactly the
  // registry's pinned pages — zero page leakage from served requests.
  // Sharing scenarios draw every page size and give their prompts a
  // common prefix, so adoption — whole-page and copy-on-write — runs.
  const std::uint64_t kSeeds = invariant_seed_count(60);
  SeedReproLog repro("./test_serving_invariants",
                     "ServingInvariants.PagedRandomizedScenariosConservePages");
  int prefix_hits = 0;
  int cow_forks = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    const bool sharing = (seed % 2) == 1;
    Scenario sc = make_scenario(seed);
    make_paged(sc, seed / 2, sharing);
    if (sharing) share_prompt_prefix(sc, seed);
    const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
    BatchedEngine engine(*dep.session, sc.opts);
    const auto& pages = engine.kv_pages();

    // Stepped run with per-boundary arena checks (run_scenario's loop,
    // instrumented).
    int step_idx = 0;
    bool work = true;
    for (;;) {
      bool submitted_any = false;
      for (auto& job : sc.jobs) {
        if (job.attempted || job.submit_after_step > step_idx) continue;
        job.id = engine.submit(job.prompt, job.new_tokens, job.slo);
        job.attempted = true;
        submitted_any = true;
      }
      const bool pending_arrivals =
          std::any_of(sc.jobs.begin(), sc.jobs.end(),
                      [](const auto& j) { return !j.attempted; });
      work = engine.step();
      ++step_idx;
      ASSERT_LE(pages.in_use(), pages.capacity());
      ASSERT_GE(pages.total_refs(), static_cast<long long>(pages.in_use()));
      ASSERT_LE(engine.prefix_cache_pages(), pages.in_use());
      ASSERT_EQ(pages.shared_pages() == 0,
                pages.total_refs() == static_cast<long long>(pages.in_use()));
      if (!work && !pending_arrivals && !submitted_any) break;
      ASSERT_LT(step_idx, 500) << "scenario did not drain";
    }
    const auto results = engine.finished();
    // fifo_admission=false: page-granular admission is need-aware, so a
    // later short request can legitimately be admitted while an earlier
    // long one waits for enough free pages.
    check_invariants(sc, engine, results, seed, /*fifo_admission=*/false);

    // Drained: the registry's pins are the only surviving occupancy.
    EXPECT_EQ(pages.in_use(), engine.prefix_cache_pages());
    if (!sharing) {
      EXPECT_EQ(pages.in_use(), 0);
      EXPECT_EQ(pages.total_refs(), 0);
      EXPECT_EQ(engine.prefix_cache_entries(), 0);
    }
    prefix_hits += engine.stats().prefix_hits;
    cow_forks += engine.stats().cow_forks;
    repro.end(seed);
  }
  EXPECT_GT(prefix_hits, 0);
  EXPECT_GT(cow_forks, 0);
}

TEST(ServingInvariants, PagedStreamsIdenticalAcrossSharingAndSlotMode) {
  // Functional equivalence sweep: the same randomized workload served
  // by the slot engine, the paged engine, and the paged engine with
  // prefix sharing produces bit-identical token streams for every
  // accepted request (each checked against a dedicated generate call).
  for (std::uint64_t seed = 2000; seed < 2024; ++seed) {
    Scenario base = make_scenario(seed);
    const auto& dep = deployments()[static_cast<std::size_t>(base.deployment)];
    if (!dep.cheap_numerics) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const int variant : {0, 1, 2}) {
      Scenario sc = make_scenario(seed);
      if (variant > 0) make_paged(sc, seed, /*sharing=*/variant == 2);
      BatchedEngine engine(*dep.session, sc.opts);
      const auto results = run_scenario(sc, engine);
      for (const auto& job : sc.jobs) {
        if (!job.id.has_value()) continue;
        EXPECT_EQ(result_for(results, *job.id).gen.tokens,
                  dep.session->generate(job.prompt, job.new_tokens).tokens)
            << "variant " << variant;
      }
    }
  }
}

TEST(ServingInvariants, PagedPreemptionConservesPagesUnderEveryPolicy) {
  // Preemption + paging: checkpointed requests give back every page
  // (shared pages only when theirs was the last reference), resume
  // bit-exactly, and the books still balance — under all three
  // admission policies, prefix sharing on and off. Every scenario is
  // shaped to force evictions, and the sweep proves they happened both
  // with pages finer than a context and at one page per context.
  const std::uint64_t kSeeds = invariant_seed_count(15);
  SeedReproLog repro(
      "./test_serving_invariants",
      "ServingInvariants.PagedPreemptionConservesPagesUnderEveryPolicy");
  int fine_page_preemptions = 0;   // page_tokens < ar_context
  int whole_page_preemptions = 0;  // page_tokens == ar_context
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    repro.begin();
    for (const auto policy : {SchedulePolicy::fifo, SchedulePolicy::priority,
                              SchedulePolicy::edf}) {
      Scenario sc = make_scenario(seed);
      decorate_slo(sc, seed);
      const int slots = sc.opts.max_batch;
      make_paged(sc, seed, /*sharing=*/(seed % 2) == 0);
      sc.opts.max_pending = 64;
      sc.opts.scheduler = runtime::make_scheduler(policy);
      sc.opts.preemption = std::make_shared<runtime::DeadlineAwarePreemption>();
      const auto& dep = deployments()[static_cast<std::size_t>(sc.deployment)];
      BatchedEngine engine(*dep.session, sc.opts);
      add_preemption_pressure(sc, engine, slots, seed);
      const auto results = run_scenario(sc, engine);
      SCOPED_TRACE(std::string("policy ") + runtime::policy_name(policy));
      check_invariants(sc, engine, results, seed, /*fifo_admission=*/false);
      EXPECT_EQ(engine.stats().preemptions, engine.stats().resumes);
      EXPECT_EQ(engine.kv_pages().in_use(), engine.prefix_cache_pages());
      EXPECT_EQ(engine.kv_pages().total_reclaimed(),
                engine.stats().per_model[0].kv_slots_reclaimed);
      const bool whole_page =
          engine.page_tokens(0) == dep.session->config().ar_context;
      (whole_page ? whole_page_preemptions : fine_page_preemptions) +=
          engine.stats().preemptions;
      if (dep.cheap_numerics) {
        for (const auto& job : sc.jobs) {
          if (!job.id.has_value()) continue;
          EXPECT_EQ(result_for(results, *job.id).gen.tokens,
                    dep.session->generate(job.prompt, job.new_tokens).tokens)
              << "seed " << seed;
        }
      }
    }
    repro.end(seed);
  }
  // Non-vacuity: the sweep exercised eviction in both page regimes.
  EXPECT_GT(fine_page_preemptions, 0);
  EXPECT_GT(whole_page_preemptions, 0);
}
