// perfbench: the repository's benchmark driver. Runs one workload
// (decode_batch, slo_mixed or fleet_burst) generated from --seed, times
// the serving run and its set-up on the calibrated host clock
// (calibration.hpp), reports the simulated-clock results of the
// deterministic cost model, checks every token stream against
// InferenceSession::generate and the request conservation laws, and
// prints one JSON object as its last line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and prints the per-layer metrics, the per-span
// self times and the tracing overhead. See README.md for the design.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "fleet/router.hpp"
#include "kernels/gemm.hpp"
#include "partition/plan.hpp"
#include "quant/int_kernels.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"
#include "sim/tracer.hpp"
#include "calibration.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kMinSetupSamples = 15;
constexpr int kMaxSetupSamples = 200;
constexpr double kSetupSeconds = 1.5;
constexpr char kPrefillStep = 'p';
constexpr char kDecodeStep = 'd';

struct Args {
  Workload workload = Workload::decode_batch;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload decode_batch|slo_mixed|fleet_burst --seed <n>"
               " --seconds <s> --trace 0|1 [--spans-out <path>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage(argv[0]);
      a.workload = *w;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload) usage(argv[0]);
  return a;
}

// ---- one stood-up system --------------------------------------------------

struct System {
  /// One counters-only tracer per node, attached at engine construction.
  std::vector<sim::Tracer> tracers;
  std::vector<std::unique_ptr<runtime::BatchedEngine>> engines;
  std::unique_ptr<fleet::Router> router;
  double session_s = 0.0;
  double engine_s = 0.0;
};

System build(const WorkloadSpec& spec, SpanRecorder& rec) {
  System s;
  s.tracers.reserve(spec.nodes.size());  // engines keep tracer pointers
  const Scope setup(rec, "setup");
  for (const NodeSpec& node : spec.nodes) {
    runtime::ModelRegistry reg;
    {
      const Scope span(rec, "setup.session");
      const auto t0 = Clock::now();
      for (const auto& d : node.deployments) (void)reg.add(d);
      s.session_s += seconds_between(t0, Clock::now());
    }
    s.tracers.push_back(sim::Tracer::counters_only());
    const Scope span(rec, "setup.engine");
    const auto t0 = Clock::now();
    s.engines.push_back(std::make_unique<runtime::BatchedEngine>(
        reg, node.options, &s.tracers.back()));
    s.engine_s += seconds_between(t0, Clock::now());
  }
  if (spec.routed) {
    const Scope span(rec, "setup.router");
    s.router = std::make_unique<fleet::Router>(
        fleet::make_routing_policy(fleet::RoutePolicy::prefix_affinity));
    for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
      (void)s.router->add_node(*s.engines[i], spec.nodes[i].link,
                               spec.nodes[i].name);
    }
  }
  return s;
}

// ---- one serving run ------------------------------------------------------

/// One completed request, on the global simulated clock.
struct Served {
  int index = 0;
  int node = 0;
  runtime::ModelId model = 0;
  std::vector<int> tokens;
  Cycles finished = 0;  ///< global clock (fleet: response landed)
  Cycles latency = 0;   ///< due arrival to finish
  Cycles queue_delay = 0;
  bool missed = false;
};

struct RunResult {
  Outcomes outcomes;
  std::vector<Served> served;
  std::vector<int> refused;  ///< generator indices rejected or shed
  /// Simulated lateness of each accepted-or-rejected submit behind its
  /// due time (the open-loop generator advances in engine steps).
  std::vector<double> late_cycles;
  Cycles makespan = 0;
  std::vector<runtime::ServingStats> node_stats;
  std::optional<fleet::FleetStats> fleet;
  std::array<Cycles, sim::kNumCategories> sim_cycles{};
  std::array<Bytes, sim::kNumCategories> sim_bytes{};
  std::vector<std::string> errors;  ///< conservation violations

  [[nodiscard]] int generated() const {
    int g = 0;
    for (const auto& s : node_stats) g += s.total_generated;
    return g;
  }
  [[nodiscard]] double energy_mj() const {
    double e = 0.0;
    for (const auto& s : node_stats) e += s.total_energy_mj;
    return e;
  }
};

void collect_sim(const System& sys, RunResult& out) {
  for (const auto& e : sys.engines) out.node_stats.push_back(e->stats());
  for (const sim::Tracer& t : sys.tracers) {
    for (std::size_t c = 0; c < sim::kNumCategories; ++c) {
      const auto cat = static_cast<sim::Category>(c);
      out.sim_cycles[c] += t.total(cat);
      out.sim_bytes[c] += t.total_bytes(cat);
    }
  }
}

void check(RunResult& out, bool ok, const std::string& what) {
  if (!ok) out.errors.push_back(what);
}

/// Open loop on the simulated clock into one engine. The engine clock
/// only moves while it has work, so an idle gap before the next due
/// arrival is absorbed into `offset` (global = offset + engine clock).
RunResult serve_engine(System& sys, const std::vector<Request>& reqs,
                       SpanRecorder& rec, HostClock& clock) {
  runtime::BatchedEngine& eng = *sys.engines[0];
  std::map<std::string, runtime::ModelId> ids;
  for (runtime::ModelId m = 0; m < eng.model_count(); ++m) ids[eng.model_name(m)] = m;

  RunResult out;
  Cycles offset = 0;
  std::vector<Cycles> offset_at(reqs.size(), 0);
  std::unordered_map<runtime::RequestId, int> index_of;
  std::vector<char> refused(reqs.size(), 0);
  const auto now = [&] { return offset + eng.stats().total_cycles; };
  const auto step = [&] {
    clock.tick(rec);
    const Scope span(rec, "runtime.step");
    const int prefill = eng.stats().prefill_steps;
    const int decode = eng.stats().decode_steps;
    const bool more = eng.step();
    rec.set_kind(span.index(), eng.stats().prefill_steps != prefill
                                   ? kPrefillStep
                                   : (eng.stats().decode_steps != decode
                                          ? kDecodeStep
                                          : 0));
    return more;
  };

  const Scope serve(rec, "bench.serve");
  for (const Request& r : reqs) {
    while (now() < r.due) {
      if (eng.active_requests() + eng.pending_requests() == 0) {
        offset = r.due - eng.stats().total_cycles;
        break;
      }
      (void)step();
    }
    const Cycles late = now() - r.due;
    out.late_cycles.push_back(static_cast<double>(late));
    // The deadline runs from the due time, so a late submit carries less.
    Cycles deadline = runtime::kNoDeadline;
    if (r.deadline != runtime::kNoDeadline) {
      deadline = r.deadline > late ? r.deadline - late : 1;
    }
    runtime::BatchedEngine::Request req{
        .model = ids.at(r.model),
        .prompt = r.prompt,
        .new_tokens = r.new_tokens,
        .slo = {.priority = r.priority, .deadline_cycles = deadline}};
    std::optional<runtime::RequestId> id;
    {
      const Scope span(rec, "runtime.submit", r.index);
      id = eng.submit(std::move(req));
    }
    const auto ui = static_cast<std::size_t>(r.index);
    if (id) {
      index_of[*id] = r.index;
      offset_at[ui] = offset;
    } else {
      refused[ui] = 1;
      ++out.outcomes.rejected;
    }
  }
  while (step()) {
  }

  for (const runtime::RequestId id : eng.shed_ids()) {
    refused[static_cast<std::size_t>(index_of.at(id))] = 1;
    ++out.outcomes.shed;
  }
  for (const runtime::RequestResult& r : eng.finished()) {
    const int index = index_of.at(r.id);
    const Request& q = reqs[static_cast<std::size_t>(index)];
    Served s;
    s.index = index;
    s.model = r.model;
    s.tokens = r.gen.tokens;
    s.finished = offset_at[static_cast<std::size_t>(index)] + r.finished_at;
    s.latency = s.finished - q.due;
    s.queue_delay = r.queue_delay_cycles();
    s.missed = r.missed_deadline();
    out.makespan = std::max(out.makespan, s.finished);
    out.served.push_back(std::move(s));
  }
  out.outcomes.offered = static_cast<int>(reqs.size());
  out.outcomes.completed = static_cast<int>(out.served.size());
  collect_sim(sys, out);

  const runtime::ServingStats& st = out.node_stats[0];
  check(out, st.rejected == out.outcomes.rejected,
        "engine rejected count differs from the refused submits");
  check(out, st.shed == out.outcomes.shed, "engine shed count differs");
  check(out, st.completed == out.outcomes.completed,
        "engine completed count differs from finished()");
  check(out, st.rejected == st.rejected_queue_full + st.rejected_hopeless_deadline,
        "rejected != queue_full + hopeless");
  check(out, eng.active_requests() + eng.pending_requests() == 0,
        "engine did not drain");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (refused[i] != 0) out.refused.push_back(static_cast<int>(i));
  }
  return out;
}

/// Open loop through fleet::Router: the router advances every node to
/// each arrival, so submits land exactly at their due time.
RunResult serve_fleet(System& sys, const std::vector<Request>& reqs,
                      SpanRecorder& rec, HostClock& clock) {
  fleet::Router& router = *sys.router;
  RunResult out;
  std::unordered_map<fleet::FleetRequestId, int> index_of;
  std::vector<char> placed(reqs.size(), 0);

  {
    const Scope serve(rec, "bench.serve");
    for (const Request& r : reqs) {
      std::optional<fleet::FleetRequestId> id;
      clock.tick(rec);
      {
        const Scope span(rec, "fleet.submit", r.index);
        id = router.submit(r.model, r.prompt, r.new_tokens,
                           {.priority = r.priority, .deadline_cycles = r.deadline},
                           r.due);
      }
      out.late_cycles.push_back(0.0);
      if (id) {
        index_of[*id] = r.index;
        placed[static_cast<std::size_t>(r.index)] = 1;
      } else {
        ++out.outcomes.rejected;
      }
    }
    const Scope drain(rec, "fleet.drain");
    (void)router.run_to_completion();
  }

  std::vector<char> done(reqs.size(), 0);
  for (const fleet::FleetResult& f : router.finished()) {
    const int index = index_of.at(f.id);
    done[static_cast<std::size_t>(index)] = 1;
    Served s;
    s.index = index;
    s.node = f.node;
    s.model = f.result.model;
    s.tokens = f.result.gen.tokens;
    s.finished = f.finished_at;
    s.latency = f.finished_at - f.submitted_at;
    s.queue_delay = f.result.queue_delay_cycles();
    s.missed = f.missed_deadline();
    out.makespan = std::max(out.makespan, s.finished);
    out.served.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (placed[i] != 0 && done[i] == 0) ++out.outcomes.shed;
    if (placed[i] == 0 || done[i] == 0) out.refused.push_back(static_cast<int>(i));
  }
  out.outcomes.offered = static_cast<int>(reqs.size());
  out.outcomes.completed = static_cast<int>(out.served.size());
  collect_sim(sys, out);

  const fleet::FleetStats fs = router.stats();
  check(out, fs.offered == out.outcomes.offered, "fleet offered differs");
  check(out, fs.offered == fs.placed + fs.rejected, "offered != placed + rejected");
  check(out, fs.rejected == fs.rejected_no_model + fs.rejected_all_nodes,
        "rejected != no_model + all_nodes");
  check(out, fs.routed == static_cast<std::uint64_t>(fs.placed) + fs.misrouted,
        "routed != placed + misrouted");
  check(out, fs.placed == fs.completed + fs.shed, "placed != completed + shed");
  check(out, fs.completed == out.outcomes.completed, "fleet completed differs");
  check(out, fs.shed == out.outcomes.shed, "fleet shed differs");
  check(out, fs.rejected == out.outcomes.rejected, "fleet rejected differs");
  std::uint64_t attempts = 0;
  for (const auto& n : fs.per_node) {
    attempts += n.attempts;
    check(out,
          n.attempts == static_cast<std::uint64_t>(n.placed) +
                            static_cast<std::uint64_t>(n.link_rejected) +
                            static_cast<std::uint64_t>(n.serving.rejected),
          "node " + n.name + ": attempts != placed + link_rejected + rejected");
    check(out, n.placed == n.completed + n.serving.shed,
          "node " + n.name + ": placed != completed + shed");
  }
  check(out, attempts == fs.routed, "sum of node attempts != routed");
  int slo = 0;
  int late = 0;
  for (const Served& s : out.served) {
    if (reqs[static_cast<std::size_t>(s.index)].deadline != runtime::kNoDeadline) {
      ++slo;
      if (s.missed) ++late;
    }
  }
  check(out, fs.slo_requests == slo && fs.deadline_misses == late,
        "fleet deadline accounting differs");
  out.fleet = fs;
  return out;
}

void account_deadlines(const std::vector<Request>& reqs, RunResult& r) {
  Outcomes& o = r.outcomes;
  for (const Request& q : reqs) {
    if (q.deadline != runtime::kNoDeadline) ++o.deadline_offered;
  }
  for (const Served& s : r.served) {
    if (s.missed) ++o.deadline_late;
  }
  for (const int i : r.refused) {
    if (reqs[static_cast<std::size_t>(i)].deadline != runtime::kNoDeadline) {
      ++o.deadline_refused;
    }
  }
  check(r, o.conserved(), "offered != accepted + rejected or accepted != completed + shed");
}

/// Everything simulated a run produced, for the repeat-equality check.
using Fingerprint =
    std::tuple<std::vector<std::tuple<int, Cycles, Cycles, std::vector<int>>>,
               std::vector<int>, Cycles, double, int>;

Fingerprint fingerprint(const RunResult& r) {
  Fingerprint f;
  auto& served = std::get<0>(f);
  for (const Served& s : r.served) {
    served.emplace_back(s.index, s.finished, s.queue_delay, s.tokens);
  }
  std::get<1>(f) = r.refused;
  std::get<2>(f) = r.makespan;
  std::get<3>(f) = r.energy_mj();
  std::get<4>(f) = r.generated();
  return f;
}

// ---- output check ---------------------------------------------------------

/// Reference streams from dedicated InferenceSessions, one per distinct
/// deployment, memoized by (deployment, prompt, new_tokens).
class References {
 public:
  const std::vector<int>& tokens(const runtime::DeploymentSpec& spec,
                                 const std::vector<int>& prompt, int new_tokens) {
    const std::string key = spec.deployment_name() + "/" +
                            std::to_string(spec.chips) + "/" +
                            runtime::precision_name(spec.precision) + "/" +
                            runtime::kv_layout_name(spec.kv_layout);
    auto& session = sessions_[key];
    if (!session) session = std::make_unique<runtime::InferenceSession>(spec);
    const auto memo_key = std::make_tuple(key, prompt, new_tokens);
    auto it = memo_.find(memo_key);
    if (it == memo_.end()) {
      it = memo_.emplace(memo_key, session->generate(prompt, new_tokens).tokens).first;
    }
    return it->second;
  }

 private:
  std::map<std::string, std::unique_ptr<runtime::InferenceSession>> sessions_;
  std::map<std::tuple<std::string, std::vector<int>, int>, std::vector<int>> memo_;
};

int check_streams(const WorkloadSpec& spec, const std::vector<Request>& reqs,
                  const RunResult& r) {
  References refs;
  int mismatches = 0;
  for (const Served& s : r.served) {
    const Request& q = reqs[static_cast<std::size_t>(s.index)];
    const auto& dep = spec.nodes[static_cast<std::size_t>(s.node)]
                          .deployments[static_cast<std::size_t>(s.model)];
    if (dep.deployment_name() != q.model ||
        s.tokens != refs.tokens(dep, q.prompt, q.new_tokens)) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---- kernel probes --------------------------------------------------------

struct GemmShape {
  int n = 0;
  int k = 0;
};

/// Per-chip projection and FFN GEMM shapes (C[M,n] = A[M,k] * B[k,n]) of
/// one block on `chip`; `int8_only` keeps the ones the int8 block runs
/// through quant::gemm_i8_i32 (WO, W1, W2).
std::vector<GemmShape> shard_shapes(const partition::PartitionPlan& plan, int chip,
                                    bool int8_only) {
  const auto& cfg = plan.config();
  const int e = cfg.embed_dim;
  const int pw = plan.proj_width(chip);
  const int fw = plan.slice(chip).f_width();
  std::vector<GemmShape> v;
  if (!int8_only) v.insert(v.end(), {{pw, e}, {pw, e}, {pw, e}});
  v.push_back({e, pw});
  v.push_back({fw, e});
  if (!int8_only && cfg.ffn == model::FfnKind::swiglu) v.push_back({fw, e});
  v.push_back({e, fw});
  return v;
}

/// Median host microseconds of one pass over `shapes` at M rows, repeated
/// for about 40 ms (at least 5 passes).
template <typename T, typename Acc, typename Fn>
double time_gemms(const std::vector<GemmShape>& shapes, int m, util::Rng& rng,
                  Fn gemm, double& sink) {
  struct Bufs {
    std::vector<T> a, b;
    std::vector<Acc> c;
  };
  std::vector<Bufs> bufs;
  for (const GemmShape& s : shapes) {
    Bufs b;
    b.a.resize(static_cast<std::size_t>(m) * s.k);
    b.b.resize(static_cast<std::size_t>(s.k) * s.n);
    b.c.resize(static_cast<std::size_t>(m) * s.n);
    for (T& x : b.a) x = static_cast<T>(rng.uniform(-4.0f, 4.0f));
    for (T& x : b.b) x = static_cast<T>(rng.uniform(-4.0f, 4.0f));
    bufs.push_back(std::move(b));
  }
  const auto pass = [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      gemm(bufs[i].a, bufs[i].b, bufs[i].c, m, shapes[i].n, shapes[i].k);
    }
  };
  pass();  // warm caches
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < 5 || seconds_between(start, Clock::now()) < 0.04) {
    const auto t0 = Clock::now();
    pass();
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  for (const Bufs& b : bufs) sink += static_cast<double>(b.c[0]);
  return median(us);
}

/// Keeps the probes' outputs observable so the timed calls stay live.
volatile double g_probe_sink = 0.0;

struct ProbeResult {
  double gemm_us_m1 = 0.0;
  double gemm_us_mchunk = 0.0;
  double gemm_i8_us_m1 = 0.0;
  double macs_per_token = 0.0;
  double bytes_per_token = 0.0;
  int chunk = 0;
};

ProbeResult probe_kernels(const WorkloadSpec& spec, std::uint64_t seed,
                          SpanRecorder& rec) {
  const runtime::DeploymentSpec& dec = spec.nodes[0].deployments[0];
  const runtime::DeploymentSpec* q8 = &dec;
  for (const auto& d : spec.nodes[0].deployments) {
    if (d.precision == runtime::Precision::int8) q8 = &d;
  }
  const auto plan = partition::PartitionPlan::create(dec.model, dec.chips);
  const auto plan8 = partition::PartitionPlan::create(q8->model, q8->chips);
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  double sink = 0.0;
  const auto fp32 = [](const std::vector<float>& a, const std::vector<float>& b,
                       std::vector<float>& c, int m, int n, int k) {
    kernels::gemm(a, b, c, m, n, k);
  };
  const auto i8 = [](const std::vector<std::int8_t>& a,
                     const std::vector<std::int8_t>& b,
                     std::vector<std::int32_t>& c, int m, int n, int k) {
    quant::gemm_i8_i32(a, b, c, m, n, k);
  };
  ProbeResult p;
  p.chunk = spec.probe_chunk;
  const auto shapes = shard_shapes(plan, 0, false);
  {
    const Scope span(rec, "kernels.probe");
    p.gemm_us_m1 = time_gemms<float, float>(shapes, 1, rng, fp32, sink);
    p.gemm_us_mchunk = time_gemms<float, float>(shapes, p.chunk, rng, fp32, sink);
  }
  {
    const Scope span(rec, "quant.probe");
    p.gemm_i8_us_m1 = time_gemms<std::int8_t, std::int32_t>(
        shard_shapes(plan8, 0, true), 1, rng, i8, sink);
  }
  for (int c = 0; c < plan.num_chips(); ++c) {
    for (const GemmShape& s : shard_shapes(plan, c, false)) {
      p.macs_per_token += static_cast<double>(s.n) * s.k;
      p.bytes_per_token += (static_cast<double>(s.k) + static_cast<double>(s.k) * s.n + s.n) *
                           sizeof(float);
    }
  }
  p.macs_per_token *= dec.model.num_layers;
  p.bytes_per_token *= dec.model.num_layers;
  g_probe_sink = sink;
  return p;
}

// ---- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string pct_label(const Summary& s) {
  if (s.n == 0) return "no samples";
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%g, n=%zu", s.tail_pct, s.n);
  return buf;
}

std::vector<Metric> end_to_end(const RunResult& r, double freq_hz,
                               const std::vector<double>& host_s,
                               const std::vector<double>& setup_s) {
  const double to_ms = 1e3 / freq_hz;
  std::vector<double> lat, queue;
  for (const Served& s : r.served) {
    lat.push_back(static_cast<double>(s.latency) * to_ms);
    queue.push_back(static_cast<double>(s.queue_delay) * to_ms);
  }
  const Summary ls = summarize(lat);
  const Summary qs = summarize(queue);
  const Summary hs = summarize(host_s);
  const Outcomes& o = r.outcomes;
  const double sim_s = static_cast<double>(r.makespan) / freq_hz;
  const int gen = r.generated();
  char slo[96];
  std::snprintf(slo, sizeof slo, "%d late + %d refused of %d deadline requests",
                o.deadline_late, o.deadline_refused, o.deadline_offered);
  char fail[96];
  std::snprintf(fail, sizeof fail, "%d rejected + %d shed of %d offered",
                o.rejected, o.shed, o.offered);
  return {
      {"sim_tok_s", sim_s > 0 ? gen / sim_s : 0.0, "tok/s",
       std::to_string(gen) + " tokens, simulated clock"},
      {"sim_mj_per_tok", gen > 0 ? r.energy_mj() / gen : 0.0, "mJ", "simulated"},
      {"sim_latency_p50_ms", ls.p50, "ms", "due arrival to finish, n=" + std::to_string(ls.n)},
      {"sim_latency_tail_ms", ls.tail, "ms", pct_label(ls)},
      {"sim_queue_delay_tail_ms", qs.tail, "ms", pct_label(qs)},
      {"deadline_met_frac", 1.0 - o.deadline_miss_rate(), "ratio",
       std::string("1 - deadline_miss_rate; ") + slo},
      {"served_frac", 1.0 - o.failed_frac(), "ratio", std::string("1 - failed_frac; ") + fail},
      {"host_s", hs.p50, "s",
       "median of " + std::to_string(hs.n) + " timed runs, tail " + std::to_string(hs.tail)},
      {"setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"host_peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss"},
  };
}

/// Named outputs that never enter the JSON: the failure shares whose
/// value is legitimately 0 on some workloads.
void print_refusal_lines(const RunResult& r) {
  const Outcomes& o = r.outcomes;
  std::printf("  %-28s %.6g ratio  (%d late + %d refused of %d deadline requests)\n",
              "deadline_miss_rate", o.deadline_miss_rate(), o.deadline_late,
              o.deadline_refused, o.deadline_offered);
  std::printf("  %-28s %.6g ratio  (%d rejected + %d shed of %d offered)\n",
              "failed_frac", o.failed_frac(), o.rejected, o.shed, o.offered);
}

/// Per-call host timings of one span name across the traced reps.
struct CallTimes {
  std::vector<double> all_s;
  std::vector<double> prefill_s;
  std::vector<double> decode_s;
  std::map<int, double> sum_by_rep;
  std::map<int, int> calls_by_rep;
};

std::map<std::string, CallTimes> call_times(const SpanRecorder& rec) {
  std::map<std::string, CallTimes> out;
  for (const HostSpan& s : rec.spans()) {
    CallTimes& c = out[s.name];
    c.all_s.push_back(s.seconds());
    if (s.kind == kPrefillStep) c.prefill_s.push_back(s.seconds());
    if (s.kind == kDecodeStep) c.decode_s.push_back(s.seconds());
    c.sum_by_rep[s.rep] += s.seconds();
    c.calls_by_rep[s.rep] += 1;
  }
  return out;
}

double median_of_map(const std::map<int, double>& m) {
  std::vector<double> v;
  for (const auto& [rep, x] : m) v.push_back(x);
  return median(v);
}

std::vector<Metric> per_layer(const std::vector<Request>& reqs,
                              const RunResult& r, const SpanRecorder& rec,
                              const ProbeResult& probe, double freq_hz,
                              const std::vector<double>& session_s,
                              const std::vector<double>& engine_s,
                              double overhead_s, int traced_reps) {
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, double v, const std::string& unit,
                       const std::string& note = {}) { m.push_back({name, v, unit, note}); };
  const auto calls = call_times(rec);
  const auto get = [&](const char* name) -> const CallTimes& {
    static const CallTimes kEmpty;
    const auto it = calls.find(name);
    return it == calls.end() ? kEmpty : it->second;
  };
  const auto per_rep_calls = [](const CallTimes& c) {
    return c.calls_by_rep.empty() ? 0.0 : static_cast<double>(c.calls_by_rep.begin()->second);
  };

  add("kernels.gemm.host_us_m1", probe.gemm_us_m1, "us", "one block of chip-0 shard GEMMs, M=1");
  add("kernels.gemm.host_us_mchunk", probe.gemm_us_mchunk, "us",
      "same shapes, M=" + std::to_string(probe.chunk));
  add("quant.gemm_i8.host_us_m1", probe.gemm_i8_us_m1, "us", "int8 WO/W1/W2 shard GEMMs, M=1");
  add("kernels.gemm.macs_per_token", probe.macs_per_token, "count", "computed from shapes");
  add("kernels.gemm.bytes_per_token", probe.bytes_per_token, "B",
      "fp32 operand bytes at M=1, computed from shapes");

  const CallTimes& step = get("runtime.step");
  const Summary ss = summarize(step.all_s);
  const double step_host = median_of_map(step.sum_by_rep);
  add("runtime.step.calls", per_rep_calls(step), "count", "per run");
  add("runtime.step.host_s", step_host, "s", "median over traced runs");
  add("runtime.step.host_ms_p50", ss.p50 * 1e3, "ms");
  add("runtime.step.host_ms_tail", ss.tail * 1e3, "ms", pct_label(ss));
  add("runtime.step.decode_host_ms_p50", median(step.decode_s) * 1e3, "ms",
      "steps that decoded and ran no prompt work");
  add("runtime.step.prefill_host_ms_p50", median(step.prefill_s) * 1e3, "ms",
      "steps that ran prompt work");
  const int gen = r.generated();
  add("runtime.step.host_us_per_token", gen > 0 && step_host > 0 ? step_host / gen * 1e6 : 0.0,
      "us");
  for (const char* name : {"runtime.submit", "fleet.submit"}) {
    const CallTimes& c = get(name);
    const Summary s = summarize(c.all_s);
    const std::string n = name;
    add(n + ".calls", per_rep_calls(c), "count", "per run");
    add(n + ".host_us_p50", s.p50 * 1e6, "us");
    add(n + ".host_us_tail", s.tail * 1e6, "us", pct_label(s));
  }
  add("fleet.drain.host_s", median_of_map(get("fleet.drain").sum_by_rep), "s");
  add("setup.session.host_s", median(session_s), "s", "median over set-ups");
  add("setup.engine.host_s", median(engine_s), "s", "median over set-ups");

  using sim::Category;
  const auto cyc = [&](Category c) {
    return static_cast<double>(r.sim_cycles[static_cast<std::size_t>(c)]);
  };
  add("sim.compute_cycles", cyc(Category::compute), "cycles", "Tracer::total");
  add("sim.dma_l3_l2_cycles", cyc(Category::dma_l3_l2), "cycles");
  add("sim.dma_l2_l1_cycles", cyc(Category::dma_l2_l1), "cycles");
  add("sim.c2c_cycles", cyc(Category::chip_to_chip), "cycles");
  add("sim.sched_cycles", cyc(Category::sched), "cycles");
  add("sim.l3_bytes",
      static_cast<double>(r.sim_bytes[static_cast<std::size_t>(Category::dma_l3_l2)]), "B");
  add("sim.c2c_bytes",
      static_cast<double>(r.sim_bytes[static_cast<std::size_t>(Category::chip_to_chip)]), "B");

  runtime::ServingStats sum;
  for (const auto& s : r.node_stats) {
    sum.prefetch_stall_cycles += s.prefetch_stall_cycles;
    sum.stream_cycles_hidden += s.stream_cycles_hidden;
    sum.decode_steps += s.decode_steps;
    sum.total_generated += s.total_generated;
    sum.preemptions += s.preemptions;
    sum.resumes += s.resumes;
    sum.preemption_cycles += s.preemption_cycles;
    sum.shed += s.shed;
    sum.rejected_queue_full += s.rejected_queue_full;
    sum.rejected_hopeless_deadline += s.rejected_hopeless_deadline;
    sum.queue_depth_peak = std::max(sum.queue_depth_peak, s.queue_depth_peak);
    sum.prefix_hits += s.prefix_hits;
    sum.prefix_shared_tokens += s.prefix_shared_tokens;
    sum.cow_forks += s.cow_forks;
  }
  const double stall = static_cast<double>(sum.prefetch_stall_cycles);
  const double hidden = static_cast<double>(sum.stream_cycles_hidden);
  add("runtime.prefetch_stall_cycles", stall, "cycles");
  add("runtime.stream_hidden_cycles", hidden, "cycles");
  add("runtime.stream_hidden_ratio", stall + hidden > 0 ? hidden / (stall + hidden) : 0.0, "ratio",
      "hidden / (hidden + stall)");
  add("runtime.mean_decode_batch",
      sum.decode_steps > 0 ? static_cast<double>(sum.total_generated) / sum.decode_steps : 0.0,
      "tok/step", "generated / decode_steps (summed over nodes)");
  add("runtime.preemptions", sum.preemptions, "count");
  add("runtime.resumes", sum.resumes, "count");
  add("runtime.preemption_cycles", static_cast<double>(sum.preemption_cycles), "cycles");
  add("runtime.shed", sum.shed, "count");
  add("runtime.rejected_queue_full", sum.rejected_queue_full, "count");
  add("runtime.rejected_hopeless", sum.rejected_hopeless_deadline, "count");
  add("runtime.queue_depth_peak", sum.queue_depth_peak, "count", "max over nodes");

  // Per-model slices, summed over nodes (high water: max over nodes).
  for (const char* model : {kDecoder, kEncoder}) {
    double hw = 0.0, cycles = 0.0, mj = 0.0, tokens = 0.0, misses = 0.0;
    for (const auto& s : r.node_stats) {
      for (const auto& pm : s.per_model) {
        if (pm.model != model) continue;
        if (pm.kv_cap > 0) {
          hw = std::max(hw, static_cast<double>(pm.kv_in_use_high_water) / pm.kv_cap);
        }
        cycles += static_cast<double>(pm.attributed_cycles);
        mj += pm.attributed_energy_mj;
        tokens += pm.total_generated;
        misses += pm.deadline_misses;
      }
    }
    const std::string mn = model;
    add("mem.kv_high_water_frac." + mn, hw, "ratio", "high-water / cap, max over nodes");
    add("per_model." + mn + ".attributed_cycles", cycles, "cycles");
    add("per_model." + mn + ".attributed_mj", mj, "mJ");
    add("per_model." + mn + ".tokens", tokens, "count");
    add("per_model." + mn + ".deadline_misses", misses, "count", "late finishes seen by engines");
  }

  int shared_admitted = 0;
  for (const Served& s : r.served) {
    if (reqs[static_cast<std::size_t>(s.index)].shared_group >= 0) ++shared_admitted;
  }
  add("mem.prefix_hits", sum.prefix_hits, "count");
  add("mem.prefix_hit_ratio",
      shared_admitted > 0 ? static_cast<double>(sum.prefix_hits) / shared_admitted : 0.0,
      "ratio", "hits / completed requests that open with a system prompt");
  add("mem.prefix_shared_tokens", static_cast<double>(sum.prefix_shared_tokens), "count");
  add("mem.cow_forks", sum.cow_forks, "count");

  double routed = 0.0, misroute = 0.0, link_rej = 0.0, transfer = 0.0, imbalance = 0.0;
  if (r.fleet) {
    const fleet::FleetStats& fs = *r.fleet;
    routed = static_cast<double>(fs.routed);
    misroute = fs.routed > 0 ? static_cast<double>(fs.misrouted) / routed : 0.0;
    Cycles lo = ~Cycles{0}, hi = 0;
    for (const auto& n : fs.per_node) {
      link_rej += n.link_rejected;
      lo = std::min(lo, n.serving.total_cycles);
      hi = std::max(hi, n.serving.total_cycles);
    }
    transfer = static_cast<double>(fs.request_transfer_cycles + fs.response_transfer_cycles);
    imbalance = static_cast<double>(hi) / static_cast<double>(std::max<Cycles>(lo, 1));
  }
  add("fleet.routed", routed, "count");
  add("fleet.misroute_ratio", misroute, "ratio", "misrouted / routed");
  add("fleet.link_rejected", link_rej, "count");
  add("fleet.transfer_cycles", transfer, "cycles", "both directions");
  add("fleet.node_cycles_imbalance", imbalance, "ratio", "max / min node busy cycles");

  const Summary late = summarize(r.late_cycles);
  add("bench.generator_late_ms_tail", late.tail * 1e3 / freq_hz, "ms",
      "simulated lateness of submits behind due times, " + pct_label(late));

  // Self time per span name: summed over the traced runs, divided by
  // their count.
  const auto self = rec.self_seconds();
  for (const char* name : {"bench.serve", "runtime.step", "runtime.submit", "fleet.submit",
                           "fleet.drain", "setup.session", "setup.engine", "setup.router"}) {
    const auto it = self.find(name);
    const double v = it == self.end() ? 0.0 : it->second / std::max(traced_reps, 1);
    add(std::string("self.") + name + ".host_s", v, "s", "span minus children, per run");
  }
  add("trace.overhead_s", overhead_s, "s", "traced host_s - untraced host_s (medians)");
  add("trace.spans", static_cast<double>(rec.spans().size()), "count", "all traced runs");
  return m;
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& x : ms) {
    std::printf("  %-36s %.10g %s%s%s%s\n", x.name.c_str(), x.value, x.unit.c_str(),
                x.note.empty() ? "" : "  (", x.note.c_str(), x.note.empty() ? "" : ")");
  }
}

void print_json(bool correct, int attempted, int failed, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

const char* loop_description(Workload w) {
  switch (w) {
    case Workload::decode_batch:
      return "closed offline batch: all requests due at t=0, FIFO, no deadlines";
    case Workload::slo_mixed:
      return "open loop on the simulated clock: bursty Poisson arrivals, one two-tenant "
             "engine, EDF + preemption + fail-fast + fair shedding";
    case Workload::fleet_burst:
      return "open loop on the simulated clock: bursty Poisson arrivals through "
             "fleet::Router (prefix affinity) over 8 nodes";
  }
  return "";
}

int run(const Args& args) {
  const WorkloadSpec spec = make_spec(args.workload);
  const std::vector<Request> reqs = make_requests(args.workload, args.seed);
  const double freq_hz = runtime::SystemConfig::siracusa_system().chip.freq_hz;

  SpanRecorder off(false);
  SpanRecorder on(true);
  // setup_s and host_* are seconds at the reference machine speed (see
  // calibration.hpp); wall_plain is the untraced serving on the wall clock.
  std::vector<double> setup_s, session_s, engine_s, host_plain, host_traced, wall_plain;
  std::optional<RunResult> first;
  std::optional<Fingerprint> first_fp;
  bool repeatable = true;

  const auto warm_start = Clock::now();
  // Warm-up run: its simulated results are the ones reported (every timed
  // run must reproduce them exactly); its host times are not counted,
  // since the first run in a process also pays for heap growth.
  HostClock clock;
  {
    System sys = build(spec, off);
    clock.begin(off);
    RunResult rr = spec.routed ? serve_fleet(sys, reqs, off, clock)
                               : serve_engine(sys, reqs, off, clock);
    account_deadlines(reqs, rr);
    first_fp = fingerprint(rr);
    first = std::move(rr);
  }
  const auto start = Clock::now();
  const double warm_s = seconds_between(warm_start, start);
  int rep = 0;
  int traced_reps = 0;
  // Trace mode alternates untraced and traced runs so both host_s medians
  // come from the same process; it needs at least one of each. A run
  // starts only if one more of the last run's length still fits in
  // --seconds, so the timed phase does not overshoot by a whole run.
  double last_rep_s = 0.0;
  while (rep == 0 || (args.trace && rep < 2) ||
         seconds_between(start, Clock::now()) + last_rep_s <= args.seconds) {
    const bool traced = args.trace && rep % 2 == 1;
    SpanRecorder& rec = traced ? on : off;
    rec.set_rep(traced_reps);
    const auto t0 = Clock::now();
    clock.begin(rec);
    System sys = build(spec, rec);
    setup_s.push_back(clock.end());
    clock.begin(rec);
    RunResult rr = spec.routed ? serve_fleet(sys, reqs, rec, clock)
                               : serve_engine(sys, reqs, rec, clock);
    (traced ? host_traced : host_plain).push_back(clock.end());
    if (!traced) wall_plain.push_back(clock.last_wall());
    session_s.push_back(sys.session_s);
    engine_s.push_back(sys.engine_s);
    if (traced) ++traced_reps;
    account_deadlines(reqs, rr);
    if (fingerprint(rr) != *first_fp) repeatable = false;
    last_rep_s = seconds_between(t0, Clock::now());
    ++rep;
  }
  // Extra set-ups so setup_s is a median of many: at least
  // kMinSetupSamples and about kSetupSeconds of set-up work.
  const auto extra_start = Clock::now();
  double setup_total = 0.0;
  for (const double x : setup_s) setup_total += x;
  while (static_cast<int>(setup_s.size()) < kMaxSetupSamples &&
         (static_cast<int>(setup_s.size()) < kMinSetupSamples ||
          setup_total < kSetupSeconds)) {
    clock.begin(off);
    const System sys = build(spec, off);
    setup_s.push_back(clock.end());
    setup_total += setup_s.back();
    session_s.push_back(sys.session_s);
    engine_s.push_back(sys.engine_s);
  }

  const RunResult& r = *first;
  const auto check_start = Clock::now();
  const int mismatches = check_streams(spec, reqs, r);
  const auto check_end = Clock::now();
  bool correct = repeatable && mismatches == 0 && r.errors.empty();

  std::printf("perfbench workload=%s seed=%llu timed runs=%d (traced %d) after 1 warm-up\n",
              workload_name(args.workload), static_cast<unsigned long long>(args.seed), rep,
              traced_reps);
  std::printf("  loop: %s; %zu requests\n", loop_description(args.workload), reqs.size());
  std::printf("  check: %zu streams vs InferenceSession::generate, %d mismatches; "
              "conservation %s; simulated results %s across runs\n",
              r.served.size(), mismatches, r.errors.empty() ? "ok" : "VIOLATED",
              repeatable ? "identical" : "DIFFER");
  for (const std::string& e : r.errors) std::printf("  conservation violation: %s\n", e.c_str());
  const Summary late = summarize(r.late_cycles);
  std::printf("  generator lateness behind due times (simulated): p50 %.6g ms, %s %.6g ms\n",
              late.p50 * 1e3 / freq_hz, pct_label(late).c_str(), late.tail * 1e3 / freq_hz);

  const auto print_samples = [](const char* what, const std::vector<double>& v) {
    std::printf("  %s samples (s): n=%zu", what, v.size());
    if (v.size() <= 8) {
      for (const double x : v) std::printf(" %.4f", x);
    } else {
      std::printf(" min %.4f median %.4f max %.4f", *std::min_element(v.begin(), v.end()),
                  median(v), *std::max_element(v.begin(), v.end()));
    }
    std::printf("\n");
  };
  std::printf("  phases (wall s): warm-up %.2f, timed runs %.2f, extra set-ups %.2f, check %.2f\n",
              warm_s, seconds_between(start, extra_start),
              seconds_between(extra_start, check_start), seconds_between(check_start, check_end));
  std::printf("  machine speed: %zu calibration readings, median %.4g ms, reference %.4g ms; "
              "host seconds below are at the reference speed\n",
              clock.readings().size(), median(clock.readings()) * 1e3,
              HostClock::kReferenceSeconds * 1e3);
  print_samples("setup", setup_s);
  print_samples("untraced serving", host_plain);
  print_samples("untraced serving, wall clock", wall_plain);
  if (args.trace) print_samples("traced serving", host_traced);

  std::vector<Metric> out;
  if (!args.trace) {
    out = end_to_end(r, freq_hz, host_plain, setup_s);
    std::printf("end-to-end metrics:\n");
    print_metrics(out);
    print_refusal_lines(r);
  } else {
    const ProbeResult probe = probe_kernels(spec, args.seed, on);
    const double overhead = median(host_traced) - median(host_plain);
    out = per_layer(reqs, r, on, probe, freq_hz, session_s, engine_s, overhead, traced_reps);
    std::printf("per-layer metrics (traced run):\n");
    print_metrics(out);
    std::printf("  tracing overhead: traced host_s %.6g s - untraced host_s %.6g s = %.6g s\n",
                median(host_traced), median(host_plain), overhead);
    if (!args.spans_out.empty()) {
      std::ofstream os(args.spans_out);
      on.write_jsonl(os);
      if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
        correct = false;
      }
    }
  }
  // `failed` counts requests whose output failed the check; admission
  // refusals are reported by served_frac / failed_frac, not here.
  print_json(correct, r.outcomes.offered, mismatches, out);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
