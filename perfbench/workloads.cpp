#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// ---- decode_batch: closed offline batch on one streamed decoder ---------
constexpr int kBatchRequests = 80;
constexpr int kBatchPromptMin = 2;  // prompt lengths uniform in 2..5
constexpr int kBatchPromptSpan = 4;
constexpr int kBatchDecodeMin = 4;  // decode lengths uniform in 4..8
constexpr int kBatchDecodeSpan = 5;

// ---- slo_mixed: open loop into one two-tenant engine --------------------
constexpr int kSloRequests = 720;  // 30 bursts, 72 class blocks
constexpr int kSloPageTokens = 8;
constexpr int kSloSystemPrompts = 4;
/// One and a half KV pages: adopting a system prompt from an entry that
/// registered two pages forks the second page copy-on-write.
constexpr int kSloSystemLen = 12;
/// Arrivals come in bursts of kSloBurst requests at a fixed rate above the
/// engine's capacity for this mix (the bounded queue fills and admission
/// control refuses part of each burst), separated by lulls long enough
/// for the engine to drain, so every burst is an independent replicate.
constexpr int kSloBurst = 24;
constexpr double kSloBurstGapCycles = 500'000.0;
constexpr double kSloLullCycles = 200'000'000.0;
/// Deadlines relative to the due time: about twice the loaded service
/// time of each class, so admission order decides who meets them.
constexpr Cycles kSloInteractiveDeadline = 60'000'000;
constexpr Cycles kSloEncoderDeadline = 40'000'000;

// ---- fleet_burst: one stream through the router over 8 nodes ------------
constexpr int kFleetRequests = 6000;
constexpr int kFleetSystemPrompts = 16;
constexpr int kFleetSystemLen = 12;  // 1.5 pages on the 8-token-page nodes
constexpr double kFleetMeanGapCycles = 95'000.0;
constexpr Cycles kFleetDecoderDeadline = 3'000'000;
constexpr Cycles kFleetEncoderDeadline = 2'200'000;

constexpr int kBatchPageTokens = 16;

/// Full-width TinyLlama blocks (the paper's E=512, F=2048, 8 heads) with
/// layers and vocabulary cut so the functional numerics stay affordable.
model::TransformerConfig streamed_decoder(int layers, int prompt_len) {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.name = kDecoder;
  cfg.num_layers = layers;
  cfg.vocab_size = 512;
  cfg.ar_context = 64;
  cfg.prompt_len = prompt_len;
  cfg.validate();
  return cfg;
}

/// MobileBERT block shape (E=F=512, 4 heads of 128, bidirectional,
/// LayerNorm), two layers, prefill-only; context = one KV page.
model::TransformerConfig mobilebert_encoder() {
  auto cfg = model::TransformerConfig::mobile_bert();
  cfg.name = kEncoder;
  cfg.num_layers = 2;
  cfg.vocab_size = 512;
  cfg.ar_context = kSloPageTokens;
  cfg.prompt_len = kSloPageTokens;
  cfg.validate();
  return cfg;
}

/// Invariant-suite-sized blocks so a fleet serves thousands of requests.
model::TransformerConfig tiny_decoder() {
  auto cfg = model::TransformerConfig::tiny_llama_42m();
  cfg.name = kDecoder;
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

model::TransformerConfig tiny_encoder() {
  auto cfg = tiny_decoder();
  cfg.name = kEncoder;
  cfg.ffn_dim = 96;
  cfg.ar_context = 16;
  cfg.mask = model::MaskKind::bidirectional;
  cfg.validate();
  return cfg;
}

runtime::DeploymentSpec spec_of(model::TransformerConfig cfg, int chips,
                                int chunk) {
  runtime::DeploymentSpec s;
  s.model = std::move(cfg);
  s.chips = chips;
  s.prefill_chunk_tokens = chunk;
  return s;
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// `n` values cycling over [lo, lo + span), in seeded order: every seed
/// sees the same multiset, so total work does not depend on the seed.
std::vector<int> stratified(int n, int lo, int span, util::Rng& rng) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = lo + i % span;
  shuffle(v, rng);
  return v;
}

/// `pattern` repeated to length n, shuffled within each repetition: every
/// window of pattern.size() requests has exactly the pattern's mix.
template <typename T>
std::vector<T> blocked(int n, const std::vector<T>& pattern, util::Rng& rng) {
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(out.size()) < n) {
    std::vector<T> block = pattern;
    shuffle(block, rng);
    for (const T& x : block) {
      if (static_cast<int>(out.size()) < n) out.push_back(x);
    }
  }
  return out;
}

/// Draws from a shuffled deck that holds every value of [lo, lo + span)
/// equally often, so each request class sees the same length mix per seed.
class Deck {
 public:
  Deck(int n, int lo, int span, util::Rng& rng) : v_(stratified(n, lo, span, rng)) {}
  int draw() { return v_[next_++ % v_.size()]; }

 private:
  std::vector<int> v_;
  std::size_t next_ = 0;
};

std::vector<int> random_tokens(int n, int vocab, util::Rng& rng) {
  std::vector<int> t(static_cast<std::size_t>(n));
  for (int& x : t) x = 1 + static_cast<int>(rng.next_below(vocab - 1));
  return t;
}

/// `prefix` followed by `n` random tokens, redrawn until no earlier
/// prompt in `seen` equals it.
std::vector<int> unique_prompt(const std::vector<int>& prefix, int n, int vocab,
                               util::Rng& rng, std::set<std::vector<int>>& seen) {
  for (;;) {
    auto t = prefix;
    const auto tail = random_tokens(n, vocab, rng);
    t.insert(t.end(), tail.begin(), tail.end());
    if (seen.insert(t).second) return t;
  }
}

/// Bursty arrivals: phases of kPhase arrivals alternate between a burst
/// (4x the mean rate) and a lull (0.6x). Within a phase the gaps are
/// exponential, rescaled so the phase lasts exactly its expected time:
/// the offered rate and the burst pattern are the same for every seed,
/// and the seed decides how arrivals cluster inside each phase.
std::vector<Cycles> bursty_arrivals(int n, double mean_gap, util::Rng& rng) {
  constexpr int kPhase = 16;
  constexpr double kBurstGap = 0.25;
  constexpr double kLullGap = 1.0 / 0.6;
  const double unit = 2.0 * mean_gap / (kBurstGap + kLullGap);
  std::vector<Cycles> at;
  at.reserve(static_cast<std::size_t>(n));
  double t = 0.0;
  for (int phase = 0; static_cast<int>(at.size()) < n; ++phase) {
    const int len = std::min(kPhase, n - static_cast<int>(at.size()));
    std::vector<double> gaps(static_cast<std::size_t>(len));
    double sum = 0.0;
    for (double& g : gaps) {
      g = -std::log(1.0 - rng.next_double());
      sum += g;
    }
    const double span = (phase % 2 == 0 ? kBurstGap : kLullGap) * unit * len;
    for (const double g : gaps) {
      t += g / sum * span;
      at.push_back(static_cast<Cycles>(t));
    }
  }
  return at;
}

/// Bursts of `burst` arrivals with exponential gaps rescaled so each burst
/// lasts exactly burst * gap, then a lull of `lull` before the next burst.
std::vector<Cycles> burst_trains(int n, int burst, double gap, double lull,
                                 util::Rng& rng) {
  std::vector<Cycles> at;
  at.reserve(static_cast<std::size_t>(n));
  double t = 0.0;
  while (static_cast<int>(at.size()) < n) {
    const int len = std::min(burst, n - static_cast<int>(at.size()));
    std::vector<double> gaps(static_cast<std::size_t>(len));
    double sum = 0.0;
    for (double& g : gaps) {
      g = -std::log(1.0 - rng.next_double());
      sum += g;
    }
    for (const double g : gaps) {
      t += g / sum * gap * len;
      at.push_back(static_cast<Cycles>(t));
    }
    t += lull;
  }
  return at;
}

std::vector<std::vector<int>> system_prompts(int count, int len, int vocab,
                                             util::Rng& rng,
                                             std::set<std::vector<int>>& seen) {
  std::vector<std::vector<int>> out;
  for (int g = 0; g < count; ++g) out.push_back(unique_prompt({}, len, vocab, rng, seen));
  return out;
}

std::vector<Request> decode_batch_requests(util::Rng& rng) {
  const auto cfg = streamed_decoder(4, 8);
  std::set<std::vector<int>> seen;
  // Decks: every seed offers the same prompt and decode tokens in total,
  // so the host work of the batch does not depend on the seed.
  Deck prompt_len(kBatchRequests, kBatchPromptMin, kBatchPromptSpan, rng);
  Deck decode_len(kBatchRequests, kBatchDecodeMin, kBatchDecodeSpan, rng);
  std::vector<Request> out;
  for (int i = 0; i < kBatchRequests; ++i) {
    Request r;
    r.index = i;
    r.model = kDecoder;
    r.prompt = unique_prompt({}, prompt_len.draw(), cfg.vocab_size, rng, seen);
    r.new_tokens = decode_len.draw();
    out.push_back(std::move(r));
  }
  return out;
}

/// Request classes of slo_mixed, in fixed proportions per seed.
enum class SloClass { interactive, background, encode };

std::vector<Request> slo_mixed_requests(util::Rng& rng) {
  const int vocab = streamed_decoder(1, 16).vocab_size;
  std::set<std::vector<int>> seen;
  const auto sys = system_prompts(kSloSystemPrompts, kSloSystemLen, vocab, rng, seen);
  // Every 10 arrivals: 4 interactive decoder, 3 best-effort decoder and 3
  // encoder requests; every 2 decoder requests: one opens with a system
  // prompt, cycling through the system prompts.
  const auto I = SloClass::interactive, B = SloClass::background, E = SloClass::encode;
  const auto classes = blocked<SloClass>(kSloRequests, {I, I, I, I, B, B, B, E, E, E}, rng);
  const auto shared = blocked<int>(kSloRequests, {0, 1}, rng);
  const auto groups = blocked<int>(kSloRequests, {0, 1, 2, 3}, rng);
  int next_group = 0;
  Deck user_len(kSloRequests, 1, 4, rng);
  Deck own_len(kSloRequests, 3, 6, rng);
  Deck interactive_len(kSloRequests, 2, 3, rng);
  Deck background_len(kSloRequests, 8, 5, rng);
  Deck encoder_len(kSloRequests, 4, 5, rng);
  const auto due =
      burst_trains(kSloRequests, kSloBurst, kSloBurstGapCycles, kSloLullCycles, rng);

  std::vector<Request> out;
  for (int i = 0; i < kSloRequests; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    Request r;
    r.index = i;
    r.due = due[ui];
    if (classes[ui] == SloClass::encode) {
      r.model = kEncoder;
      r.prompt = unique_prompt({}, encoder_len.draw(), vocab, rng, seen);
      r.priority = 1;
      r.deadline = kSloEncoderDeadline;
      out.push_back(std::move(r));
      continue;
    }
    r.model = kDecoder;
    if (shared[ui] != 0) {
      r.shared_group = groups[static_cast<std::size_t>(next_group++)];
      r.prompt = unique_prompt(sys[static_cast<std::size_t>(r.shared_group)],
                               user_len.draw(), vocab, rng, seen);
    } else {
      r.prompt = unique_prompt({}, own_len.draw(), vocab, rng, seen);
    }
    if (classes[ui] == SloClass::interactive) {
      r.new_tokens = interactive_len.draw();
      r.deadline = kSloInteractiveDeadline;
    } else {
      r.new_tokens = background_len.draw();
      r.priority = 2;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Request> fleet_burst_requests(util::Rng& rng) {
  const auto dec = tiny_decoder();
  std::set<std::vector<int>> seen;
  const auto sys = system_prompts(kFleetSystemPrompts, kFleetSystemLen,
                                  dec.vocab_size, rng, seen);
  // One request in four is an encoder call; half of the decoder prompts
  // open with one of the system prompts.
  std::vector<int> kind(static_cast<std::size_t>(kFleetRequests));
  for (int i = 0; i < kFleetRequests; ++i) {
    kind[static_cast<std::size_t>(i)] = i % 4 == 0 ? 2 : i % 2;
  }
  shuffle(kind, rng);
  const auto due = bursty_arrivals(kFleetRequests, kFleetMeanGapCycles, rng);

  std::vector<Request> out;
  for (int i = 0; i < kFleetRequests; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    Request r;
    r.index = i;
    r.due = due[ui];
    if (kind[ui] == 2) {
      r.model = kEncoder;
      r.prompt = unique_prompt({}, 8 + static_cast<int>(rng.next_below(9)),
                               dec.vocab_size, rng, seen);
      r.deadline = kFleetEncoderDeadline;
    } else {
      r.model = kDecoder;
      if (kind[ui] == 1) {
        r.shared_group = static_cast<int>(rng.next_below(kFleetSystemPrompts));
        r.prompt = unique_prompt(sys[static_cast<std::size_t>(r.shared_group)],
                                 1 + static_cast<int>(rng.next_below(4)),
                                 dec.vocab_size, rng, seen);
      } else {
        r.prompt = unique_prompt({}, 4 + static_cast<int>(rng.next_below(13)),
                                 dec.vocab_size, rng, seen);
      }
      r.new_tokens = 4 + static_cast<int>(rng.next_below(6));
      r.deadline = kFleetDecoderDeadline;
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::decode_batch: return "decode_batch";
    case Workload::slo_mixed: return "slo_mixed";
    case Workload::fleet_burst: return "fleet_burst";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& s) {
  for (const Workload w :
       {Workload::decode_batch, Workload::slo_mixed, Workload::fleet_burst}) {
    if (s == workload_name(w)) return w;
  }
  return std::nullopt;
}

WorkloadSpec make_spec(Workload w) {
  WorkloadSpec spec;
  spec.workload = w;
  switch (w) {
    case Workload::decode_batch: {
      NodeSpec n;
      n.name = "engine";
      n.deployments.push_back(spec_of(streamed_decoder(4, 8), 4, 8));
      n.options = {.total_kv_slots = 8,
                   .max_pending = kBatchRequests,
                   .kv_page_tokens = kBatchPageTokens};
      spec.nodes.push_back(std::move(n));
      spec.probe_chunk = 8;
      break;
    }
    case Workload::slo_mixed: {
      NodeSpec n;
      n.name = "engine";
      auto dec = spec_of(streamed_decoder(1, 16), 4, 4);
      dec.kv_quota = 12;
      auto enc = spec_of(mobilebert_encoder(), 4, 4);
      enc.precision = runtime::Precision::int8;
      enc.kv_layout = runtime::KvLayout::int8;
      enc.kv_quota = 4;
      n.deployments = {dec, enc};
      n.options = {
          .total_kv_slots = 16,
          .max_pending = 8,
          .scheduler = runtime::make_scheduler(runtime::SchedulePolicy::edf),
          .fail_fast_deadlines = true,
          .fair_shedding = true,
          .preemption = std::make_shared<runtime::DeadlineAwarePreemption>(),
          .kv_page_tokens = kSloPageTokens,
          .prefix_sharing = true};
      spec.nodes.push_back(std::move(n));
      spec.probe_chunk = 4;
      break;
    }
    case Workload::fleet_burst: {
      spec.routed = true;
      const fleet::LinkModel near{.latency_cycles = 2'000,
                                  .cycles_per_byte = 0.5};
      const fleet::LinkModel far{.latency_cycles = 12'000,
                                 .cycles_per_byte = 3.0};
      for (int i = 0; i < 8; ++i) {
        const bool fast = i < 4;
        NodeSpec n;
        n.name = (fast ? "fast" : "slow") + std::to_string(i % 4);
        auto dec = spec_of(tiny_decoder(), fast ? 4 : 2, 4);
        const int pages = fast ? 48 : 24;
        dec.kv_quota = fast ? pages * 3 / 4 : pages;
        n.deployments.push_back(dec);
        if (fast) {
          auto enc = spec_of(tiny_encoder(), 4, 4);
          enc.kv_quota = pages / 4;
          n.deployments.push_back(enc);
        }
        n.options = {.total_kv_slots = pages,
                     .max_pending = 24,
                     .kv_page_tokens = fast ? 4 : 8,
                     .prefix_sharing = true};
        n.link = fast ? near : far;
        spec.nodes.push_back(std::move(n));
      }
      spec.probe_chunk = 4;
      break;
    }
  }
  return spec;
}

std::vector<Request> make_requests(Workload w, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (w) {
    case Workload::decode_batch: return decode_batch_requests(rng);
    case Workload::slo_mixed: return slo_mixed_requests(rng);
    case Workload::fleet_burst: return fleet_burst_requests(rng);
  }
  return {};
}

}  // namespace perfbench
