// Self-test of the benchmark's own rules: the tail-percentile rule, the
// refused-counts-as-missed accounting, and that the generated inputs are
// a pure function of the seed. Exits nonzero on the first failure.

#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++failures;
  }
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  // The highest ladder percentile with at least ten samples beyond it.
  expect(tail_percentile(19) == 0.0, "n=19 supports no percentile");
  expect(tail_percentile(20) == 50.0, "n=20 -> p50 (10 beyond)");
  expect(tail_percentile(39) == 50.0, "n=39 -> p50 (p75 has 9 beyond)");
  expect(tail_percentile(40) == 75.0, "n=40 -> p75");
  expect(tail_percentile(100) == 90.0, "n=100 -> p90");
  expect(tail_percentile(199) == 90.0, "n=199 -> p90 (p95 has 9 beyond)");
  expect(tail_percentile(200) == 95.0, "n=200 -> p95");
  expect(tail_percentile(999) == 95.0, "n=999 -> p95 (p99 has 9 beyond)");
  expect(tail_percentile(1000) == 99.0, "n=1000 -> p99");
  expect(tail_percentile(10000) == 99.9, "n=10000 -> p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 40; ++i) v.push_back(i);
  const perfbench::Summary s = perfbench::summarize(v);
  expect(s.n == 40 && s.p50 == 20.0, "median is the nearest-rank 50th");
  expect(s.tail_pct == 75.0 && s.tail == 30.0, "tail of 1..40 is p75 = 30");
  const perfbench::Summary small = perfbench::summarize({3.0, 1.0, 2.0});
  expect(small.tail_pct == 100.0 && small.tail == 3.0,
         "too few samples: the tail falls back to the maximum");
}

void test_accounting() {
  perfbench::Outcomes o;
  o.offered = 10;
  o.rejected = 2;
  o.shed = 1;
  o.completed = 7;
  o.deadline_offered = 4;
  o.deadline_late = 1;
  o.deadline_refused = 2;  // refused deadline requests count as missed
  expect(o.conserved(), "10 offered = 8 accepted + 2 rejected; 8 = 7 + 1 shed");
  expect(o.deadline_miss_rate() == 0.75, "miss rate = (late + refused) / offered");
  expect(o.failed_frac() == 0.3, "failed_frac = (rejected + shed) / offered");
  o.completed = 8;
  expect(!o.conserved(), "a lost or doubled request breaks conservation");
  perfbench::Outcomes none;
  expect(none.deadline_miss_rate() == 0.0 && none.failed_frac() == 0.0,
         "nothing offered: both shares are 0");
}

bool same(const std::vector<perfbench::Request>& a,
          const std::vector<perfbench::Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].model != b[i].model || a[i].prompt != b[i].prompt ||
        a[i].new_tokens != b[i].new_tokens || a[i].due != b[i].due ||
        a[i].deadline != b[i].deadline || a[i].priority != b[i].priority ||
        a[i].shared_group != b[i].shared_group) {
      return false;
    }
  }
  return true;
}

void test_seed_determinism() {
  using perfbench::Workload;
  for (const Workload w :
       {Workload::decode_batch, Workload::slo_mixed, Workload::fleet_burst}) {
    const auto a = perfbench::make_requests(w, 7);
    const auto b = perfbench::make_requests(w, 7);
    const auto c = perfbench::make_requests(w, 8);
    expect(!a.empty(), "workload generates requests");
    expect(same(a, b), "equal seeds give equal inputs");
    expect(!same(a, c), "different seeds give different inputs");
    // The request mix per model is a property of the workload, not of
    // the seed (slo_mixed and fleet_burst draw it in fixed proportions).
    int enc_a = 0, enc_c = 0;
    bool ordered = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
      enc_a += a[i].model == perfbench::kEncoder ? 1 : 0;
      enc_c += c[i].model == perfbench::kEncoder ? 1 : 0;
      if (i > 0 && a[i].due < a[i - 1].due) ordered = false;
    }
    expect(a.size() == c.size() && enc_a == enc_c,
           "request count and model mix do not depend on the seed");
    expect(ordered, "requests come in due order");
  }
}

}  // namespace

int main() {
  test_tail_percentile();
  test_accounting();
  test_seed_determinism();
  if (failures == 0) std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
