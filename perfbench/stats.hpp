#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

// The benchmark's reporting rules, kept apart from the workloads so the
// self-test can pin them:
//  * a timing is a median plus the highest percentile of a fixed ladder
//    that still has at least ten samples beyond it, with the count;
//  * a deadline-carrying request that was refused (rejected at submit or
//    shed from the queue) counts as a miss, and refusals count against
//    the offered total.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentiles a tail may be reported at, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` over `n` sorted samples.
[[nodiscard]] inline std::size_t nearest_rank(double p, std::size_t n) {
  const auto r = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Highest ladder percentile with at least kMinBeyond samples beyond its
/// nearest rank; 0 when even the median has fewer (n < 20).
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  for (const double p : kTailLadder) {
    if (n > 0 && n - nearest_rank(p, n) >= kMinBeyond) return p;
  }
  return 0.0;
}

/// Nearest-rank percentile of `v` (copied and sorted); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(p, v.size()) - 1];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// A timing as reported: median, tail at `tail_pct` and the sample count.
/// With fewer than 20 samples no percentile qualifies; the tail then
/// falls back to the maximum and `tail_pct` reads 100.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  s.tail_pct = tail_percentile(v.size());
  if (s.tail_pct == 0.0) s.tail_pct = 100.0;
  s.tail = percentile(v, s.tail_pct);
  return s;
}

/// Request outcomes of one serving run. Conservation:
/// offered == accepted + rejected and accepted == completed + shed.
struct Outcomes {
  int offered = 0;
  int rejected = 0;
  int shed = 0;
  int completed = 0;
  /// Deadline-carrying requests: offered, and those that finished late
  /// or were refused (rejected or shed).
  int deadline_offered = 0;
  int deadline_late = 0;
  int deadline_refused = 0;

  [[nodiscard]] int accepted() const { return offered - rejected; }
  [[nodiscard]] bool conserved() const {
    return offered == accepted() + rejected && accepted() == completed + shed &&
           deadline_late + deadline_refused <= deadline_offered;
  }
  /// Misses over offered deadline requests; a refused one is a miss.
  [[nodiscard]] double deadline_miss_rate() const {
    return deadline_offered == 0
               ? 0.0
               : static_cast<double>(deadline_late + deadline_refused) /
                     deadline_offered;
  }
  /// (rejected + shed) / offered.
  [[nodiscard]] double failed_frac() const {
    return offered == 0 ? 0.0 : static_cast<double>(rejected + shed) / offered;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_HPP
