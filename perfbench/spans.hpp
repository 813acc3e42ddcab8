#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

// Benchmark-side host spans: one per call into the system, recorded from
// the benchmark's own code around the public calls. Spans are kept in
// memory and written out once the benchmark ends. A disabled recorder
// records nothing, so the untraced run pays only a branch per call.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct HostSpan {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int request = -1;  ///< generator index of the request, -1 when none
  int rep = 0;
  /// Caller-defined class of the call (engine steps: prefill or decode).
  char kind = 0;

  [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void set_rep(int rep) { rep_ = rep; }

  /// Opens a span; returns its index (-1 when disabled).
  int open(const char* name, int request = -1) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, request, rep_, 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  void set_kind(int index, char kind) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].kind = kind;
  }

  [[nodiscard]] const std::vector<HostSpan>& spans() const { return spans_; }

  /// Self seconds per span name: each span's duration minus the
  /// durations of its direct children, summed over all spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const HostSpan& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].seconds() - child[i];
    }
    return out;
  }

  /// One JSON object per line: name, start/end in ns since the recorder
  /// was made, parent index, request index and rep.
  void write_jsonl(std::ostream& os) const {
    for (const HostSpan& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"rep\":" << s.rep << "}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  int rep_ = 0;
  std::vector<HostSpan> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, int request = -1)
      : rec_(rec), index_(rec.open(name, request)) {}
  ~Scope() { rec_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
