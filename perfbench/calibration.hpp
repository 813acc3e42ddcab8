#ifndef PERFBENCH_CALIBRATION_HPP
#define PERFBENCH_CALIBRATION_HPP

// Host time at a reference machine speed.
//
// The benchmark runs on a shared machine whose speed moves by up to ~2x
// for seconds at a time (other tenants' load on the cores and the shared
// cache). A fixed calibration loop, taken at the start of every timed
// sample and every kPeriod while it runs, measures that speed. A sample is
// reported as its wall seconds, calibration excluded, times
// kReferenceSeconds over the loop's mean time during the sample: seconds
// at the reference speed. The loop is the benchmark's own code and touches
// nothing of the program, so a change to the program moves the reported
// time and a change in machine speed mostly cancels out.

#include <algorithm>
#include <chrono>
#include <vector>

#include "spans.hpp"

namespace perfbench {

class HostClock {
 public:
  /// Roughly one calibration reading on the reference machine (a 4-vCPU
  /// Xeon VM with 2 MiB of L2 per core) when its host is quiet. It fixes
  /// the scale of the reported seconds and nothing else.
  static constexpr double kReferenceSeconds = 0.0045;
  static constexpr auto kPeriod = std::chrono::milliseconds(100);

  HostClock()
      : a_(kN * kN, 1.0001f),
        b_(kN * kN, 0.9999f),
        c_(kN * kN, 0.0f),
        w_(kRows * kCols, 0.5f),
        x_(kRows, 1.0f),
        y_(kCols, 0.0f) {
    (void)loop();  // fault the buffers in before any sample
  }

  /// Starts a sample with a calibration reading.
  void begin(SpanRecorder& rec) {
    start_ = Clock::now();
    sample_sum_ = 0.0;
    sample_readings_ = 0;
    spent_ = 0.0;
    calibrate(rec);
  }
  /// Takes a reading when kPeriod has passed since the last one. The
  /// serving loops call this between calls into the program.
  void tick(SpanRecorder& rec) {
    if (Clock::now() >= next_) calibrate(rec);
  }
  /// Ends the sample: seconds at the reference speed.
  [[nodiscard]] double end() {
    last_wall_ = seconds_between(start_, Clock::now()) - spent_;
    return last_wall_ * kReferenceSeconds * sample_readings_ / sample_sum_;
  }
  /// Wall seconds of the last ended sample, calibration excluded.
  [[nodiscard]] double last_wall() const { return last_wall_; }

  /// Every reading taken, in seconds.
  [[nodiscard]] const std::vector<double>& readings() const { return readings_; }

 private:
  static constexpr int kN = 256;  // 768 KiB of GEMM operands: L2-resident
  static constexpr int kRows = 1024;  // 8 MiB GEMV matrix: beyond L2
  static constexpr int kCols = 2048;

  /// A 256^3 GEMM on L2-resident operands (compute-bound, like the
  /// control plane and small kernels), then two M = 1 GEMV passes that
  /// stream an 8 MiB matrix from beyond L2 (bandwidth-bound, like
  /// weight-streamed decode). Both use the i-k-j order of kernels::gemm.
  /// A mix of both tracked every workload's serving time better than
  /// either part alone.
  double loop() {
    const auto t0 = Clock::now();
    std::fill(c_.begin(), c_.end(), 0.0f);
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float av = a_[i * kN + k];
        for (int j = 0; j < kN; ++j) c_[i * kN + j] += av * b_[k * kN + j];
      }
    }
    std::fill(y_.begin(), y_.end(), 0.0f);
    for (int pass = 0; pass < 2; ++pass) {
      for (int k = 0; k < kRows; ++k) {
        const float xv = x_[k];
        for (int j = 0; j < kCols; ++j) y_[j] += xv * w_[k * kCols + j];
      }
    }
    sink_ = sink_ + y_[kCols / 2] + c_[kN + 1];
    return seconds_between(t0, Clock::now());
  }

  void calibrate(SpanRecorder& rec) {
    const auto t0 = Clock::now();
    double s = 0.0;
    {
      const Scope span(rec, "bench.calibrate");
      s = loop();
    }
    readings_.push_back(s);
    sample_sum_ += s;
    ++sample_readings_;
    next_ = Clock::now();
    spent_ += seconds_between(t0, next_);
    next_ += kPeriod;
  }

  std::vector<float> a_, b_, c_, w_, x_, y_;
  volatile float sink_ = 0.0f;
  Clock::time_point start_;
  Clock::time_point next_;
  double sample_sum_ = 0.0;
  int sample_readings_ = 0;
  double spent_ = 0.0;
  double last_wall_ = 0.0;
  std::vector<double> readings_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_HPP
