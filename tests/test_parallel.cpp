// util::parallel_for, the host worker pool the block forwards run their
// chips on: every index runs exactly once, a task's exception reaches
// the caller only after every task has finished (lowest index first),
// nested and concurrent calls run inline instead of deadlocking, and
// the pool really spreads tasks over threads when the hardware has them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/parallel.hpp"

using namespace distmcu;

namespace {

std::vector<int> run_counts(int n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  util::parallel_for(n, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

}  // namespace

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const int n : {0, 1, 2, 7, 64}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    EXPECT_EQ(run_counts(n), std::vector<int>(static_cast<std::size_t>(n), 1));
  }
  // Back-to-back calls reuse the same workers.
  for (int rep = 0; rep < 200; ++rep) {
    ASSERT_EQ(run_counts(5), std::vector<int>(5, 1)) << "rep " << rep;
  }
}

TEST(ParallelFor, RethrowsLowestIndexAfterEveryTaskFinished) {
  constexpr int kTasks = 16;
  std::atomic<int> finished{0};
  try {
    util::parallel_for(kTasks, [&](int i) {
      if (i == 9 || i == 3 || i == 12) throw Error("task " + std::to_string(i));
      // Slow tasks still running when the throwing ones are done.
      std::this_thread::sleep_for(std::chrono::milliseconds(i % 2 == 0 ? 5 : 0));
      finished.fetch_add(1);
    });
    FAIL() << "parallel_for swallowed the tasks' exceptions";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "task 3");
    EXPECT_EQ(finished.load(), kTasks - 3);
  }
  // The pool stays usable after a throwing job.
  EXPECT_EQ(run_counts(8), std::vector<int>(8, 1));
}

TEST(ParallelFor, NestedCallRunsInlineOnTheTaskThread) {
  constexpr int kOuter = 4;
  constexpr int kInner = 6;
  std::vector<std::atomic<int>> inner_hits(kOuter * kInner);
  std::atomic<int> foreign{0};
  util::parallel_for(kOuter, [&](int i) {
    const auto self = std::this_thread::get_id();
    int previous = -1;
    util::parallel_for(kInner, [&](int j) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      if (j != previous + 1) foreign.fetch_add(1);  // inline runs in index order
      previous = j;
      inner_hits[static_cast<std::size_t>(i * kInner + j)].fetch_add(1);
    });
  });
  EXPECT_EQ(foreign.load(), 0);
  for (const auto& h : inner_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersEachRunTheirOwnTasks) {
  constexpr int kCallers = 3;
  constexpr int kTasks = 9;
  constexpr int kRounds = 50;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kTasks);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        util::parallel_for(kTasks, [&](int i) {
          hits[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)].fetch_add(1);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& per_caller : hits) {
    for (const auto& h : per_caller) EXPECT_EQ(h.load(), kRounds);
  }
}

TEST(ParallelFor, SpreadsTasksOverThreadsWhenTheHardwareHasThem) {
  if (std::thread::hardware_concurrency() <= 1) {
    GTEST_SKIP() << "one hardware thread: parallel_for runs everything inline";
  }
  std::mutex mu;
  std::set<std::thread::id> threads;
  util::parallel_for(32, [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::lock_guard lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GT(threads.size(), 1u);
  EXPECT_LE(threads.size(), static_cast<std::size_t>(std::thread::hardware_concurrency()));
}
