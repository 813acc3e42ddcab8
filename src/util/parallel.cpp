#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace distmcu::util {

namespace {

/// Set while this thread runs parallel_for tasks: a nested call runs
/// inline instead of waiting on the pool it is part of.
thread_local bool t_in_tasks = false;

/// One parallel_for call: its tasks, the next unclaimed index, and one
/// exception slot per task (each written only by the thread that ran it).
struct Job {
  Job(int tasks, const std::function<void(int)>& f)
      : fn(&f), n(tasks), errors(static_cast<std::size_t>(tasks)) {}

  const std::function<void(int)>* fn;
  int n;
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors;
};

/// Claim and run tasks until none is left.
void drain(Job& job) {
  const bool outer = t_in_tasks;
  t_in_tasks = true;
  for (int i = job.next.fetch_add(1); i < job.n; i = job.next.fetch_add(1)) {
    try {
      (*job.fn)(i);
    } catch (...) {
      job.errors[static_cast<std::size_t>(i)] = std::current_exception();
    }
  }
  t_in_tasks = outer;
}

void rethrow_first(const Job& job) {
  for (const std::exception_ptr& e : job.errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Persistent workers that join whichever job the calling thread posts.
/// The pool runs one job at a time; the caller drains it alongside the
/// workers, then waits until every worker that joined has left it (the
/// job lives on the caller's stack).
class Pool {
 public:
  explicit Pool(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      try {
        threads_.emplace_back([this] { work(); });
      } catch (const std::system_error&) {
        break;  // run with the workers that did start; the caller drains the rest
      }
    }
  }

  ~Pool() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs `job` to completion; false (nothing run) when another
  /// thread's job holds the pool.
  bool run(Job& job) {
    const std::unique_lock busy(submit_, std::try_to_lock);
    if (!busy.owns_lock()) return false;
    {
      const std::lock_guard lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    drain(job);
    std::unique_lock lock(mutex_);
    job_ = nullptr;
    left_.wait(lock, [this] { return joined_ == 0; });
    return true;
  }

 private:
  void work() {
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      Job* job = job_;
      if (job == nullptr) continue;  // finished before this worker woke
      ++joined_;
      lock.unlock();
      drain(*job);
      lock.lock();
      if (--joined_ == 0) left_.notify_one();
    }
  }

  std::mutex submit_;  // held by the thread whose job owns the pool
  std::mutex mutex_;   // guards job_, generation_, joined_ and stop_
  std::condition_variable wake_;
  std::condition_variable left_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int joined_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// The process-wide pool, started on first use; null when the hardware
/// offers a single thread (or does not say).
Pool* pool() {
  static const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return nullptr;
  static Pool instance(hw - 1);
  return &instance;
}

}  // namespace

void parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  Job job(n, fn);
  Pool* p = n > 1 && !t_in_tasks ? pool() : nullptr;
  if (p == nullptr || !p->run(job)) drain(job);
  rethrow_first(job);
}

}  // namespace distmcu::util
