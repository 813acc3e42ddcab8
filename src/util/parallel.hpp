#ifndef DISTMCU_UTIL_PARALLEL_HPP
#define DISTMCU_UTIL_PARALLEL_HPP

#include <functional>

namespace distmcu::util {

/// Run `fn(i)` for every i in [0, n) and return once all of them have
/// finished. The tasks run on one process-wide worker pool, started on
/// the first call that needs it and sized to the hardware
/// (`std::thread::hardware_concurrency()` threads, the calling thread
/// included, which takes tasks too); with one hardware thread, or for
/// n <= 1, everything runs inline in index order. A call made from
/// inside a task, or while another thread's call holds the pool, also
/// runs inline, so nested or concurrent use can never deadlock.
///
/// Tasks must touch disjoint state. An exception thrown by a task is
/// rethrown here after every task has finished; when several throw, the
/// one from the lowest index wins.
void parallel_for(int n, const std::function<void(int)>& fn);

}  // namespace distmcu::util

#endif  // DISTMCU_UTIL_PARALLEL_HPP
