// Index-parallel loops over the CPUs the process may run on.
//
// ParallelFor runs the model-training loops: the trees of a forest fit and
// the input pairs of the probe-pair search. Loops nest: a ParallelFor called
// from inside another one's body runs inline on that worker, in index order,
// so an outer loop that already occupies every CPU is not oversubscribed by
// the loops its bodies call.
#ifndef NUMAPLACE_SRC_UTIL_PARALLEL_FOR_H_
#define NUMAPLACE_SRC_UTIL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace numaplace {

namespace parallel_for_internal {

// True on a thread while it runs the bodies of a multi-threaded ParallelFor.
inline thread_local bool in_worker = false;

}  // namespace parallel_for_internal

// CPUs this thread may run on: its affinity mask where the platform has
// one, else the hardware concurrency; at least 1.
inline size_t AvailableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// Runs body(i) for every i in [0, count) on up to one thread per available
// CPU, the calling thread included. Indices are claimed in ascending order,
// and a failure stops further claims; after every thread has joined, the
// exception of the lowest failed index is rethrown on the caller — the one
// a serial loop would have thrown, since every lower index was claimed
// before it and ran to completion. Inside another ParallelFor's body, or
// when only one thread would run, the loop runs inline in index order and
// the first exception propagates directly.
template <typename Body>
void ParallelFor(size_t count, const Body& body) {
  const size_t workers =
      parallel_for_internal::in_worker ? 1 : std::min(count, AvailableCpus());
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  struct Failure {
    size_t index = std::numeric_limits<size_t>::max();
    std::exception_ptr error;
  };
  std::vector<Failure> failures(workers);
  const auto work = [&](size_t worker) {
    const bool was_in_worker = parallel_for_internal::in_worker;
    parallel_for_internal::in_worker = true;
    while (!failed.load()) {
      const size_t i = next.fetch_add(1);
      if (i >= count) {
        break;
      }
      try {
        body(i);
      } catch (...) {
        failures[worker] = {i, std::current_exception()};
        failed.store(true);
        break;
      }
    }
    parallel_for_internal::in_worker = was_in_worker;
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      threads.emplace_back(work, w);
    } catch (...) {
      break;  // no thread to spare: the threads already running claim the rest
    }
  }
  work(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first->error != nullptr) {
    std::rethrow_exception(first->error);
  }
}

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_UTIL_PARALLEL_FOR_H_
