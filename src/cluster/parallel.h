// Parallel fleet replay with a deterministic merge stage.
//
// The serial replay (FleetScheduler::Replay) interleaves three kinds of
// work: coordinator-only *decisions* (admission, target choice, fleet
// bookkeeping), per-machine *commits* (MachineScheduler::Submit), and
// per-machine *read-only* batch work (clock sync, previews). Only the first
// kind orders the simulation; the other two are embarrassingly parallel
// across machines. ParallelReplayEngine exploits exactly that split:
//
//   - Decisions stay on the coordinator thread, in trace order. Same-
//     instant ContainerArrival events are admitted and routed there; the
//     fleet's decision-time bookkeeping (membership, domain occupancy)
//     updates before the next decision runs, so every decision sees the
//     same state it would have seen serially.
//   - The chosen machine's commit is enqueued — as a PendingDispatch
//     ticket — on the worker owning that machine's dispatch cell. One
//     worker per cell group (cell % threads) keeps each cell's commits
//     FIFO and single-writer, so two same-instant arrivals routed to one
//     machine serialize naturally.
//   - Batch work (SyncClocks, preview fills) fans out over all workers
//     between decisions, behind the fleet's flush barriers.
//
// Determinism is restored at the merge stage: every observer callback is
// sequence-numbered at decision time by a SequencingObserver and drained
// through an OrderedObserverBuffer (src/telemetry/ordered.h), with each
// deferred commit holding a reserved hole at its serial position. Telemetry
// spans, metrics, traces and --json output are therefore byte-identical to
// the serial replay; the engine's machinery is invisible downstream.
//
// Machine events (fail/drain/rejoin), rebalance passes and evacuations run
// at coordinator barriers between instants — the fleet flushes all workers
// before touching fleet-wide state (see FleetParallelHooks in fleet.h for
// the contract).
#ifndef NUMAPLACE_SRC_CLUSTER_PARALLEL_H_
#define NUMAPLACE_SRC_CLUSTER_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/cluster/fleet.h"
#include "src/telemetry/ordered.h"

namespace numaplace {

/// A fixed pool of workers, each with its own FIFO task queue. Work routed
/// to one worker runs in enqueue order on one thread — the property the
/// engine's cell -> worker mapping relies on. Flush(w) blocks the caller
/// until worker w's queue is empty and its in-flight task finished.
class WorkerPool {
 public:
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int NumWorkers() const { return static_cast<int>(workers_.size()); }
  void Enqueue(int worker, std::function<void()> task);
  /// Blocks until every task enqueued to `worker` so far has finished.
  void Flush(int worker);
  /// Blocks until every queue is empty and every in-flight task finished.
  void FlushAllWorkers();

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable work_cv;   // signals the worker: task or stop
    std::condition_variable done_cv;   // signals flushers: done advanced
    std::deque<std::function<void()>> queue;
    // Counters are atomic so Flush can spin on them lock-free before
    // falling back to the condition variable: replay batches are mostly
    // microsecond-scale, and a futex sleep/wake per batch would cost more
    // than the batch itself. Increments still happen under mu, so the cv
    // predicate re-check under the lock stays race-free.
    std::atomic<uint64_t> enqueued{0};  // tasks ever enqueued
    std::atomic<uint64_t> done{0};      // tasks fully executed
    std::atomic<bool> stop{false};
    std::thread thread;
  };

  void Run(Worker* worker);

  std::vector<std::unique_ptr<Worker>> workers_;
};

struct ParallelReplayConfig {
  /// Worker threads committing and batching alongside the coordinator.
  /// Must be >= 1; the CLI maps --threads 1 to the plain serial path and
  /// only constructs an engine for 2+.
  int threads = 2;
};

/// Drives a FleetScheduler replay over a worker pool. Install-once,
/// replay-many: each Replay/ReplayWithEvaluation call installs the engine
/// as the fleet's parallel hooks for its duration and removes them on
/// return, so the same fleet can run serial and parallel replays
/// back-to-back (the equivalence tests do exactly that on twin fleets).
class ParallelReplayEngine final : public FleetParallelHooks {
 public:
  ParallelReplayEngine(FleetScheduler* fleet, const ParallelReplayConfig& config);
  ~ParallelReplayEngine() override;

  /// Mirrors FleetScheduler::Replay, parallelized. Observer callbacks
  /// arrive in the exact serial order.
  void Replay(const EventStream& trace, EventObserver* observer = nullptr);

  /// Mirrors FleetScheduler::ReplayWithEvaluation, parallelized. The
  /// returned report is byte-identical to the serial one.
  FleetReport ReplayWithEvaluation(const EventStream& trace,
                                   EventObserver* observer = nullptr,
                                   ReplaySampler* sampler = nullptr);

  // FleetParallelHooks — called by the fleet while a replay runs.
  void RunBatch(std::vector<std::function<void()>>* tasks) override;
  void EnqueueDispatchCommit(std::shared_ptr<PendingDispatch> ticket) override;
  void FlushMachines(const std::vector<int>& machine_ids) override;
  void FlushAll() override;

  /// Cross-replay engine counters, for the property tests.
  struct Stats {
    uint64_t deferred_commits = 0;  ///< tickets routed to workers
    uint64_t batches = 0;           ///< RunBatch calls
    uint64_t batch_tasks = 0;       ///< tasks across all batches
    uint64_t flushes = 0;           ///< FlushMachines + FlushAll calls
    /// Buffer totals accumulated over finished replays: a gap-free ordered
    /// drain has sequences_drained == sequences_assigned.
    uint64_t sequences_assigned = 0;
    uint64_t sequences_drained = 0;
    uint64_t max_reorder_depth = 0;  ///< peak buffered slots in any replay
  };
  const Stats& stats() const { return stats_; }

  int threads() const { return pool_.NumWorkers(); }

 private:
  int WorkerForMachine(int machine_id) const;
  void AccumulateBufferStats(const OrderedObserverBuffer& buffer);

  FleetScheduler* fleet_;
  WorkerPool pool_;
  const std::vector<int>* cell_of_ = nullptr;  // fleet's machine -> cell map
  // Per-machine count of enqueued-but-unfinished commits. Incremented on
  // the coordinator before the ticket is enqueued, decremented by the
  // worker after the commit lands; a deferred FinishDispatch is only ready
  // once its ticket committed *and* no other commit is in flight on the
  // same machine (FinishDispatch reads that machine's live occupancy).
  std::vector<std::unique_ptr<std::atomic<int>>> pending_commits_;
  // Per-replay observer plumbing; valid only while a replay is running.
  OrderedObserverBuffer* buffer_ = nullptr;
  SequencingObserver* sequencer_ = nullptr;
  Stats stats_;
};

}  // namespace numaplace

#endif  // NUMAPLACE_SRC_CLUSTER_PARALLEL_H_
