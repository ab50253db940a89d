#include "src/cluster/parallel.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace numaplace {

WorkerPool::WorkerPool(int workers) {
  NP_CHECK_MSG(workers >= 1, "a worker pool needs at least one worker");
  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* worker = workers_.back().get();
    worker->thread = std::thread([this, worker] { Run(worker); });
  }
}

namespace {

// Spin budget before a waiter gives up and sleeps on its condition
// variable. Replay batches are mostly shorter than a futex round trip, so
// both the coordinator's Flush and an idle worker briefly poll the atomic
// counters first; the bound keeps a genuinely long wait from burning a
// core.
constexpr int kSpinIterations = 1 << 14;

}  // namespace

WorkerPool::~WorkerPool() {
  for (const std::unique_ptr<Worker>& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->stop.store(true, std::memory_order_relaxed);
    }
    worker->work_cv.notify_all();
  }
  for (const std::unique_ptr<Worker>& worker : workers_) {
    worker->thread.join();
  }
}

void WorkerPool::Run(Worker* worker) {
  for (;;) {
    // Poll for the next batch before sleeping: if work lands within the
    // spin budget the condition variable below never blocks.
    for (int i = 0; i < kSpinIterations; ++i) {
      if (worker->stop.load(std::memory_order_relaxed) ||
          worker->enqueued.load(std::memory_order_acquire) >
              worker->done.load(std::memory_order_relaxed)) {
        break;
      }
      std::this_thread::yield();
    }
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->work_cv.wait(lock, [worker] {
        return worker->stop.load(std::memory_order_relaxed) ||
               !worker->queue.empty();
      });
      if (worker->queue.empty()) {
        return;  // stop requested and nothing left to run
      }
      task = std::move(worker->queue.front());
      worker->queue.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->done.fetch_add(1, std::memory_order_release);
    }
    worker->done_cv.notify_all();
  }
}

void WorkerPool::Enqueue(int worker_id, std::function<void()> task) {
  NP_CHECK(worker_id >= 0 && worker_id < NumWorkers());
  Worker& worker = *workers_[static_cast<size_t>(worker_id)];
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.enqueued.fetch_add(1, std::memory_order_release);
    worker.queue.push_back(std::move(task));
  }
  worker.work_cv.notify_one();
}

void WorkerPool::Flush(int worker_id) {
  NP_CHECK(worker_id >= 0 && worker_id < NumWorkers());
  Worker& worker = *workers_[static_cast<size_t>(worker_id)];
  const auto drained = [&worker] {
    return worker.done.load(std::memory_order_acquire) ==
           worker.enqueued.load(std::memory_order_acquire);
  };
  for (int i = 0; i < kSpinIterations; ++i) {
    if (drained()) {
      return;
    }
  }
  std::unique_lock<std::mutex> lock(worker.mu);
  worker.done_cv.wait(lock, drained);
}

void WorkerPool::FlushAllWorkers() {
  for (int w = 0; w < NumWorkers(); ++w) {
    Flush(w);
  }
}

ParallelReplayEngine::ParallelReplayEngine(FleetScheduler* fleet,
                                           const ParallelReplayConfig& config)
    : fleet_(fleet), pool_(std::max(1, config.threads)) {
  NP_CHECK(fleet != nullptr);
  cell_of_ = &fleet->capacity_index().layout().cell_of;
  NP_CHECK_MSG(static_cast<int>(cell_of_->size()) == fleet->NumMachines(),
               "fleet cell layout covers " << cell_of_->size() << " machines, fleet has "
                                           << fleet->NumMachines());
  pending_commits_.reserve(static_cast<size_t>(fleet->NumMachines()));
  for (int m = 0; m < fleet->NumMachines(); ++m) {
    pending_commits_.push_back(std::make_unique<std::atomic<int>>(0));
  }
}

ParallelReplayEngine::~ParallelReplayEngine() = default;

int ParallelReplayEngine::WorkerForMachine(int machine_id) const {
  // Cells map to workers modulo the pool size, so one cell's commits always
  // land on one worker queue — per-cell FIFO, single writer per machine.
  const int cell = (*cell_of_)[static_cast<size_t>(machine_id)];
  return cell % pool_.NumWorkers();
}

void ParallelReplayEngine::AccumulateBufferStats(
    const OrderedObserverBuffer& buffer) {
  stats_.sequences_assigned += buffer.stats().emitted + buffer.stats().reserved;
  stats_.sequences_drained += buffer.stats().drained;
  stats_.max_reorder_depth =
      std::max(stats_.max_reorder_depth, buffer.stats().max_buffered);
}

namespace {

// Installs the engine as the fleet's hooks for one replay; removes them on
// every exit path so a failed replay does not leave the fleet wired to a
// dead engine.
class HookInstallation {
 public:
  HookInstallation(FleetScheduler* fleet, FleetParallelHooks* hooks)
      : fleet_(fleet) {
    fleet_->SetParallelHooks(hooks);
  }
  ~HookInstallation() { fleet_->SetParallelHooks(nullptr); }

 private:
  FleetScheduler* fleet_;
};

}  // namespace

void ParallelReplayEngine::Replay(const EventStream& trace,
                                  EventObserver* observer) {
  OrderedObserverBuffer buffer(observer);
  SequencingObserver sequencer(&buffer, observer);
  buffer_ = &buffer;
  sequencer_ = &sequencer;
  HookInstallation installation(fleet_, this);
  fleet_->Replay(trace, &sequencer);
  // Fleet Replay ends with a FlushAll, so the buffer is already drained;
  // the CHECK is the merge stage's closing invariant.
  buffer.CheckDrained();
  AccumulateBufferStats(buffer);
  buffer_ = nullptr;
  sequencer_ = nullptr;
}

FleetReport ParallelReplayEngine::ReplayWithEvaluation(const EventStream& trace,
                                                       EventObserver* observer,
                                                       ReplaySampler* sampler) {
  OrderedObserverBuffer buffer(observer);
  SequencingObserver sequencer(&buffer, observer);
  buffer_ = &buffer;
  sequencer_ = &sequencer;
  FleetReport report;
  {
    HookInstallation installation(fleet_, this);
    report = fleet_->ReplayWithEvaluation(trace, &sequencer, sampler);
  }
  buffer.CheckDrained();
  AccumulateBufferStats(buffer);
  buffer_ = nullptr;
  sequencer_ = nullptr;
  return report;
}

void ParallelReplayEngine::RunBatch(std::vector<std::function<void()>>* tasks) {
  ++stats_.batches;
  stats_.batch_tasks += tasks->size();
  // One contiguous chunk per worker, shipped as a single composite task:
  // a 1024-machine clock-sync batch costs one lock + notify per worker, not
  // per machine. The trailing flush is the barrier the hook contract
  // promises (results are fully written when RunBatch returns).
  const size_t workers = static_cast<size_t>(pool_.NumWorkers());
  const size_t chunk = (tasks->size() + workers - 1) / workers;
  for (size_t w = 0; w * chunk < tasks->size(); ++w) {
    const size_t begin = w * chunk;
    const size_t end = std::min(begin + chunk, tasks->size());
    pool_.Enqueue(static_cast<int>(w), [tasks, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        (*tasks)[i]();
      }
    });
  }
  pool_.FlushAllWorkers();
}

void ParallelReplayEngine::EnqueueDispatchCommit(
    std::shared_ptr<PendingDispatch> ticket) {
  NP_CHECK_MSG(buffer_ != nullptr && sequencer_ != nullptr,
               "dispatch commit enqueued outside a replay");
  const int machine_id = ticket->machine_id;
  NP_CHECK(machine_id >= 0 && machine_id < fleet_->NumMachines());
  // The routing invariant the property tests assert: a commit only ever
  // reaches the worker owning its machine's cell, and the machine really is
  // a member of that cell (cells are ascending machine-id lists).
  const CellLayout& layout = fleet_->capacity_index().layout();
  const int cell = layout.cell_of[static_cast<size_t>(machine_id)];
  const std::vector<int>& members = layout.cells[static_cast<size_t>(cell)];
  NP_CHECK_MSG(std::binary_search(members.begin(), members.end(), machine_id),
               "machine " << machine_id << " routed to cell " << cell
                          << " it does not belong to");
  ++stats_.deferred_commits;
  std::atomic<int>* pending = pending_commits_[static_cast<size_t>(machine_id)].get();
  // Count the commit as in flight before anything can observe the ticket:
  // the hole's readiness predicate requires *both* this ticket committed
  // and zero in-flight commits on the machine, because FinishDispatch reads
  // the machine's live occupancy and must not race a later commit to it.
  pending->fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<PendingDispatch> shared = std::move(ticket);
  buffer_->Reserve(
      [shared, pending] {
        return shared->committed.load(std::memory_order_acquire) &&
               pending->load(std::memory_order_acquire) == 0;
      },
      [this, shared] {
        // The hole's content is the dispatch tail's own emissions; they
        // bypass the buffer (direct mode) because they are being delivered
        // *in* the hole's sequence position.
        sequencer_->set_direct(true);
        fleet_->FinishDispatch(*shared);
        sequencer_->set_direct(false);
      });
  pool_.Enqueue(WorkerForMachine(machine_id), [this, shared, pending] {
    fleet_->CommitDispatch(shared.get());
    pending->fetch_sub(1, std::memory_order_release);
  });
}

void ParallelReplayEngine::FlushMachines(const std::vector<int>& machine_ids) {
  ++stats_.flushes;
  // Flushing the owning workers over-waits (their queues may hold other
  // machines' commits) but is simple and safe; dedupe so shared workers
  // flush once.
  std::vector<int> workers;
  workers.reserve(machine_ids.size());
  for (const int machine_id : machine_ids) {
    workers.push_back(WorkerForMachine(machine_id));
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  for (const int worker : workers) {
    pool_.Flush(worker);
  }
  if (buffer_ != nullptr) {
    buffer_->Drain();  // opportunistic: bound the reorder window
  }
}

void ParallelReplayEngine::FlushAll() {
  ++stats_.flushes;
  pool_.FlushAllWorkers();
  if (buffer_ != nullptr) {
    buffer_->Drain();
    // Every commit has landed, so every hole was ready: a stalled slot
    // here means the merge stage lost a sequence number.
    buffer_->CheckDrained();
  }
}

}  // namespace numaplace
