// A fixed-size thread pool for data-parallel loops over dense index
// ranges — the parallel substrate of the greedy selection algorithms.
//
// Scheduling is deliberately work-stealing-free: ParallelFor partitions
// [0, n) into num_threads() contiguous chunks, fixed purely by (n,
// num_threads). Each worker owns one chunk, so chunk boundaries — and
// therefore any per-chunk accumulation a caller does — are reproducible
// across runs with the same thread count. Determinism of the *result* is
// the caller's job: accumulate into per-chunk slots and reduce the slots
// in chunk order after ParallelFor returns (see r_greedy.cc for the
// canonical pattern).
//
// Failure semantics (TryParallelFor): a chunk signals failure by returning
// a non-OK Status. The pool never deadlocks or tears down the process on a
// failed chunk — every chunk's completion is accounted for, the pool stays
// reusable, and the destructor joins cleanly afterwards. Failure
// fast-path: once chunk c has failed, chunks *above* c that have not
// started yet are skipped (their Status stays OK); chunks below c always
// run, so the call returns the Status of the lowest-numbered chunk whose
// body fails — deterministic for any thread interleaving whenever chunk
// outcomes are themselves deterministic functions of (begin, end, chunk).
// Fault-injected service runs rely on this: an ArmAlways'd fault yields
// the same first-failing-chunk message on every run.
//
// Sharing: any thread may call ParallelFor or TryParallelFor at any time,
// a chunk of the pool's own running job included. A call that finds the
// pool running another job does not wait for it: it runs every chunk
// inline on the calling thread, in chunk order, over the same chunk
// bounds, and counts one "pool.jobs_inline". So per-chunk results, and a
// failing call's Status, are the same either way, and a nested call
// cannot deadlock.

#ifndef OLAPIDX_COMMON_THREAD_POOL_H_
#define OLAPIDX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace olapidx {

class ThreadPool {
 public:
  // fn(begin, end, chunk): process indexes [begin, end); `chunk` is the
  // chunk's ordinal in [0, num_threads()), usable as a scratch-slot index.
  using ChunkFn = std::function<void(size_t begin, size_t end, size_t chunk)>;
  // Same contract, but the chunk may fail. A non-OK return makes the whole
  // TryParallelFor fail (see the failure semantics above); it must leave
  // the caller's data in a state that is safe to discard.
  using StatusChunkFn =
      std::function<Status(size_t begin, size_t end, size_t chunk)>;

  // Spawns num_threads - 1 workers; the calling thread acts as the final
  // worker inside ParallelFor. num_threads == 0 is treated as 1 (serial).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  // Runs fn over [0, n) split into num_threads() contiguous chunks (the
  // first n % num_threads() chunks get one extra element). Blocks until
  // every chunk finishes; the caller thread executes chunk 0, or every
  // chunk when the pool is busy (see "Sharing" above). Infallible chunks
  // only — no fault points fire on this path.
  void ParallelFor(size_t n, const ChunkFn& fn);

  // Fallible variant: returns the first (lowest-chunk) failure, OK when
  // every chunk succeeded. Crosses the "pool.enqueue" fault point before
  // dispatch and "pool.chunk" before each chunk body.
  Status TryParallelFor(size_t n, const StatusChunkFn& fn);

  // Process-wide pool, sized from the OLAPIDX_THREADS environment
  // variable when set (and positive), else std::thread::hardware_concurrency.
  static ThreadPool& Shared();

  // [begin, end) of chunk `c` when [0, n) is split into `chunks` parts.
  static std::pair<size_t, size_t> ChunkBounds(size_t n, size_t chunks,
                                               size_t c);

 private:
  // Shared engine behind both ParallelFor variants. `fault_points` guards
  // the "pool.chunk" site so the infallible path can never trip an armed
  // fault it has no way to report.
  Status Run(size_t n, const StatusChunkFn& fn, bool fault_points);
  // Chunks [0, chunks) on the calling thread, in order; the first failure
  // skips the chunks after it. Touches no job state, so it runs beside a
  // job.
  Status RunInline(size_t n, const StatusChunkFn& fn, bool fault_points,
                   size_t chunks);
  // One chunk of the active job: skip-after-failure, body, status slot,
  // failure flag.
  void RunChunk(size_t n, size_t chunk, bool fault_points);
  // One chunk's body: fault point (when enabled), then fn over the
  // chunk's bounds, timed; an empty chunk runs nothing.
  Status RunChunkBody(const StatusChunkFn& fn, size_t n, size_t chunk,
                      bool fault_points);
  void WorkerLoop(size_t worker);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Non-null while a job owns the workers; guarded by mu_. The job's
  // fields below are written only by the thread that set it.
  const StatusChunkFn* job_ = nullptr;
  size_t job_n_ = 0;
  bool job_fault_points_ = false;
  uint64_t epoch_ = 0;     // bumped per ParallelFor to wake workers
  size_t pending_ = 0;     // workers still running the current job
  bool shutdown_ = false;
  // Per-chunk outcome of the active job; chunk c writes only slot c.
  std::vector<Status> job_status_;
  // Lowest chunk ordinal that has failed so far (SIZE_MAX = none). Chunks
  // above it skip; chunks below it still run, keeping the first-failing
  // chunk — and therefore the returned Status — deterministic.
  std::atomic<size_t> job_first_failed_{SIZE_MAX};
  std::vector<std::thread> workers_;
};

}  // namespace olapidx

#endif  // OLAPIDX_COMMON_THREAD_POOL_H_
