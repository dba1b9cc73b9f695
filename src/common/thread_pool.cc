#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/fault_injection.h"
#include "common/metrics.h"

namespace olapidx {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  job_status_.resize(num_threads);
  workers_.reserve(num_threads - 1);
  for (size_t w = 1; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::pair<size_t, size_t> ThreadPool::ChunkBounds(size_t n, size_t chunks,
                                                  size_t c) {
  size_t base = n / chunks;
  size_t extra = n % chunks;
  size_t begin = c * base + (c < extra ? c : extra);
  size_t end = begin + base + (c < extra ? 1 : 0);
  return {begin, end};
}

Status ThreadPool::RunChunkBody(const StatusChunkFn& fn, size_t n,
                                size_t chunk, bool fault_points) {
  Status status;
  if (fault_points) {
#if defined(OLAPIDX_FAULT_INJECTION)
    status = FaultInjector::Global().Check("pool.chunk");
#endif
  }
  if (status.ok()) {
    auto [begin, end] = ChunkBounds(n, num_threads(), chunk);
    if (begin < end) {
      OLAPIDX_METRIC_COUNTER(executed, "pool.chunks_executed");
      OLAPIDX_METRIC_HISTOGRAM(latency, "pool.chunk_micros");
      executed.Add(1);
      const auto start = std::chrono::steady_clock::now();
      status = fn(begin, end, chunk);
      latency.Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
  }
  if (!status.ok()) {
    OLAPIDX_METRIC_COUNTER(failures, "pool.chunk_failures");
    failures.Add(1);
  }
  return status;
}

void ThreadPool::RunChunk(size_t n, size_t chunk, bool fault_points) {
  // This pool has no work stealing by design (fixed contiguous chunking
  // keeps the parallel reduction deterministic), so there is no steal
  // counter to export — chunks_executed / chunks_skipped / chunk_failures
  // and the per-chunk latency histogram are the full story.
  //
  // Skip only chunks *above* the lowest failure seen so far: a chunk below
  // it must still run, because if it fails too it becomes the job's
  // deterministic first-failing chunk (see the header's failure
  // semantics).
  if (job_first_failed_.load(std::memory_order_acquire) < chunk) {
    OLAPIDX_METRIC_COUNTER(skipped, "pool.chunks_skipped");
    skipped.Add(1);
    return;
  }
  Status status = RunChunkBody(*job_, n, chunk, fault_points);
  if (!status.ok()) {
    job_status_[chunk] = std::move(status);
    // Atomic min: record this chunk as the lowest failure if it is one.
    size_t lowest = job_first_failed_.load(std::memory_order_relaxed);
    while (chunk < lowest &&
           !job_first_failed_.compare_exchange_weak(
               lowest, chunk, std::memory_order_release,
               std::memory_order_relaxed)) {
    }
  }
}

Status ThreadPool::RunInline(size_t n, const StatusChunkFn& fn,
                             bool fault_points, size_t chunks) {
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    Status status = RunChunkBody(fn, n, chunk, fault_points);
    if (!status.ok()) {
      OLAPIDX_METRIC_COUNTER(skipped, "pool.chunks_skipped");
      skipped.Add(chunks - chunk - 1);
      return status;
    }
  }
  return Status::Ok();
}

Status ThreadPool::Run(size_t n, const StatusChunkFn& fn,
                       bool fault_points) {
  if (n == 0) return Status::Ok();
  OLAPIDX_METRIC_COUNTER(jobs, "pool.jobs");
  OLAPIDX_METRIC_GAUGE(active, "pool.active_jobs");
  jobs.Add(1);
  active.Add(1);
  // Balances the Add(1) above on every exit path of this function.
  struct ActiveJobGuard {
    Gauge& gauge;
    ~ActiveJobGuard() { gauge.Add(-1); }
  } active_guard{active};
  // Serial: chunk 0 holds all the work; it runs on the calling thread.
  if (num_threads() == 1 || n == 1) return RunInline(n, fn, fault_points, 1);
  bool owns_workers = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    owns_workers = job_ == nullptr;
    if (owns_workers) {
      job_ = &fn;
      job_n_ = n;
      job_fault_points_ = fault_points;
      std::fill(job_status_.begin(), job_status_.end(), Status::Ok());
      job_first_failed_.store(SIZE_MAX, std::memory_order_relaxed);
      pending_ = workers_.size();
      ++epoch_;
    } else {
      // Another job holds the workers, possibly the one this call runs in.
      OLAPIDX_METRIC_COUNTER(inline_jobs, "pool.jobs_inline");
      inline_jobs.Add(1);
    }
  }
  if (!owns_workers) return RunInline(n, fn, fault_points, num_threads());
  work_cv_.notify_all();
  RunChunk(n, 0, fault_points);
  // Deterministic reduction: the lowest-numbered failed chunk wins. It is
  // read before the pool is released to the next job.
  Status first_failure;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  for (Status& s : job_status_) {
    if (!s.ok()) {
      first_failure = std::move(s);
      break;
    }
  }
  job_ = nullptr;
  return first_failure;
}

void ThreadPool::ParallelFor(size_t n, const ChunkFn& fn) {
  StatusChunkFn wrapped = [&fn](size_t begin, size_t end,
                                size_t chunk) -> Status {
    fn(begin, end, chunk);
    return Status::Ok();
  };
  Status status = Run(n, wrapped, /*fault_points=*/false);
  // Infallible chunks with fault points off: nothing can fail.
  OLAPIDX_CHECK(status.ok());
}

Status ThreadPool::TryParallelFor(size_t n, const StatusChunkFn& fn) {
  OLAPIDX_FAULT_POINT("pool.enqueue");
  return Run(n, fn, /*fault_points=*/true);
}

void ThreadPool::WorkerLoop(size_t worker) {
  uint64_t seen = 0;
  for (;;) {
    size_t n = 0;
    bool fault_points = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || (epoch_ != seen && job_); });
      if (shutdown_) return;
      seen = epoch_;
      n = job_n_;
      fault_points = job_fault_points_;
    }
    RunChunk(n, worker, fault_points);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked deliberately: joining workers during static destruction is a
  // reliable source of shutdown hangs.
  static ThreadPool* pool = [] {
    size_t threads = std::thread::hardware_concurrency();
    if (const char* env = std::getenv("OLAPIDX_THREADS")) {
      long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) threads = static_cast<size_t>(parsed);
    }
    return new ThreadPool(threads == 0 ? 1 : threads);
  }();
  return *pool;
}

}  // namespace olapidx
