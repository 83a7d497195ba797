// Fixed-size worker pool with task futures, plus the one deterministic
// blocked-parallel loop (for_blocks, a fork-join over the same workers) and
// its per-block scatter buffer (BlockScratch).
//
// This is the process-pool analogue of the paper's "tailored multiprocessing
// pools" (Task 4) and also drives the thread-parallel force/field loops in
// the MD and DDFT engines and the campaign's in-situ analysis plane.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mummi::util {

class ThreadPool {
 public:
  /// Pool of `nthreads` workers; 0 means std::thread::hardware_concurrency().
  /// Worker threads are spawned lazily on the first `submit` or parallel
  /// for_blocks pass — a pool whose callers only ever take the inline paths
  /// (single worker, tiny ranges, nested calls) never creates a thread,
  /// which keeps single-threaded processes on the allocator's uncontended
  /// fast path.
  explicit ThreadPool(std::size_t nthreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return target_; }

  /// Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    std::call_once(spawned_, [this] { spawn_workers(); });
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Blocks until every queued and running task has finished.
  void wait_idle();

 private:
  friend void for_blocks(ThreadPool*, std::size_t, std::size_t,
                         const std::function<void(std::size_t, std::size_t)>&);

  /// One fork-join pass of for_blocks, owned by the posting caller's frame.
  /// Every participant claims blocks from `next` until it runs past
  /// `nblocks`; a failing block's exception is kept only if it is the
  /// lowest failing block so far (under the pool mutex).
  struct Job {
    Job(const std::function<void(std::size_t, std::size_t)>& f,
        std::size_t n_items, std::size_t block_size, std::size_t blocks)
        : fn(&f), n(n_items), block(block_size), nblocks(blocks),
          error_block(blocks) {}

    const std::function<void(std::size_t, std::size_t)>* fn;
    std::size_t n, block, nblocks;
    std::atomic<std::size_t> next{0};
    std::size_t error_block;  // == nblocks while no block has failed
    std::exception_ptr error;
    std::size_t workers = 0;  // pool workers inside the pass (pool mutex)
  };

  void worker_loop();
  void spawn_workers();
  /// Posts `job` as the pool's one in-flight job and wakes up to
  /// nblocks - 1 idle workers. False (nothing posted) if a job is in flight.
  bool post(Job& job);
  /// Claims and runs blocks of `job` until none are left.
  void run_blocks(Job& job);
  /// Waits until no worker is still inside `job`, then unposts it.
  void join(Job& job);

  std::size_t target_ = 1;
  std::once_flag spawned_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
  Job* job_ = nullptr;  // the in-flight for_blocks pass, if any
  std::uint64_t job_gen_ = 0;  // bumped per post; a worker joins each once
  std::condition_variable job_cv_;  // some Job::workers fell to 0
};

/// Process-level singleton pool for library internals (MD forces, DDFT
/// stencils). Sized once from hardware concurrency.
ThreadPool& global_pool();

/// The one blocked-parallel loop: runs fn(begin, end) over [0, n) in blocks
/// of `block` and waits for all of them. Block boundaries are a function of
/// (n, block) only — never of the worker count — so a kernel that touches
/// only state owned by its block, or folds per-block partials in ascending
/// block order afterwards (BlockScratch), is bit-identical at any pool size.
///
/// Blocks run serially in ascending order on the caller when pool is null,
/// single-worker, the range is a single block, the call is nested inside a
/// pool task or another for_blocks pass on this pool, or a different thread
/// already has a pass in flight on it (no queueing behind a busy pool, no
/// deadlock). Otherwise the call is a fork-join: the caller posts one job,
/// wakes the idle workers once, and claims blocks from a shared counter
/// alongside them, in unspecified order. If blocks throw, every block still
/// finishes before the exception of the lowest-numbered failing block is
/// rethrown, so no worker outlives fn or the caller's locals it captures.
void for_blocks(ThreadPool* pool, std::size_t n, std::size_t block,
                const std::function<void(std::size_t, std::size_t)>& fn);

/// Block size for deterministic fan-out over n items: about `target_blocks`
/// blocks (slack for a pool to balance), never below `min_block` items so
/// small inputs do not pay fan-out overhead. Depends on its arguments only.
constexpr std::size_t det_block(std::size_t n, std::size_t min_block,
                                std::size_t target_blocks) {
  return std::max(min_block, (n + target_blocks - 1) / target_blocks);
}

/// Number of blocks of size `block` covering [0, n).
constexpr std::size_t block_count(std::size_t n, std::size_t block) {
  return (n + block - 1) / block;
}

/// Per-block scatter buffers with an ascending-block fold.
///
/// Block b writes freely into block(b) (`span` zeroed Ts) — e.g. a force or
/// density stamp scattered to arbitrary indices. fold_into adds the buffers
/// into `out` element by element in ascending block order, so the sum is
/// bit-identical for any worker count, and re-zeroes them on the way out:
/// the next reset() on the same shape skips the O(nblocks * span) clear.
/// An exception between reset and fold leaves buffers dirty; the next
/// reset() re-clears every buffer it owns. T needs a zero T{} and +=.
template <typename T>
class BlockScratch {
 public:
  /// Ensures `nblocks` zeroed buffers of `span` elements each.
  void reset(std::size_t nblocks, std::size_t span) {
    if (buf_.size() < nblocks) buf_.resize(nblocks);
    for (std::size_t b = 0; b < buf_.size(); ++b) {
      // Buffers a fold left behind are already zero; only a shape change
      // (or writes never folded) forces a clear. A dirty buffer beyond
      // `nblocks` is cleared too, or a later, larger reset would reuse it.
      if (dirty_ || (b < nblocks && buf_[b].size() != span))
        buf_[b].assign(b < nblocks ? span : buf_[b].size(), T{});
    }
    nblocks_ = nblocks;
    span_ = span;
    dirty_ = true;
  }

  [[nodiscard]] T* block(std::size_t b) { return buf_[b].data(); }

  /// out[i] += block(b)[i] for b ascending, for every i < span; zeroes the
  /// buffers. Elements are independent, so the fold itself fans out.
  void fold_into(T* out, ThreadPool* pool) {
    if (nblocks_ > 0)
      for_blocks(pool, span_, det_block(span_, 4096, 16),
                 [this, out](std::size_t lo, std::size_t hi) {
                   for (std::size_t b = 0; b < nblocks_; ++b) {
                     T* f = buf_[b].data();
                     for (std::size_t i = lo; i < hi; ++i) {
                       out[i] += f[i];
                       f[i] = T{};
                     }
                   }
                 });
    dirty_ = false;
  }

 private:
  std::size_t nblocks_ = 0;
  std::size_t span_ = 0;
  bool dirty_ = false;  // writes pending that fold_into has not folded
  std::vector<std::vector<T>> buf_;
};

/// Pool resolution for engine configs whose `pool` field is null: the shared
/// global_pool() when MUMMI_POOL_SIZE requests more than one worker, nullptr
/// (serial) otherwise. Read on every call (cheap, per-engine not per-step)
/// so tests and tools can flip the env var. Output is bit-identical either
/// way — the env var only trades wall time.
ThreadPool* env_shared_pool();

}  // namespace mummi::util
