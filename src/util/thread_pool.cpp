#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace mummi::util {

namespace {
// Set while a pool worker runs a task or its share of a for_blocks pass;
// nested for_blocks calls run inline instead of posting to a pool whose
// workers may all be busy.
thread_local bool t_in_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t nthreads) {
  if (nthreads == 0) nthreads = std::max(1u, std::thread::hardware_concurrency());
  target_ = nthreads;
}

void ThreadPool::spawn_workers() {
  workers_.reserve(target_);
  for (std::size_t i = 0; i < target_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t joined_gen = 0;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] {
        return stop_ || !queue_.empty() ||
               (job_ != nullptr && job_gen_ != joined_gen);
      });
      if (job_ != nullptr && job_gen_ != joined_gen) {
        // A for_blocks pass: join it once, help until its blocks run out.
        joined_gen = job_gen_;
        Job* job = job_;
        ++job->workers;
        lock.unlock();
        t_in_worker = true;
        run_blocks(*job);
        t_in_worker = false;
        lock.lock();
        // The caller may free the job as soon as it sees 0: last touch.
        if (--job->workers == 0) job_cv_.notify_one();
        continue;
      }
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    t_in_worker = true;
    task();
    t_in_worker = false;
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::post(Job& job) {
  std::call_once(spawned_, [this] { spawn_workers(); });
  {
    std::lock_guard lock(mutex_);
    if (job_ != nullptr) return false;
    job_ = &job;
    ++job_gen_;
  }
  // The caller takes a share itself, so at most nblocks - 1 helpers. Waking
  // the whole pool is one broadcast instead of one futex wake per worker.
  const std::size_t helpers = std::min(job.nblocks - 1, target_);
  if (helpers == target_) {
    cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < helpers; ++i) cv_.notify_one();
  }
  return true;
}

void ThreadPool::run_blocks(Job& job) {
  for (;;) {
    const std::size_t b = job.next.fetch_add(1);
    if (b >= job.nblocks) return;
    try {
      (*job.fn)(b * job.block, std::min((b + 1) * job.block, job.n));
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (b < job.error_block) {
        job.error_block = b;
        job.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::join(Job& job) {
  // Every block is claimed by now, and a claimed block finishes before its
  // participant leaves: once no worker is inside, every block is done. The
  // mutex hand-off also publishes the workers' writes to the caller.
  // A worker that wakes late still joins, finds no block left and leaves;
  // the pass stays posted (the pool busy) until the last one is out.
  std::unique_lock lock(mutex_);
  job_cv_.wait(lock, [&job] { return job.workers == 0; });
  job_ = nullptr;
}

void for_blocks(ThreadPool* pool, std::size_t n, std::size_t block,
                const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (block == 0) block = 1;
  const std::size_t nblocks = block_count(n, block);
  // The boundary sequence depends only on (n, block); the pool (and whether
  // we execute inline) only changes *where* blocks run.
  ThreadPool::Job job(fn, n, block, nblocks);
  if (pool == nullptr || pool->size() <= 1 || nblocks <= 1 || t_in_worker ||
      !pool->post(job)) {
    for (std::size_t b = 0; b < nblocks; ++b)
      fn(b * block, std::min((b + 1) * block, n));
    return;
  }
  pool->run_blocks(job);
  pool->join(job);
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool* env_shared_pool() {
  if (const char* env = std::getenv("MUMMI_POOL_SIZE")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 1) return &global_pool();
  }
  return nullptr;
}

ThreadPool& global_pool() {
  // MUMMI_POOL_SIZE overrides the hardware-concurrency default; campaign
  // output is identical for every setting (for_blocks pins block
  // boundaries to the data, not the workers), and CI exercises that claim by
  // rerunning benches under different sizes.
  static ThreadPool pool([] {
    if (const char* env = std::getenv("MUMMI_POOL_SIZE")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace mummi::util
