#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "mdengine/types.hpp"

namespace mummi::util {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

// The ParallelFor* cases pin the pool's blocked loop, util::for_blocks.
TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for_blocks(&pool, 1000, 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSmallRangeInline) {
  ThreadPool pool(4);
  int sum = 0;  // no atomics needed: a single-block range runs inline
  for_blocks(&pool, 10, 16, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  for_blocks(&pool, 0, 4, [&](std::size_t, std::size_t) { called = true; });
  for_blocks(nullptr, 0, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, ParallelForBlocksCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for_blocks(&pool, 1000, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForBlocksBoundariesIndependentOfPoolSize) {
  // The determinism contract: the set of [lo, hi) blocks is a function of
  // (n, block) only, so any per-block reduction is identical on every pool.
  auto block_set = [](ThreadPool& pool, std::size_t n, std::size_t block) {
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    for_blocks(&pool, n, block, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard lock(m);
      blocks.emplace_back(lo, hi);
    });
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  };
  ThreadPool p1(1), p2(2), p4(4);
  for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 1000u, 4096u}) {
    const auto want = block_set(p1, n, 64);
    EXPECT_EQ(block_set(p2, n, 64), want) << "n=" << n;
    EXPECT_EQ(block_set(p4, n, 64), want) << "n=" << n;
  }
}

TEST(ThreadPool, ParallelForBlocksNestedInsideWorkerRunsInline) {
  // A worker task issuing its own for_blocks must not deadlock
  // waiting on the (occupied) pool — the nested call runs inline.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t)
    futures.push_back(pool.submit([&pool, &total] {
      for_blocks(&pool, 100, 10, [&](std::size_t lo, std::size_t hi) {
        total += static_cast<int>(hi - lo);
      });
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, ParallelForBlocksPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(for_blocks(&pool, 1000, 16,
                          [&](std::size_t lo, std::size_t) {
                            if (lo == 512) throw std::runtime_error("x");
                          }),
               std::runtime_error);
}

TEST(ThreadPool, WaitIdleUnderConcurrentEnqueue) {
  // wait_idle must drain everything enqueued before the call even while
  // another thread keeps feeding the pool.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    while (!stop.load()) {
      pool.submit([&done] { ++done; });
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 50; ++round) {
    const int before = done.load();
    pool.submit([&done] { ++done; });
    pool.wait_idle();
    EXPECT_GT(done.load(), before);
  }
  stop = true;
  feeder.join();
  pool.wait_idle();
}

TEST(ForBlocks, SerialRunsBlocksInAscendingOrder) {
  // A null pool, a single-worker pool and a nested call all take the inline
  // path: blocks in ascending order on the caller, same boundaries.
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    for_blocks(pool, 10, 4, [&](std::size_t lo, std::size_t hi) {
      seen.emplace_back(lo, hi);
    });
    const std::vector<std::pair<std::size_t, std::size_t>> want{
        {0, 4}, {4, 8}, {8, 10}};
    EXPECT_EQ(seen, want);
  }
}

TEST(ForBlocks, ZeroBlockTreatedAsOne) {
  std::vector<std::size_t> los;
  for_blocks(nullptr, 3, 0, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(hi, lo + 1);
    los.push_back(lo);
  });
  EXPECT_EQ(los, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ForBlocks, FoldAfterPassIdenticalAtAnyPoolSize) {
  // The in-situ tick's shape: a blocked pass writes per-item state, then a
  // serial ascending fold reads it. Threads change wall time, never output.
  auto run = [](ThreadPool* pool) {
    std::vector<double> item(337);
    for_blocks(pool, item.size(), 8, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i)
        item[i] = 1.0 / static_cast<double>(i + 1);
    });
    double acc = 0;
    for (const double v : item) acc += v;
    return acc;
  };
  ThreadPool p2(2), p8(8);
  const double want = run(nullptr);
  EXPECT_EQ(run(&p2), want);
  EXPECT_EQ(run(&p8), want);
}

TEST(ForBlocks, ExceptionWaitsForEveryBlockBeforeRethrow) {
  // Block 0 throws at once while the other blocks are still queued or
  // running and write into a stack local of the calling frame. for_blocks
  // must join every block before the exception unwinds that frame.
  constexpr std::size_t kBlocks = 32;
  ThreadPool pool(4);
  std::atomic<std::size_t> finished{0};
  try {
    std::array<int, kBlocks> local{};
    for_blocks(&pool, kBlocks, 1, [&](std::size_t lo, std::size_t) {
      if (lo == 0) throw std::runtime_error("block 0");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      local[lo] = 1;
      ++finished;
    });
    ADD_FAILURE() << "for_blocks did not rethrow";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "block 0");
    EXPECT_EQ(finished.load(), kBlocks - 1);
  }
  pool.wait_idle();
}

TEST(ForBlocks, LowestFailingBlockWins) {
  // Several blocks fail: the rethrown exception is the lowest block's, not
  // whichever worker happened to fail first.
  ThreadPool pool(4);
  for (int rep = 0; rep < 5; ++rep) {
    try {
      for_blocks(&pool, 64, 4, [](std::size_t lo, std::size_t) {
        if (lo == 20 || lo == 40 || lo == 60)
          throw std::runtime_error(std::to_string(lo));
      });
      ADD_FAILURE() << "for_blocks did not rethrow";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "20");
    }
  }
}

TEST(ForBlocks, SerialExceptionStopsAtFailingBlock) {
  std::vector<std::size_t> los;
  EXPECT_THROW(for_blocks(nullptr, 10, 2,
                          [&](std::size_t lo, std::size_t) {
                            los.push_back(lo);
                            if (lo == 4) throw std::runtime_error("x");
                          }),
               std::runtime_error);
  EXPECT_EQ(los, (std::vector<std::size_t>{0, 2, 4}));
}

// Fork-join dispatch: the caller claims blocks alongside the workers, a
// second caller finding a pass in flight runs inline, and nested calls run
// inline wherever they start.

/// Occupies every worker of `pool` with a task that blocks until release().
class WorkerGate {
 public:
  explicit WorkerGate(ThreadPool& pool) {
    for (std::size_t i = 0; i < pool.size(); ++i)
      done_.push_back(pool.submit([this] {
        ++entered_;
        std::unique_lock lock(m_);
        cv_.wait(lock, [this] { return open_; });
      }));
    while (entered_.load() < done_.size()) std::this_thread::yield();
  }
  ~WorkerGate() { release(); }
  void release() {
    {
      std::lock_guard lock(m_);
      open_ = true;
    }
    cv_.notify_all();
    for (auto& f : done_) f.get();
    done_.clear();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<std::size_t> entered_{0};
  std::vector<std::future<void>> done_;
};

TEST(ForBlocks, CallerRunsEveryBlockWhileWorkersAreBusy) {
  // With every worker held by a task, a queue-and-wait dispatcher would
  // hang; fork-join finishes because the caller claims all blocks itself.
  ThreadPool pool(3);
  WorkerGate gate(pool);
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> off_caller{0};
  for_blocks(&pool, hits.size(), 7, [&](std::size_t lo, std::size_t hi) {
    if (std::this_thread::get_id() != caller) ++off_caller;
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(off_caller.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForBlocks, CallerBlockExceptionStillRunsTheRestThenRethrowsLowest) {
  // Workers busy, so the caller runs every block: a failing block does not
  // stop the pass (as it would inline), and the lowest failure is rethrown.
  ThreadPool pool(2);
  WorkerGate gate(pool);
  std::vector<std::size_t> ran;
  try {
    for_blocks(&pool, 10, 2, [&](std::size_t lo, std::size_t) {
      ran.push_back(lo);
      if (lo == 6 || lo == 2) throw std::runtime_error(std::to_string(lo));
    });
    ADD_FAILURE() << "for_blocks did not rethrow";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "2");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

TEST(ForBlocks, SecondCallerOnABusyPoolRunsInlineWithSameBoundaries) {
  // Caller A's pass holds the pool (each of its blocks waits for B); caller
  // B must run its own blocks inline, in ascending order, on its thread.
  ThreadPool pool(2);
  std::promise<void> a_started, b_done;
  std::shared_future<void> b_done_f = b_done.get_future().share();
  std::once_flag started_once;
  std::thread a([&] {
    for_blocks(&pool, 2, 1, [&](std::size_t, std::size_t) {
      std::call_once(started_once, [&] { a_started.set_value(); });
      b_done_f.wait();
    });
  });
  a_started.get_future().wait();
  const auto b_thread = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  bool all_on_b = true;
  for_blocks(&pool, 10, 4, [&](std::size_t lo, std::size_t hi) {
    all_on_b &= std::this_thread::get_id() == b_thread;
    seen.emplace_back(lo, hi);
  });
  b_done.set_value();
  a.join();
  EXPECT_TRUE(all_on_b);
  const std::vector<std::pair<std::size_t, std::size_t>> want{
      {0, 4}, {4, 8}, {8, 10}};
  EXPECT_EQ(seen, want);
}

TEST(ForBlocks, TwoThreadsSharingOnePoolBothGetCorrectResults) {
  // Two non-worker callers hammer one pool at once: whichever finds it busy
  // runs inline, so neither deadlocks and both sums come out exact.
  ThreadPool pool(4);
  auto hammer = [&pool](std::uint64_t seed) {
    std::uint64_t bad = 0;
    std::vector<std::uint64_t> part(64);
    for (int rep = 0; rep < 300; ++rep) {
      const std::size_t n = 200 + (seed * 7 + rep * 13) % 800;
      std::fill(part.begin(), part.end(), 0);
      for_blocks(&pool, n, 16, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) part[lo / 16] += i + seed;
      });
      const std::uint64_t got =
          std::accumulate(part.begin(), part.end(), std::uint64_t{0});
      if (got != n * (n - 1) / 2 + n * seed) ++bad;
    }
    return bad;
  };
  std::uint64_t bad_other = 0;
  std::thread other([&] { bad_other = hammer(1000); });
  const std::uint64_t bad_main = hammer(1);
  other.join();
  EXPECT_EQ(bad_main, 0u);
  EXPECT_EQ(bad_other, 0u);
}

TEST(ForBlocks, NestedCallsRunInlineOnTheThreadThatMadeThem) {
  // Blocks run by the caller and by workers each make a nested for_blocks
  // on the same pool: every nested pass runs inline, ascending, on the
  // thread that made it (the caller's own pass keeps the pool busy).
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  std::atomic<int> total{0};
  for_blocks(&pool, 16, 1, [&](std::size_t, std::size_t) {
    const auto outer = std::this_thread::get_id();
    std::size_t expect_lo = 0;
    for_blocks(&pool, 50, 8, [&](std::size_t lo, std::size_t hi) {
      if (std::this_thread::get_id() != outer || lo != expect_lo) ++bad;
      expect_lo = hi;
      total += static_cast<int>(hi - lo);
    });
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(total.load(), 16 * 50);
}

TEST(ForBlocks, DetBlockRule) {
  EXPECT_EQ(det_block(100, 512, 16), 512u);
  EXPECT_EQ(det_block(16000, 512, 16), 1000u);
  EXPECT_EQ(det_block(16001, 512, 16), 1001u);
  EXPECT_EQ(block_count(0, 512), 0u);
  EXPECT_EQ(block_count(100, 512), 1u);
  EXPECT_EQ(block_count(16001, 1001), 16u);
}

// BlockScratch: per-block scatter buffers folded in ascending block order.
// Each check runs for Vec3 (the MD force scatter) and double (the continuum
// footprint stamps) on 1-, 2- and 8-worker pools.

template <typename T>
T element(std::size_t b, std::size_t i);

template <>
double element<double>(std::size_t b, std::size_t i) {
  // Magnitudes spread over many exponents so the fold order shows in the bits.
  return std::ldexp(1.0 + 0.37 * static_cast<double>((b * 7919 + i) % 101),
                    static_cast<int>((b * 13 + i) % 40) - 20);
}

template <>
md::Vec3 element<md::Vec3>(std::size_t b, std::size_t i) {
  return {element<double>(b, i), -element<double>(b + 3, i),
          element<double>(b, i + 5)};
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <typename T>
bool all_zero(BlockScratch<T>& scratch, std::size_t nblocks,
              std::size_t span) {
  const std::vector<T> zero(span, T{});
  for (std::size_t b = 0; b < nblocks; ++b)
    if (std::memcmp(scratch.block(b), zero.data(), span * sizeof(T)) != 0)
      return false;
  return true;
}

template <typename T>
void check_fold_bit_identical_and_zeroed() {
  constexpr std::size_t kBlocks = 7, kSpan = 9000;  // fold itself fans out
  std::vector<T> want(kSpan);
  for (std::size_t i = 0; i < kSpan; ++i) {
    want[i] = element<T>(99, i);
    for (std::size_t b = 0; b < kBlocks; ++b) want[i] += element<T>(b, i);
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    BlockScratch<T> scratch;
    for (int round = 0; round < 2; ++round) {  // second round reuses buffers
      scratch.reset(kBlocks, kSpan);
      for_blocks(&pool, kBlocks, 1, [&](std::size_t b, std::size_t) {
        T* f = scratch.block(b);
        for (std::size_t i = 0; i < kSpan; ++i) f[i] += element<T>(b, i);
      });
      std::vector<T> out(kSpan);
      for (std::size_t i = 0; i < kSpan; ++i) out[i] = element<T>(99, i);
      scratch.fold_into(out.data(), &pool);
      EXPECT_TRUE(same_bits(out, want)) << workers << " workers";
      EXPECT_TRUE(all_zero(scratch, kBlocks, kSpan)) << workers << " workers";
    }
  }
}

TEST(BlockScratch, FoldBitIdenticalAndZeroedVec3) {
  check_fold_bit_identical_and_zeroed<md::Vec3>();
}

TEST(BlockScratch, FoldBitIdenticalAndZeroedDouble) {
  check_fold_bit_identical_and_zeroed<double>();
}

template <typename T>
void check_reset_after_throw_reclears() {
  constexpr std::size_t kSpan = 64;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    BlockScratch<T> scratch;
    auto scatter_then_throw = [&](std::size_t nblocks) {
      scratch.reset(nblocks, kSpan);
      EXPECT_THROW(for_blocks(&pool, nblocks, 1,
                              [&](std::size_t b, std::size_t) {
                                T* f = scratch.block(b);
                                for (std::size_t i = 0; i < kSpan; ++i)
                                  f[i] += element<T>(b, i);
                                if (b == 0) throw std::runtime_error("x");
                              }),
                   std::runtime_error);
    };
    // Same shape: the reset after the throw re-clears every block.
    scatter_then_throw(4);
    scratch.reset(4, kSpan);
    EXPECT_TRUE(all_zero(scratch, 4, kSpan)) << workers << " workers";
    // Shrink after the throw, fold, then grow back: the blocks the smaller
    // shape never used must not come back dirty.
    scatter_then_throw(4);
    scratch.reset(2, kSpan);
    std::vector<T> out(kSpan);
    scratch.fold_into(out.data(), &pool);
    EXPECT_TRUE(same_bits(out, std::vector<T>(kSpan))) << workers;
    scratch.reset(4, kSpan);
    EXPECT_TRUE(all_zero(scratch, 4, kSpan)) << workers << " workers";
  }
}

TEST(BlockScratch, ResetAfterThrowReclearsVec3) {
  check_reset_after_throw_reclears<md::Vec3>();
}

TEST(BlockScratch, ResetAfterThrowReclearsDouble) {
  check_reset_after_throw_reclears<double>();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().size(), 1u);
}

}  // namespace
}  // namespace mummi::util
