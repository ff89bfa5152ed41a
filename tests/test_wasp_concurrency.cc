// Concurrency regression tests for the scale-out invocation engine: the
// sharded pool under multi-threaded Acquire/Release, the cleaner crew, the
// executor's future path and RunVirtual, and snapshot take/restore races.
// The suite asserts *conservation* (no shell lost, stats add up) and
// correctness of results under contention; run it under TSan (TSAN=1
// ./ci.sh) to check the synchronization itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/executor.h"
#include "src/wasp/freelist.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 16;

void HammerPool(wasp::Pool& pool) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      vkvm::VmConfig cfg;
      // Two mem sizes so free lists are keyed, not monolithic.
      cfg.mem_size = (t % 2 == 0) ? (1ULL << 20) : (2ULL << 20);
      for (int i = 0; i < kItersPerThread; ++i) {
        auto vm = pool.Acquire(cfg);
        ASSERT_NE(vm, nullptr);
        uint8_t b = static_cast<uint8_t>(t);
        ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
        pool.Release(std::move(vm));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

TEST(Concurrency, PoolHammerSyncConservesShells) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  HammerPool(pool);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(stats.releases, stats.acquires);
  EXPECT_EQ(stats.acquires, stats.pool_hits + stats.fresh_creates);
  EXPECT_EQ(stats.cleans, stats.releases);
  // Every fresh-created shell must end up parked in some free list.
  EXPECT_EQ(pool.TotalFreeShells(), stats.fresh_creates);
}

TEST(Concurrency, PoolHammerAsyncCleanerCrewConservesShells) {
  wasp::Pool pool(wasp::CleanMode::kAsync);
  HammerPool(pool);
  pool.DrainCleaner();
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(stats.releases, stats.acquires);
  EXPECT_EQ(stats.acquires, stats.pool_hits + stats.fresh_creates);
  EXPECT_EQ(stats.cleans, stats.releases);
  EXPECT_EQ(pool.TotalFreeShells(), stats.fresh_creates);
}

TEST(Concurrency, CleanerCrewDrainsBeforeStatsRead) {
  wasp::Pool pool(wasp::CleanMode::kAsync);
  vkvm::VmConfig cfg;
  for (int i = 0; i < 6; ++i) {
    auto vm = pool.Acquire(cfg);
    uint8_t b = 1;
    ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
    pool.Release(std::move(vm));
  }
  pool.DrainCleaner();
  EXPECT_EQ(pool.stats().cleans, 6u);
  EXPECT_EQ(pool.TotalFreeShells(), pool.stats().fresh_creates);
}

TEST(Concurrency, DestructionWithPendingDirtyShellsDoesNotHang) {
  // No DrainCleaner: the destructor itself must shut the crew down with
  // dirty shells still queued — no deadlock, no leak (ASan/TSan cover the
  // memory and ordering; completion of this test body is the assertion).
  wasp::Pool pool(wasp::CleanMode::kAsync);
  vkvm::VmConfig cfg;
  for (int i = 0; i < 6; ++i) {
    auto vm = pool.Acquire(cfg);
    uint8_t b = 1;
    ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
    pool.Release(std::move(vm));
  }
}

TEST(Concurrency, ConcurrentInvokeComputesCorrectResults) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  wasp::Runtime runtime(options);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&runtime, &image, &failures, t] {
      wasp::VirtineSpec spec;
      spec.image = &image.value();
      wasp::VirtineFunc<int64_t(int64_t, int64_t)> add(&runtime, spec);
      for (int i = 0; i < kItersPerThread; ++i) {
        auto r = add.Call(t, i);
        if (!r.ok() || *r != t + i) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  runtime.pool().DrainCleaner();
  const wasp::PoolStats stats = runtime.pool().stats();
  EXPECT_EQ(stats.acquires, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(stats.acquires, stats.pool_hits + stats.fresh_creates);
  EXPECT_EQ(stats.releases, stats.acquires);
  EXPECT_EQ(runtime.pool().TotalFreeShells(), stats.fresh_creates);
}

// Keyed Acquire racing Release (and ReleaseAffine) on the same snapshot
// generation: shells must be conserved, and an affine hit must always carry
// the parked memory while non-affine paths only ever see cleaned shells.
TEST(Concurrency, KeyedAcquireReleaseRaceConservesShells) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  static constexpr uint64_t kGenerations[] = {101, 202};
  std::atomic<int> leaks{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &leaks, t] {
      vkvm::VmConfig cfg;
      const uint64_t generation = kGenerations[t % 2];
      for (int i = 0; i < kItersPerThread; ++i) {
        bool affine = false;
        auto vm = pool.AcquireAffine(cfg, generation, &affine);
        ASSERT_NE(vm, nullptr);
        const uint8_t tag = static_cast<uint8_t>(0x10 + t % 2);
        if (affine) {
          // An affine shell must hold its generation's tag, never the
          // sibling generation's.
          if (vm->memory().data()[0x9000] != tag) {
            leaks.fetch_add(1);
          }
        } else if (vm->memory().data()[0x9000] != 0) {
          leaks.fetch_add(1);  // a clean shell leaked prior memory
        }
        ASSERT_TRUE(vm->memory().Write(0x9000, &tag, 1).ok());
        if (i % 4 == 3) {
          pool.Release(std::move(vm));  // occasionally retire through cleaning
        } else {
          vm->memory().BeginEpoch();
          pool.ReleaseAffine(std::move(vm), generation);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(leaks.load(), 0);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(stats.releases, stats.acquires);
  EXPECT_EQ(stats.acquires, stats.pool_hits + stats.fresh_creates);
  // Conservation: every shell ever created is parked free or affine.
  EXPECT_EQ(pool.TotalFreeShells() + pool.TotalAffineShells(), stats.fresh_creates);
  EXPECT_GT(stats.affine_parks, 0u);
}

// Two threads cycling disjoint key sets: a keyed acquire pops only its own
// generation's stack, so once a key has parked, every acquire of it is an
// affine hit, and neither thread ever takes a shell the other parked.
TEST(Concurrency, DisjointThreadsNeverTakeEachOthersParkedShells) {
  constexpr uint64_t kKeysPerThread = 8;
  constexpr int kRounds = 16;
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  // A clean shell for every key's first acquire, so none reclaims a
  // parked shell.
  pool.Prewarm(cfg, static_cast<int>(2 * kKeysPerThread));
  std::atomic<int> misses{0};
  std::atomic<int> leaks{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 2; ++t) {
    threads.emplace_back([&pool, &misses, &leaks, &cfg, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t k = 0; k < kKeysPerThread; ++k) {
          const uint64_t generation = 100 * (t + 1) + k;
          const uint8_t tag = static_cast<uint8_t>(generation);
          bool affine = false;
          auto vm = pool.AcquireAffine(cfg, generation, &affine);
          ASSERT_NE(vm, nullptr);
          if (round > 0 && !affine) {
            misses.fetch_add(1);
          }
          if (vm->memory().data()[0x9000] != (affine ? tag : 0)) {
            leaks.fetch_add(1);
          }
          ASSERT_TRUE(vm->memory().Write(0x9000, &tag, 1).ok());
          vm->memory().BeginEpoch();
          pool.ReleaseAffine(std::move(vm), generation);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(misses.load(), 0);
  EXPECT_EQ(leaks.load(), 0);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.fresh_creates, 0u);
  EXPECT_EQ(stats.affine_hits, 2 * kKeysPerThread * (kRounds - 1));
}

// A shell parked under a generation is found by the next keyed acquire of
// that generation, whichever thread parked it: it waits on the
// generation's own stack, where every thread's acquire looks first.
TEST(Concurrency, AKeyedAcquireFindsAShellAnotherThreadParked) {
  constexpr uint64_t kGeneration = 7;
  constexpr uint8_t kTag = 0x77;
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  pool.Prewarm(cfg, 2);
  std::thread parker([&pool, &cfg] {
    bool hit = false;
    auto vm = pool.AcquireAffine(cfg, kGeneration, &hit);
    ASSERT_NE(vm, nullptr);
    const uint8_t tag = kTag;
    ASSERT_TRUE(vm->memory().Write(0x9000, &tag, 1).ok());
    vm->memory().BeginEpoch();
    pool.ReleaseAffine(std::move(vm), kGeneration);
  });
  parker.join();
  bool hit = false;
  std::unique_ptr<vkvm::Vm> vm;
  std::thread taker(
      [&pool, &cfg, &hit, &vm] { vm = pool.AcquireAffine(cfg, kGeneration, &hit); });
  taker.join();
  ASSERT_NE(vm, nullptr);
  EXPECT_TRUE(hit) << "the warm shell was hidden from another thread";
  EXPECT_EQ(vm->memory().data()[0x9000], kTag);
  EXPECT_EQ(pool.TotalFreeShells(), 1u) << "a clean shell was taken instead";
  pool.ReleaseAffine(std::move(vm), kGeneration);
}

// Runtime-level: concurrent snapshot-backed invocations on one key, with the
// affine fast path engaged, must all compute the right answer.
TEST(Concurrency, AffineRestoreRaceComputesCorrectResults) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  wasp::Runtime runtime(options);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&runtime, &image, &failures] {
      wasp::VirtineSpec spec;
      spec.image = &image.value();
      spec.key = "affine-race";
      spec.use_snapshot = true;
      wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
      for (int i = 0; i < 8; ++i) {
        auto r = fib.Call(10);
        if (!r.ok() || *r != 55) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Steady state guarantees parks (every successful warm run re-parks its
  // shell); affine hits depend on scheduling but the counters must agree.
  const wasp::PoolStats stats = runtime.pool().stats();
  EXPECT_GT(stats.affine_parks, 0u);
  EXPECT_GE(stats.affine_parks, stats.affine_hits);
}

TEST(Concurrency, SnapshotTakeRestoreRaceIsConsistent) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  wasp::Runtime runtime(options);
  const int64_t expected = 55;  // fib(10)
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  // All threads race the first-run snapshot Put on the same key, then keep
  // restoring from it; every run must return fib(10) regardless of which
  // thread's snapshot won.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&runtime, &image, &failures] {
      wasp::VirtineSpec spec;
      spec.image = &image.value();
      spec.key = "race-key";
      spec.use_snapshot = true;
      wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
      for (int i = 0; i < 6; ++i) {
        auto r = fib.Call(10);
        if (!r.ok() || *r != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(runtime.snapshots().size(), 1u);
}

TEST(Concurrency, RunVirtualRunsAllSpecs) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  wasp::Runtime runtime(options);
  std::vector<wasp::Executor::Arrival> arrivals(32);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    wasp::VirtineSpec& spec = arrivals[i].spec;
    spec.image = &image.value();
    spec.word_bytes = 8;
    wasp::ArgPacker packer(spec.word_bytes);
    packer.AddWord(static_cast<uint64_t>(i));
    packer.AddWord(100);
    spec.args_page = packer.Finish();
  }
  wasp::ExecutorOptions executor_options;
  executor_options.workers = kThreads;
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(&runtime, executor_options, std::move(arrivals));
  ASSERT_EQ(run.served.size(), 32u);
  uint64_t total = 0;
  std::vector<uint64_t> lane_cycles(kThreads, 0);
  double makespan_us = 0;
  for (size_t i = 0; i < run.served.size(); ++i) {
    const wasp::Executor::Served& served = run.served[i];
    ASSERT_TRUE(served.outcome.status.ok()) << served.outcome.status.ToString();
    EXPECT_EQ(served.outcome.result_word, i + 100) << "outcome order scrambled";
    total += served.outcome.stats.total_cycles;
    ASSERT_LT(served.lane, static_cast<uint32_t>(kThreads));
    lane_cycles[served.lane] += served.outcome.stats.total_cycles;
    makespan_us = std::max(makespan_us, served.done_us);
  }
  // Every lane took work, and the busiest one bounds the batch: at least an
  // even share of the total, well under the whole of it.
  const uint64_t busiest = *std::max_element(lane_cycles.begin(), lane_cycles.end());
  EXPECT_EQ(std::count(lane_cycles.begin(), lane_cycles.end(), 0u), 0);
  EXPECT_GE(busiest, total / kThreads);
  EXPECT_LT(busiest, total);
  EXPECT_NEAR(makespan_us, vbase::CyclesToMicros(busiest), 1e-6 * makespan_us);
  EXPECT_EQ(run.stats.completed, 32u);
}

// --- Bounded admission (ExecutorOptions) --------------------------------------

// A task that parks its worker until the gate opens, so tests can fill the
// queue behind it deterministically.
wasp::Executor::Task GateTask(std::shared_future<void> gate) {
  return [gate] {
    gate.wait();
    return wasp::RunOutcome{};
  };
}

// Waits until the (single) worker has dequeued the gate task, i.e. the
// queue is observably empty while the worker is parked.
void AwaitWorkerParked(wasp::Executor& executor) {
  for (int i = 0; i < 5000 && executor.stats().queued > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(executor.stats().queued, 0u);
}

TEST(Concurrency, ExecutorQueueFillsToDepthThenTrySubmitRejects) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 2;
  options.block_when_full = false;
  wasp::Executor executor(&runtime, options);
  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  // Two quick jobs fill the queue to max_queue_depth.
  std::future<wasp::RunOutcome> queued[2];
  for (auto& future : queued) {
    ASSERT_TRUE(executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &future));
  }
  EXPECT_EQ(executor.stats().queued, 2u);

  // Both the task and the VirtineSpec entry points must now reject.
  std::future<wasp::RunOutcome> rejected;
  EXPECT_FALSE(executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &rejected));
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  EXPECT_FALSE(executor.TrySubmit(spec, &rejected));
  const wasp::ExecutorStats mid = executor.stats();
  EXPECT_EQ(mid.rejected, 2u);
  EXPECT_EQ(mid.submitted, 3u);  // gate + two queued; rejects never enqueue
  EXPECT_EQ(mid.peak_queue_depth, 2u);

  gate.set_value();
  gated.get();
  for (auto& future : queued) {
    future.get();
  }
  // Space freed: the same TrySubmit now succeeds and runs a real invocation.
  std::future<wasp::RunOutcome> accepted;
  wasp::ArgPacker packer(8);
  packer.AddWord(20);
  packer.AddWord(22);
  spec.args_page = packer.Finish();
  ASSERT_TRUE(executor.TrySubmit(spec, &accepted));
  wasp::RunOutcome outcome = accepted.get();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 42u);
}

TEST(Concurrency, ExecutorBlockingModeNeverRejects) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.block_when_full = true;
  wasp::Executor executor(&runtime, options);
  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  // Fill the queue, then hammer TrySubmitTask from several threads: every
  // submission must block for space and eventually be accepted.
  std::future<wasp::RunOutcome> queued;
  ASSERT_TRUE(executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &queued));
  constexpr int kSubmitters = 4;
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&executor, &accepted] {
      std::future<wasp::RunOutcome> future;
      if (executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &future)) {
        accepted.fetch_add(1);
        future.get();
      }
    });
  }
  // The submitters are blocked on a full queue until the gate opens.
  gate.set_value();
  gated.get();
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(accepted.load(), kSubmitters);
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kSubmitters) + 2);
}

TEST(Concurrency, ExecutorDestructionDrainsAllAcceptedFutures) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  constexpr int kJobs = 12;
  std::vector<std::future<wasp::RunOutcome>> futures;
  std::vector<wasp::VirtineSpec> specs(kJobs);
  {
    wasp::ExecutorOptions options;
    options.workers = 2;
    options.max_queue_depth = 0;
    options.block_when_full = true;
    wasp::Executor executor(&runtime, options);
    for (int i = 0; i < kJobs; ++i) {
      wasp::VirtineSpec& spec = specs[static_cast<size_t>(i)];
      spec.image = &image.value();
      wasp::ArgPacker packer(8);
      packer.AddWord(static_cast<uint64_t>(i));
      packer.AddWord(1000);
      spec.args_page = packer.Finish();
      ASSERT_TRUE(executor.TrySubmit(spec, &futures.emplace_back()));
    }
    // Executor destroyed with most jobs still queued.
  }
  for (int i = 0; i < kJobs; ++i) {
    auto& future = futures[static_cast<size_t>(i)];
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "job " << i << " not drained";
    wasp::RunOutcome outcome = future.get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, static_cast<uint64_t>(i) + 1000);
  }
}

TEST(Concurrency, ExecutorRejectionCountersMatchObservedRejections) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.block_when_full = false;
  wasp::Executor executor(&runtime, options);
  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  uint64_t observed_accepts = 0;
  uint64_t observed_rejects = 0;
  std::vector<std::future<wasp::RunOutcome>> futures;
  for (int i = 0; i < 20; ++i) {
    std::future<wasp::RunOutcome> future;
    if (executor.TrySubmitTask([] { return wasp::RunOutcome{}; }, &future)) {
      ++observed_accepts;
      futures.push_back(std::move(future));
    } else {
      ++observed_rejects;
    }
  }
  EXPECT_EQ(observed_accepts, 1u);  // the queue holds exactly one behind the gate
  gate.set_value();
  gated.get();
  for (auto& future : futures) {
    future.get();
  }
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.rejected, observed_rejects);
  EXPECT_EQ(stats.submitted, observed_accepts + 1);  // + the gate task
  // completed trails set_value by one increment; poll briefly.
  for (int i = 0; i < 5000 && executor.stats().completed < observed_accepts + 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(executor.stats().completed, observed_accepts + 1);
}

TEST(Concurrency, ExecutorQuotaRejectIsClassifiedSeparatelyFromQueueFull) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 3;
  options.block_when_full = false;
  options.key_quota = 2;
  wasp::Executor executor(&runtime, options);
  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  auto noop = [] { return wasp::RunOutcome{}; };
  std::vector<std::future<wasp::RunOutcome>> accepted;
  // Two jobs under the hot key fill its quota (queued + in flight).
  for (int i = 0; i < 2; ++i) {
    std::future<wasp::RunOutcome> future;
    ASSERT_TRUE(executor.TrySubmitTask(noop, &future, "hot"));
    accepted.push_back(std::move(future));
  }
  EXPECT_EQ(executor.KeyLoad("hot"), 2u);

  // Third hot job: quota reject — classified as such, distinct from full.
  std::future<wasp::RunOutcome> rejected;
  wasp::Admission admission = wasp::Admission::kAccepted;
  EXPECT_FALSE(executor.TrySubmitTask(noop, &rejected, "hot",
                                      wasp::KeyClass::kLatency, &admission));
  EXPECT_EQ(admission, wasp::Admission::kQuotaExceeded);
  {
    const wasp::ExecutorStats stats = executor.stats();
    EXPECT_EQ(stats.quota_rejected, 1u);
    EXPECT_EQ(stats.rejected, 0u);
  }

  // A different key is untouched by the hot key's quota...
  std::future<wasp::RunOutcome> future;
  ASSERT_TRUE(executor.TrySubmitTask(noop, &future, "cold"));
  accepted.push_back(std::move(future));
  // ...until the *global* bound trips, which is classified as queue-full.
  EXPECT_FALSE(executor.TrySubmitTask(noop, &rejected, "cold2",
                                      wasp::KeyClass::kLatency, &admission));
  EXPECT_EQ(admission, wasp::Admission::kQueueFull);
  {
    const wasp::ExecutorStats stats = executor.stats();
    EXPECT_EQ(stats.quota_rejected, 1u);
    EXPECT_EQ(stats.rejected, 1u);
  }

  gate.set_value();
  gated.get();
  for (auto& f : accepted) {
    f.get();
  }
  EXPECT_EQ(executor.KeyLoad("hot"), 0u);  // entries erased at zero load
}

TEST(Concurrency, ExecutorWeightedDequeuePrefersLatencyWithoutStarvingBatch) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.batch_weight = 4;
  wasp::Executor executor(&runtime, options);
  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  std::mutex mu;
  std::vector<std::string> order;
  auto record = [&mu, &order](std::string tag) -> wasp::Executor::Task {
    return [&mu, &order, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
      return wasp::RunOutcome{};
    };
  };
  std::vector<std::future<wasp::RunOutcome>> futures;
  // Interleave submissions so FIFO would alternate; the weighted dequeue
  // must instead run 3 latency jobs per batch job while both classes wait.
  for (int i = 0; i < 4; ++i) {
    std::future<wasp::RunOutcome> f;
    ASSERT_TRUE(executor.TrySubmitTask(record("B" + std::to_string(i)), &f, {},
                                       wasp::KeyClass::kBatch));
    futures.push_back(std::move(f));
  }
  for (int i = 0; i < 8; ++i) {
    std::future<wasp::RunOutcome> f;
    ASSERT_TRUE(executor.TrySubmitTask(record("L" + std::to_string(i)), &f, {},
                                       wasp::KeyClass::kLatency));
    futures.push_back(std::move(f));
  }
  gate.set_value();
  gated.get();
  for (auto& f : futures) {
    f.get();
  }
  const std::vector<std::string> expected = {"L0", "L1", "L2", "B0", "L3", "L4",
                                             "L5", "B1", "L6", "L7", "B2", "B3"};
  EXPECT_EQ(order, expected);
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.dequeued_latency, 9u);  // 8 + the latency-class gate task
  EXPECT_EQ(stats.dequeued_batch, 4u);
}

TEST(Concurrency, ExecutorFifoAcrossClassesWhenWeightingDisabled) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.batch_weight = 0;  // ungoverned: strict submission order
  wasp::Executor executor(&runtime, options);
  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  std::mutex mu;
  std::vector<std::string> order;
  std::vector<std::future<wasp::RunOutcome>> futures;
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) {
    const std::string tag = (i % 2 == 0 ? "B" : "L") + std::to_string(i);
    expected.push_back(tag);
    std::future<wasp::RunOutcome> f;
    ASSERT_TRUE(executor.TrySubmitTask(
        [&mu, &order, tag] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(tag);
          return wasp::RunOutcome{};
        },
        &f, {}, i % 2 == 0 ? wasp::KeyClass::kBatch : wasp::KeyClass::kLatency));
    futures.push_back(std::move(f));
  }
  gate.set_value();
  gated.get();
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(order, expected);
}

TEST(Concurrency, AdmissionAccountingInvariantHoldsAtEveryObservationPoint) {
  // The differential accounting check: submitted == completed + queued +
  // in_flight must hold at *every* stats() snapshot (the gauges are read
  // under the same lock as the counters), and every TrySubmit attempt must
  // be accounted exactly once as accepted, quota-rejected, or rejected.
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 2;
  options.max_queue_depth = 4;
  options.block_when_full = false;
  options.key_quota = 3;
  wasp::Executor executor(&runtime, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> accepted{0};
  constexpr int kSubmitters = 4;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&executor, &stop, &attempts, &accepted, t] {
      const std::string key = t % 2 == 0 ? "hot" : "cold";
      const wasp::KeyClass klass =
          t % 2 == 0 ? wasp::KeyClass::kBatch : wasp::KeyClass::kLatency;
      std::vector<std::future<wasp::RunOutcome>> futures;
      while (!stop.load(std::memory_order_relaxed)) {
        std::future<wasp::RunOutcome> future;
        attempts.fetch_add(1, std::memory_order_relaxed);
        if (executor.TrySubmitTask(
                [] {
                  std::this_thread::sleep_for(std::chrono::microseconds(20));
                  return wasp::RunOutcome{};
                },
                &future, key, klass)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          futures.push_back(std::move(future));
        }
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }

  for (int i = 0; i < 400; ++i) {
    const wasp::ExecutorStats s = executor.stats();
    ASSERT_EQ(s.submitted, s.completed + s.queued + s.in_flight)
        << "submitted=" << s.submitted << " completed=" << s.completed
        << " queued=" << s.queued << " in_flight=" << s.in_flight;
    ASSERT_LE(s.queued, options.max_queue_depth);
  }
  stop.store(true);
  for (std::thread& thread : submitters) {
    thread.join();
  }

  // Drain, then the books must close exactly.
  for (int i = 0; i < 5000 && executor.stats().completed < accepted.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const wasp::ExecutorStats s = executor.stats();
  EXPECT_EQ(s.submitted, accepted.load());
  EXPECT_EQ(s.completed, accepted.load());
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.submitted + s.rejected + s.quota_rejected, attempts.load());
  EXPECT_EQ(executor.KeyLoad("hot"), 0u);
  EXPECT_EQ(executor.KeyLoad("cold"), 0u);
}

TEST(Concurrency, KeyQuotaIsAHardCapEvenForBlockingWaiters) {
  // block_when_full waiters pass the entry quota check, park for global
  // space, and must be re-checked at wake: the hot key's load (queued +
  // in flight) can never exceed the quota at any observation point.
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 2;
  options.max_queue_depth = 2;
  options.block_when_full = true;
  options.key_quota = 3;
  wasp::Executor executor(&runtime, options);

  std::atomic<bool> stop{false};
  constexpr int kSubmitters = 4;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> quota_rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      std::vector<std::future<wasp::RunOutcome>> futures;
      while (!stop.load(std::memory_order_relaxed)) {
        std::future<wasp::RunOutcome> future;
        wasp::Admission admission = wasp::Admission::kAccepted;
        if (executor.TrySubmitTask(
                [] {
                  std::this_thread::sleep_for(std::chrono::microseconds(30));
                  return wasp::RunOutcome{};
                },
                &future, "hot", wasp::KeyClass::kLatency, &admission)) {
          accepted.fetch_add(1);
          futures.push_back(std::move(future));
        } else if (admission == wasp::Admission::kQuotaExceeded) {
          quota_rejected.fetch_add(1);
        }
      }
      for (auto& f : futures) {
        f.get();
      }
    });
  }
  // Sample the invariant while waiting for the submitters to make real
  // progress (acceptances AND quota trips), so the check races live load.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_LE(executor.KeyLoad("hot"), options.key_quota) << "sample " << i;
    if (i >= 200 && accepted.load() > 0 && quota_rejected.load() > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (std::thread& thread : submitters) {
    thread.join();
  }
  EXPECT_GT(accepted.load(), 0u);
  // 4 submitters against a quota of 3 must have tripped it.
  EXPECT_GT(quota_rejected.load(), 0u);
  const wasp::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.quota_rejected, quota_rejected.load());
}

TEST(Concurrency, TrySubmitThenTeardownResolvesEveryAcceptedFuture) {
  // Concurrent TrySubmit bursts race each other for quota and queue slots;
  // the executor is then destroyed with the queue still loaded (a slow task
  // pins the workers).  Every accepted future must be resolved by the time
  // the destructor returns, and the books must close exactly.
  wasp::Runtime runtime;
  std::vector<std::future<wasp::RunOutcome>> futures;
  std::mutex futures_mu;
  uint64_t accepted = 0;
  uint64_t attempts = 0;
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 500;
  {
    wasp::ExecutorOptions options;
    options.workers = 2;
    options.max_queue_depth = 8;
    options.block_when_full = false;
    options.key_quota = 4;
    wasp::Executor executor(&runtime, options);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    std::atomic<uint64_t> accepted_count{0};
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&executor, &futures, &futures_mu, &accepted_count, t] {
        const std::string key = "k" + std::to_string(t % 2);
        for (int i = 0; i < kPerSubmitter; ++i) {
          std::future<wasp::RunOutcome> future;
          if (executor.TrySubmitTask(
                  [] {
                    std::this_thread::sleep_for(std::chrono::microseconds(10));
                    return wasp::RunOutcome{};
                  },
                  &future, key)) {
            accepted_count.fetch_add(1);
            std::lock_guard<std::mutex> lock(futures_mu);
            futures.push_back(std::move(future));
          }
        }
      });
    }
    for (std::thread& thread : submitters) {
      thread.join();
    }
    accepted = accepted_count.load();
    attempts = static_cast<uint64_t>(kSubmitters) * kPerSubmitter;
    const wasp::ExecutorStats mid = executor.stats();
    EXPECT_EQ(mid.submitted, accepted);
    EXPECT_EQ(mid.submitted + mid.rejected + mid.quota_rejected, attempts);
    EXPECT_EQ(mid.submitted, mid.completed + mid.queued + mid.in_flight);
    // Executor destroyed here, typically with jobs still queued/in flight.
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LE(accepted, attempts);
  // Drain guarantee: every accepted submission resolved, ready immediately.
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    future.get();
  }
}

TEST(Concurrency, ExecutorSubmitResolvesFutures) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  wasp::Runtime runtime(options);
  wasp::ExecutorOptions eopts;
  eopts.workers = 4;
  wasp::Executor executor(&runtime, eopts);
  std::vector<std::future<wasp::RunOutcome>> futures;
  std::vector<wasp::VirtineSpec> specs(16);
  for (int i = 0; i < 16; ++i) {
    wasp::VirtineSpec& spec = specs[static_cast<size_t>(i)];
    spec.image = &image.value();
    spec.word_bytes = 8;
    wasp::ArgPacker packer(spec.word_bytes);
    packer.AddWord(static_cast<uint64_t>(i));
    packer.AddWord(7);
    spec.args_page = packer.Finish();
    ASSERT_TRUE(executor.TrySubmit(spec, &futures.emplace_back()));
  }
  for (int i = 0; i < 16; ++i) {
    wasp::RunOutcome outcome = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, static_cast<uint64_t>(i + 7));
  }
}

// --- Lock-free fast path: tagged Treiber stacks ------------------------------

struct StackNode {
  std::atomic<StackNode*> next{nullptr};
  int id = 0;
};

// The classic ABA interleaving, replayed deterministically: a "stalled" pop
// snapshots head == B, the world pops B and A and pushes B back (same top
// pointer, different stack), and the stale CAS must FAIL — its success would
// install the long-gone A as the new head.  PopIfHeadIs issues exactly the
// compare a stalled Pop would.
TEST(Concurrency, TaggedStackAbaRegressionStaleCasMustFail) {
  wasp::TaggedStack<StackNode> stack;
  StackNode a, b;
  a.id = 1;
  b.id = 2;
  stack.Push(&a);
  stack.Push(&b);  // stack: B -> A

  // Thread 1 "stalls" here with a snapshot of (B, tag).
  const uint64_t stale = stack.PackedHead();
  ASSERT_EQ(wasp::TaggedStack<StackNode>::UnpackPtr(stale), &b);

  // Meanwhile the world: pop B, pop A, push B back.  Head points at B
  // again — bitwise-identical pointer, completely different stack.
  ASSERT_EQ(stack.Pop(), &b);
  ASSERT_EQ(stack.Pop(), &a);
  stack.Push(&b);  // stack: B (b.next == nullptr now)

  // Without the tag this CAS would succeed and resurrect A as head.  The
  // three interleaved operations each bumped the tag, so it must fail.
  EXPECT_EQ(stack.PopIfHeadIs(stale), nullptr);
  EXPECT_EQ(wasp::TaggedStack<StackNode>::UnpackPtr(stack.PackedHead()), &b);

  // A *fresh* snapshot replayed unchanged is the control: it must pop.
  const uint64_t fresh = stack.PackedHead();
  EXPECT_EQ(stack.PopIfHeadIs(fresh), &b);
  EXPECT_EQ(stack.Pop(), nullptr);  // and the stack is exactly empty
}

// Node conservation under contended push/pop: every node checked in comes
// back exactly once.  Run under TSan this also vets the stack's memory
// ordering (the stale top->next read in Pop is the interesting part).
TEST(Concurrency, TaggedStackConcurrentPushPopConservesNodes) {
  constexpr int kNodes = 64;
  wasp::TaggedStack<StackNode> stack;
  std::vector<std::unique_ptr<StackNode>> arena;
  arena.reserve(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    arena.push_back(std::make_unique<StackNode>());
    arena.back()->id = i;
    stack.Push(arena.back().get());
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stack] {
      for (int i = 0; i < kItersPerThread * 8; ++i) {
        StackNode* node = stack.Pop();
        if (node != nullptr) {
          stack.Push(node);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Drain: exactly kNodes distinct nodes, no duplicates, no losses.
  std::vector<bool> seen(kNodes, false);
  int drained = 0;
  while (StackNode* node = stack.Pop()) {
    ASSERT_FALSE(seen[static_cast<size_t>(node->id)]) << "node popped twice";
    seen[static_cast<size_t>(node->id)] = true;
    ++drained;
  }
  EXPECT_EQ(drained, kNodes);
}

// The pool's conservation stress: N threads x M iterations of mixed
// Acquire / AcquireAffine / Release / ReleaseAffine over a small pool with a
// binding affine budget and a mid-run generation retirement, quiescing
// between rounds.  At every quiesce point, shells created == shells parked
// (free + affine) — eviction and retirement recycle through the free side —
// and the acquire tiers partition the acquires exactly.
TEST(Concurrency, LockFreeFastPathMixedOpsConserveAtQuiescePoints) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.affine_budget_bytes = 3ULL << 20;    // ~3 shells: evictions guaranteed
  wasp::Pool pool(options);
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    // One generation per (round, parity) so the retired one never comes back.
    const uint64_t gens[2] = {1000ull + 2 * static_cast<uint64_t>(round),
                              1001ull + 2 * static_cast<uint64_t>(round)};
    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&pool, &gens, t] {
        vkvm::VmConfig cfg;
        const uint64_t generation = gens[t % 2];
        for (int i = 0; i < kItersPerThread; ++i) {
          std::unique_ptr<vkvm::Vm> vm;
          if (i % 3 == 0) {
            vm = pool.Acquire(cfg);
          } else {
            bool affine = false;
            vm = pool.AcquireAffine(cfg, generation, &affine);
          }
          ASSERT_NE(vm, nullptr);
          uint8_t b = static_cast<uint8_t>(t + 1);
          ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
          if (i % 4 == 3) {
            pool.Release(std::move(vm));
          } else {
            vm->memory().BeginEpoch();
            pool.ReleaseAffine(std::move(vm), generation);
          }
        }
      });
    }
    // Retire one of the round's generations mid-run: parks racing the
    // retirement must divert to the cleaning path, never re-strand shells.
    threads.emplace_back([&pool, &gens] { pool.RetireGeneration(gens[1]); });
    for (std::thread& thread : threads) {
      thread.join();
    }
    // Quiesce point: conservation and tier partition must hold exactly.
    const wasp::PoolStats stats = pool.stats();
    EXPECT_EQ(stats.acquires, stats.pool_hits + stats.fresh_creates);
    EXPECT_EQ(stats.acquires,
              stats.lane_cache_hits + stats.freelist_hits + stats.slow_path_acquires);
    EXPECT_EQ(stats.releases, stats.acquires);
    EXPECT_EQ(pool.TotalFreeShells() + pool.TotalAffineShells(), stats.fresh_creates);
    EXPECT_EQ(pool.AffineShells(gens[1]), 0u) << "retired generation re-parked";
    // The gauge and its shared + private split equal the per-generation
    // rows at quiescence.
    const wasp::AffineAccounting acct = pool.affine_accounting();
    EXPECT_EQ(stats.affine_resident_bytes, acct.resident_bytes);
    EXPECT_EQ(stats.affine_shared_bytes + stats.affine_private_bytes, acct.resident_bytes);
    EXPECT_LE(acct.resident_bytes, options.affine_budget_bytes);
  }
  // Deterministic eviction epilogue: overstuff the 3 MB budget with four
  // 1 MB parks under distinct generations — the budget must evict (LRU
  // generation first) and conservation must survive the eviction path too.
  {
    vkvm::VmConfig cfg;
    std::vector<std::unique_ptr<vkvm::Vm>> held;
    for (int i = 0; i < 4; ++i) {
      held.push_back(pool.Acquire(cfg));
    }
    for (int i = 0; i < 4; ++i) {
      held[static_cast<size_t>(i)]->memory().BeginEpoch();
      pool.ReleaseAffine(std::move(held[static_cast<size_t>(i)]),
                         2000ull + static_cast<uint64_t>(i));
    }
  }
  const wasp::PoolStats stats = pool.stats();
  EXPECT_GT(stats.affine_evictions, 0u);
  EXPECT_LE(pool.affine_accounting().resident_bytes, options.affine_budget_bytes);
  EXPECT_EQ(pool.TotalFreeShells() + pool.TotalAffineShells(), stats.fresh_creates);
  EXPECT_GT(stats.lane_cache_hits + stats.freelist_hits, 0u);
}

// The fault path under contention: quarantines racing ordinary releases,
// affine parks, and a mid-run generation retirement.  Every quarantined
// shell must be scrubbed by the crew and readmitted — never re-parked
// affine, never destroyed (async mode), never leaked — and the ledger
// (quarantined == scrubbed + destroyed + pending) must balance exactly at
// quiescence alongside the pool's shell-conservation invariant.
TEST(Concurrency, ConcurrentQuarantineConservesShellsAndScrubsAll) {
  wasp::Pool pool(wasp::CleanMode::kAsync);
  constexpr uint64_t kGen = 7777;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      vkvm::VmConfig cfg;
      for (int i = 0; i < kItersPerThread; ++i) {
        std::unique_ptr<vkvm::Vm> vm;
        if (i % 3 == 0) {
          bool affine = false;
          vm = pool.AcquireAffine(cfg, kGen, &affine);
        } else {
          vm = pool.Acquire(cfg);
        }
        ASSERT_NE(vm, nullptr);
        uint8_t b = static_cast<uint8_t>(t + 1);
        ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
        if (i % 4 == 1) {
          pool.Quarantine(std::move(vm));  // this iteration's invocation faulted
        } else if (i % 4 == 3) {
          vm->memory().BeginEpoch();
          pool.ReleaseAffine(std::move(vm), kGen);
        } else {
          pool.Release(std::move(vm));
        }
      }
    });
  }
  // Retire the generation mid-run: quarantines and affine parks racing the
  // retirement must keep both ledgers exact.
  threads.emplace_back([&pool] { pool.RetireGeneration(kGen); });
  for (std::thread& thread : threads) {
    thread.join();
  }
  pool.DrainCleaner();
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.releases, stats.acquires);
  EXPECT_EQ(stats.quarantined, static_cast<uint64_t>(kThreads * kItersPerThread / 4));
  EXPECT_EQ(stats.quarantined, stats.quarantine_scrubbed + stats.quarantine_destroyed);
  EXPECT_EQ(stats.quarantine_destroyed, 0u) << "async crew must scrub, not destroy";
  EXPECT_EQ(stats.quarantined_now, 0u);
  // Every shell ever created is parked somewhere clean; none leaked through
  // the quarantine path.
  EXPECT_EQ(pool.TotalFreeShells() + pool.TotalAffineShells(), stats.fresh_creates);
}

// Per-key quota overrides: three tiers submitting against a parked worker,
// each key capped by its own resolved quota (premium and free are explicit
// overrides; standard rides the key_quota fallback).
TEST(Concurrency, ExecutorKeyQuotaOverridesGiveTieredAdmission) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 32;
  options.block_when_full = false;
  options.key_quota = 2;  // the standard tier's (fallback) cap
  options.key_quota_overrides = {{"premium", 4}, {"free", 1}};
  wasp::Executor executor(&runtime, options);
  EXPECT_EQ(executor.options().QuotaFor("premium"), 4u);
  EXPECT_EQ(executor.options().QuotaFor("standard"), 2u);
  EXPECT_EQ(executor.options().QuotaFor("free"), 1u);

  std::promise<void> gate;
  std::future<wasp::RunOutcome> gated;
  ASSERT_TRUE(executor.TrySubmitTask(GateTask(gate.get_future().share()), &gated));
  AwaitWorkerParked(executor);

  auto noop = [] { return wasp::RunOutcome{}; };
  std::vector<std::future<wasp::RunOutcome>> accepted;
  const struct {
    const char* key;
    size_t quota;
  } tiers[] = {{"premium", 4}, {"standard", 2}, {"free", 1}};
  for (const auto& tier : tiers) {
    for (size_t i = 0; i < tier.quota; ++i) {
      std::future<wasp::RunOutcome> future;
      ASSERT_TRUE(executor.TrySubmitTask(noop, &future, tier.key))
          << tier.key << " submission " << i << " under its quota was rejected";
      accepted.push_back(std::move(future));
    }
    // One over the tier's cap: quota-classified rejection.
    std::future<wasp::RunOutcome> rejected;
    wasp::Admission admission = wasp::Admission::kAccepted;
    EXPECT_FALSE(executor.TrySubmitTask(noop, &rejected, tier.key,
                                        wasp::KeyClass::kLatency, &admission));
    EXPECT_EQ(admission, wasp::Admission::kQuotaExceeded) << tier.key;
    EXPECT_EQ(executor.KeyLoad(tier.key), tier.quota);
  }
  EXPECT_EQ(executor.stats().quota_rejected, 3u);

  gate.set_value();
  gated.get();
  for (auto& future : accepted) {
    future.get();
  }
}

}  // namespace
