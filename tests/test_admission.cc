// Tests for wasp::AdmissionPolicy and the executor's two clocks: worker
// threads, and virtual time (Executor::RunVirtual) behind GovernTrace.
//
// * Differential: one scripted sequence of submissions and completions is
//   driven through a 1-worker wasp::Executor (generic tasks parked on gates
//   the test opens in virtual-time order) and through GovernTrace on one
//   virtual lane.  Per key, both clocks must agree on every admission
//   verdict, every completion and fault, the breaker's opens, and the final
//   fault-rate EWMA and breaker position.
// * RunVirtual: what a replay over measured services could not model —
//   the affinity scan, a retry holding its lane, a shed arrival never
//   running — and its closed loop, the clients of Figure 13's lane sweep:
//   each client's requests in sequence, every one served exactly once,
//   latency that scales with the lanes, and a shed request that frees its
//   client at once.
// * Property: seeded random operation sequences against the policy alone
//   check its conservation and breaker invariants.
// * Keys: tenant names are GovernTrace's policy keys, so a malformed or
//   duplicate-named trace is refused at entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/vnet/serverless.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/admission.h"
#include "src/wasp/executor.h"
#include "src/wasp/fault.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

// --- Differential: worker threads vs RunVirtual ------------------------------

// One key per class: with a single key in each class queue the affinity
// scan always takes the queue head, so the test can predict the worker's
// order.
constexpr std::array<const char*, 2> kKeys = {"lat", "bat"};
constexpr std::array<wasp::KeyClass, 2> kClasses = {wasp::KeyClass::kLatency,
                                                    wasp::KeyClass::kBatch};
constexpr uint64_t kSlotCycles = 2'690'000;  // 1 ms at the 2.69 GHz reference clock
constexpr uint64_t kSevenUsCycles = 18'830;  // 7 us

struct Step {
  size_t key = 0;       // index into kKeys
  uint64_t cycles = 0;  // lane time once dispatched, in modeled cycles
  bool fault = false;   // the job dies with a fault instead of completing
};

// A step's lane time on the test's virtual clock, converted as RunVirtual
// converts it.
double ServiceUs(const Step& step) { return vbase::CyclesToMicros(step.cycles); }

// A synthetic job: it holds its lane for `cycles` and completes or faults.
wasp::RunOutcome SyntheticOutcome(uint64_t cycles, bool fault) {
  wasp::RunOutcome outcome;
  outcome.stats.total_cycles = cycles;
  if (fault) {
    outcome.fault = wasp::FaultKind::kGuestTrap;
    outcome.status = vbase::Internal("synthetic fault");
  }
  return outcome;
}

// Arrival i lands at (i + 1) slots.  Services are whole slots plus 7 us, so
// a completion never coincides with an arrival (a chain of jobs would need
// over a thousand links to come back to a slot boundary).
double ArrivalUs(size_t i) { return vbase::CyclesToMicros(kSlotCycles * (i + 1)); }

// About one slot of service per arrival keeps the lane saturated, so the
// quota, the global bound and the class pick all bind.  The latency key
// faults on every job from arrival 60 to 129: its breaker opens, sheds,
// probes into the storm and re-opens, then closes on the first clean probe.
std::vector<Step> Script() {
  vbase::Rng rng(0xad15);
  std::vector<Step> steps(240);
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i].key = rng.NextDouble() < 0.55 ? 0 : 1;
    steps[i].cycles = kSlotCycles * rng.Below(3) + kSevenUsCycles;
    steps[i].fault = steps[i].key == 0 && i >= 60 && i < 130;
  }
  return steps;
}

// The admission settings both schedulers run under: a quota with one
// override, a global bound, and a quick-tripping breaker.
void ApplySettings(wasp::AdmissionOptions* options, int batch_weight) {
  options->batch_weight = batch_weight;
  options->key_quota = 2;
  options->key_quota_overrides = {{"lat", 4}};
  options->max_queue_depth = 3;
  options->recovery.breaker_enabled = true;
  options->recovery.breaker_alpha = 0.5;
  options->recovery.breaker_min_samples = 3;
  options->recovery.breaker_open_threshold = 0.5;
  options->recovery.breaker_open_sheds = 2;
}

// What one scheduler did with one key.
struct KeyTally {
  uint64_t admitted = 0;
  uint64_t shed_quota = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_breaker = 0;
  uint64_t completed = 0;
  uint64_t faulted = 0;
  uint64_t opens = 0;
  // The key's ledger after its last job settled.
  double ewma = 0;
  uint64_t samples = 0;
  wasp::BreakerState state = wasp::BreakerState::kClosed;
};

std::array<KeyTally, 2> RunOnExecutor(const std::vector<Step>& script, int batch_weight) {
  // Each job reports its arrival index when the worker starts it, then
  // parks on its gate until the test's virtual clock reaches its completion.
  // Declared before the executor, whose workers touch them, so they outlive it.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> started;
  std::vector<std::promise<void>> gates(script.size());
  std::vector<std::future<wasp::RunOutcome>> futures(script.size());

  wasp::Runtime runtime;  // generic tasks never invoke it
  wasp::ExecutorOptions options;
  ApplySettings(&options, batch_weight);
  options.workers = 1;
  options.block_when_full = false;
  wasp::Executor executor(&runtime, options);

  auto next_started = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !started.empty(); });
    const size_t i = started.front();
    started.pop_front();
    return i;
  };

  std::array<KeyTally, 2> tally;
  std::optional<size_t> running;  // the job on the worker
  double running_done = 0;        // its virtual completion time
  size_t waiting = 0;             // admitted jobs the worker has not started
  auto finish_running = [&] {
    const size_t i = *running;
    gates[i].set_value();
    // The executor settles the key's accounting before the future resolves.
    futures[i].get();
    ++(script[i].fault ? tally[script[i].key].faulted : tally[script[i].key].completed);
    running.reset();
    if (waiting > 0) {
      --waiting;
      running = next_started();
      running_done += ServiceUs(script[*running]);
    }
  };

  for (size_t i = 0; i < script.size(); ++i) {
    const double now = ArrivalUs(i);
    while (running && running_done < now) {
      finish_running();
    }
    std::shared_future<void> gate = gates[i].get_future().share();
    const bool fault = script[i].fault;
    auto task = [&mu, &cv, &started, gate, fault, i] {
      {
        std::lock_guard<std::mutex> lock(mu);
        started.push_back(i);
      }
      cv.notify_one();
      gate.wait();
      return SyntheticOutcome(0, fault);
    };
    const size_t k = script[i].key;
    wasp::Admission admission = wasp::Admission::kStopped;
    executor.TrySubmitTask(task, &futures[i], kKeys[k], kClasses[k], &admission);
    switch (admission) {
      case wasp::Admission::kAccepted:
        ++tally[k].admitted;
        if (running) {
          ++waiting;
        } else {
          running = next_started();
          running_done = now + ServiceUs(script[*running]);
        }
        break;
      case wasp::Admission::kQuotaExceeded:
        ++tally[k].shed_quota;
        break;
      case wasp::Admission::kQueueFull:
        ++tally[k].shed_overload;
        break;
      case wasp::Admission::kCircuitOpen:
        ++tally[k].shed_breaker;
        break;
      case wasp::Admission::kStopped:
        ADD_FAILURE() << "executor stopped during the script";
        break;
    }
  }
  while (running) {
    finish_running();
  }
  for (size_t k = 0; k < kKeys.size(); ++k) {
    const wasp::KeyRecoverySnapshot snap = executor.KeyRecoveryState(kKeys[k]);
    tally[k].opens = snap.opens;
    tally[k].ewma = snap.fault_rate;
    tally[k].samples = snap.samples;
    tally[k].state = snap.state;
  }
  return tally;
}

std::array<KeyTally, 2> RunOnVirtualClock(const std::vector<Step>& script, int batch_weight) {
  vnet::TenantTrace trace;
  trace.names = {kKeys[0], kKeys[1]};
  trace.classes = {kClasses[0], kClasses[1]};
  for (size_t i = 0; i < script.size(); ++i) {
    vnet::TenantTrace::Row row;
    row.arrival_us = ArrivalUs(i);
    row.tenant = static_cast<int>(script[i].key);
    row.task = [step = script[i]] { return SyntheticOutcome(step.cycles, step.fault); };
    trace.rows.push_back(std::move(row));
  }
  wasp::Runtime runtime;  // synthetic tasks never invoke it
  wasp::ExecutorOptions options;
  ApplySettings(&options, batch_weight);
  options.workers = 1;
  const vnet::GovernedReplay replay = vnet::GovernTrace(&runtime, trace, options);

  std::array<KeyTally, 2> tally;
  for (size_t k = 0; k < kKeys.size(); ++k) {
    const vnet::TenantOutcome& t = replay.tenants[k];
    tally[k].admitted = t.completed + t.faulted;
    tally[k].shed_quota = t.shed_quota;
    tally[k].shed_overload = t.shed_overload;
    tally[k].shed_breaker = t.shed_breaker;
    tally[k].completed = t.completed;
    tally[k].faulted = t.faulted;
    tally[k].opens = t.breaker_opens;
    tally[k].ewma = t.recovery.fault_rate;
    tally[k].samples = t.recovery.samples;
    tally[k].state = t.recovery.state;
  }
  return tally;
}

TEST(AdmissionDifferential, WorkerThreadsAndRunVirtualMakeTheSameDecisions) {
  const std::vector<Step> script = Script();
  std::array<KeyTally, 2> by_weight[2];
  const int weights[2] = {4, 0};
  for (int w = 0; w < 2; ++w) {
    SCOPED_TRACE("batch_weight " + std::to_string(weights[w]));
    const std::array<KeyTally, 2> executor = RunOnExecutor(script, weights[w]);
    const std::array<KeyTally, 2> replay = RunOnVirtualClock(script, weights[w]);
    for (size_t k = 0; k < kKeys.size(); ++k) {
      SCOPED_TRACE(kKeys[k]);
      EXPECT_EQ(executor[k].admitted, replay[k].admitted);
      EXPECT_EQ(executor[k].shed_quota, replay[k].shed_quota);
      EXPECT_EQ(executor[k].shed_overload, replay[k].shed_overload);
      EXPECT_EQ(executor[k].shed_breaker, replay[k].shed_breaker);
      EXPECT_EQ(executor[k].completed, replay[k].completed);
      EXPECT_EQ(executor[k].faulted, replay[k].faulted);
      EXPECT_EQ(executor[k].opens, replay[k].opens);
      EXPECT_EQ(executor[k].ewma, replay[k].ewma);
      EXPECT_EQ(executor[k].samples, replay[k].samples);
      EXPECT_EQ(executor[k].state, replay[k].state);
      EXPECT_EQ(executor[k].admitted + executor[k].shed_quota + executor[k].shed_overload +
                    executor[k].shed_breaker,
                static_cast<uint64_t>(std::count_if(
                    script.begin(), script.end(), [k](const Step& s) { return s.key == k; })));
    }
    by_weight[w] = executor;

    // The script must keep exercising every rule it is meant to compare.
    const KeyTally& lat = executor[0];
    const KeyTally& bat = executor[1];
    EXPECT_GT(bat.shed_quota, 0u) << "bat's key_quota of 2 never bound";
    EXPECT_GT(lat.shed_overload, 0u) << "the global bound never bound";
    EXPECT_GT(lat.shed_breaker, 0u) << "the breaker never shed";
    EXPECT_GE(lat.opens, 2u) << "the breaker never re-opened";
    EXPECT_EQ(lat.state, wasp::BreakerState::kClosed) << "the breaker never closed";
    EXPECT_EQ(bat.opens, 0u);
    EXPECT_GT(bat.completed, 0u);
  }
  // The class pick is live: weighting changes who gets through.
  EXPECT_NE(by_weight[0][1].admitted, by_weight[1][1].admitted);
}

// --- Property: the policy alone under random operation sequences -----------

// A job the simulated caller holds: admitted or enqueued unchecked, not yet
// completed.
struct HeldJob {
  std::string key;
  bool probe = false;
};

TEST(AdmissionProperty, RandomSequencesKeepTheLedgerConsistent) {
  const std::array<std::string, 3> keys = {"k0", "k1", "k2"};
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    vbase::Rng rng(seed);
    wasp::AdmissionOptions options;
    options.key_quota = rng.Below(4);  // 0 = unlimited
    options.key_quota_overrides = {{"k1", rng.Below(4)}};
    options.max_queue_depth = rng.Below(6);
    options.batch_weight = static_cast<int>(rng.Below(6)) - 1;
    options.recovery.breaker_enabled = rng.Below(4) != 0;
    options.recovery.breaker_alpha = 0.5;
    options.recovery.breaker_min_samples = 1 + rng.Below(4);
    options.recovery.breaker_open_threshold = 0.5;
    options.recovery.breaker_open_sheds = rng.Below(4);
    wasp::AdmissionPolicy policy(options);

    std::vector<HeldJob> held;
    std::map<std::string, uint64_t> offered, admitted, shed, finished, enqueued, attempts;
    std::map<std::string, uint64_t> breaker_sheds;  // since the key's breaker opened
    size_t queued = 0;                              // the simulated caller's queue
    int contended_latency_run = 0;                  // latency picks since a batch pick
    bool last_contended_was_batch = false;
    for (int op = 0; op < 400; ++op) {
      const std::string& key = keys[rng.Below(keys.size())];
      const uint64_t roll = rng.Below(10);
      if (roll < 5) {  // a checked submission
        ++offered[key];
        const wasp::KeyRecoverySnapshot before = policy.Recovery(key);
        const size_t load_before = policy.Load(key);
        bool probe = false;
        const wasp::Admission verdict = policy.Admit(key, queued, &probe);
        const wasp::BreakerState after = policy.Recovery(key).state;
        bool key_holds_probe = false;
        for (const HeldJob& job : held) {
          key_holds_probe = key_holds_probe || (job.key == key && job.probe);
        }
        if (before.state == wasp::BreakerState::kHalfOpen && !key_holds_probe) {
          // A half-open key whose probe was handed back admits the next one.
          EXPECT_NE(verdict, wasp::Admission::kCircuitOpen) << key << " waits on a lost probe";
        }
        if (before.state == wasp::BreakerState::kOpen) {
          if (verdict == wasp::Admission::kCircuitOpen) {
            ++breaker_sheds[key];
            EXPECT_LE(breaker_sheds[key], options.recovery.breaker_open_sheds);
          } else {
            // The open key admits its probe only after exactly
            // breaker_open_sheds sheds (a later stage may still shed it).
            EXPECT_EQ(after, wasp::BreakerState::kHalfOpen);
            EXPECT_EQ(breaker_sheds[key], options.recovery.breaker_open_sheds);
          }
        }
        if (verdict != wasp::Admission::kAccepted) {
          EXPECT_FALSE(probe);
          ++shed[key];
          continue;
        }
        // At most one probe per key is reserved at a time.
        EXPECT_FALSE(probe && key_holds_probe) << key << " holds two probes";
        const size_t quota = options.QuotaFor(key);
        EXPECT_TRUE(quota == 0 || load_before < quota) << key << " admitted over its quota";
        EXPECT_TRUE(options.max_queue_depth == 0 || queued < options.max_queue_depth);
        if (rng.Below(8) == 0) {
          policy.Withdraw(key, probe);  // dropped before it queued (a reject at wake)
          ++shed[key];
          continue;
        }
        policy.OnEnqueue(key);
        ++admitted[key];
        ++enqueued[key];
        ++queued;
        held.push_back(HeldJob{key, probe});
      } else if (roll < 6) {  // an unchecked (blocking) submission
        policy.OnEnqueue(key);
        ++enqueued[key];
        ++queued;
        held.push_back(HeldJob{key, false});
      } else if (roll < 9 && !held.empty()) {  // a job completes
        const size_t pick = rng.Below(held.size());
        const HeldJob job = held[pick];
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
        queued = queued > 0 ? queued - 1 : 0;
        const bool faulted = rng.Below(job.key == "k0" ? 2 : 10) == 0;
        const uint64_t opens_before = policy.Recovery(job.key).opens;
        if (faulted && rng.Below(3) == 0) {
          policy.OnRetry(job.key);  // a retried job's faulted first attempt
          ++attempts[job.key];
        }
        policy.OnComplete(job.key, faulted, job.probe);
        ++attempts[job.key];
        ++finished[job.key];
        if (policy.Recovery(job.key).opens > opens_before) {
          breaker_sheds[job.key] = 0;
        }
      } else {  // a dequeue with random class heads
        const bool latency = rng.Below(4) != 0;
        const bool batch = !latency || rng.Below(2) == 0;
        const uint64_t lat_seq = rng.Below(100);
        const uint64_t bat_seq = rng.Below(100);
        const wasp::KeyClass cls =
            policy.PickNext(latency ? std::optional<uint64_t>(lat_seq) : std::nullopt,
                            batch ? std::optional<uint64_t>(bat_seq) : std::nullopt);
        if (!latency || !batch) {
          EXPECT_EQ(cls, latency ? wasp::KeyClass::kLatency : wasp::KeyClass::kBatch);
        } else if (options.BatchWeight() <= 0) {
          EXPECT_EQ(cls, lat_seq < bat_seq ? wasp::KeyClass::kLatency : wasp::KeyClass::kBatch);
        } else if (cls == wasp::KeyClass::kBatch) {
          EXPECT_FALSE(last_contended_was_batch) << "batch picked twice in a row";
          EXPECT_EQ(contended_latency_run, options.BatchWeight() - 1);
          contended_latency_run = 0;
          last_contended_was_batch = true;
        } else {
          ++contended_latency_run;
          EXPECT_LT(contended_latency_run, options.BatchWeight());
          last_contended_was_batch = false;
        }
      }
      for (const std::string& k : keys) {
        // Load is everything enqueued minus everything finished.
        EXPECT_EQ(policy.Load(k), enqueued[k] - finished[k]) << k;
        EXPECT_EQ(policy.Recovery(k).samples, attempts[k]) << k;
        EXPECT_EQ(offered[k], admitted[k] + shed[k]) << k;
      }
    }
  }
}

// --- RunVirtual: what a replay over measured services could not model -------

// A snapshot-enabled fib(12) spec.
wasp::VirtineSpec FibSpec(const visa::Image* image) {
  wasp::VirtineSpec spec;
  spec.image = image;
  spec.key = "fib";
  spec.use_snapshot = true;
  spec.word_bytes = 8;
  spec.mem_size = 2ULL << 20;
  wasp::ArgPacker packer(8);
  packer.AddWord(12);
  spec.args_page = packer.Finish();
  return spec;
}

wasp::Executor::Arrival TaskArrival(double at_us, const std::string& key, uint64_t cycles) {
  wasp::Executor::Arrival arrival;
  arrival.at_us = at_us;
  arrival.key = key;
  arrival.task = [cycles] { return SyntheticOutcome(cycles, false); };
  return arrival;
}

// Two keys in one class on one lane: when the lane frees, the affinity scan
// serves the key it just ran ahead of an older job of another key.
TEST(RunVirtual, TheLanesLastKeyIsServedFirst) {
  wasp::Runtime runtime;  // synthetic tasks never invoke it
  wasp::ExecutorOptions options;
  options.workers = 1;
  std::vector<wasp::Executor::Arrival> arrivals;
  arrivals.push_back(TaskArrival(0, "a", 10 * kSlotCycles));
  arrivals.push_back(TaskArrival(1000, "b", kSlotCycles));
  arrivals.push_back(TaskArrival(2000, "a", kSlotCycles));
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(&runtime, options, std::move(arrivals));
  ASSERT_EQ(run.served.size(), 3u);
  EXPECT_DOUBLE_EQ(run.served[0].done_us, 10000.0);
  EXPECT_DOUBLE_EQ(run.served[2].start_us, run.served[0].done_us);  // "a" jumps "b"
  EXPECT_DOUBLE_EQ(run.served[1].start_us, run.served[2].done_us);
  EXPECT_EQ(run.stats.completed, 3u);
}

// A retried job holds its lane for both attempts: the next job on the lane
// starts only when the retry's summed cycles have passed.
TEST(RunVirtual, ARetriedJobHoldsItsLaneForBothAttempts) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::RuntimeOptions runtime_options;
  runtime_options.fault_plan.rules.push_back(
      wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 0));
  wasp::Runtime runtime(runtime_options);
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.recovery.idempotent_keys = {"fib"};
  std::vector<wasp::Executor::Arrival> arrivals(2);
  arrivals[0].spec = FibSpec(&*image);
  arrivals[1].spec = FibSpec(&*image);
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(&runtime, options, std::move(arrivals));

  const wasp::Executor::Served& retried = run.served[0];
  ASSERT_TRUE(retried.outcome.retried);
  EXPECT_EQ(retried.outcome.result_word, 144u);
  EXPECT_EQ(run.stats.retries, 1u);
  EXPECT_DOUBLE_EQ(retried.done_us - retried.start_us,
                   vbase::CyclesToMicros(retried.outcome.stats.total_cycles));
  EXPECT_DOUBLE_EQ(run.served[1].start_us, retried.done_us);
  // Both attempts: the lane time exceeds one clean attempt on a fresh shell.
  wasp::Runtime clean;
  wasp::VirtineSpec spec = FibSpec(&*image);
  spec.fresh_shell = true;
  const wasp::RunOutcome once = clean.Invoke(spec);
  ASSERT_TRUE(once.status.ok()) << once.status.ToString();
  EXPECT_GT(retried.outcome.stats.total_cycles, once.stats.total_cycles);
}

// A shed arrival never runs: the pool sees one acquire per admitted job.
TEST(RunVirtual, AShedArrivalNeverRuns) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.key_quota = 1;
  std::vector<wasp::Executor::Arrival> arrivals(40);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].at_us = 5.0 * static_cast<double>(i);
    arrivals[i].spec = FibSpec(&*image);
  }
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(&runtime, options, std::move(arrivals));
  uint64_t admitted = 0;
  uint64_t shed = 0;
  for (const wasp::Executor::Served& served : run.served) {
    if (served.admission == wasp::Admission::kAccepted) {
      ++admitted;
      EXPECT_EQ(served.outcome.result_word, 144u);
    } else {
      ++shed;
      EXPECT_EQ(served.admission, wasp::Admission::kQuotaExceeded);
      EXPECT_EQ(served.outcome.stats.total_cycles, 0u);
    }
  }
  EXPECT_GT(admitted, 1u);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(run.stats.submitted, admitted);
  EXPECT_EQ(run.stats.completed, admitted);
  EXPECT_EQ(run.stats.quota_rejected, shed);
  EXPECT_EQ(runtime.pool().stats().acquires, admitted);
}

// --- RunVirtual's closed loop ------------------------------------------------

constexpr uint64_t kHundredUsCycles = 269'000;  // 100 us

// `clients` x `per_client` task arrivals in a closed loop, the first round
// at t = 0; task i holds its lane for cycles(i) and counts its runs.
struct ClosedLoop {
  std::vector<wasp::Executor::Arrival> arrivals;
  std::shared_ptr<std::vector<int>> runs;
};

template <typename CyclesFn>
ClosedLoop MakeClosedLoop(size_t clients, size_t per_client, CyclesFn cycles) {
  ClosedLoop loop;
  loop.runs = std::make_shared<std::vector<int>>(clients * per_client, 0);
  for (size_t i = 0; i < clients * per_client; ++i) {
    wasp::Executor::Arrival arrival;
    arrival.key = "k";
    arrival.task = [runs = loop.runs, i, c = cycles(i)] {
      ++(*runs)[i];
      return SyntheticOutcome(c, false);
    };
    loop.arrivals.push_back(std::move(arrival));
  }
  return loop;
}

// Latency of each admitted arrival: submit to completion.
std::vector<double> Latencies(const wasp::Executor::VirtualRun& run) {
  std::vector<double> latencies;
  for (const wasp::Executor::Served& served : run.served) {
    if (served.admission == wasp::Admission::kAccepted) {
      latencies.push_back(served.done_us - served.arrival_us);
    }
  }
  return latencies;
}

double HarmonicMeanRps(const std::vector<double>& latencies_us) {
  std::vector<double> rps;
  for (const double latency : latencies_us) {
    rps.push_back(1e6 / latency);
  }
  return vbase::HarmonicMean(rps);
}

// Every arrival runs exactly once, and a client's requests never overlap:
// arrival i is submitted the instant arrival i - C completes, and starts no
// earlier.  Services vary so that clients finish out of index order.
TEST(RunVirtual, AClosedLoopClientSendsWhenItsLastRequestIsDone) {
  wasp::Runtime runtime;  // synthetic tasks never invoke it
  wasp::ExecutorOptions options;
  options.workers = 2;
  constexpr size_t kClients = 3;
  constexpr size_t kPerClient = 6;
  ClosedLoop loop = MakeClosedLoop(kClients, kPerClient, [](size_t i) {
    return kHundredUsCycles * (1 + (i * 7) % 5);
  });
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(&runtime, options, std::move(loop.arrivals), kClients);
  ASSERT_EQ(run.served.size(), kClients * kPerClient);
  EXPECT_EQ(*loop.runs, std::vector<int>(kClients * kPerClient, 1));
  for (size_t i = 0; i < run.served.size(); ++i) {
    const wasp::Executor::Served& served = run.served[i];
    ASSERT_EQ(served.admission, wasp::Admission::kAccepted) << i;
    EXPECT_GE(served.start_us, served.arrival_us) << i;
    EXPECT_GT(served.done_us, served.start_us) << i;
    if (i < kClients) {
      EXPECT_EQ(served.arrival_us, 0.0) << i;
    } else {
      EXPECT_EQ(served.arrival_us, run.served[i - kClients].done_us) << i;
    }
  }
  EXPECT_EQ(run.stats.submitted, kClients * kPerClient);
  EXPECT_EQ(run.stats.completed, kClients * kPerClient);
  EXPECT_EQ(run.stats.queued + run.stats.in_flight, 0u);
}

// 8 clients of 100 us requests: on 8 lanes nobody queues, on 1 lane every
// request waits behind the other seven clients' (800 us once the first
// round, 100..800 us, has passed).
TEST(RunVirtual, AClosedLoopScalesWithLanes) {
  auto run_on = [](int lanes) {
    wasp::Runtime runtime;
    wasp::ExecutorOptions options;
    options.workers = lanes;
    ClosedLoop loop = MakeClosedLoop(8, 8, [](size_t) { return kHundredUsCycles; });
    return Latencies(wasp::Executor::RunVirtual(&runtime, options, std::move(loop.arrivals), 8));
  };
  const std::vector<double> one = run_on(1);
  const std::vector<double> eight = run_on(8);
  ASSERT_EQ(one.size(), 64u);
  ASSERT_EQ(eight.size(), 64u);
  EXPECT_NEAR(vbase::Summarize(eight).mean, 100.0, 1.0);
  EXPECT_NEAR(vbase::Summarize(one).p99, 800.0, 1.0);
  EXPECT_GT(vbase::Summarize(one).mean, 700.0);
  EXPECT_LE(vbase::Summarize(one).mean, 800.0);
  EXPECT_GT(HarmonicMeanRps(eight), 7.0 * HarmonicMeanRps(one));
}

// A shed arrival takes no lane time, and its client sends its next request
// when the next job settles.  One lane and a one-deep queue hold two
// clients; a third client arriving at 150 us finds the queue full, and so
// does each of its retries, sent as the jobs ending at 200 and 300 us settle.
TEST(RunVirtual, AShedClosedLoopClientWaitsForTheNextCompletion) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  constexpr size_t kClients = 3;
  ClosedLoop loop = MakeClosedLoop(kClients, 3, [](size_t) { return kHundredUsCycles; });
  loop.arrivals[2].at_us = 150;
  const wasp::Executor::VirtualRun run =
      wasp::Executor::RunVirtual(&runtime, options, std::move(loop.arrivals), kClients);
  ASSERT_EQ(run.served.size(), 9u);
  double busy_us = 0;
  double last_done_us = 0;
  const double shed_at_us[] = {150.0, 200.0, 300.0};
  for (size_t i = 0; i < run.served.size(); ++i) {
    const wasp::Executor::Served& served = run.served[i];
    if (i % kClients == 2) {
      EXPECT_EQ(served.admission, wasp::Admission::kQueueFull) << i;
      EXPECT_NEAR(served.arrival_us, shed_at_us[i / kClients], 1e-6) << i;
      EXPECT_EQ(served.start_us, 0.0) << i;
      EXPECT_EQ(served.done_us, 0.0) << i;
      EXPECT_EQ((*loop.runs)[i], 0) << i;
    } else {
      EXPECT_EQ(served.admission, wasp::Admission::kAccepted) << i;
      EXPECT_EQ((*loop.runs)[i], 1) << i;
      busy_us += served.done_us - served.start_us;
      last_done_us = std::max(last_done_us, served.done_us);
    }
  }
  // The lane never idled and ran only the six admitted requests.
  EXPECT_NEAR(busy_us, 600.0, 1e-6);
  EXPECT_NEAR(last_done_us, 600.0, 1e-6);
  EXPECT_EQ(run.stats.rejected, 3u);
  EXPECT_EQ(run.stats.submitted, 6u);
  EXPECT_EQ(run.stats.completed, 6u);
}

// --- Policy keys from a trace ------------------------------------------------

// GovernTrace refuses a trace whose rows would escape their tenant's policy
// key: duplicate or empty tenant names (same-named tenants would share a
// quota), an out-of-range tenant index, or an invocation keyed elsewhere.
TEST(AdmissionKeysDeathTest, GovernTraceRefusesMalformedTraces) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  wasp::Runtime runtime;
  const wasp::ExecutorOptions options;
  auto valid = [] {
    vnet::TenantTrace trace;
    trace.names = {"a", "b"};
    trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kBatch};
    for (int t = 0; t < 2; ++t) {
      vnet::TenantTrace::Row row;
      row.arrival_us = 100.0 * t;
      row.tenant = t;
      row.task = [] { return SyntheticOutcome(kSlotCycles, false); };
      trace.rows.push_back(std::move(row));
    }
    return trace;
  };
  EXPECT_EQ(vnet::GovernTrace(&runtime, valid(), options).tenants.size(), 2u);

  vnet::TenantTrace trace = valid();
  trace.classes.pop_back();
  EXPECT_DEATH(vnet::GovernTrace(&runtime, trace, options), "classes and names");
  trace = valid();
  trace.rows[1].tenant = 2;  // == names.size()
  EXPECT_DEATH(vnet::GovernTrace(&runtime, trace, options), "out of range");
  trace = valid();
  trace.rows[0].tenant = -1;
  EXPECT_DEATH(vnet::GovernTrace(&runtime, trace, options), "out of range");
  trace = valid();
  trace.names[1] = "a";
  EXPECT_DEATH(vnet::GovernTrace(&runtime, trace, options), "non-empty and distinct");
  trace = valid();
  trace.names[0] = "";
  EXPECT_DEATH(vnet::GovernTrace(&runtime, trace, options), "non-empty and distinct");
  trace = valid();
  trace.rows[0].task = nullptr;  // an invocation row, keyed by another name
  trace.rows[0].spec.use_snapshot = true;
  trace.rows[0].spec.key = "b";
  EXPECT_DEATH(vnet::GovernTrace(&runtime, trace, options), "keyed by its tenant's name");
}

TEST(AdmissionKeys, BuildTraceRefusesDuplicateNames) {
  wasp::Runtime runtime;
  vnet::Vespid vespid(&runtime);
  ASSERT_TRUE(vespid.Register("echo", "out(1);").ok());
  std::vector<vnet::TenantSpec> tenants(2);
  tenants[0].name = tenants[1].name = "echo";
  tenants[0].phases = tenants[1].phases = {{40, 0.1}};
  auto trace = vespid.BuildTrace(tenants);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), vbase::Code::kInvalidArgument);
}

}  // namespace
