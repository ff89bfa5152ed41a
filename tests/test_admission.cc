// Tests for wasp::AdmissionPolicy, the one admission policy behind both the
// threaded executor and GovernTrace's virtual-time replay.
//
// * Differential: one scripted sequence of submissions and completions is
//   driven through a 1-worker wasp::Executor (generic tasks parked on gates
//   the test opens in virtual-time order) and through GovernTrace on one
//   virtual lane.  Per key, both schedulers must agree on every admission
//   verdict, every completion and fault, the breaker's opens, and the final
//   fault-rate EWMA and breaker position.
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
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/vnet/serverless.h"
#include "src/wasp/admission.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"

namespace {

// --- Differential: executor vs GovernTrace -----------------------------------

// One key per class: with a single key in each class queue the executor's
// affinity scan always takes the queue head, which the replay assumes.
constexpr std::array<const char*, 2> kKeys = {"lat", "bat"};
constexpr std::array<wasp::KeyClass, 2> kClasses = {wasp::KeyClass::kLatency,
                                                    wasp::KeyClass::kBatch};
constexpr double kSlotUs = 1000.0;

struct Step {
  size_t key = 0;         // index into kKeys
  double service_us = 0;  // lane time once dispatched
  bool fault = false;     // the job dies with a fault instead of completing
};

// Arrival i lands at (i + 1) slots.  Services are whole slots plus 7 us, so
// a completion never coincides with an arrival (a chain of jobs would need
// over a thousand links to come back to a slot boundary).
double ArrivalUs(size_t i) { return kSlotUs * static_cast<double>(i + 1); }

// About one slot of service per arrival keeps the lane saturated, so the
// quota, the global bound and the class pick all bind.  The latency key
// faults on every job from arrival 60 to 129: its breaker opens, sheds,
// probes into the storm and re-opens, then closes on the first clean probe.
std::vector<Step> Script() {
  vbase::Rng rng(0xad15);
  std::vector<Step> steps(240);
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i].key = rng.NextDouble() < 0.55 ? 0 : 1;
    steps[i].service_us = kSlotUs * static_cast<double>(rng.Below(3)) + 7.0;
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
  // The key's ledger after the last admission decision.
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
      running_done += script[*running].service_us;
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
      wasp::RunOutcome outcome;
      if (fault) {
        outcome.fault = wasp::FaultKind::kGuestTrap;
      }
      return outcome;
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
          running_done = now + script[*running].service_us;
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
  for (size_t k = 0; k < kKeys.size(); ++k) {
    const wasp::KeyRecoverySnapshot snap = executor.KeyRecoveryState(kKeys[k]);
    tally[k].opens = snap.opens;
    tally[k].ewma = snap.fault_rate;
    tally[k].samples = snap.samples;
    tally[k].state = snap.state;
  }
  while (running) {
    finish_running();
  }
  return tally;
}

std::array<KeyTally, 2> RunOnReplay(const std::vector<Step>& script, int batch_weight) {
  vnet::MeasuredTrace trace;
  trace.names = {kKeys[0], kKeys[1]};
  trace.classes = {kClasses[0], kClasses[1]};
  for (size_t i = 0; i < script.size(); ++i) {
    trace.arrivals_us.push_back(ArrivalUs(i));
    trace.tenant.push_back(static_cast<int>(script[i].key));
    trace.service_us.push_back(script[i].service_us);
    trace.cold.push_back(false);
    trace.faulted.push_back(script[i].fault);
  }
  vnet::GovernanceOptions options;
  ApplySettings(&options, batch_weight);
  options.lanes = 1;
  const vnet::GovernedReplay replay = vnet::GovernTrace(trace, options);

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

TEST(AdmissionDifferential, ExecutorAndReplayMakeTheSameDecisions) {
  const std::vector<Step> script = Script();
  std::array<KeyTally, 2> by_weight[2];
  const int weights[2] = {4, 0};
  for (int w = 0; w < 2; ++w) {
    SCOPED_TRACE("batch_weight " + std::to_string(weights[w]));
    const std::array<KeyTally, 2> executor = RunOnExecutor(script, weights[w]);
    const std::array<KeyTally, 2> replay = RunOnReplay(script, weights[w]);
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

// --- Policy keys from a measured trace --------------------------------------

// GovernTrace checks a hand-built trace's shape at entry instead of reading
// past a short vector, and refuses duplicate or empty tenant names (they
// are the admission policy's keys: same-named tenants would share a quota).
TEST(AdmissionKeysDeathTest, GovernTraceRefusesMalformedTraces) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const vnet::GovernanceOptions options;
  auto valid = [] {
    vnet::MeasuredTrace trace;
    trace.names = {"a", "b"};
    trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kBatch};
    trace.arrivals_us = {0, 100};
    trace.tenant = {0, 1};
    trace.service_us = {50, 50};
    trace.cold = {false, false};
    return trace;
  };
  EXPECT_EQ(vnet::GovernTrace(valid(), options).tenants.size(), 2u);

  vnet::MeasuredTrace trace = valid();
  trace.cold.clear();
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "differ in length");
  trace = valid();
  trace.service_us.pop_back();
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "differ in length");
  trace = valid();
  trace.tenant.push_back(0);
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "differ in length");
  trace = valid();
  trace.faulted = {true};
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "faulted");
  trace = valid();
  trace.classes.pop_back();
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "classes and names");
  trace = valid();
  trace.tenant[1] = 2;  // == names.size()
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "out of range");
  trace = valid();
  trace.tenant[0] = -1;
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "out of range");
  trace = valid();
  trace.names[1] = "a";
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "non-empty and distinct");
  trace = valid();
  trace.names[0] = "";
  EXPECT_DEATH(vnet::GovernTrace(trace, options), "non-empty and distinct");
}

TEST(AdmissionKeys, MeasureMultiTenantRefusesDuplicateNames) {
  wasp::Runtime runtime;
  vnet::Vespid vespid(&runtime);
  ASSERT_TRUE(vespid.Register("echo", "out(1);").ok());
  std::vector<vnet::TenantSpec> tenants(2);
  tenants[0].name = tenants[1].name = "echo";
  tenants[0].phases = tenants[1].phases = {{40, 0.1}};
  auto trace = vespid.MeasureMultiTenant(tenants, /*concurrency=*/1);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), vbase::Code::kInvalidArgument);
}

}  // namespace
