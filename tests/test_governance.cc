// Key-scoped resource governance tests: the pool's affine-shell eviction
// policy (generation-LRU under a resident-byte budget, reclaim via the
// cleaner crew), eager generation retirement (RetireGeneration /
// Runtime::RetireSnapshot), and GovernTrace, the executor in virtual time
// over a multi-tenant trace (per-key quotas, weighted class dequeue, shed
// classification, fairness, and repeatable runs over real Vespid
// invocations).  The pool and Vespid tests run real shells/invocations; run
// under TSan (TSAN=1 ./ci.sh) to check the synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/vjs/vjs.h"
#include "src/vnet/serverless.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/snapshot.h"
#include "src/wasp/vfunc.h"

namespace {

constexpr uint64_t kMb = 1ULL << 20;

// Creates a shell, dirties one page, and parks it affine under `gen`.
void ParkAffineShell(wasp::Pool& pool, uint64_t mem_size, uint64_t gen) {
  vkvm::VmConfig cfg;
  cfg.mem_size = mem_size;
  auto vm = vkvm::Vm::Create(cfg);
  uint8_t b = 1;
  ASSERT_TRUE(vm->memory().Write(0x4000, &b, 1).ok());
  pool.ReleaseAffine(std::move(vm), gen);
}

// --- Affine-shell eviction budget -------------------------------------------

TEST(AffineBudget, ParkOverBudgetEvictsLeastRecentlyUsedGeneration) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.affine_budget_bytes = 2 * kMb;
  wasp::Pool pool(options);

  // Three generations parked in order: the third park exceeds the 2 MB
  // budget, so the oldest generation (10) must be evicted.
  ParkAffineShell(pool, kMb, 10);
  ParkAffineShell(pool, kMb, 20);
  EXPECT_EQ(pool.stats().affine_resident_bytes, 2 * kMb);
  EXPECT_EQ(pool.stats().affine_evictions, 0u);
  ParkAffineShell(pool, kMb, 30);

  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_resident_bytes, 2 * kMb);
  EXPECT_EQ(stats.affine_evictions, 1u);
  EXPECT_EQ(pool.AffineShells(10), 0u);  // LRU victim
  EXPECT_EQ(pool.AffineShells(20), 1u);
  EXPECT_EQ(pool.AffineShells(30), 1u);
  // Sync mode cleans the evicted shell inline; it is a free shell now.
  EXPECT_EQ(pool.TotalFreeShells(), 1u);
}

TEST(AffineBudget, RecentlyParkedGenerationSurvivesOlderOne) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.affine_budget_bytes = 2 * kMb;
  wasp::Pool pool(options);

  ParkAffineShell(pool, kMb, 10);
  ParkAffineShell(pool, kMb, 20);
  // Re-park generation 10 (acquire its shell affine and give it back):
  // park-time LRU now ranks 20 as the oldest.
  bool affine_hit = false;
  vkvm::VmConfig cfg;
  cfg.mem_size = kMb;
  auto vm = pool.AcquireAffine(cfg, 10, &affine_hit);
  ASSERT_TRUE(affine_hit);
  pool.ReleaseAffine(std::move(vm), 10);

  ParkAffineShell(pool, kMb, 30);
  EXPECT_EQ(pool.AffineShells(20), 0u);  // now the LRU victim
  EXPECT_EQ(pool.AffineShells(10), 1u);
  EXPECT_EQ(pool.AffineShells(30), 1u);
  EXPECT_EQ(pool.stats().affine_resident_bytes, 2 * kMb);
}

TEST(AffineBudget, EvictedShellsAreReclaimedByTheCleanerCrew) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kAsync;
  options.affine_budget_bytes = kMb;
  wasp::Pool pool(options);

  ParkAffineShell(pool, kMb, 11);
  ParkAffineShell(pool, kMb, 22);  // over budget: 11 evicted to the crew

  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_evictions, 1u);
  EXPECT_EQ(stats.affine_resident_bytes, kMb);
  EXPECT_EQ(pool.AffineShells(11), 0u);
  EXPECT_EQ(pool.AffineShells(22), 1u);
  pool.DrainCleaner();
  // The crew cleaned it off the critical path; it is a free shell now.
  EXPECT_EQ(pool.TotalFreeShells(), 1u);
  EXPECT_GE(pool.stats().cleans, 1u);
}

// --- Eager generation retirement --------------------------------------------

TEST(Retire, RetireGenerationEnqueuesParkedShellsToTheCleanerCrew) {
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kAsync;
  wasp::Pool pool(options);

  ParkAffineShell(pool, kMb, 7);
  ParkAffineShell(pool, kMb, 7);
  ParkAffineShell(pool, kMb, 9);
  ASSERT_EQ(pool.AffineShells(7), 2u);

  pool.RetireGeneration(7);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(pool.AffineShells(7), 0u);   // gone immediately, not on demand
  EXPECT_EQ(pool.AffineShells(9), 1u);   // other generations untouched
  EXPECT_EQ(stats.affine_retired, 2u);
  EXPECT_GE(stats.affine_reclaims, 2u);  // retirement counts as reclaim
  EXPECT_EQ(stats.affine_resident_bytes, kMb);

  pool.DrainCleaner();
  EXPECT_EQ(pool.TotalFreeShells(), 2u);
}

TEST(Retire, LateReleaseAfterRetireDivertsToCleaningInsteadOfParking) {
  // An invocation can still hold a shell of generation G when G is retired;
  // its eventual ReleaseAffine must not re-park under the dead generation
  // (nothing would ever reclaim it) — it goes through the cleaning path.
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  wasp::Pool pool(options);

  pool.RetireGeneration(77);     // G dies while the shell is "in flight"
  ParkAffineShell(pool, kMb, 77);  // the late release

  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(pool.AffineShells(77), 0u);
  EXPECT_EQ(stats.affine_resident_bytes, 0u);
  EXPECT_EQ(stats.affine_parks, 0u);       // it was never parked
  EXPECT_EQ(stats.affine_retired, 1u);     // late retirement reclaim
  EXPECT_EQ(pool.TotalFreeShells(), 1u);   // cleaned into the free lists
}

TEST(Retire, RuntimeRetireSnapshotRecapturesUnderBudgetInALoop) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::RuntimeOptions options;
  options.affine_budget_bytes = 4 * kMb;
  wasp::Runtime runtime(options);

  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "svc";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);

  constexpr int kRounds = 3;
  uint64_t last_generation = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      auto r = fib.Call(10);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, 55);
    }
    // First call of the round re-captured (no snapshot existed).
    const wasp::SnapshotRef snap = runtime.snapshots().Find("svc");
    ASSERT_NE(snap, nullptr);
    EXPECT_NE(snap->generation, last_generation) << "round " << round;
    last_generation = snap->generation;
    EXPECT_LE(runtime.pool().stats().affine_resident_bytes,
              options.affine_budget_bytes);

    // Retire: the store forgets the key and the parked shells are reclaimed
    // eagerly — nothing is left stranded under the dead generation.
    runtime.RetireSnapshot("svc");
    EXPECT_EQ(runtime.snapshots().Find("svc"), nullptr);
    EXPECT_EQ(runtime.pool().AffineShells(last_generation), 0u);
  }
  const wasp::PoolStats stats = runtime.pool().stats();
  EXPECT_GE(stats.affine_retired, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(stats.affine_resident_bytes, 0u);  // every round fully reclaimed
}

// --- GovernTrace: the executor in virtual time over a tenant trace -----------

// A synthetic row: tenant `tenant` arrives at `at_us` and holds its lane for
// `service_us`.  No real invocation — the scheduler itself is under test.
vnet::TenantTrace::Row SyntheticRow(double at_us, int tenant, double service_us) {
  vnet::TenantTrace::Row row;
  row.arrival_us = at_us;
  row.tenant = tenant;
  row.task = [cycles = vbase::MicrosToCycles(service_us)] {
    wasp::RunOutcome outcome;
    outcome.stats.total_cycles = cycles;
    outcome.stats.restored_snapshot = true;
    return outcome;
  };
  return row;
}

// Governs `trace` on a fresh runtime over `lanes` lanes.
vnet::GovernedReplay Govern(const vnet::TenantTrace& trace, wasp::ExecutorOptions options,
                            int lanes) {
  wasp::Runtime runtime;
  options.workers = lanes;
  return vnet::GovernTrace(&runtime, trace, options);
}

// A synthetic overload mix: a batch tenant flooding at 5x capacity and an
// interactive tenant at 1/8 of capacity.
vnet::TenantTrace SyntheticHotBatchTrace() {
  vnet::TenantTrace trace;
  trace.names = {"interactive", "batch"};
  trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kBatch};
  std::vector<std::pair<double, int>> merged;
  for (int i = 0; i < 200; ++i) {  // batch: every 1 ms, 5 ms service
    merged.emplace_back(1000.0 * i, 1);
  }
  for (int i = 0; i < 50; ++i) {  // interactive: every 4 ms, 2 ms service
    merged.emplace_back(500.0 + 4000.0 * i, 0);
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [at, tenant] : merged) {
    trace.rows.push_back(SyntheticRow(at, tenant, tenant == 1 ? 5000.0 : 2000.0));
  }
  return trace;
}

TEST(GovernTrace, QuotaAndPriorityBoundInteractiveQueueWait) {
  const vnet::TenantTrace trace = SyntheticHotBatchTrace();

  wasp::ExecutorOptions ungoverned;
  ungoverned.batch_weight = 0;  // FIFO, no quota: the undifferentiated flood
  const vnet::GovernedReplay flood = Govern(trace, ungoverned, 1);

  // Quota sized to the interactive tenant's own worst-case backlog (~3: two
  // queued behind a 5 ms batch head-of-line service plus one running), so
  // only the flood sheds.
  wasp::ExecutorOptions governed = ungoverned;
  governed.key_quota = 4;
  governed.batch_weight = 4;
  const vnet::GovernedReplay fair = Govern(trace, governed, 1);

  // Conservation at every tenant: offered splits exactly.
  for (const auto& replay : {flood, fair}) {
    for (const vnet::TenantOutcome& tenant : replay.tenants) {
      EXPECT_EQ(tenant.offered,
                tenant.completed + tenant.shed_quota + tenant.shed_overload)
          << tenant.name;
    }
  }

  // Ungoverned: everything is admitted (unbounded queue) and the
  // interactive tenant drowns behind the batch backlog.
  EXPECT_EQ(flood.tenants[0].shed_quota + flood.tenants[0].shed_overload, 0u);
  EXPECT_EQ(flood.tenants[1].shed_quota + flood.tenants[1].shed_overload, 0u);
  EXPECT_DOUBLE_EQ(flood.fairness_index, 1.0);  // equally admitted, equally drowned

  // Governed: the batch key sheds at its quota, the interactive tenant
  // completes everything and its p99 queue wait collapses.
  EXPECT_EQ(fair.tenants[0].shed_quota, 0u);
  EXPECT_EQ(fair.tenants[0].completed, fair.tenants[0].offered);
  EXPECT_GT(fair.tenants[1].shed_quota, 0u);
  EXPECT_GT(fair.tenants[1].shed_rate, 0.5);  // the flood is mostly shed
  EXPECT_GT(flood.tenants[0].p99_queue_wait_us,
            10.0 * fair.tenants[0].p99_queue_wait_us);
  EXPECT_GT(fair.fairness_index, 0.0);
  EXPECT_LE(fair.fairness_index, 1.0);

  // Batch is not starved: it still completes work under governance.
  EXPECT_GT(fair.tenants[1].completed, 0u);

  // Deterministic: the same trace governs identically every time.
  const vnet::GovernedReplay again = Govern(trace, governed, 1);
  EXPECT_EQ(again.tenants[0].p99_queue_wait_us, fair.tenants[0].p99_queue_wait_us);
  EXPECT_EQ(again.tenants[1].shed_quota, fair.tenants[1].shed_quota);
  EXPECT_EQ(again.aggregate_rps, fair.aggregate_rps);
}

TEST(GovernTrace, GlobalBoundShedsAsOverloadNotQuota) {
  wasp::ExecutorOptions options;
  options.max_queue_depth = 4;
  options.batch_weight = 0;  // bound only: classification must say overload
  const vnet::GovernedReplay replay = Govern(SyntheticHotBatchTrace(), options, 1);
  uint64_t overload = 0;
  uint64_t quota = 0;
  for (const vnet::TenantOutcome& tenant : replay.tenants) {
    overload += tenant.shed_overload;
    quota += tenant.shed_quota;
  }
  EXPECT_GT(overload, 0u);
  EXPECT_EQ(quota, 0u);
}

// Tiered overrides: three tenants offering the *identical* flood, separated
// only by their resolved quota (premium and free explicit, standard through
// the key_quota fallback).  Admission must be monotone in quota.
TEST(GovernTrace, KeyQuotaOverridesResolveTiersOverOneFlood) {
  vnet::TenantTrace trace;
  trace.names = {"premium", "standard", "free"};
  trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kLatency,
                   wasp::KeyClass::kLatency};
  for (int i = 0; i < 120; ++i) {  // round-robin arrivals, far over capacity
    trace.rows.push_back(SyntheticRow(1000.0 * i, i % 3, 5000.0));
  }
  wasp::ExecutorOptions tiered;
  tiered.key_quota = 4;  // the standard tier rides the fallback
  tiered.key_quota_overrides = {{"premium", 8}, {"free", 1}};
  EXPECT_EQ(tiered.QuotaFor("premium"), 8u);
  EXPECT_EQ(tiered.QuotaFor("standard"), 4u);
  EXPECT_EQ(tiered.QuotaFor("free"), 1u);

  const vnet::GovernedReplay replay = Govern(trace, tiered, 1);
  const vnet::TenantOutcome& premium = replay.tenants[0];
  const vnet::TenantOutcome& standard = replay.tenants[1];
  const vnet::TenantOutcome& free_tier = replay.tenants[2];
  for (const vnet::TenantOutcome& tenant : replay.tenants) {
    EXPECT_EQ(tenant.offered, tenant.completed + tenant.shed_quota + tenant.shed_overload)
        << tenant.name;
    EXPECT_GT(tenant.shed_quota, 0u) << tenant.name << ": its quota never bound";
  }
  EXPECT_GT(premium.completed, standard.completed);
  EXPECT_GT(standard.completed, free_tier.completed);
  EXPECT_LT(premium.shed_rate, standard.shed_rate);
  EXPECT_LT(standard.shed_rate, free_tier.shed_rate);
  // Differentiated admission shows up in the fairness index (< 1 by design).
  EXPECT_LT(replay.fairness_index, 1.0);
  EXPECT_GT(replay.fairness_index, 0.0);
}

// --- GovernTrace over real Vespid invocations --------------------------------

// Two tenants of real functions: a base64 latency tenant and an echo batch
// tenant, merged into one trace.
struct VespidMix {
  wasp::Runtime registry;  // the functions' registry; runs go to fresh runtimes
  vnet::Vespid vespid{&registry};
  std::vector<vnet::TenantSpec> tenants;
  vnet::TenantTrace trace;
};

void BuildVespidMix(VespidMix* mix) {
  ASSERT_TRUE(mix->vespid.Register("b64", vjs::Base64ScriptSource()).ok());
  ASSERT_TRUE(mix->vespid
                  .Register("echo",
                            "var i = 0; while (i < input_len()) { out(input(i)); "
                            "i = i + 1; }")
                  .ok());
  mix->tenants.resize(2);
  mix->tenants[0].name = "b64";
  mix->tenants[0].klass = wasp::KeyClass::kLatency;
  mix->tenants[0].phases = {{40, 0.2}};
  mix->tenants[0].payload = std::vector<uint8_t>(64, 7);
  mix->tenants[1].name = "echo";
  mix->tenants[1].klass = wasp::KeyClass::kBatch;
  mix->tenants[1].phases = {{80, 0.2}};
  mix->tenants[1].payload = std::vector<uint8_t>(32, 9);
  auto trace = mix->vespid.BuildTrace(mix->tenants, /*seed=*/42);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  mix->trace = std::move(*trace);
}

TEST(MultiTenant, TraceCoversEveryArrivalOfEveryTenant) {
  VespidMix mix;
  BuildVespidMix(&mix);
  const vnet::TenantTrace& trace = mix.trace;
  ASSERT_EQ(trace.rows.size(), 8u + 16u);
  EXPECT_EQ(trace.names, (std::vector<std::string>{"vespid-b64", "vespid-echo"}));
  uint64_t per_tenant[2] = {0, 0};
  for (size_t i = 0; i < trace.rows.size(); ++i) {
    const vnet::TenantTrace::Row& row = trace.rows[i];
    if (i > 0) {
      EXPECT_GE(row.arrival_us, trace.rows[i - 1].arrival_us);
    }
    EXPECT_EQ(row.spec.key, trace.names[static_cast<size_t>(row.tenant)]);
    ++per_tenant[row.tenant];
  }
  EXPECT_EQ(per_tenant[0], 8u);
  EXPECT_EQ(per_tenant[1], 16u);

  // The trace feeds the governed scheduler end to end: every offered
  // arrival is admitted or shed, and each tenant's first invocation booted
  // from its image (its own key).
  wasp::ExecutorOptions options;
  options.key_quota = 2;
  const vnet::GovernedReplay replay = Govern(trace, options, 2);
  uint64_t offered = 0;
  for (const vnet::TenantOutcome& tenant : replay.tenants) {
    offered += tenant.offered;
    EXPECT_EQ(tenant.offered,
              tenant.completed + tenant.shed_quota + tenant.shed_overload);
    EXPECT_EQ(tenant.cold_starts, 1u) << tenant.name;
    // Every completed row held its lane for a positive modeled service.
    EXPECT_GT(tenant.mean_latency_us, tenant.mean_queue_wait_us) << tenant.name;
  }
  EXPECT_EQ(offered, trace.rows.size());
}

// Everything a reader compares between two runs: each tenant's outcome and
// the merged timeline.
void ExpectSameReplay(const vnet::GovernedReplay& a, const vnet::GovernedReplay& b) {
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    const vnet::TenantOutcome& x = a.tenants[t];
    const vnet::TenantOutcome& y = b.tenants[t];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.offered, y.offered);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.faulted, y.faulted);
    EXPECT_EQ(x.shed_quota, y.shed_quota);
    EXPECT_EQ(x.shed_overload, y.shed_overload);
    EXPECT_EQ(x.shed_breaker, y.shed_breaker);
    EXPECT_EQ(x.breaker_opens, y.breaker_opens);
    EXPECT_EQ(x.recovery.fault_rate, y.recovery.fault_rate);
    EXPECT_EQ(x.recovery.samples, y.recovery.samples);
    EXPECT_EQ(x.mean_queue_wait_us, y.mean_queue_wait_us);
    EXPECT_EQ(x.p99_queue_wait_us, y.p99_queue_wait_us);
    EXPECT_EQ(x.mean_latency_us, y.mean_latency_us);
    EXPECT_EQ(x.cold_starts, y.cold_starts);
  }
  ASSERT_EQ(a.sim.timeline.size(), b.sim.timeline.size());
  for (size_t i = 0; i < a.sim.timeline.size(); ++i) {
    EXPECT_EQ(a.sim.timeline[i].completed_rps, b.sim.timeline[i].completed_rps);
    EXPECT_EQ(a.sim.timeline[i].mean_latency_us, b.sim.timeline[i].mean_latency_us);
    EXPECT_EQ(a.sim.timeline[i].p99_latency_us, b.sim.timeline[i].p99_latency_us);
  }
  EXPECT_EQ(a.aggregate_rps, b.aggregate_rps);
  EXPECT_EQ(a.fairness_index, b.fairness_index);
}

// One discipline on two fresh runtimes governs identically: the scheduling
// is the executor's, the timeline virtual, and nothing moves with thread
// interleaving — not even with the cleaner crew cleaning asynchronously
// and a seeded fault plan killing invocations.
TEST(MultiTenant, TwoFreshRuntimesGovernIdentically) {
  VespidMix mix;
  BuildVespidMix(&mix);
  wasp::ExecutorOptions options;
  options.key_quota = 3;
  options.batch_weight = 2;
  options.recovery.breaker_enabled = true;
  options.recovery.breaker_min_samples = 2;
  options.recovery.idempotent_keys = {"vespid-b64"};

  wasp::RuntimeOptions sync_clean;
  wasp::RuntimeOptions async_storm;
  async_storm.clean_mode = wasp::CleanMode::kAsync;
  async_storm.fault_plan.seed = 5;
  async_storm.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.2, "vespid-echo"));
  async_storm.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kWorkerDeath, 0.3, "vespid-b64"));
  for (const wasp::RuntimeOptions& runtime_options : {sync_clean, async_storm}) {
    SCOPED_TRACE(runtime_options.clean_mode == wasp::CleanMode::kAsync ? "async + faults"
                                                                       : "sync");
    vnet::GovernedReplay runs[2];
    for (vnet::GovernedReplay& run : runs) {
      wasp::Runtime runtime(runtime_options);
      options.workers = 2;
      run = vnet::GovernTrace(&runtime, mix.trace, options);
    }
    ExpectSameReplay(runs[0], runs[1]);
    if (runtime_options.clean_mode == wasp::CleanMode::kAsync) {
      const vnet::TenantOutcome& b64 = runs[0].tenants[0];
      EXPECT_GT(runs[0].tenants[1].faulted, 0u) << "the seeded plan never fired";
      EXPECT_GT(b64.recovery.samples, b64.completed + b64.faulted) << "nothing was retried";
    }
  }
}

}  // namespace
