// Figure 17 (this reproduction's addition): fault injection, shell
// quarantine, and the one-invocation blast radius.
//
// The paper's isolation story is spatial (a virtine cannot touch the host).
// This harness proves the *temporal* half for a serving platform: one
// invocation dying — guest trap, denied or illegal hypercall, worker death,
// poisoned snapshot — costs exactly that invocation.  Its shell is
// quarantined (never parked affine, never pushed to a lock-free free stack,
// readmitted only after a cleaner-crew full scrub), its key's quota slot is
// released, and every co-tenant keeps its latency.
//
// Three phases, all gated so ci.sh can smoke them:
//
// 1. Containment.  A deterministic FaultPlan kills one keyed invocation per
//    fault kind at exact invocation indices, alternating with clean
//    invocations of the same key.  Gates: every injected kind classifies on
//    RunOutcome::fault; the clean invocation after each fault is never
//    served by the faulted shell (no affine restore — the quarantined shell
//    is unreachable until scrubbed) yet still computes the right answer;
//    the quarantine and residency accounting conserve at every observation
//    and drain to quarantined_now == 0.
//
// 2. Chaos storm.  Two Vespid tenants share the platform; a seeded
//    probabilistic FaultPlan storms the victim's key (guest traps + worker
//    deaths) while the co-tenant runs the same load as in a fault-free
//    control run.  GovernTrace runs the one trace twice, each time on a
//    fresh runtime (with and without the plan) and the executor in virtual
//    time.  The load keeps two lanes about 87% busy, so the co-tenant
//    queues in the control too.  Gates: the victim shows a real fault rate,
//    the co-tenant faults never, and the co-tenant's p99 modeled queue wait
//    under the storm stays within 2x of its fault-free control, which must
//    be above zero — the blast radius is one invocation, not the platform.
//
// 3. Soak (wall-clock paced).  Rounds of a Vespid arrival trace submitted at
//    its trace offsets on the real clock, plus an executor burst per round,
//    both through one threaded executor, under a mild background fault
//    rate.  The burst samples the executor's accounting law mid-flight, and
//    after each round's drain the harness samples the residency gauge, the
//    quarantine gauge, the shell census, and the executor's queue gauges.
//    Gates: executor conservation
//    (submitted == completed + faulted + queued + in_flight) at every
//    sample, all gauges return to zero at quiescence, the shell census
//    never drifts upward, and retiring the keys at the end releases every
//    resident byte.
//
// 4. Recovery.  The same 33% storm, with the recovery machinery engaged.
//    A two-key mix (stormed victim + clean co-tenant) runs twice on the
//    executor in virtual time as a closed loop of 2x lanes clients —
//    retry-once on in both runs, circuit breaker off (A) vs on (B) — and
//    goodput is fault-free completions per modeled lane-millisecond of
//    admitted work.  Without the breaker every stormed invocation burns a
//    lane, dies, and destroys its shell (sync quarantine), so its
//    replacement pays vm_create; with the breaker the victim's storm is
//    shed at the door for free.  Gates: goodput with the breaker >= 1.5x
//    without; once the loop has settled, the executor's accounting law
//    holds and every admitted job resolved exactly once, retries included
//    (the mid-flight sample runs in phase 3, and on worker threads in
//    test_recovery's Recovery.ConcurrentStormAndProbesKeepAccountingConserved);
//    with --quick, a second pair on fresh runtimes prints the same columns;
//    and the phase-2 trace run again under GovernTrace's breaker discipline
//    sheds only the victim while the co-tenant's p99 stays within 2x of its
//    fault-free control.
//
//   ./fig17_chaos            # full run
//   ./fig17_chaos --quick    # CI smoke (shorter traces, same gates)
//   ./fig17_chaos --soak     # extended soak rounds (the ci.sh SOAK=1 lane)
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/vjs/vjs.h"
#include "src/vnet/serverless.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/executor.h"
#include "src/wasp/fault.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

// Asserts the quarantine ledger's conservation invariant (exact at
// quiescence, which is when the harness samples it).
void CheckQuarantineLedger(const wasp::PoolStats& stats, int* failures) {
  if (stats.quarantined !=
      stats.quarantine_scrubbed + stats.quarantine_destroyed + stats.quarantined_now) {
    std::printf("FAIL: quarantine conservation violated (%llu != %llu + %llu + %llu)\n",
                static_cast<unsigned long long>(stats.quarantined),
                static_cast<unsigned long long>(stats.quarantine_scrubbed),
                static_cast<unsigned long long>(stats.quarantine_destroyed),
                static_cast<unsigned long long>(stats.quarantined_now));
    ++*failures;
  }
}

// Waits for the executor's gauges to settle: a future resolves before its
// worker decrements in_flight, so "all futures done" is not yet quiescence.
wasp::ExecutorStats QuiescedExecutorStats(const wasp::Executor& executor) {
  wasp::ExecutorStats stats = executor.stats();
  for (int spin = 0; spin < 2000 && (stats.queued != 0 || stats.in_flight != 0); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = executor.stats();
  }
  return stats;
}

// Asserts the executor's accounting law on one locked snapshot.
void CheckExecutorConservation(const wasp::ExecutorStats& stats, int* failures) {
  if (stats.submitted !=
      stats.completed + stats.faulted + stats.queued + stats.in_flight) {
    std::printf("FAIL: executor conservation violated "
                "(%llu != %llu + %llu + %llu + %llu)\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.faulted),
                static_cast<unsigned long long>(stats.queued),
                static_cast<unsigned long long>(stats.in_flight));
    ++*failures;
  }
}

// --- Phase 1: deterministic containment -------------------------------------

int RunContainmentPhase() {
  std::printf("\n=== Phase 1: one injected fault per kind, blast radius one ===\n");
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  VB_CHECK(image.ok(), image.status().ToString());

  // Fault schedule over the injector's global invocation index: 0 and 1 are
  // the cold capture and the warm affine restore; from there every even
  // index faults (consuming the key's freshly parked affine shell) and
  // every odd index must run clean on a *different* shell.
  const wasp::FaultKind kKinds[] = {
      wasp::FaultKind::kGuestTrap,       wasp::FaultKind::kPolicyDenied,
      wasp::FaultKind::kIllegalHypercall, wasp::FaultKind::kWorkerDeath,
      wasp::FaultKind::kPoisonedSnapshot,
  };
  constexpr size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  for (size_t i = 0; i < kNumKinds; ++i) {
    options.fault_plan.rules.push_back(
        wasp::FaultPlan::At(kKinds[i], 2 + 2 * i, "victim"));
  }
  wasp::Runtime runtime(options);

  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "victim";
  spec.use_snapshot = true;
  spec.word_bytes = 8;
  wasp::ArgPacker packer(spec.word_bytes);
  packer.AddWord(12);
  spec.args_page = packer.Finish();

  int failures = 0;
  // Warm up: cold capture, then one affine restore proving warmth exists.
  wasp::RunOutcome warm0 = runtime.Invoke(spec);
  VB_CHECK(warm0.status.ok(), warm0.status.ToString());
  wasp::RunOutcome warm1 = runtime.Invoke(spec);
  VB_CHECK(warm1.status.ok(), warm1.status.ToString());
  if (!warm1.stats.affine_restore) {
    std::printf("FAIL: warmup never produced an affine restore\n");
    ++failures;
  }

  vbase::Table table({"injected kind", "classified", "status", "clean follow-up",
                      "affine reuse"});
  for (size_t i = 0; i < kNumKinds; ++i) {
    const wasp::RunOutcome faulted = runtime.Invoke(spec);
    const bool classified = faulted.fault == kKinds[i];
    if (!classified || faulted.status.ok()) {
      std::printf("FAIL: injection %zu expected %s, got %s (status %s)\n", i,
                  wasp::FaultKindName(kKinds[i]), wasp::FaultKindName(faulted.fault),
                  faulted.status.ToString().c_str());
      ++failures;
    }
    benchutil::CheckedResident(runtime.pool(), &failures);
    // The follow-up invocation of the same key must still answer correctly,
    // and must not be served by the quarantined shell: the fault consumed
    // the key's parked affine shell, so a correct pool serves this one from
    // a clean (or fresh) shell — affine_restore false is the observable
    // "never re-acquired" signal.
    const wasp::RunOutcome clean = runtime.Invoke(spec);
    const bool clean_ok = clean.status.ok() && clean.result_word == 144;
    if (!clean_ok) {
      std::printf("FAIL: follow-up after %s did not complete correctly: %s\n",
                  wasp::FaultKindName(kKinds[i]), clean.status.ToString().c_str());
      ++failures;
    }
    if (clean.stats.affine_restore) {
      std::printf("FAIL: follow-up after %s reused the quarantined affine shell\n",
                  wasp::FaultKindName(kKinds[i]));
      ++failures;
    }
    table.AddRow({wasp::FaultKindName(kKinds[i]),
                  wasp::FaultKindName(faulted.fault),
                  faulted.status.ok() ? "ok" : "non-ok",
                  clean_ok ? "correct" : "WRONG",
                  clean.stats.affine_restore ? "REUSED" : "no"});
  }
  table.Print();

  // Quiesce and audit the ledgers.
  runtime.pool().DrainCleaner();
  const wasp::PoolStats stats = runtime.pool().stats();
  CheckQuarantineLedger(stats, &failures);
  if (stats.quarantined != kNumKinds) {
    std::printf("FAIL: expected %zu quarantines, counted %llu\n", kNumKinds,
                static_cast<unsigned long long>(stats.quarantined));
    ++failures;
  }
  if (stats.quarantined_now != 0) {
    std::printf("FAIL: %llu shells still quarantined after drain\n",
                static_cast<unsigned long long>(stats.quarantined_now));
    ++failures;
  }
  if (stats.quarantine_scrubbed != kNumKinds) {
    std::printf("FAIL: the async crew should scrub every quarantined shell "
                "(%llu of %zu)\n",
                static_cast<unsigned long long>(stats.quarantine_scrubbed), kNumKinds);
    ++failures;
  }
  const wasp::FaultInjectorStats inject = runtime.fault_injector()->stats();
  uint64_t injected_total = 0;
  for (int k = 0; k < wasp::kNumFaultKinds; ++k) {
    injected_total += inject.injected[k];
  }
  if (inject.armed != kNumKinds || injected_total != kNumKinds) {
    std::printf("FAIL: injector armed %llu / injected %llu, expected %zu each\n",
                static_cast<unsigned long long>(inject.armed),
                static_cast<unsigned long long>(injected_total), kNumKinds);
    ++failures;
  }
  std::printf("\nClaim check: %zu fault kinds injected and classified; every "
              "follow-up ran clean off a non-quarantined shell; quarantine ledger "
              "%llu = %llu scrubbed + %llu destroyed + %llu pending.\n",
              kNumKinds, static_cast<unsigned long long>(stats.quarantined),
              static_cast<unsigned long long>(stats.quarantine_scrubbed),
              static_cast<unsigned long long>(stats.quarantine_destroyed),
              static_cast<unsigned long long>(stats.quarantined_now));
  return failures;
}

// --- Phase 2: chaos storm vs co-tenant latency -------------------------------

// The two-tenant mix phases 2 and 4 govern: a victim at 24,000 rps and a
// co-tenant at 12,000 rps sharing two lanes, about 87% busy with ~48 us
// invocations, so the co-tenant queues even in the fault-free control and
// the blast-radius gate can fail.  The functions are registered on a
// runtime of their own; every discipline runs on a fresh one.
struct StormMix {
  wasp::Runtime registry;
  vnet::Vespid vespid{&registry};
  std::vector<vnet::TenantSpec> tenants;
  vnet::TenantTrace trace;  // tenant 0 = victim, tenant 1 = cotenant
};

void BuildStormMix(bool quick, StormMix* mix) {
  VB_CHECK(mix->vespid.Register("victim", vjs::Base64ScriptSource()).ok(), "register failed");
  VB_CHECK(mix->vespid.Register("cotenant", vjs::Base64ScriptSource()).ok(),
           "register failed");
  const double scale = quick ? 0.4 : 1.0;
  mix->tenants = {
      {"victim", {{24000, 0.3 * scale}}, wasp::KeyClass::kLatency, std::vector<uint8_t>(256, 5)},
      {"cotenant", {{12000, 0.3 * scale}}, wasp::KeyClass::kLatency, std::vector<uint8_t>(256, 7)},
  };
  auto trace = mix->vespid.BuildTrace(mix->tenants, /*seed=*/42);
  VB_CHECK(trace.ok(), trace.status().ToString());
  mix->trace = std::move(*trace);
}

// The storm: seeded probabilistic guest traps + worker deaths on the
// victim's snapshot key only.
wasp::FaultPlan StormPlan() {
  wasp::FaultPlan plan;
  plan.seed = 1789;
  plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.25, "vespid-victim"));
  plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kWorkerDeath, 0.10, "vespid-victim"));
  return plan;
}

// The blast-radius gate over one control/storm pair: the co-tenant's p99
// queue wait under the storm stays within 2x of its fault-free control.
// Both runs are governed in virtual time, so the p99s repeat exactly and
// need no noise floor.  A control that never queues the co-tenant would
// make the gate unfailable, so that fails too.
bool BlastRadiusHolds(const char* run, double control_p99_us, double storm_p99_us) {
  if (control_p99_us <= 0) {
    std::printf("FAIL: the %s control never queued the co-tenant; the 2x gate cannot fail\n",
                run);
    return false;
  }
  if (storm_p99_us > 2.0 * control_p99_us) {
    std::printf("FAIL: the %s degraded the co-tenant's p99 beyond 2x\n", run);
    return false;
  }
  return true;
}

// Governs the mix under `options` (two FIFO lanes) on a fresh async-clean
// runtime injecting `plan`, then audits the runtime's ledgers.
vnet::GovernedReplay GovernMix(const StormMix& mix, const wasp::FaultPlan& plan,
                               wasp::ExecutorOptions options, wasp::PoolStats* pool_stats,
                               wasp::FaultInjectorStats* inject_stats, int* failures) {
  wasp::RuntimeOptions runtime_options;
  runtime_options.clean_mode = wasp::CleanMode::kAsync;
  runtime_options.fault_plan = plan;
  wasp::Runtime runtime(runtime_options);
  options.workers = 2;
  options.batch_weight = 0;
  const vnet::GovernedReplay replay = vnet::GovernTrace(&runtime, mix.trace, options);

  runtime.pool().DrainCleaner();
  if (pool_stats != nullptr) {
    *pool_stats = runtime.pool().stats();
  }
  if (inject_stats != nullptr && runtime.fault_injector() != nullptr) {
    *inject_stats = runtime.fault_injector()->stats();
  }
  benchutil::CheckedResident(runtime.pool(), failures);
  CheckQuarantineLedger(runtime.pool().stats(), failures);
  return replay;
}

int RunStormPhase(const StormMix& mix) {
  std::printf("\n=== Phase 2: fault storm on one key, co-tenant p99 within 2x ===\n");
  int failures = 0;

  // Control: the same trace, no injection.
  const vnet::GovernedReplay control =
      GovernMix(mix, wasp::FaultPlan{}, {}, nullptr, nullptr, &failures);
  wasp::PoolStats pool_stats;
  wasp::FaultInjectorStats inject_stats;
  const vnet::GovernedReplay storm =
      GovernMix(mix, StormPlan(), {}, &pool_stats, &inject_stats, &failures);

  vbase::Table table({"run", "tenant", "offered", "completed", "faulted", "fault rate",
                      "p99 wait us"});
  for (const auto& [label, replay] :
       {std::pair<const char*, const vnet::GovernedReplay*>{"control", &control},
        std::pair<const char*, const vnet::GovernedReplay*>{"storm", &storm}}) {
    for (size_t t = 0; t < replay->tenants.size(); ++t) {
      const vnet::TenantOutcome& tenant = replay->tenants[t];
      table.AddRow({label, tenant.name, std::to_string(tenant.offered),
                    std::to_string(tenant.completed), std::to_string(tenant.faulted),
                    vbase::Fmt(100.0 * tenant.fault_rate, 1) + "%",
                    vbase::Fmt(tenant.p99_queue_wait_us, 0)});
    }
  }
  table.Print();

  const vnet::TenantOutcome& victim = storm.tenants[0];
  const vnet::TenantOutcome& bystander = storm.tenants[1];
  if (victim.faulted == 0) {
    std::printf("FAIL: the storm never landed a fault on the victim\n");
    ++failures;
  }
  if (bystander.faulted != 0 || control.tenants[1].faulted != 0) {
    std::printf("FAIL: a keyed fault plan must never fault the co-tenant\n");
    ++failures;
  }
  uint64_t injected_total = 0;
  for (int k = 0; k < wasp::kNumFaultKinds; ++k) {
    injected_total += inject_stats.injected[k];
  }
  if (pool_stats.quarantined < injected_total || injected_total == 0) {
    std::printf("FAIL: every injected fault must quarantine a shell "
                "(%llu injected, %llu quarantined)\n",
                static_cast<unsigned long long>(injected_total),
                static_cast<unsigned long long>(pool_stats.quarantined));
    ++failures;
  }
  const double control_p99 = control.tenants[1].p99_queue_wait_us;
  const double storm_p99 = bystander.p99_queue_wait_us;
  std::printf("\nClaim check: co-tenant p99 queue wait %.0f us under storm vs %.0f us "
              "control (%.2fx; gate <= 2x); victim fault rate %.1f%%, %llu shells "
              "quarantined.\n",
              storm_p99, control_p99, control_p99 > 0 ? storm_p99 / control_p99 : 0,
              100.0 * victim.fault_rate,
              static_cast<unsigned long long>(pool_stats.quarantined));
  if (!BlastRadiusHolds("fault storm", control_p99, storm_p99)) {
    ++failures;
  }
  return failures;
}

// --- Phase 3: wall-clock-paced soak ------------------------------------------

int RunSoakPhase(bool quick, bool soak) {
  std::printf("\n=== Phase 3: paced soak — gauges return to zero, census holds ===\n");
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  VB_CHECK(image.ok(), image.status().ToString());

  constexpr int kLanes = 4;
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kAsync;
  // A mild background fault rate on both soak keys: the quarantine path must
  // cycle continuously, not once.
  options.fault_plan.seed = 7;
  options.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.02));
  wasp::Runtime runtime(options);
  runtime.pool().Prewarm(runtime.MakeVmConfig(2ULL << 20), kLanes + 4);
  vnet::Vespid vespid(&runtime);
  VB_CHECK(vespid.Register("soak", vjs::Base64ScriptSource()).ok(), "register failed");

  wasp::VirtineSpec burst_spec;
  burst_spec.image = &image.value();
  burst_spec.key = "soak-burst";
  burst_spec.use_snapshot = true;
  burst_spec.mem_size = 2ULL << 20;
  burst_spec.word_bytes = 8;
  wasp::ArgPacker packer(burst_spec.word_bytes);
  packer.AddWord(12);
  burst_spec.args_page = packer.Finish();

  const int rounds = soak ? 6 : quick ? 2 : 3;
  const double round_s = soak ? 1.0 : quick ? 0.25 : 0.5;
  const std::vector<vnet::LoadPhase> phases = {{400, round_s}};
  const std::vector<uint8_t> payload(256, 5);

  int failures = 0;
  uint64_t total_faulted = 0;
  uint64_t census_after_first = 0;
  wasp::ExecutorOptions executor_options;
  executor_options.workers = kLanes;
  executor_options.max_queue_depth = 0;
  executor_options.block_when_full = true;
  wasp::Executor executor(&runtime, executor_options);
  // No bound, quota or breaker: the policy admits every soak job.
  auto submit = [&executor](const wasp::VirtineSpec& spec) {
    std::future<wasp::RunOutcome> future;
    VB_CHECK(executor.TrySubmit(spec, &future), "the soak's executor refused a job");
    return future;
  };
  vbase::Table table({"round", "paced", "faulted", "resident B", "census",
                      "quarantined now", "queued", "in flight"});
  for (int round = 0; round < rounds; ++round) {
    // Paced open-loop load: each arrival submitted at its trace offset on
    // the real clock.
    const std::vector<vnet::TenantSpec> tenant = {
        {"soak", phases, wasp::KeyClass::kLatency, payload}};
    auto trace = vespid.BuildTrace(tenant, 42 + static_cast<uint64_t>(round));
    VB_CHECK(trace.ok(), trace.status().ToString());
    std::vector<std::future<wasp::RunOutcome>> paced;
    paced.reserve(trace->rows.size());
    const auto origin = std::chrono::steady_clock::now();
    for (const vnet::TenantTrace::Row& row : trace->rows) {
      std::this_thread::sleep_until(
          origin + std::chrono::microseconds(static_cast<int64_t>(row.arrival_us)));
      paced.push_back(submit(row.spec));
    }
    uint64_t round_faulted = 0;
    for (auto& f : paced) {
      const wasp::RunOutcome outcome = f.get();
      VB_CHECK(outcome.fault != wasp::FaultKind::kNone || outcome.status.ok(),
               outcome.status.ToString());
      round_faulted += outcome.fault != wasp::FaultKind::kNone ? 1 : 0;
    }
    total_faulted += round_faulted;

    // A burst on a second key, sampling the accounting law mid-flight
    // — the invariant must hold at *every* observation, not just quiescence.
    constexpr int kBurst = 32;
    std::vector<std::future<wasp::RunOutcome>> futures;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      futures.push_back(submit(burst_spec));
      if (i % 8 == 0) {
        CheckExecutorConservation(executor.stats(), &failures);
      }
    }
    for (auto& f : futures) {
      const wasp::RunOutcome outcome = f.get();
      if (outcome.fault == wasp::FaultKind::kNone && !outcome.status.ok()) {
        std::printf("FAIL: round %d burst invocation failed: %s\n", round,
                    outcome.status.ToString().c_str());
        ++failures;
      }
    }

    // Quiesce and sample every gauge.
    runtime.pool().DrainCleaner();
    const wasp::PoolStats pool_stats = runtime.pool().stats();
    const wasp::ExecutorStats exec_stats = QuiescedExecutorStats(executor);
    const uint64_t resident = benchutil::CheckedResident(runtime.pool(), &failures);
    CheckQuarantineLedger(pool_stats, &failures);
    CheckExecutorConservation(exec_stats, &failures);
    const uint64_t census =
        runtime.pool().TotalFreeShells() + runtime.pool().TotalAffineShells();
    table.AddRow({std::to_string(round), std::to_string(paced.size()),
                  std::to_string(round_faulted), std::to_string(resident),
                  std::to_string(census), std::to_string(pool_stats.quarantined_now),
                  std::to_string(exec_stats.queued), std::to_string(exec_stats.in_flight)});
    if (pool_stats.quarantined_now != 0 || exec_stats.queued != 0 ||
        exec_stats.in_flight != 0) {
      std::printf("FAIL: round %d gauges did not return to zero at quiescence\n", round);
      ++failures;
    }
    if (round == 0) {
      census_after_first = census;
    } else if (census > census_after_first + 2) {
      // Steady state: the same load re-runs on the same shells.  A transient
      // create while a shell sat in quarantine is tolerable; growth beyond
      // that is a leak.
      std::printf("FAIL: round %d shell census drifted %llu -> %llu\n", round,
                  static_cast<unsigned long long>(census_after_first),
                  static_cast<unsigned long long>(census));
      ++failures;
    }
  }
  table.Print();

  // Final leak check: retiring both keys must release every resident byte.
  runtime.RetireSnapshot("vespid-soak");
  runtime.RetireSnapshot("soak-burst");
  runtime.pool().DrainCleaner();
  const uint64_t final_resident = benchutil::CheckedResident(runtime.pool(), &failures);
  if (final_resident != 0 || runtime.pool().TotalAffineShells() != 0) {
    std::printf("FAIL: retirement left %llu resident bytes / %zu affine shells\n",
                static_cast<unsigned long long>(final_resident),
                runtime.pool().TotalAffineShells());
    ++failures;
  }
  const wasp::PoolStats end_stats = runtime.pool().stats();
  CheckQuarantineLedger(end_stats, &failures);
  std::printf("\nClaim check: %d paced rounds, %llu background faults absorbed; "
              "quarantine/queue gauges zero after every round, shell census stable, "
              "and retirement drained residency to zero.\n",
              rounds, static_cast<unsigned long long>(total_faulted));
  if (total_faulted == 0) {
    std::printf("FAIL: the soak's background fault rate never fired\n");
    ++failures;
  }
  return failures;
}

// --- Phase 4: retry-once + circuit breaker goodput under the storm -----------

// One closed-loop run of the two-key mix on the executor in virtual time:
// `jobs` submissions, victim twice as often as the co-tenant, from 2x lanes
// clients, so completions feed the breaker before later submissions arrive.
struct RecoveryRun {
  uint64_t offered = 0;
  uint64_t shed = 0;       // rejected at the door by the open breaker
  uint64_t executed = 0;   // admitted and ran (possibly retried, possibly died)
  uint64_t ok = 0;         // fault-free completions (the goodput numerator)
  uint64_t faulted = 0;
  uint64_t retries = 0;
  uint64_t retry_successes = 0;
  uint64_t breaker_opens = 0;
  uint64_t fresh_creates = 0;
  uint64_t total_cycles = 0;  // modeled cycles burned by admitted work
  double goodput_per_ms = 0;  // ok completions per modeled lane-millisecond

  bool operator==(const RecoveryRun&) const = default;
};

RecoveryRun RunRecoveryLoad(const visa::Image& image, bool breaker, int jobs,
                            int* failures) {
  constexpr int kLanes = 4;
  // Default kSync clean mode: a faulted shell is destroyed outright, so its
  // replacement pays vm_create — the storm inflates the victim's real
  // service cost, which is exactly what the breaker refuses to keep buying.
  wasp::RuntimeOptions options;
  options.fault_plan.seed = 1789;
  options.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.25, "victim"));
  options.fault_plan.rules.push_back(
      wasp::FaultPlan::Probability(wasp::FaultKind::kWorkerDeath, 0.10, "victim"));
  wasp::Runtime runtime(options);
  runtime.pool().Prewarm(runtime.MakeVmConfig(2ULL << 20), kLanes + 4);

  wasp::ExecutorOptions eopts;
  eopts.workers = kLanes;
  eopts.recovery.idempotent_keys = {"victim", "cotenant"};
  eopts.recovery.breaker_enabled = breaker;
  eopts.recovery.breaker_alpha = 0.2;
  // The storm's steady-state fault rate is ~0.33, so the 0.5 default would
  // never trip; 0.2 opens within the first EWMA window and re-opens on the
  // first faulted attempt after a clean probe closes it.
  eopts.recovery.breaker_open_threshold = 0.2;
  eopts.recovery.breaker_min_samples = 8;
  eopts.recovery.breaker_open_sheds = 24;

  std::vector<wasp::Executor::Arrival> arrivals(static_cast<size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    // The victim's fib(16) costs ~7x the co-tenant's fib(12): the storm
    // wastes expensive work, the breaker saves it.
    const bool is_victim = i % 3 != 2;
    wasp::VirtineSpec& spec = arrivals[static_cast<size_t>(i)].spec;
    spec.image = &image;
    spec.key = is_victim ? "victim" : "cotenant";
    spec.use_snapshot = true;
    spec.mem_size = 2ULL << 20;
    spec.word_bytes = 8;
    wasp::ArgPacker packer(spec.word_bytes);
    packer.AddWord(is_victim ? 16 : 12);
    spec.args_page = packer.Finish();
  }
  const wasp::Executor::VirtualRun virtual_run =
      wasp::Executor::RunVirtual(&runtime, eopts, std::move(arrivals), 2 * kLanes);

  RecoveryRun run;
  run.offered = virtual_run.served.size();
  for (size_t i = 0; i < virtual_run.served.size(); ++i) {
    const wasp::Executor::Served& served = virtual_run.served[i];
    const bool is_victim = i % 3 != 2;
    if (served.admission != wasp::Admission::kAccepted) {
      if (served.admission != wasp::Admission::kCircuitOpen || !breaker || !is_victim) {
        std::printf("FAIL: unexpected rejection (admission %d, breaker %d, victim %d)\n",
                    static_cast<int>(served.admission), breaker, is_victim);
        ++*failures;
      }
      ++run.shed;
      continue;
    }
    const wasp::RunOutcome& outcome = served.outcome;
    ++run.executed;
    run.total_cycles += outcome.stats.total_cycles;
    if (outcome.fault == wasp::FaultKind::kNone) {
      if (!outcome.status.ok()) {
        std::printf("FAIL: fault-free invocation failed: %s\n",
                    outcome.status.ToString().c_str());
        ++*failures;
      }
      ++run.ok;
    } else {
      ++run.faulted;
    }
  }

  const wasp::ExecutorStats& stats = virtual_run.stats;
  CheckExecutorConservation(stats, failures);
  // The retried-job invariant: every admitted job resolves exactly once,
  // retries never mint or lose a submission.
  if (stats.submitted != run.executed || stats.completed + stats.faulted != run.executed ||
      stats.completed != run.ok || stats.breaker_rejected != run.shed) {
    std::printf("FAIL: recovery accounting mismatch (submitted %llu executed %llu "
                "completed %llu ok %llu rejected %llu shed %llu)\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(run.executed),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(run.ok),
                static_cast<unsigned long long>(stats.breaker_rejected),
                static_cast<unsigned long long>(run.shed));
    ++*failures;
  }
  run.retries = stats.retries;
  run.retry_successes = stats.retry_successes;
  run.breaker_opens = stats.breaker_opens;
  run.fresh_creates = runtime.pool().stats().fresh_creates;
  const double lane_ms = vbase::CyclesToMicros(run.total_cycles) / 1e3 / kLanes;
  run.goodput_per_ms = lane_ms > 0 ? static_cast<double>(run.ok) / lane_ms : 0;
  return run;
}

int RunRecoveryPhase(bool quick, const StormMix& mix) {
  std::printf("\n=== Phase 4: retry-once + circuit breaker goodput under the storm ===\n");
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  VB_CHECK(image.ok(), image.status().ToString());
  int failures = 0;

  const int jobs = quick ? 300 : 900;
  const RecoveryRun without = RunRecoveryLoad(*image, /*breaker=*/false, jobs, &failures);
  const RecoveryRun with = RunRecoveryLoad(*image, /*breaker=*/true, jobs, &failures);
  if (quick) {
    // The pair is modeled time on the executor's virtual clock, so a second
    // pair on fresh runtimes must print the same columns.
    if (RunRecoveryLoad(*image, /*breaker=*/false, jobs, &failures) != without ||
        RunRecoveryLoad(*image, /*breaker=*/true, jobs, &failures) != with) {
      std::printf("FAIL: the recovery pair differs on fresh runtimes\n");
      ++failures;
    }
  }

  vbase::Table table({"run", "offered", "shed", "executed", "ok", "faulted", "retries",
                      "creates", "Mcycles", "goodput ok/lane-ms"});
  for (const auto& [label, run] :
       {std::pair<const char*, const RecoveryRun*>{"breaker off", &without},
        std::pair<const char*, const RecoveryRun*>{"breaker on", &with}}) {
    table.AddRow({label, std::to_string(run->offered), std::to_string(run->shed),
                  std::to_string(run->executed), std::to_string(run->ok),
                  std::to_string(run->faulted), std::to_string(run->retries),
                  std::to_string(run->fresh_creates),
                  vbase::Fmt(run->total_cycles / 1e6, 1),
                  vbase::Fmt(run->goodput_per_ms, 2)});
  }
  table.Print();

  if (without.shed != 0 || without.breaker_opens != 0) {
    std::printf("FAIL: the breaker-off run must never shed\n");
    ++failures;
  }
  if (with.shed == 0 || with.breaker_opens == 0) {
    std::printf("FAIL: the breaker never tripped under a 33%% storm\n");
    ++failures;
  }
  // The shielded run may legitimately see zero retries: the breaker admits
  // so few victim jobs that no worker death needs recovering.
  if (without.retries == 0 || without.retry_successes == 0) {
    std::printf("FAIL: worker deaths on an idempotent key must drive retries\n");
    ++failures;
  }
  const double ratio = without.goodput_per_ms > 0
                           ? with.goodput_per_ms / without.goodput_per_ms
                           : 0;
  std::printf("\nClaim check: goodput %.2f -> %.2f ok/lane-ms with the breaker "
              "(%.2fx; gate >= 1.5x); %llu of %llu victim submissions shed, "
              "%llu retries (%llu recovered) in the unshielded run.\n",
              without.goodput_per_ms, with.goodput_per_ms, ratio,
              static_cast<unsigned long long>(with.shed),
              static_cast<unsigned long long>(with.offered * 2 / 3),
              static_cast<unsigned long long>(without.retries),
              static_cast<unsigned long long>(without.retry_successes));
  if (ratio < 1.5) {
    std::printf("FAIL: the breaker's goodput win is below the 1.5x gate\n");
    ++failures;
  }

  // The phase-2 mix under the breaker discipline, with and without the
  // storm: only the stormed victim sheds, and the co-tenant's p99 holds the
  // 2x gate.
  wasp::ExecutorOptions governed;
  governed.recovery.breaker_enabled = true;
  governed.recovery.breaker_open_threshold = 0.2;
  governed.recovery.breaker_min_samples = 4;
  governed.recovery.breaker_open_sheds = 8;
  const vnet::GovernedReplay control =
      GovernMix(mix, wasp::FaultPlan{}, governed, nullptr, nullptr, &failures);
  const vnet::GovernedReplay storm =
      GovernMix(mix, StormPlan(), governed, nullptr, nullptr, &failures);
  const vnet::TenantOutcome& victim = storm.tenants[0];
  const vnet::TenantOutcome& bystander = storm.tenants[1];
  if (victim.shed_breaker == 0 || victim.breaker_opens == 0) {
    std::printf("FAIL: the breaker never shed the stormed victim\n");
    ++failures;
  }
  if (bystander.shed_breaker != 0 || control.tenants[0].shed_breaker != 0 ||
      control.tenants[1].shed_breaker != 0) {
    std::printf("FAIL: the breaker shed a fault-free tenant\n");
    ++failures;
  }
  const double control_p99 = control.tenants[1].p99_queue_wait_us;
  std::printf("Claim check: breaker run shed %llu victim arrivals over %llu opens; "
              "co-tenant p99 %.0f us vs %.0f us control (%.2fx; gate <= 2x).\n",
              static_cast<unsigned long long>(victim.shed_breaker),
              static_cast<unsigned long long>(victim.breaker_opens),
              bystander.p99_queue_wait_us, control_p99,
              control_p99 > 0 ? bystander.p99_queue_wait_us / control_p99 : 0);
  if (!BlastRadiusHolds("breaker run", control_p99, bystander.p99_queue_wait_us)) {
    ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool soak = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    }
  }
  benchutil::Header(
      "Figure 17: fault injection, shell quarantine, one-invocation blast radius",
      "an injected guest fault costs exactly its invocation: the shell is "
      "quarantined until scrubbed, the key's quota slot is released, co-tenant p99 "
      "stays within 2x of fault-free, and every accounting ledger conserves");

  int failures = RunContainmentPhase();
  StormMix mix;
  BuildStormMix(quick, &mix);
  failures += RunStormPhase(mix);
  failures += RunSoakPhase(quick, soak);
  failures += RunRecoveryPhase(quick, mix);
  if (failures > 0) {
    std::printf("\nFAIL: %d chaos gate(s) violated\n", failures);
    return 1;
  }
  std::printf("\nOK: faults classify, quarantine contains, co-tenants keep their "
              "latency, retry and the breaker recover goodput, and nothing leaks "
              "under soak.\n");
  return 0;
}
