// Fault taxonomy, deterministic injection, and containment tests: every
// FaultKind classifies end-to-end on RunOutcome, the injector replays the
// same schedule for the same plan, a faulted shell is quarantined (scrubbed
// by the crew, never re-parked affine, never leaked), the executor's
// accounting invariant holds through fault storms, and GovernTrace counts
// faulted arrivals as casualties rather than completions.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/isa/isa.h"
#include "src/vnet/serverless.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/executor.h"
#include "src/wasp/fault.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/snapshot.h"
#include "src/wasp/vfunc.h"

namespace {

visa::Image RawImage(const std::string& body) {
  auto image = vrt::BuildRawImage(body);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

visa::Image LongModeImage(const std::string& virtine_main_body) {
  auto image = vrt::BuildImage(vrt::Env::kLong64,
                               "virtine_main:\n" + virtine_main_body + "  ret\n");
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

visa::Image FibImage() {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

// A snapshot-enabled fib(12) spec; a clean run returns result_word 144.
wasp::VirtineSpec FibSpec(const visa::Image* image, const std::string& key) {
  wasp::VirtineSpec spec;
  spec.image = image;
  spec.key = key;
  spec.word_bytes = 8;
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  wasp::ArgPacker packer(8);
  packer.AddWord(12);
  spec.args_page = packer.Finish();
  return spec;
}

wasp::RuntimeOptions PlanOptions(wasp::FaultPlan plan,
                                 wasp::CleanMode mode = wasp::CleanMode::kSync) {
  wasp::RuntimeOptions options;
  options.clean_mode = mode;
  options.fault_plan = std::move(plan);
  return options;
}

// Polls until the executor's gauges drain (the worker decrements in_flight
// after resolving the future, so future readiness is not quiescence).
wasp::ExecutorStats QuiescedStats(const wasp::Executor& executor) {
  wasp::ExecutorStats stats = executor.stats();
  for (int i = 0; i < 2000 && (stats.queued != 0 || stats.in_flight != 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = executor.stats();
  }
  return stats;
}

// --- Injector schedule ------------------------------------------------------

TEST(FaultInjector, SameSeedReplaysIdenticalSchedule) {
  wasp::FaultPlan plan;
  plan.seed = 1234;
  plan.rules.push_back(wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.3));
  plan.rules.push_back(wasp::FaultPlan::Probability(wasp::FaultKind::kWorkerDeath, 0.1));
  wasp::FaultInjector a(plan);
  wasp::FaultInjector b(plan);
  int fired = 0;
  for (int i = 0; i < 256; ++i) {
    const wasp::FaultKind ka = a.Arm("k");
    ASSERT_EQ(ka, b.Arm("k")) << "schedules diverged at invocation " << i;
    if (ka != wasp::FaultKind::kNone) ++fired;
  }
  // With p=0.3+0.1 over 256 draws, a schedule that never (or always) fires
  // means the draw is broken, not unlucky.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 256);
  const auto stats = a.stats();
  EXPECT_EQ(stats.invocations, 256u);
  EXPECT_EQ(stats.armed, static_cast<uint64_t>(fired));
}

TEST(FaultInjector, KeyScopedRuleIgnoresOtherKeys) {
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 1.0, "victim"));
  wasp::FaultInjector injector(plan);
  EXPECT_EQ(injector.Arm("bystander"), wasp::FaultKind::kNone);
  EXPECT_EQ(injector.Arm("victim"), wasp::FaultKind::kGuestTrap);
  EXPECT_EQ(injector.Arm(""), wasp::FaultKind::kNone);
}

TEST(FaultInjector, AtRuleFiresOnExactInvocationIndex) {
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kPolicyDenied, 2));
  wasp::FaultInjector injector(plan);
  EXPECT_EQ(injector.Arm("k"), wasp::FaultKind::kNone);
  EXPECT_EQ(injector.Arm("k"), wasp::FaultKind::kNone);
  EXPECT_EQ(injector.Arm("k"), wasp::FaultKind::kPolicyDenied);
  EXPECT_EQ(injector.Arm("k"), wasp::FaultKind::kNone);
}

// --- Injected faults classify and quarantine --------------------------------

TEST(FaultInjection, GuestTrapAtIndexClassifiesAndQuarantines) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  auto outcome = runtime.Invoke(FibSpec(&image, "trap"));
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kGuestTrap);
  const auto stats = runtime.pool().stats();
  EXPECT_EQ(stats.quarantined, 1u);
  // Sync mode has no crew: the shell is destroyed outright.
  EXPECT_EQ(stats.quarantine_destroyed, 1u);
  EXPECT_EQ(stats.quarantined_now, 0u);
  // The injection happened once and was delivered once.
  ASSERT_NE(runtime.fault_injector(), nullptr);
  const auto istats = runtime.fault_injector()->stats();
  EXPECT_EQ(istats.armed, 1u);
  EXPECT_EQ(istats.injected[static_cast<int>(wasp::FaultKind::kGuestTrap)], 1u);
  // The next invocation of the same key is unaffected.
  outcome = runtime.Invoke(FibSpec(&image, "trap"));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 144u);
}

TEST(FaultInjection, PolicyDeniedInjectionSetsDeniedFlag) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kPolicyDenied, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  auto outcome = runtime.Invoke(FibSpec(&image, "denied"));
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
}

TEST(FaultInjection, IllegalHypercallInjectionClassifies) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kIllegalHypercall, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  auto outcome = runtime.Invoke(FibSpec(&image, "illegal"));
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kIllegalHypercall);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kUnimplemented);
}

TEST(FaultInjection, WorkerDeathInjectionAbortsMidInvocation) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kWorkerDeath, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  auto outcome = runtime.Invoke(FibSpec(&image, "death"));
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kWorkerDeath);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kAborted);
  EXPECT_EQ(runtime.pool().stats().quarantined, 1u);
}

TEST(FaultInjection, OversizedReplyInjectionFailsReturnData) {
  // The guest's reply is 8 bytes — legal — but the injection treats it as
  // exceeding the I/O ceiling.
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 8
  mov r0, 0
  out HC_RETURN_DATA, r0
  hlt
)");
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kOversizedReply, 0));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyManaged;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kOversizedReply);
  // Without the plan the same guest completes.
  wasp::Runtime clean;
  outcome = clean.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.output.size(), 8u);
}

TEST(FaultInjection, PoisonedSnapshotInjectionQuarantinesBeforeRestore) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kPoisonedSnapshot, 1, "poison"));
  wasp::Runtime runtime(PlanOptions(std::move(plan)));
  // Invocation 0: cold, captures the snapshot.
  auto outcome = runtime.Invoke(FibSpec(&image, "poison"));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  // Invocation 1: the restore path sees the poisoned checksum.
  outcome = runtime.Invoke(FibSpec(&image, "poison"));
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPoisonedSnapshot);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kInternal);
  EXPECT_EQ(runtime.pool().stats().quarantined, 1u);
}

// --- Real faults get the same taxonomy --------------------------------------

TEST(FaultClassification, GuestTrapFromBrk) {
  auto image = RawImage("start:\n  brk\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kGuestTrap);
  EXPECT_EQ(runtime.pool().stats().quarantined, 1u);
}

// `in r200, HC_CONSOLE`, hand-encoded since the assembler only writes r0-r15:
// the vCPU traps on the register byte, so the host never writes a result
// past the register file, and the shell is quarantined like any trap.
TEST(FaultClassification, InvalidRegisterByteIsGuestTrap) {
  auto image = LongModeImage("  mov r1, 0\n  mov r2, 0\nin_r200:\n  .byte 54, HC_CONSOLE, 0, 200\n");
  ASSERT_EQ(image.bytes[image.symbols.at("in_r200") - image.load_addr],
            static_cast<uint8_t>(visa::Op::kIn));
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyAllowAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kGuestTrap);
  EXPECT_NE(outcome.status.ToString().find("invalid register 200"), std::string::npos)
      << outcome.status.ToString();
  EXPECT_EQ(runtime.pool().stats().quarantined, 1u);
}

TEST(FaultClassification, UnknownPortIsIllegalHypercall) {
  auto image = RawImage("start:\n  mov r0, 0\n  out 63, r0\n  hlt\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyAllowAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kIllegalHypercall);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kUnimplemented);
}

TEST(FaultClassification, DeniedHypercallIsPolicyDenied) {
  auto image = RawImage("start:\n  mov r0, 0\n  out HC_CONSOLE, r0\n  hlt\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyDenyAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied);
}

TEST(FaultClassification, WatchdogIsRunaway) {
  auto image = RawImage("start:\nloop:\n  jmp loop\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.max_insns = 10000;
  auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kRunaway);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kAborted);
}

TEST(FaultClassification, FailedHandlerIsHypercallError) {
  // A mapped virtual address whose physical target is beyond guest memory:
  // the return_data handler fails mid-flight.  (Long mode: real mode cannot
  // express the address.)
  auto image = LongModeImage(R"(
  mov r1, 0x20000000
  mov r2, 64
  mov r0, 0
  out HC_RETURN_DATA, r0
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyManaged;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kHypercallError);
}

TEST(FaultClassification, HostErrorsDoNotQuarantine) {
  // An image that does not fit the shell is a host-side load error, not a
  // guest fault: the outcome carries a non-OK status but kNone, and the
  // untouched shell goes back to the pool instead of quarantine.
  auto image = FibImage();
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.mem_size = 4096;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kNone);
  EXPECT_EQ(runtime.pool().stats().quarantined, 0u);
}

// --- Snapshot checksums -----------------------------------------------------

TEST(SnapshotChecksum, VerifyDetectsTamperedChecksum) {
  auto image = FibImage();
  wasp::Runtime runtime;
  ASSERT_TRUE(runtime.Invoke(FibSpec(&image, "sum")).status.ok());
  wasp::SnapshotRef snap = runtime.snapshots().Find("sum");
  ASSERT_NE(snap, nullptr);
  EXPECT_NE(snap->checksum, 0u);
  EXPECT_TRUE(wasp::VerifySnapshot(*snap));
  wasp::Snapshot tampered = *snap;
  tampered.checksum ^= 1;
  EXPECT_FALSE(wasp::VerifySnapshot(tampered));
}

TEST(SnapshotChecksum, VerifyRestoresCatchesGenuinePoison) {
  auto image = FibImage();
  wasp::RuntimeOptions options;
  options.verify_restores = true;
  wasp::Runtime runtime(options);
  ASSERT_TRUE(runtime.Invoke(FibSpec(&image, "genuine")).status.ok());
  // Poison the published snapshot: record a checksum its bytes don't match.
  wasp::SnapshotRef snap = runtime.snapshots().Find("genuine");
  ASSERT_NE(snap, nullptr);
  auto poisoned = std::make_shared<wasp::Snapshot>(*snap);
  poisoned->checksum ^= 0xdeadbeef;
  runtime.snapshots().Put("genuine", poisoned);
  auto outcome = runtime.Invoke(FibSpec(&image, "genuine"));
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPoisonedSnapshot);
  EXPECT_FALSE(outcome.status.ok());
}

// --- Quarantine lifecycle ---------------------------------------------------

TEST(Quarantine, CrewScrubsAndReadmitsWithoutLeak) {
  wasp::Pool pool(wasp::CleanMode::kAsync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  const char secret[] = "FAULTED-TENANT-SECRET";
  ASSERT_TRUE(vm->memory().Write(0x40000, secret, sizeof(secret)).ok());
  pool.Quarantine(std::move(vm));
  pool.DrainCleaner();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.quarantine_scrubbed, 1u);
  EXPECT_EQ(stats.quarantine_destroyed, 0u);
  EXPECT_EQ(stats.quarantined_now, 0u);
  ASSERT_EQ(pool.TotalFreeShells(), 1u);
  // The readmitted shell must not leak the faulted tenant's memory.
  auto reused = pool.Acquire(cfg);
  std::vector<uint8_t> probe(sizeof(secret));
  ASSERT_TRUE(reused->memory().Read(0x40000, probe.data(), probe.size()).ok());
  for (uint8_t b : probe) {
    ASSERT_EQ(b, 0u) << "secret leaked through a quarantined shell";
  }
  pool.Release(std::move(reused));
}

TEST(Quarantine, SyncModeDestroysOutright) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  pool.Quarantine(pool.Acquire(cfg));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.quarantine_destroyed, 1u);
  EXPECT_EQ(stats.quarantined_now, 0u);
  EXPECT_EQ(pool.TotalFreeShells(), 0u);
}

TEST(Quarantine, FaultedShellIsNeverReParkedAffine) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kGuestTrap, 2, "affine"));
  wasp::Runtime runtime(PlanOptions(std::move(plan), wasp::CleanMode::kAsync));
  // 0: cold capture.  1: affine warm restore, re-parked affine.
  ASSERT_TRUE(runtime.Invoke(FibSpec(&image, "affine")).status.ok());
  auto outcome = runtime.Invoke(FibSpec(&image, "affine"));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_TRUE(outcome.stats.affine_restore);
  // 2: the affine shell faults mid-invocation and is quarantined.
  outcome = runtime.Invoke(FibSpec(&image, "affine"));
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kGuestTrap);
  runtime.pool().DrainCleaner();
  // 3: the key still works, but nothing is parked under its generation any
  // more — the scrubbed shell was readmitted to the generic free list, so
  // this restore must not take the delta path.
  outcome = runtime.Invoke(FibSpec(&image, "affine"));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 144u);
  EXPECT_TRUE(outcome.stats.restored_snapshot);
  EXPECT_FALSE(outcome.stats.affine_restore);
  const auto stats = runtime.pool().stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.quarantine_scrubbed, 1u);
  EXPECT_EQ(stats.quarantined_now, 0u);
}

// --- Executor accounting under faults ---------------------------------------

TEST(ExecutorFaults, FaultedJobsCountSeparatelyAndReleaseQuota) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 1.0, "storm"));
  wasp::Runtime runtime(PlanOptions(std::move(plan), wasp::CleanMode::kAsync));
  wasp::ExecutorOptions options;
  options.workers = 2;
  options.key_quota = 1;
  wasp::Executor executor(&runtime, options);
  // With a quota of 1, each admission proves the previous faulted job
  // released its slot.
  for (int i = 0; i < 4; ++i) {
    std::future<wasp::RunOutcome> future;
    ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "storm"), &future))
        << "fault " << i << " wedged the key quota";
    auto outcome = future.get();
    EXPECT_EQ(outcome.fault, wasp::FaultKind::kGuestTrap);
  }
  const auto stats = QuiescedStats(executor);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.faulted, 4u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.faulted + stats.queued + stats.in_flight);
  EXPECT_EQ(executor.KeyLoad("storm"), 0u);
}

TEST(ExecutorFaults, MixedStormKeepsConservationInvariant) {
  auto image = FibImage();
  wasp::FaultPlan plan;
  plan.seed = 99;
  plan.rules.push_back(wasp::FaultPlan::Probability(wasp::FaultKind::kGuestTrap, 0.5, "mixed"));
  wasp::Runtime runtime(PlanOptions(std::move(plan), wasp::CleanMode::kAsync));
  wasp::ExecutorOptions options;
  options.workers = 4;
  wasp::Executor executor(&runtime, options);
  std::vector<std::future<wasp::RunOutcome>> futures;
  futures.reserve(32);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(executor.TrySubmit(FibSpec(&image, "mixed"), &futures.emplace_back()));
    // The invariant must hold at every observation point, mid-storm included.
    const auto mid = executor.stats();
    EXPECT_EQ(mid.submitted, mid.completed + mid.faulted + mid.queued + mid.in_flight);
  }
  uint64_t faulted = 0;
  for (auto& future : futures) {
    auto outcome = future.get();
    if (outcome.fault != wasp::FaultKind::kNone) {
      ++faulted;
    } else {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.result_word, 144u);
    }
  }
  const auto stats = QuiescedStats(executor);
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.faulted, faulted);
  EXPECT_EQ(stats.completed, 32u - faulted);
  EXPECT_GT(faulted, 0u);
  EXPECT_LT(faulted, 32u);
  // Quarantine ledger balances once the crew drains.
  runtime.pool().DrainCleaner();
  const auto pstats = runtime.pool().stats();
  EXPECT_EQ(pstats.quarantined, faulted);
  EXPECT_EQ(pstats.quarantined, pstats.quarantine_scrubbed + pstats.quarantine_destroyed);
  EXPECT_EQ(pstats.quarantined_now, 0u);
}

// --- GovernTrace fault discipline -------------------------------------------

// Two tenants alternating on one lane; each row holds its lane for 100 us
// and completes, or dies with a guest trap when its `faulted` flag is set.
vnet::TenantTrace TwoTenantTrace(const std::vector<bool>& faulted) {
  vnet::TenantTrace trace;
  trace.names = {"victim", "bystander"};
  trace.classes = {wasp::KeyClass::kLatency, wasp::KeyClass::kLatency};
  for (size_t i = 0; i < faulted.size(); ++i) {
    vnet::TenantTrace::Row row;
    row.arrival_us = 100.0 * static_cast<double>(i);
    row.tenant = static_cast<int>(i % 2);
    row.task = [fault = faulted[i]] {
      wasp::RunOutcome outcome;
      outcome.stats.total_cycles = vbase::MicrosToCycles(100.0);
      if (fault) {
        outcome.fault = wasp::FaultKind::kGuestTrap;
        outcome.status = vbase::Internal("injected guest trap");
      }
      return outcome;
    };
    trace.rows.push_back(std::move(row));
  }
  return trace;
}

vnet::GovernedReplay GovernOnOneLane(const vnet::TenantTrace& trace) {
  wasp::Runtime runtime;
  wasp::ExecutorOptions options;
  options.workers = 1;
  options.batch_weight = 0;
  return vnet::GovernTrace(&runtime, trace, options);
}

TEST(GovernTraceFaults, FaultedArrivalsAreCasualtiesNotCompletions) {
  const vnet::GovernedReplay replay = GovernOnOneLane(TwoTenantTrace({true, false, false, false}));
  ASSERT_EQ(replay.tenants.size(), 2u);
  EXPECT_EQ(replay.tenants[0].offered, 2u);
  EXPECT_EQ(replay.tenants[0].faulted, 1u);
  EXPECT_EQ(replay.tenants[0].completed, 1u);
  EXPECT_DOUBLE_EQ(replay.tenants[0].fault_rate, 0.5);
  EXPECT_EQ(replay.tenants[1].offered, 2u);
  EXPECT_EQ(replay.tenants[1].faulted, 0u);
  EXPECT_EQ(replay.tenants[1].completed, 2u);
  EXPECT_DOUBLE_EQ(replay.tenants[1].fault_rate, 0.0);
}

TEST(GovernTraceFaults, CleanRowsAllComplete) {
  const vnet::GovernedReplay replay =
      GovernOnOneLane(TwoTenantTrace({false, false, false, false}));
  ASSERT_EQ(replay.tenants.size(), 2u);
  EXPECT_EQ(replay.tenants[0].completed, 2u);
  EXPECT_EQ(replay.tenants[0].faulted, 0u);
  EXPECT_EQ(replay.tenants[1].completed, 2u);
}

}  // namespace
