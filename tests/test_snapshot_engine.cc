// Delta-aware snapshot engine tests: extent-coalesced capture/restore
// round-trips, the GuestMemory snapshot-epoch mechanism, randomized
// delta-vs-full differential checks (the Section 3.3 isolation objective:
// one invocation's writes must never leak into the next restore), the
// pool's snapshot-affine acquire/release/reclaim paths, and re-capture.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/snapshot.h"
#include "src/wasp/vfunc.h"

namespace {

using vhw::kPageSize;

// --- GuestMemory snapshot epoch ---------------------------------------------

TEST(Epoch, TracksWritesSinceBeginEpoch) {
  vhw::GuestMemory mem(1 << 20);
  uint8_t b = 1;
  ASSERT_TRUE(mem.Write(0x1000, &b, 1).ok());
  ASSERT_TRUE(mem.Write(0x5000, &b, 1).ok());
  EXPECT_EQ(mem.CountEpochDirtyPages(), 2u);
  mem.BeginEpoch();
  EXPECT_EQ(mem.CountEpochDirtyPages(), 0u);
  // The lifetime dirty bitmap is untouched by BeginEpoch.
  EXPECT_EQ(mem.CountDirtyPages(), 2u);
  ASSERT_TRUE(mem.Write(0x5000, &b, 1).ok());
  EXPECT_EQ(mem.CountEpochDirtyPages(), 1u);
  EXPECT_TRUE(mem.EpochPageDirty(0x5000u >> vhw::kPageBits));
}

TEST(Epoch, StoreRawFastPathStillMarksEpoch) {
  vhw::GuestMemory mem(1 << 20);
  // Two stores to the same page: the second takes the last-dirty-page fast
  // path, and the epoch bitmap must already hold the page.
  mem.StoreRaw<uint64_t>(0x2000, 1);
  mem.StoreRaw<uint64_t>(0x2008, 2);
  EXPECT_EQ(mem.CountEpochDirtyPages(), 1u);
  mem.BeginEpoch();
  // BeginEpoch must invalidate the fast-path cache, or this store would
  // skip re-marking the epoch bitmap.
  mem.StoreRaw<uint64_t>(0x2010, 3);
  EXPECT_EQ(mem.CountEpochDirtyPages(), 1u);
  EXPECT_TRUE(mem.EpochPageDirty(0x2000 >> vhw::kPageBits));
}

TEST(Epoch, ZeroDirtyPagesClearsEpochToo) {
  vhw::GuestMemory mem(1 << 20);
  uint8_t b = 7;
  ASSERT_TRUE(mem.Write(0x3000, &b, 1).ok());
  mem.ZeroDirtyPages();
  EXPECT_EQ(mem.CountEpochDirtyPages(), 0u);
  EXPECT_EQ(mem.CountDirtyPages(), 0u);
}

// --- Extent-coalesced capture ------------------------------------------------

TEST(Snapshot, ContiguousDirtyRunsCoalesceIntoExtents) {
  vhw::GuestMemory mem(1 << 20);
  std::vector<uint8_t> run(10 * kPageSize, 0xab);
  ASSERT_TRUE(mem.Write(0x8000, run.data(), run.size()).ok());  // pages 8..17
  uint8_t b = 0xcd;
  ASSERT_TRUE(mem.Write(0x40000, &b, 1).ok());  // page 64, isolated
  wasp::SnapshotRef snap = wasp::CaptureSnapshot(mem, vhw::ArchState{});
  ASSERT_EQ(snap->extent->extents.size(), 2u);
  EXPECT_EQ(snap->extent->extents[0].first_page, 8u);
  EXPECT_EQ(snap->extent->extents[0].page_count, 10u);
  EXPECT_EQ(snap->extent->extents[1].first_page, 64u);
  EXPECT_EQ(snap->extent->extents[1].page_count, 1u);
  EXPECT_EQ(snap->byte_size(), 11 * kPageSize);
  // FindPage resolves captured pages and rejects uncaptured ones.
  ASSERT_NE(snap->FindPage(8), nullptr);
  ASSERT_NE(snap->FindPage(17), nullptr);
  EXPECT_EQ(snap->FindPage(17)[0], 0xab);
  EXPECT_EQ(snap->FindPage(64)[0], 0xcd);
  EXPECT_EQ(snap->FindPage(7), nullptr);
  EXPECT_EQ(snap->FindPage(18), nullptr);
  EXPECT_EQ(snap->FindPage(63), nullptr);
  EXPECT_EQ(snap->FindPage(65), nullptr);
}

TEST(Snapshot, GenerationsAreProcessUnique) {
  vhw::GuestMemory mem(1 << 16);
  wasp::SnapshotRef a = wasp::CaptureSnapshot(mem, vhw::ArchState{});
  wasp::SnapshotRef b = wasp::CaptureSnapshot(mem, vhw::ArchState{});
  EXPECT_NE(a->generation, 0u);
  EXPECT_NE(b->generation, 0u);
  EXPECT_NE(a->generation, b->generation);
}

TEST(Snapshot, FullRestoreRoundTripsMemory) {
  vhw::GuestMemory src(1 << 20);
  vbase::Rng rng(42);
  // Scattered multi-page writes with distinctive content.
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> buf(1 + rng.Below(3 * kPageSize));
    for (uint8_t& v : buf) {
      v = static_cast<uint8_t>(rng.Next());
    }
    const uint64_t gpa = rng.Below(src.size() - buf.size());
    ASSERT_TRUE(src.Write(gpa, buf.data(), buf.size()).ok());
  }
  wasp::SnapshotRef snap = wasp::CaptureSnapshot(src, vhw::ArchState{});
  vhw::GuestMemory dst(1 << 20);
  EXPECT_EQ(wasp::RestoreFullInto(*snap, &dst), snap->byte_size());
  ASSERT_EQ(dst.size(), src.size());
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  // Restored pages are marked dirty so a pool clean re-zeroes them.
  EXPECT_EQ(dst.CountDirtyPages(), snap->page_count());
}

// --- Delta-vs-full differential fuzz ----------------------------------------

// The heart of the isolation argument: after arbitrary post-snapshot writes,
// a delta restore must leave memory byte-identical to a full restore into a
// clean shell.  The live memory adopts the snapshot's extent buffer at
// capture, as the runtime's winning cold capture does.
TEST(Snapshot, DeltaRestoreMatchesFullRestoreUnderRandomStores) {
  constexpr uint64_t kMemSize = 1 << 20;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    vbase::Rng rng(seed * 7919);
    vhw::GuestMemory live(kMemSize);
    // Random base state (the "image + boot + init" the snapshot captures).
    const int base_writes = 4 + static_cast<int>(rng.Below(24));
    for (int i = 0; i < base_writes; ++i) {
      std::vector<uint8_t> buf(1 + rng.Below(2 * kPageSize));
      for (uint8_t& v : buf) {
        v = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(live.Write(rng.Below(kMemSize - buf.size()), buf.data(), buf.size()).ok());
    }
    wasp::SnapshotRef snap = wasp::CaptureSnapshot(live, vhw::ArchState{});
    live.AdoptCowBase(snap->extent);

    // Reference: full restore into a clean shell.
    vhw::GuestMemory reference(kMemSize);
    wasp::RestoreFullInto(*snap, &reference);

    // The tenant scribbles: inside snapshot pages, outside them, straddling,
    // and via the StoreRaw fast path.
    const int tenant_writes = 1 + static_cast<int>(rng.Below(40));
    for (int i = 0; i < tenant_writes; ++i) {
      if (rng.Below(4) == 0) {
        live.StoreRaw<uint64_t>(rng.Below(kMemSize - 8) & ~7ULL, rng.Next());
      } else {
        std::vector<uint8_t> buf(1 + rng.Below(3 * kPageSize));
        for (uint8_t& v : buf) {
          v = static_cast<uint8_t>(rng.Next());
        }
        ASSERT_TRUE(
            live.Write(rng.Below(kMemSize - buf.size()), buf.data(), buf.size()).ok());
      }
    }

    const uint64_t dirty = live.CountEpochDirtyPages();
    const uint64_t repaired = wasp::RestoreDeltaInto(*snap, &live);
    EXPECT_EQ(repaired, dirty * kPageSize);
    EXPECT_EQ(live.CountEpochDirtyPages(), 0u);
    ASSERT_EQ(std::memcmp(live.data(), reference.data(), kMemSize), 0)
        << "delta restore diverged from full restore (seed " << seed << ")";
  }
}

TEST(Snapshot, DeltaRestoreCostFollowsWorkingSetNotImage) {
  // A large snapshot (1024 captured pages) with a 3-page working set: the
  // delta restore must repair exactly 3 pages.
  vhw::GuestMemory mem(8 << 20);
  std::vector<uint8_t> image(1024 * kPageSize, 0x11);
  ASSERT_TRUE(mem.Write(0, image.data(), image.size()).ok());
  wasp::SnapshotRef snap = wasp::CaptureSnapshot(mem, vhw::ArchState{});
  mem.AdoptCowBase(snap->extent);
  uint8_t b = 0x22;
  ASSERT_TRUE(mem.Write(10 * kPageSize, &b, 1).ok());        // inside the image
  ASSERT_TRUE(mem.Write(2000 * kPageSize, &b, 1).ok());      // outside the image
  mem.StoreRaw<uint32_t>(500 * kPageSize + 16, 0xdeadbeef);  // fast path
  EXPECT_EQ(mem.CountEpochDirtyPages(), 3u);
  const uint64_t repaired = wasp::RestoreDeltaInto(*snap, &mem);
  EXPECT_EQ(repaired, 3 * kPageSize);
  EXPECT_LT(repaired, snap->byte_size());
  // Page outside the snapshot is re-zeroed, pages inside are re-copied.
  EXPECT_EQ(mem.data()[2000 * kPageSize], 0u);
  EXPECT_EQ(mem.data()[10 * kPageSize], 0x11);
}

// --- Pool snapshot affinity ---------------------------------------------------

TEST(AffinePool, KeyedAcquirePrefersParkedGeneration) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  uint8_t b = 0x5a;
  ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
  vm->memory().BeginEpoch();
  pool.ReleaseAffine(std::move(vm), /*generation=*/17);
  EXPECT_EQ(pool.AffineShells(17), 1u);
  EXPECT_EQ(pool.TotalFreeShells(), 0u);

  bool affine = false;
  bool from_pool = false;
  auto again = pool.AcquireAffine(cfg, 17, &affine, &from_pool);
  EXPECT_TRUE(affine);
  EXPECT_TRUE(from_pool);
  // The parked shell kept its memory: no zeroing happened on release.
  EXPECT_EQ(again->memory().data()[0x9000], 0x5a);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_parks, 1u);
  EXPECT_EQ(stats.affine_hits, 1u);
  EXPECT_EQ(stats.affine_reclaims, 0u);
  pool.Release(std::move(again));
}

TEST(AffinePool, WrongGenerationFallsBackToCleanShell) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  uint8_t b = 0x5a;
  ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
  pool.ReleaseAffine(std::move(vm), 23);
  // A keyed acquire for a different generation must not see shell 23's
  // memory: it reclaims (cleans) it instead.
  bool affine = true;
  auto other = pool.AcquireAffine(cfg, 99, &affine);
  EXPECT_FALSE(affine);
  EXPECT_EQ(other->memory().data()[0x9000], 0u);
  EXPECT_EQ(pool.stats().affine_reclaims, 1u);
  pool.Release(std::move(other));
}

// The satellite regression: restore -> affine release -> *plain* reacquire
// must yield a fully zeroed shell (the affine shortcut can never leak one
// tenant's memory to a non-affine consumer).
TEST(AffinePool, PlainAcquireAfterAffineParkIsFullyZeroed) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "zero-regression";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  ASSERT_TRUE(fib.Call(10).ok());
  ASSERT_TRUE(fib.Call(10).ok());
  EXPECT_TRUE(fib.last_outcome().stats.affine_restore);
  EXPECT_GE(runtime.pool().TotalAffineShells(), 1u);
  // A plain acquire has no snapshot: the pool must hand back zeroed memory.
  auto shell = runtime.pool().Acquire(runtime.MakeVmConfig(spec.mem_size));
  const uint8_t* data = shell->memory().data();
  for (uint64_t i = 0; i < shell->memory().size(); ++i) {
    ASSERT_EQ(data[i], 0u) << "affine shell leaked byte at gpa 0x" << std::hex << i;
  }
  EXPECT_EQ(shell->memory().CountDirtyPages(), 0u);
  runtime.pool().Release(std::move(shell));
}

// --- Runtime end-to-end -------------------------------------------------------

TEST(AffineRuntime, WarmInvocationsUseDeltaRestore) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "affine-flow";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);

  ASSERT_TRUE(fib.Call(10).ok());
  EXPECT_TRUE(fib.last_outcome().stats.took_snapshot);
  EXPECT_FALSE(fib.last_outcome().stats.restored_snapshot);

  uint64_t max_delta_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    auto r = fib.Call(10);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 55);
    const wasp::InvokeStats& stats = fib.last_outcome().stats;
    EXPECT_TRUE(stats.restored_snapshot);
    // The first run parked the shell snapshot-affine (the snapshot hypercall
    // began its epoch), so every warm start here is a delta restore.
    EXPECT_TRUE(stats.affine_restore) << "warm call " << i;
    EXPECT_TRUE(stats.from_pool);
    max_delta_bytes = std::max(max_delta_bytes, stats.restored_bytes);
  }
  // Delta restores repair a few pages, far below the snapshot image.
  const wasp::SnapshotRef snap = runtime.snapshots().Find("affine-flow");
  ASSERT_NE(snap, nullptr);
  EXPECT_LT(max_delta_bytes, snap->byte_size());
  const wasp::PoolStats stats = runtime.pool().stats();
  EXPECT_GE(stats.affine_hits, 4u);
  EXPECT_GE(stats.affine_parks, 4u);
}

TEST(AffineRuntime, DeltaPathIsIsolatedAcrossInvocations) {
  // A guest that snapshots explicitly, then increments a marker it reads
  // from memory: if one invocation's post-snapshot write ever survived into
  // the next restore, the result would drift past 1.
  auto image = vrt::BuildRawImage(R"(
start:
  mov r0, 0
  out HC_SNAPSHOT, r0
  mov r8, 0x600
  ld64 r9, [r8+0]
  add r9, 1
  st64 [r8+0], r9
  mov r0, r9
  mov r8, 0
  st64 [r8+0], r0
  hlt
)");
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "delta-isolation";
  spec.use_snapshot = true;
  spec.crt_snapshot = false;  // the guest picks its own snapshot point
  spec.word_bytes = 8;
  for (int i = 0; i < 6; ++i) {
    auto outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, 1u)
        << "post-snapshot state leaked into invocation " << i;
    if (i > 0) {
      EXPECT_TRUE(outcome.stats.restored_snapshot);
    }
  }
  EXPECT_GE(runtime.pool().stats().affine_hits, 5u);
}

// --- COW extents --------------------------------------------------------------

// Asserts the pool's residency conservation invariant on a quiescent pool:
// the per-generation rows sum to the affine_resident_bytes gauge, and so
// does the gauge's shared + private split.
void ExpectConserved(const wasp::Pool& pool) {
  const wasp::AffineAccounting acct = pool.affine_accounting();
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_resident_bytes, acct.resident_bytes) << "gauge != rows";
  EXPECT_EQ(stats.affine_shared_bytes + stats.affine_private_bytes, acct.resident_bytes)
      << "shared + private != rows";
}

// The COW differential: mapping a snapshot's shared extent buffer must be
// byte-identical to a full copy and begin the epoch, and a delta restore must
// repair exactly the epoch-dirty (privatized) pages, re-sharing everything
// (epoch count back to zero), while matching the full-copy reference
// byte-for-byte.
TEST(Cow, WritePrivatizationDifferentialFuzz) {
  constexpr uint64_t kMemSize = 1 << 20;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    vbase::Rng rng(seed * 104729);
    vhw::GuestMemory base(kMemSize);
    const int base_writes = 4 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < base_writes; ++i) {
      std::vector<uint8_t> buf(1 + rng.Below(3 * kPageSize));
      for (uint8_t& v : buf) {
        v = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(base.Write(rng.Below(kMemSize - buf.size()), buf.data(), buf.size()).ok());
    }
    wasp::SnapshotRef snap = wasp::CaptureSnapshot(base, vhw::ArchState{});

    vhw::GuestMemory full(kMemSize);
    wasp::RestoreFullInto(*snap, &full);
    vhw::GuestMemory cow(kMemSize);
    EXPECT_EQ(wasp::MapCowInto(*snap, &cow), snap->byte_size());
    ASSERT_TRUE(cow.HasCowBase());
    EXPECT_EQ(cow.CountEpochDirtyPages(), 0u);
    // The map is byte-identical to the copy, with identical dirty marks (a
    // pool clean must re-zero exactly the same pages either way).
    ASSERT_EQ(std::memcmp(cow.data(), full.data(), kMemSize), 0);
    EXPECT_EQ(cow.CountDirtyPages(), full.CountDirtyPages());

    // Identical tenant writes on both shells.
    const int tenant_writes = 1 + static_cast<int>(rng.Below(30));
    for (int i = 0; i < tenant_writes; ++i) {
      if (rng.Below(4) == 0) {
        const uint64_t gpa = rng.Below(kMemSize - 8) & ~7ULL;
        const uint64_t v = rng.Next();
        cow.StoreRaw<uint64_t>(gpa, v);
        full.StoreRaw<uint64_t>(gpa, v);
      } else {
        std::vector<uint8_t> buf(1 + rng.Below(2 * kPageSize));
        for (uint8_t& v : buf) {
          v = static_cast<uint8_t>(rng.Next());
        }
        const uint64_t gpa = rng.Below(kMemSize - buf.size());
        ASSERT_TRUE(cow.Write(gpa, buf.data(), buf.size()).ok());
        ASSERT_TRUE(full.Write(gpa, buf.data(), buf.size()).ok());
      }
    }
    ASSERT_EQ(std::memcmp(cow.data(), full.data(), kMemSize), 0);

    // The delta restore repairs exactly the privatized (epoch-dirty) pages
    // and must converge on the snapshot's exact view.
    const uint64_t privatized = cow.CountEpochDirtyPages();
    EXPECT_EQ(wasp::RestoreDeltaInto(*snap, &cow), privatized * kPageSize) << "seed " << seed;
    vhw::GuestMemory reference(kMemSize);
    wasp::RestoreFullInto(*snap, &reference);
    ASSERT_EQ(std::memcmp(cow.data(), reference.data(), kMemSize), 0)
        << "COW repair diverged from the full-copy reference (seed " << seed << ")";
    // All private pages were re-shared: the parked charge returns to zero.
    EXPECT_EQ(cow.CountEpochDirtyPages(), 0u);
    EXPECT_TRUE(cow.HasCowBase());
    EXPECT_EQ(cow.cow_base(), snap->extent);
  }
}

TEST(Cow, CleanDropsTheBase) {
  vhw::GuestMemory mem(1 << 20);
  uint8_t b = 0x33;
  ASSERT_TRUE(mem.Write(0x4000, &b, 1).ok());
  wasp::SnapshotRef snap = wasp::CaptureSnapshot(mem, vhw::ArchState{});
  vhw::GuestMemory shell(1 << 20);
  wasp::MapCowInto(*snap, &shell);
  shell.ZeroDirtyPages();
  EXPECT_FALSE(shell.HasCowBase());
  EXPECT_EQ(shell.CountEpochDirtyPages(), 0u);
  EXPECT_EQ(shell.data()[0x4000], 0u);
}

// --- Re-capture ---------------------------------------------------------------

// A re-capture is one flat snapshot of the shell's view: the parent's pages
// plus the drift, a page both hold stored once with the drift's content, and
// the parent's resume point.  A full copy and a COW map of it both reproduce
// the shell's memory.
TEST(Recapture, FlatViewIsParentPagesPlusDrift) {
  constexpr uint64_t kMemSize = 1 << 20;
  vhw::GuestMemory mem(kMemSize);
  std::vector<uint8_t> image(16 * kPageSize, 0x11);
  ASSERT_TRUE(mem.Write(0x8000, image.data(), image.size()).ok());  // pages 8..23
  vhw::ArchState cpu;
  cpu.rip = 0x8123;
  wasp::SnapshotRef parent =
      wasp::CaptureSnapshot(mem, cpu, wasp::PendingCall{wasp::kHcGetData, 5});

  // Drift: one page inside the parent's image, one page outside it.
  mem.BeginEpoch();
  std::vector<uint8_t> drift(kPageSize, 0x22);
  ASSERT_TRUE(mem.Write(0xa000, drift.data(), drift.size()).ok());   // page 10
  ASSERT_TRUE(mem.Write(0x40000, drift.data(), drift.size()).ok());  // page 64
  wasp::SnapshotRef next = wasp::CaptureOver(mem, *parent);
  EXPECT_NE(next->generation, parent->generation);
  EXPECT_EQ(next->mem_size, parent->mem_size);
  EXPECT_TRUE(wasp::VerifySnapshot(*next));
  // The view is pages 8..23 and page 64; page 10 is stored once.
  ASSERT_EQ(next->extent->extents.size(), 2u);
  EXPECT_EQ(next->extent->extents[0].first_page, 8u);
  EXPECT_EQ(next->extent->extents[0].page_count, 16u);
  EXPECT_EQ(next->extent->extents[1].first_page, 64u);
  EXPECT_EQ(next->extent->extents[1].page_count, 1u);
  EXPECT_EQ(next->byte_size(), 17 * kPageSize);
  ASSERT_NE(next->FindPage(10), nullptr);
  EXPECT_EQ(next->FindPage(10)[0], 0x22);
  ASSERT_NE(next->FindPage(11), nullptr);
  EXPECT_EQ(next->FindPage(11)[0], 0x11);
  ASSERT_NE(next->FindPage(64), nullptr);
  EXPECT_EQ(next->FindPage(64)[0], 0x22);
  EXPECT_EQ(next->FindPage(7), nullptr);
  // It resumes where the parent did: same CPU state, same pending call.
  EXPECT_EQ(next->cpu.rip, 0x8123u);
  EXPECT_EQ(next->pending.port, wasp::kHcGetData);
  EXPECT_EQ(next->pending.result_reg, 5);

  // A full copy and a COW map both reproduce the shell's memory exactly.
  vhw::GuestMemory via_copy(kMemSize);
  EXPECT_EQ(wasp::RestoreFullInto(*next, &via_copy), next->byte_size());
  ASSERT_EQ(std::memcmp(via_copy.data(), mem.data(), kMemSize), 0);
  vhw::GuestMemory via_map(kMemSize);
  EXPECT_EQ(wasp::MapCowInto(*next, &via_map), next->byte_size());
  ASSERT_EQ(std::memcmp(via_map.data(), mem.data(), kMemSize), 0);
}

// Re-capture folds a warm service's drift into the published snapshot: the
// counter guest's marker (incremented once per invocation, normally repaired
// back to zero) becomes part of the snapshot, so warm results step up by one
// per re-capture.
TEST(AffineRuntime, RecaptureFoldsDriftIntoTheSnapshot) {
  auto image = vrt::BuildRawImage(R"(
start:
  mov r0, 0
  out HC_SNAPSHOT, r0
  mov r8, 0x600
  ld64 r9, [r8+0]
  add r9, 1
  st64 [r8+0], r9
  mov r0, r9
  mov r8, 0
  st64 [r8+0], r0
  hlt
)");
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "recapture";
  spec.use_snapshot = true;
  spec.crt_snapshot = false;
  for (int i = 0; i < 3; ++i) {
    auto outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, 1u);
  }

  const wasp::RecaptureOutcome rc = runtime.RecaptureSnapshot("recapture");
  ASSERT_EQ(rc.status, wasp::RecaptureOutcome::Status::kRecaptured);
  EXPECT_NE(rc.new_generation, rc.old_generation);
  EXPECT_GT(rc.delta_bytes, 0u);
  const wasp::SnapshotRef snap = runtime.snapshots().Find("recapture");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation, rc.new_generation);

  // The marker the re-capture folded in was 1, so warm runs now return 2 —
  // and the stolen shell was re-parked warm, so the first one is already an
  // affine hit.
  for (int i = 0; i < 3; ++i) {
    auto outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, 2u) << "warm call " << i;
    EXPECT_TRUE(outcome.stats.restored_snapshot);
    EXPECT_TRUE(outcome.stats.affine_restore) << "warm call " << i;
  }

  // A second re-capture steps the counter again.
  const wasp::RecaptureOutcome rc2 = runtime.RecaptureSnapshot("recapture");
  ASSERT_EQ(rc2.status, wasp::RecaptureOutcome::Status::kRecaptured);
  EXPECT_EQ(rc2.old_generation, rc.new_generation);
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.result_word, 3u);
}

TEST(AffineRuntime, RecaptureEdgeCases) {
  wasp::Runtime runtime;
  // Unknown key: nothing to re-capture.
  EXPECT_EQ(runtime.RecaptureSnapshot("nope").status,
            wasp::RecaptureOutcome::Status::kNoSnapshot);

  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "edges";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  ASSERT_TRUE(fib.Call(10).ok());

  // A re-capture parks the stolen shell with a fresh epoch, so an immediate
  // second re-capture sees no drift and leaves the snapshot untouched.
  const wasp::RecaptureOutcome rc = runtime.RecaptureSnapshot("edges");
  ASSERT_EQ(rc.status, wasp::RecaptureOutcome::Status::kRecaptured);
  const wasp::RecaptureOutcome again = runtime.RecaptureSnapshot("edges");
  EXPECT_EQ(again.status, wasp::RecaptureOutcome::Status::kNoDrift);
  EXPECT_EQ(again.new_generation, rc.new_generation);

  // With no shell parked under the generation there is no drift to fold.
  auto stolen = runtime.pool().StealParkedAffine(rc.new_generation);
  ASSERT_NE(stolen, nullptr);
  runtime.pool().Release(std::move(stolen));
  EXPECT_EQ(runtime.RecaptureSnapshot("edges").status,
            wasp::RecaptureOutcome::Status::kNoWarmShell);
}

// --- Re-capture trace oracle ----------------------------------------------------
//
// Seeded single-thread sequences of invocations (some on a fresh shell),
// re-captures and retirements over four keys of a guest that bumps a
// snapshotted counter and writes a page indexed by the counter and the call's
// argument.  The trace folds in what each call returned and cost, every newly
// published snapshot, and the pool's affine residency gauges, into two hashes:
//   - `full`: everything, including each snapshot's extent layout and
//     checksum and each call's modeled cycles;
//   - `view`: what a guest can observe — results, restore paths and each
//     snapshot's page view — without modeled cycles, layout or residency.
// A host model checks the counter: a call returns its snapshot's counter plus
// one, and each re-capture folds one call's increment in.

constexpr int kRecaptureKeys = 4;
constexpr int kRecaptureOps = 3000;
constexpr int kRecaptureSequences = 16;
constexpr uint64_t kRecaptureMem[] = {1 << 20, 256 << 10};

void Mix(uint64_t* hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {  // FNV-1a over the value's bytes
    *hash = (*hash ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
}

struct RecaptureTrace {
  uint64_t full = 0xcbf29ce484222325ULL;
  uint64_t view = 0xcbf29ce484222325ULL;

  void Full(uint64_t value) { Mix(&full, value); }
  void View(uint64_t value) { Mix(&view, value); }
  void Both(uint64_t value) {
    Full(value);
    View(value);
  }
};

// FNV-1a over whole 8-byte words (page-sized inputs).
uint64_t HashWords(const uint8_t* bytes, uint64_t len) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    hash = (hash ^ word) * 0x100000001b3ULL;
  }
  return hash;
}

void MixSnapshot(RecaptureTrace* trace, const wasp::Snapshot& snap) {
  for (const wasp::Snapshot::Extent& e : snap.extent->extents) {
    trace->Full(e.first_page);
    trace->Full(e.page_count);
    trace->Full(e.byte_offset);
  }
  trace->Full(HashWords(snap.extent->bytes.data(), snap.extent->bytes.size()));
  trace->Full(snap.checksum);
  // The page view every restore lays into a shell.
  for (uint64_t p = 0; p < snap.mem_size >> vhw::kPageBits; ++p) {
    const uint8_t* page = snap.FindPage(p);
    trace->View(page == nullptr ? 0 : HashWords(page, kPageSize));
  }
  for (const uint64_t v : {snap.mem_size, snap.cpu.rip, uint64_t{snap.pending.port},
                           uint64_t{snap.pending.result_reg}}) {
    trace->Both(v);
  }
}

void RunRecaptureTrace(const visa::Image& image, uint64_t seed, RecaptureTrace* trace) {
  wasp::RuntimeOptions options;
  options.clean_mode = wasp::CleanMode::kSync;
  wasp::Runtime runtime(options);
  vbase::Rng rng(seed);
  wasp::VirtineSpec specs[kRecaptureKeys];
  wasp::SnapshotRef published[kRecaptureKeys];
  uint64_t counter[kRecaptureKeys] = {};  // the counter each key's snapshot holds
  for (int k = 0; k < kRecaptureKeys; ++k) {
    specs[k].image = &image;
    specs[k].key = "recapture-" + std::to_string(k);
    specs[k].mem_size = kRecaptureMem[k % 2];
    specs[k].use_snapshot = true;
    specs[k].crt_snapshot = false;
    specs[k].word_bytes = 8;
  }
  for (int op = 0; op < kRecaptureOps; ++op) {
    const int k = static_cast<int>(rng.Below(kRecaptureKeys));
    wasp::VirtineSpec& spec = specs[k];
    const uint64_t roll = rng.Below(100);
    if (roll < 84) {
      wasp::ArgPacker packer(8);
      packer.AddWord(rng.Below(16));
      spec.args_page = packer.Finish();
      spec.fresh_shell = rng.Below(100) < 15;
      const wasp::RunOutcome outcome = runtime.Invoke(spec);
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      if (!outcome.stats.restored_snapshot) {
        counter[k] = 0;  // a cold call captured the counter before bumping it
      }
      EXPECT_EQ(outcome.result_word, counter[k] + 1) << "seed " << seed << " op " << op;
      const wasp::InvokeStats& s = outcome.stats;
      for (const uint64_t v : {outcome.result_word, s.restored_bytes,
                               uint64_t{s.affine_restore}, uint64_t{s.mapped_cow},
                               s.io_exits}) {
        trace->Both(v);
      }
      trace->Full(s.total_cycles);
    } else if (roll < 96) {
      const wasp::RecaptureOutcome rc = runtime.RecaptureSnapshot(spec.key);
      if (rc.status == wasp::RecaptureOutcome::Status::kRecaptured) {
        ++counter[k];  // the stolen shell ran one call since its restore
      }
      trace->Both(static_cast<uint64_t>(rc.status));
      trace->Both(rc.delta_bytes);
    } else {
      runtime.RetireSnapshot(spec.key);
    }
    const wasp::SnapshotRef snap = runtime.snapshots().Find(spec.key);
    if (snap != published[k]) {
      trace->Both(snap == nullptr ? 0 : 1);
      if (snap != nullptr) {
        MixSnapshot(trace, *snap);
      }
      published[k] = snap;
    }
    const wasp::PoolStats s = runtime.pool().stats();
    for (const uint64_t v :
         {s.affine_resident_bytes, s.affine_shared_bytes, s.affine_private_bytes}) {
      trace->Full(v);
    }
  }
}

TEST(RecaptureTraceOracle, SyncModeMatchesTheRecordedTrace) {
  auto image = vrt::BuildRawImage(R"(
start:
  mov r0, 0
  out HC_SNAPSHOT, r0
  mov r8, 0x600
  ld64 r9, [r8+0]
  add r9, 1
  st64 [r8+0], r9
  mov r8, 0
  ld64 r10, [r8+16]
  add r10, r9
  and r10, 15
  shl r10, 12
  st64 [r10+0x20000], r9
  st64 [r8+0], r9
  hlt
)");
  ASSERT_TRUE(image.ok());
  RecaptureTrace trace;
  for (int seq = 0; seq < kRecaptureSequences; ++seq) {
    RunRecaptureTrace(image.value(), 9000 + static_cast<uint64_t>(seq), &trace);
  }
  // Recorded against the delta-chain engine this one replaced, with every
  // re-capture flattened; `view` also matched its default, chained runs.
  EXPECT_EQ(trace.full, 0xe8c26c773a88cf6fULL) << std::hex << "full hash 0x" << trace.full;
  EXPECT_EQ(trace.view, 0x99cf51834ff96cb6ULL) << std::hex << "view hash 0x" << trace.view;
}

// --- COW residency accounting -------------------------------------------------

TEST(AffinePool, CowParkChargesPrivateOnlySharedOncePerGeneration) {
  vhw::GuestMemory base(1 << 20);
  std::vector<uint8_t> image(64 * kPageSize, 0x44);
  ASSERT_TRUE(base.Write(0, image.data(), image.size()).ok());
  wasp::SnapshotRef snap = wasp::CaptureSnapshot(base, vhw::ArchState{});
  const uint64_t shared = snap->byte_size();

  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto prep_with_private_pages = [&](int pages) {
    auto vm = pool.Acquire(cfg);
    wasp::MapCowInto(*snap, &vm->memory());
    uint8_t b = 0x55;
    for (int p = 0; p < pages; ++p) {
      EXPECT_TRUE(vm->memory().Write((100 + p) * kPageSize, &b, 1).ok());
    }
    EXPECT_EQ(vm->memory().CountEpochDirtyPages(), static_cast<uint64_t>(pages));
    return vm;
  };
  // Prepare both shells before parking either: with nothing clean pooled, a
  // plain Acquire would reclaim (clean) an already-parked affine shell.
  auto shell2 = prep_with_private_pages(2);
  auto shell3 = prep_with_private_pages(3);
  pool.ReleaseAffine(std::move(shell2), snap->generation);
  ExpectConserved(pool);
  wasp::AffineAccounting acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes, shared + 2 * kPageSize);
  // A second shell of the same generation adds only its private pages: the
  // buffer is already charged.
  pool.ReleaseAffine(std::move(shell3), snap->generation);
  ExpectConserved(pool);
  acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes, shared + 5 * kPageSize);
  ASSERT_EQ(acct.generations.size(), 1u);
  EXPECT_EQ(acct.generations[0].generation, snap->generation);
  EXPECT_EQ(acct.generations[0].shared_bytes, shared);
  EXPECT_EQ(acct.generations[0].private_bytes, 5 * kPageSize);
  EXPECT_EQ(acct.generations[0].parked_shells, 2);

  // Stealing one shell releases its private charge but keeps the shared
  // charge (a shell is still parked).
  auto stolen = pool.StealParkedAffine(snap->generation);
  ASSERT_NE(stolen, nullptr);
  ExpectConserved(pool);
  acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes,
            shared + 5 * kPageSize - stolen->memory().CountEpochDirtyPages() * kPageSize);
  pool.Release(std::move(stolen));

  // Retiring the generation reclaims the last shell and the shared charge.
  pool.RetireGeneration(snap->generation);
  ExpectConserved(pool);
  acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes, 0u);
  EXPECT_TRUE(acct.generations.empty());
  EXPECT_EQ(pool.TotalAffineShells(), 0u);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_shared_bytes, 0u);
  EXPECT_EQ(stats.affine_private_bytes, 0u);
}

TEST(AffinePool, LegacyParkWithoutCowBaseChargesFullMemory) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  uint8_t b = 0x66;
  ASSERT_TRUE(vm->memory().Write(0x1000, &b, 1).ok());
  pool.ReleaseAffine(std::move(vm), /*generation=*/7);
  ExpectConserved(pool);
  const wasp::AffineAccounting acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes, cfg.mem_size);
  ASSERT_EQ(acct.generations.size(), 1u);
  EXPECT_EQ(acct.generations[0].shared_bytes, 0u);
  EXPECT_EQ(acct.generations[0].private_bytes, cfg.mem_size);
  pool.RetireGeneration(7);
  EXPECT_EQ(pool.affine_accounting().resident_bytes, 0u);
}

TEST(AffinePool, BudgetEvictionReleasesSharedChargeWithLastShell) {
  vhw::GuestMemory base(1 << 20);
  std::vector<uint8_t> image(32 * kPageSize, 0x77);
  ASSERT_TRUE(base.Write(0, image.data(), image.size()).ok());
  wasp::SnapshotRef a = wasp::CaptureSnapshot(base, vhw::ArchState{});
  wasp::SnapshotRef b = wasp::CaptureSnapshot(base, vhw::ArchState{});
  // Budget fits one generation's buffer plus slack, never two.
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kSync;
  options.affine_budget_bytes = a->byte_size() + 8 * kPageSize;
  wasp::Pool pool(options);
  vkvm::VmConfig cfg;
  auto prep = [&](const wasp::SnapshotRef& snap) {
    auto vm = pool.Acquire(cfg);
    wasp::MapCowInto(*snap, &vm->memory());
    uint8_t v = 0x78;
    EXPECT_TRUE(vm->memory().Write(200 * kPageSize, &v, 1).ok());
    return vm;
  };
  // Prepare both shells before parking either (a plain Acquire reclaims
  // parked affine shells when nothing clean is pooled).
  auto shell_a = prep(a);
  auto shell_b = prep(b);
  pool.ReleaseAffine(std::move(shell_a), a->generation);
  ExpectConserved(pool);
  ASSERT_EQ(pool.affine_accounting().resident_bytes,
            a->byte_size() + kPageSize);
  // Parking generation b blows the budget: generation a (LRU) is evicted
  // wholesale, releasing its shared charge along with its last shell.
  pool.ReleaseAffine(std::move(shell_b), b->generation);
  ExpectConserved(pool);
  const wasp::AffineAccounting acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes, b->byte_size() + kPageSize);
  ASSERT_EQ(acct.generations.size(), 1u);
  EXPECT_EQ(acct.generations[0].generation, b->generation);
  EXPECT_EQ(pool.AffineShells(a->generation), 0u);
  EXPECT_GE(pool.stats().affine_evictions, 1u);
}

// The TSan target: parks, affine hits, budget evictions, steals, and
// retirements race across threads while an observer checks every snapshot
// it takes (a row never releases more shells than it parked, and no gauge
// goes below zero); at quiescence the rows and the gauge must agree.
TEST(AffinePoolConcurrency, GaugeConservationUnderParkEvictRetire) {
  constexpr int kSnapshots = 4;
  constexpr int kWorkers = 4;
  constexpr int kItersPerWorker = 60;
  std::vector<wasp::SnapshotRef> snaps;
  for (int i = 0; i < kSnapshots; ++i) {
    vhw::GuestMemory base(1 << 20);
    std::vector<uint8_t> image((8 + 8 * i) * kPageSize, static_cast<uint8_t>(0x80 + i));
    ASSERT_TRUE(base.Write(0, image.data(), image.size()).ok());
    snaps.push_back(wasp::CaptureSnapshot(base, vhw::ArchState{}));
  }
  wasp::PoolOptions options;
  options.mode = wasp::CleanMode::kAsync;
  // Tight enough that concurrent parks trigger budget evictions.
  options.affine_budget_bytes = 3 * snaps.back()->byte_size();
  wasp::Pool pool(options);
  vkvm::VmConfig cfg;

  // Far above anything parked here: a counter at or past it wrapped below 0.
  constexpr uint64_t kUnderflow = uint64_t{1} << 62;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      vbase::Rng rng(0xc0c0 + w);
      for (int i = 0; i < kItersPerWorker; ++i) {
        const wasp::SnapshotRef& snap = snaps[rng.Below(kSnapshots)];
        bool affine = false;
        auto vm = pool.AcquireAffine(cfg, snap->generation, &affine);
        if (affine) {
          wasp::RestoreDeltaInto(*snap, &vm->memory());
        } else {
          vm->memory().ZeroDirtyPages();
          wasp::MapCowInto(*snap, &vm->memory());
        }
        uint8_t b = static_cast<uint8_t>(rng.Next());
        const int writes = static_cast<int>(rng.Below(4));
        for (int p = 0; p < writes; ++p) {
          ASSERT_TRUE(
              vm->memory().Write((128 + rng.Below(64)) * kPageSize, &b, 1).ok());
        }
        pool.ReleaseAffine(std::move(vm), snap->generation);
      }
    });
  }
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Each shell's charge lands before the shell can be taken, so no row
      // count and no gauge is ever negative, even mid-race.
      for (const auto& gen : pool.affine_accounting().generations) {
        ASSERT_GE(gen.parked_shells, 0) << "generation " << gen.generation;
        ASSERT_LT(gen.private_bytes, kUnderflow) << "generation " << gen.generation;
      }
      const wasp::PoolStats s = pool.stats();
      for (const uint64_t gauge :
           {s.affine_resident_bytes, s.affine_shared_bytes, s.affine_private_bytes}) {
        ASSERT_LT(gauge, kUnderflow) << "gauge went below zero mid-race";
      }
      std::this_thread::yield();
    }
  });
  std::thread retirer([&] {
    // Retire two of the four generations mid-run: races the workers' parks,
    // which must divert to the cleaning path instead of re-stranding bytes.
    pool.RetireGeneration(snaps[0]->generation);
    std::this_thread::yield();
    pool.RetireGeneration(snaps[1]->generation);
  });
  for (std::thread& t : workers) {
    t.join();
  }
  retirer.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  // Drain and retire everything: the gauge must return to exactly zero.
  for (const wasp::SnapshotRef& snap : snaps) {
    pool.RetireGeneration(snap->generation);
  }
  pool.DrainCleaner();
  ExpectConserved(pool);
  const wasp::AffineAccounting acct = pool.affine_accounting();
  EXPECT_EQ(acct.resident_bytes, 0u);
  EXPECT_TRUE(acct.generations.empty());
  EXPECT_EQ(pool.TotalAffineShells(), 0u);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.affine_shared_bytes, 0u);
  EXPECT_EQ(stats.affine_private_bytes, 0u);
  EXPECT_EQ(stats.affine_resident_bytes, 0u);
}

// The two restore paths, affine delta repair and COW map onto a clean shell
// (fresh_shell), must be observationally identical to the guest: same
// results, same guest instruction stream.
TEST(AffineRuntime, DeltaAndCowMapRestoreProduceIdenticalGuestRuns) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime affine_runtime;
  wasp::Runtime cow_runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "ab-compare";
  spec.use_snapshot = true;
  wasp::VirtineSpec fresh = spec;
  fresh.fresh_shell = true;
  wasp::VirtineFunc<int64_t(int64_t)> fa(&affine_runtime, spec);
  wasp::VirtineFunc<int64_t(int64_t)> fb(&cow_runtime, fresh);
  bool warm = false;
  for (int n : {0, 3, 11, 17}) {
    auto a = fa.Call(n);
    auto b = fb.Call(n);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    if (warm) {
      EXPECT_TRUE(fa.last_outcome().stats.affine_restore) << "n=" << n;
      EXPECT_TRUE(fb.last_outcome().stats.mapped_cow) << "n=" << n;
    }
    warm = true;
    EXPECT_EQ(*a, *b) << "n=" << n;
    EXPECT_EQ(fa.last_outcome().stats.insns, fb.last_outcome().stats.insns) << "n=" << n;
    EXPECT_EQ(fa.last_outcome().stats.guest_cycles, fb.last_outcome().stats.guest_cycles)
        << "n=" << n;
  }
}

}  // namespace
