// Wasp runtime tests: pooling (reuse + information-leak regression),
// snapshotting, hypercall policy enforcement, canned handler validation
// against hostile guests, channels, and marshalling properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <thread>

#include "src/base/rng.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/channel.h"
#include "src/wasp/pool.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

visa::Image RawImage(const std::string& body) {
  auto image = vrt::BuildRawImage(body);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

// --- Pool -----------------------------------------------------------------

TEST(Pool, ReusesShellsBySize) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  cfg.mem_size = 1 << 20;
  bool from_pool = true;
  auto vm = pool.Acquire(cfg, &from_pool);
  EXPECT_FALSE(from_pool);
  pool.Release(std::move(vm));
  EXPECT_EQ(pool.TotalFreeShells(), 1u);
  vm = pool.Acquire(cfg, &from_pool);
  EXPECT_TRUE(from_pool);
  // A different size must not hit the pool.
  vkvm::VmConfig other = cfg;
  other.mem_size = 2 << 20;
  auto vm2 = pool.Acquire(other, &from_pool);
  EXPECT_FALSE(from_pool);
  pool.Release(std::move(vm));
  pool.Release(std::move(vm2));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 3u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.fresh_creates, 2u);
}

TEST(Pool, CleaningZeroesDirtyPagesOnly) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  uint8_t secret[64];
  memset(secret, 0x5a, sizeof(secret));
  ASSERT_TRUE(vm->memory().Write(0x9000, secret, sizeof(secret)).ok());
  pool.Release(std::move(vm));
  EXPECT_GE(pool.stats().bytes_zeroed, vhw::kPageSize);
}

// The paper's isolation objective: a reused shell must never leak the
// previous tenant's memory.
TEST(Pool, InformationLeakRegression) {
  wasp::Pool pool(wasp::CleanMode::kSync);
  vkvm::VmConfig cfg;
  auto vm = pool.Acquire(cfg);
  const char secret[] = "TOP-SECRET-KEY-MATERIAL";
  ASSERT_TRUE(vm->memory().Write(0x40000, secret, sizeof(secret)).ok());
  pool.Release(std::move(vm));
  auto reused = pool.Acquire(cfg);
  std::vector<uint8_t> probe(vhw::kPageSize);
  ASSERT_TRUE(reused->memory().Read(0x40000, probe.data(), probe.size()).ok());
  for (uint8_t b : probe) {
    ASSERT_EQ(b, 0u) << "secret leaked through a pooled shell";
  }
}

TEST(Pool, AsyncCleanerDrains) {
  wasp::Pool pool(wasp::CleanMode::kAsync);
  vkvm::VmConfig cfg;
  for (int i = 0; i < 8; ++i) {
    auto vm = pool.Acquire(cfg);
    uint8_t b = 1;
    ASSERT_TRUE(vm->memory().Write(0x9000, &b, 1).ok());
    pool.Release(std::move(vm));
  }
  pool.DrainCleaner();
  EXPECT_EQ(pool.stats().cleans, 8u);
  // Later acquires may legitimately reuse already-cleaned shells, so the
  // free list holds between 1 and 8 shells; all of them are clean.
  EXPECT_GE(pool.TotalFreeShells(), 1u);
}

TEST(Pool, NoneModeDropsShells) {
  wasp::Pool pool(wasp::CleanMode::kNone);
  vkvm::VmConfig cfg;
  pool.Release(pool.Acquire(cfg));
  EXPECT_EQ(pool.TotalFreeShells(), 0u);
}

// --- Pool trace oracle ----------------------------------------------------
//
// Seeded single-thread op sequences over every acquire tier and maintenance
// path (lane slots, shard stacks and their steals, the bounded fast-path
// scan, the exhaustive sweeps, inline reclaim, budget eviction, retirement,
// steal, quarantine).  After each op the trace folds in what the caller
// observed (from_pool, affine_hit, the tag byte the previous tenant left),
// the free and affine shell counts, and every PoolStats field.  One thread
// that binds its lane explicitly before each op (lane 0 and three others, so
// shards other than home and other lanes' slots are in play) makes the
// whole trace deterministic: a refactor of the pool that keeps every
// selection decision and counter reproduces the recorded hash exactly.
// Async mode is left out: its cleaner interleaving varies the trace from run
// to run.

constexpr uint64_t kTraceTagAddr = 0x9000;
constexpr uint64_t kTraceSizes[] = {64 << 10, 128 << 10};
constexpr uint64_t kTraceBudget = 192 << 10;  // three small shells
// Enough small shells that a large one can sit deeper in a stack than the
// fast path's bounded scan reaches.
constexpr int kTracePrewarm = 80;
constexpr uint32_t kTraceLanes[] = {0, 3, 8, 13};
constexpr int kTraceOps = 4000;
constexpr int kTraceSequences = 16;

void TraceMix(uint64_t* hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {  // FNV-1a over the value's bytes
    *hash = (*hash ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
}

void TraceStats(uint64_t* hash, const wasp::Pool& pool) {
  const wasp::PoolStats s = pool.stats();
  for (uint64_t v :
       {s.acquires, s.pool_hits, s.fresh_creates, s.releases, s.cleans, s.bytes_zeroed,
        s.lane_cache_hits, s.freelist_hits, s.slow_path_acquires, s.cross_shard_steals,
        s.affine_hits, s.affine_parks, s.affine_reclaims, s.delta_pages, s.affine_evictions,
        s.affine_retired, s.affine_resident_bytes, s.affine_shared_bytes,
        s.affine_private_bytes, s.quarantined, s.quarantine_scrubbed, s.quarantine_destroyed,
        s.quarantined_now}) {
    TraceMix(hash, v);
  }
}

uint8_t GenerationTag(uint64_t generation) {
  return static_cast<uint8_t>(generation % 250 + 1);
}

uint64_t PoolTrace(wasp::CleanMode mode, uint64_t seed, bool budget) {
  wasp::PoolOptions options;
  options.mode = mode;
  options.affine_budget_bytes = budget ? kTraceBudget : 0;
  wasp::Pool pool(options);
  vkvm::VmConfig small;
  small.mem_size = kTraceSizes[0];
  pool.Prewarm(small, kTracePrewarm);
  vbase::Rng rng(seed);
  uint64_t gens[5] = {11, 12, 13, 14, 15};
  uint64_t next_gen = 16;
  struct Held {
    std::unique_ptr<vkvm::Vm> vm;
    uint64_t generation = 0;  // the generation it was acquired for, 0 if none
  };
  Held held[3];
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int op = 0; op < kTraceOps; ++op) {
    wasp::Pool::BindLane(kTraceLanes[rng.Below(4)]);
    Held& slot = held[rng.Below(3)];
    const uint64_t roll = rng.Below(100);
    if (slot.vm == nullptr) {
      vkvm::VmConfig cfg;
      cfg.mem_size = kTraceSizes[rng.Below(2)];
      const uint64_t generation = gens[rng.Below(5)];
      bool from_pool = false;
      bool affine_hit = false;
      if (roll < 10) {
        slot.vm = pool.StealParkedAffine(generation);
        from_pool = affine_hit = slot.vm != nullptr;
      } else if (roll < 45) {
        slot.vm = pool.Acquire(cfg, &from_pool);
      } else {
        slot.vm = pool.AcquireAffine(cfg, generation, &affine_hit, &from_pool);
      }
      slot.generation = roll < 45 && !affine_hit ? 0 : generation;
      const uint8_t tag = slot.vm == nullptr ? 0 : slot.vm->memory().data()[kTraceTagAddr];
      // Isolation: an affine hit holds its generation's tag, anything else
      // is clean.
      EXPECT_EQ(tag, affine_hit ? GenerationTag(generation) : 0) << "op " << op;
      TraceMix(&hash, from_pool);
      TraceMix(&hash, affine_hit);
      TraceMix(&hash, tag);
    } else if (roll < 40) {
      const uint8_t b = static_cast<uint8_t>(rng.Next() | 1);
      EXPECT_TRUE(slot.vm->memory().Write(kTraceTagAddr, &b, 1).ok());
      pool.Release(std::move(slot.vm));
    } else if (roll < 85) {
      const uint64_t generation = slot.generation != 0 ? slot.generation : gens[rng.Below(5)];
      const uint8_t tag = GenerationTag(generation);
      EXPECT_TRUE(slot.vm->memory().Write(kTraceTagAddr, &tag, 1).ok());
      slot.vm->memory().BeginEpoch();
      // A working set of 0-3 pages for the next restore's delta.
      const uint64_t pages = rng.Below(4);
      for (uint64_t p = 0; p < pages; ++p) {
        const uint8_t b = 0x5a;
        EXPECT_TRUE(slot.vm->memory().Write(0xa000 + p * vhw::kPageSize, &b, 1).ok());
      }
      pool.ReleaseAffine(std::move(slot.vm), generation);
    } else {
      const uint8_t b = 0xee;
      EXPECT_TRUE(slot.vm->memory().Write(kTraceTagAddr, &b, 1).ok());
      pool.Quarantine(std::move(slot.vm));
    }
    if (rng.Below(100) < 3) {
      // Retired generations never come back (as in the snapshot store).
      uint64_t& victim = gens[rng.Below(5)];
      pool.RetireGeneration(victim);
      victim = next_gen++;
    }
    TraceMix(&hash, pool.TotalFreeShells());
    TraceMix(&hash, pool.TotalAffineShells());
    TraceStats(&hash, pool);
  }
  for (Held& slot : held) {
    if (slot.vm != nullptr) {
      pool.Release(std::move(slot.vm));
    }
  }
  TraceStats(&hash, pool);
  const wasp::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, stats.releases);
  EXPECT_EQ(stats.acquires,
            stats.lane_cache_hits + stats.freelist_hits + stats.slow_path_acquires);
  // Shell conservation: with no pooling only the unserved warm shells are
  // left; otherwise every shell not destroyed by a quarantine is parked.
  EXPECT_EQ(pool.TotalFreeShells() + pool.TotalAffineShells(),
            mode == wasp::CleanMode::kNone
                ? kTracePrewarm - stats.pool_hits
                : kTracePrewarm + stats.fresh_creates - stats.quarantine_destroyed);
  EXPECT_GT(stats.cross_shard_steals, 0u);
  return hash;
}

uint64_t PoolTraceHash(wasp::CleanMode mode) {
  uint64_t hash = 0;
  // A thread of its own, so the lane bindings stay out of the other tests.
  std::thread runner([&] {
    for (int seq = 0; seq < kTraceSequences; ++seq) {
      TraceMix(&hash, PoolTrace(mode, 7000 + static_cast<uint64_t>(seq), seq % 2 == 1));
    }
  });
  runner.join();
  return hash;
}

TEST(PoolTraceOracle, SyncModeMatchesTheRecordedTrace) {
  const uint64_t hash = PoolTraceHash(wasp::CleanMode::kSync);
  EXPECT_EQ(hash, 0xd8a7fba0a9def92aULL) << std::hex << "trace hash 0x" << hash;
}

TEST(PoolTraceOracle, NoPoolModeMatchesTheRecordedTrace) {
  const uint64_t hash = PoolTraceHash(wasp::CleanMode::kNone);
  EXPECT_EQ(hash, 0x0ee74b635d3db447ULL) << std::hex << "trace hash 0x" << hash;
}

// --- Invocation + snapshotting ------------------------------------------------

TEST(Runtime, SnapshotSkipsBootAndIsFaster) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "snap-test";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  ASSERT_TRUE(fib.Call(10).ok());
  EXPECT_TRUE(fib.last_outcome().stats.took_snapshot);
  const uint64_t first_insns = fib.last_outcome().stats.insns;
  ASSERT_TRUE(fib.Call(10).ok());
  EXPECT_TRUE(fib.last_outcome().stats.restored_snapshot);
  // Boot (GDT + page tables + transitions) is hundreds of instructions that
  // the restored run must not execute.
  EXPECT_LT(fib.last_outcome().stats.insns + 500, first_insns);
}

TEST(Runtime, SnapshotRunsProduceIdenticalResults) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "snap-determinism";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  for (int n : {0, 1, 7, 13, 18}) {
    auto a = fib.Call(n);
    auto b = fib.Call(n);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "snapshot run diverged for n=" << n;
  }
}

TEST(Runtime, SnapshotsAreIsolatedBetweenInvocations) {
  // A virtine that mutates a global after the snapshot point: the mutation
  // must never be visible to the next restore.
  auto image = vrt::BuildRawImage(R"(
start:
  mov r8, 0x600
  ld64 r9, [r8+0]      ; read marker
  add r9, 1
  st64 [r8+0], r9      ; increment marker (post-snapshot state)
  mov r0, r9
  mov r8, 0
  st64 [r8+0], r0      ; result word
  hlt
)");
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = 8;
  for (int i = 0; i < 3; ++i) {
    auto outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, 1u) << "state leaked across invocations";
  }
}

TEST(Runtime, RuntimesDoNotShareSnapshots) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime a;
  wasp::Runtime b;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "shared-key";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> fa(&a, spec);
  wasp::VirtineFunc<int64_t(int64_t)> fb(&b, spec);
  ASSERT_TRUE(fa.Call(5).ok());
  ASSERT_TRUE(fb.Call(5).ok());
  EXPECT_TRUE(fb.last_outcome().stats.took_snapshot);  // b took its own
}

// --- Policy enforcement ----------------------------------------------------------

TEST(Policy, DefaultDenyTerminatesOnForbiddenHypercall) {
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 4
  mov r0, 0
  out HC_SEND, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyDenyAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.denied);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
  // The denial names the call, from the hypercall table.
  EXPECT_NE(outcome.status.message().find("hypercall send (32) denied by policy"),
            std::string::npos)
      << outcome.status.ToString();
}

// --- The hypercall table -----------------------------------------------------

TEST(HypercallTable, PortsAndNamesAreUniqueAndPortsFitTheMask) {
  std::set<uint16_t> ports;
  std::set<std::string> names;
  for (const wasp::HypercallInfo& hc : wasp::kHypercalls) {
    EXPECT_LT(hc.port, wasp::kMaxHypercall) << hc.name;
    EXPECT_TRUE(ports.insert(hc.port).second) << "duplicate port " << hc.port;
    ASSERT_NE(hc.name, nullptr) << "port " << hc.port;
    EXPECT_NE(std::string(hc.name), "") << "port " << hc.port;
    EXPECT_TRUE(names.insert(hc.name).second) << "duplicate name " << hc.name;
    EXPECT_STREQ(wasp::HypercallName(hc.port), hc.name);
  }
  EXPECT_EQ(wasp::HypercallName(40), nullptr);
  EXPECT_EQ(wasp::HypercallName(64), nullptr);
}

TEST(HypercallTable, RequiredPolicyKeepsEveryRuleOnEveryPort) {
  // The policy rules stated apart from the table: exit and snapshot need
  // nothing, the folded calls need the bits of the calls they fold (and an
  // empty return_exit is a plain exit), every other port below 64 — listed
  // or not — needs its own bit, and ports past the mask need none.
  auto expected = [](uint16_t port, uint64_t r3) -> wasp::HypercallMask {
    if (port >= wasp::kMaxHypercall || port == wasp::kHcExit || port == wasp::kHcSnapshot) {
      return 0;
    }
    if (port == wasp::kHcSnapshotGetData) {
      return wasp::MaskOf(wasp::kHcGetData);
    }
    if (port == wasp::kHcSnapshotRecv) {
      return wasp::MaskOf(wasp::kHcRecv);
    }
    if (port == wasp::kHcReturnExit) {
      return r3 > 0 ? wasp::MaskOf(wasp::kHcReturnData) : 0;
    }
    if (port == wasp::kHcSendExit) {
      return wasp::MaskOf(wasp::kHcSend) | wasp::MaskOf(wasp::kHcReturnData);
    }
    return wasp::MaskOf(port);
  };
  for (uint16_t port = 0; port <= 70; ++port) {
    for (uint64_t r3 : {0ull, 1ull}) {
      EXPECT_EQ(wasp::RequiredPolicy(port, r3), expected(port, r3))
          << "port " << port << ", r3 = " << r3;
    }
  }
}

TEST(HypercallTable, TheReplyIsTheLastInBufferOfAReturnDataRow) {
  // The argument whose bytes become the virtine's output, stated apart from
  // the table: return_data's buffer, return_exit's and send_exit's data.
  // send_exit's first in-buffer is the response it sends, not a reply.
  auto expected = [](uint16_t port, int i) {
    return (port == wasp::kHcReturnData && i == 0) || (port == wasp::kHcReturnExit && i == 1) ||
           (port == wasp::kHcSendExit && i == 1);
  };
  for (const wasp::HypercallInfo& hc : wasp::kHypercalls) {
    for (int i = 0; i < wasp::kMaxArgs; ++i) {
      EXPECT_EQ(wasp::IsReply(hc, i), expected(hc.port, i)) << hc.name << ", argument " << i;
    }
  }
}

TEST(HypercallTable, EveryRowHasAHandlerAndPort40HasNone) {
  // Runtime::Handle's switch binds the handlers; the table must not list a
  // port the switch misses.  Each call is issued bare (no input, no channel),
  // so some fail, but none as an unknown port.
  auto issue = [](uint16_t port) {
    const visa::Image image =
        RawImage("start:\n  mov r0, 0\n  out " + std::to_string(port) + ", r0\n  hlt\n");
    wasp::Runtime runtime;
    wasp::VirtineSpec spec;
    spec.image = &image;
    spec.policy = wasp::kPolicyAllowAll;
    return runtime.Invoke(spec);
  };
  for (const wasp::HypercallInfo& hc : wasp::kHypercalls) {
    const wasp::RunOutcome outcome = issue(hc.port);
    EXPECT_NE(outcome.fault, wasp::FaultKind::kIllegalHypercall)
        << hc.name << ": " << outcome.status.ToString();
  }
  const wasp::RunOutcome outcome = issue(40);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kIllegalHypercall);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kUnimplemented);
}

TEST(Policy, ExitAlwaysPermitted) {
  auto image = RawImage("start:\n  mov r1, 7\n  mov r0, 0\n  out HC_EXIT, r0\n  hlt\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyDenyAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.exit_code, 7u);
}

TEST(Policy, MaskGrantsSpecificPorts) {
  auto image = RawImage(R"(
start:
  mov r1, msg
  mov r2, 5
  mov r0, 0
  out HC_CONSOLE, r0
  hlt
msg:
  .ascii "hello"
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::MaskOf(wasp::kHcConsole);
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.console, "hello");
}

TEST(Policy, SnapshotHypercallOnceOnly) {
  auto image = RawImage(R"(
start:
  mov r0, 0
  out HC_SNAPSHOT, r0
  out HC_SNAPSHOT, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
}

TEST(Policy, GetDataOnceOnly) {
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 16
  mov r0, 0
  out HC_GET_DATA, r0
  out HC_GET_DATA, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyManaged;
  std::vector<uint8_t> input = {1, 2, 3};
  spec.input = &input;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

// --- Hostile-guest handler validation ------------------------------------------

std::string OutputOf(const wasp::RunOutcome& outcome) {
  return std::string(outcome.output.begin(), outcome.output.end());
}

// Every row's call with one argument word made hostile, generated from the
// row's signature: each pointer it names (a message's words included) set
// past guest memory or outside the identity map, each in-buffer's len and
// each out-buffer's cap set one byte over kMaxIoLen, and each out row
// issued well-formed.  A new row is covered without a new test.  A case is
// named by its argument's kind, and also by its position when the row takes
// two arguments of that kind (send_exit's in0 and in1).
//
// The guest (long64, 1 MB of memory) fills its 64-byte out-buffer with '#',
// opens /f (fd 3), makes the call, then returns the out-buffer through
// return_data.  Two worlds: in the full one the input, /f and the channel
// each hold "hello", so every out-buffer call produces "hello" and stat the
// word 5; in the empty one there is no input and no /f and the channel is at
// EOF, so no out call produces a byte.
struct HostileCase {
  std::string name;
  const wasp::HypercallInfo* hc;
  std::vector<std::string> words;  // the call's words, as assembly operands
  std::string message_va;          // r1 of a message row
  bool full_world = true;
  vbase::Code code = vbase::Code::kOk;
  wasp::FaultKind fault = wasp::FaultKind::kNone;
  std::string output;            // the out-buffer after a call that succeeds
  bool fails_before_handler = false;  // so no byte reaches the host
};

void PrintTo(const HostileCase& c, std::ostream* os) { *os << c.name; }

constexpr uint64_t kOutBuf = 0x40000;
constexpr uint64_t kMessage = 0x40200;
const std::string kHello = "hello";

std::vector<HostileCase> HostileCases() {
  const std::string over_limit = std::to_string(wasp::kMaxIoLen + 1);
  const struct {
    const char* name;
    std::string va;
  } bad_vas[] = {{"past_memory", "0x20000000"}, {"unmapped", "0xf0000000"}};
  const std::string canary(64, '#');
  std::vector<HostileCase> cases;
  for (const wasp::HypercallInfo& hc : wasp::kHypercalls) {
    // The well-formed call: word 3 (the fd the guest opened), the path /f, a
    // 16-byte in-buffer, the 64-byte out-buffer.
    HostileCase good;
    good.hc = &hc;
    good.message_va = std::to_string(kMessage);
    std::string produced;
    for (const wasp::Arg arg : hc.args) {
      switch (arg) {
        case wasp::Arg::kNone:
          break;
        case wasp::Arg::kWord:
          good.words.push_back("3");
          break;
        case wasp::Arg::kPath:
          good.words.push_back("path");
          break;
        case wasp::Arg::kIn:
          good.words.insert(good.words.end(), {"inbuf", "16"});
          break;
        case wasp::Arg::kOut:
          good.words.insert(good.words.end(), {std::to_string(kOutBuf), "64"});
          produced = kHello;
          break;
        case wasp::Arg::kOutWord:
          good.words.push_back(std::to_string(kOutBuf));
          produced = std::string("\x05\0\0\0\0\0\0\0", 8);
          break;
      }
    }
    good.output = produced + canary.substr(produced.size());
    auto add = [&](const std::string& what, HostileCase c) {
      c.name = std::string(hc.name) + "_" + what;
      cases.push_back(std::move(c));
    };
    auto fail = [](HostileCase c, vbase::Code code, wasp::FaultKind fault, bool before) {
      c.code = code;
      c.fault = fault;
      c.fails_before_handler = before;
      return c;
    };
    for (const auto& bad : bad_vas) {
      if (hc.message) {
        HostileCase c = good;
        c.message_va = bad.va;
        add(std::string("message_va_") + bad.name,
            fail(c, vbase::Code::kOutOfRange, wasp::FaultKind::kHypercallError, true));
      }
    }
    size_t i = 0;  // the argument's first word
    for (int k = 0; k < wasp::kMaxArgs; ++k) {
      const wasp::Arg arg = hc.args[k];
      const bool in = arg == wasp::Arg::kPath || arg == wasp::Arg::kIn;
      const bool out = arg == wasp::Arg::kOut || arg == wasp::Arg::kOutWord;
      const bool repeated =
          std::count(std::begin(hc.args), std::end(hc.args), arg) > 1 && arg != wasp::Arg::kNone;
      const std::string pos = repeated ? std::to_string(k) : "";
      for (const auto& bad : bad_vas) {
        if (!in && !out) {
          break;
        }
        HostileCase c = good;
        c.words[i] = bad.va;
        const std::string what = std::string(arg == wasp::Arg::kPath ? "path" : in ? "in" : "out") +
                                 pos + "_va_" + bad.name;
        add(what, fail(c, vbase::Code::kOutOfRange, wasp::FaultKind::kHypercallError, in));
        if (out) {  // nothing produced, nothing copied: the bad pointer is never used
          c.full_world = false;
          c.output = canary;
          add(what + "_nothing_produced", c);
        }
      }
      HostileCase c = good;
      if (arg == wasp::Arg::kIn) {
        // An over-limit reply (the bytes the call returns as the output) is
        // its own fault kind; any other in-buffer is a hypercall error.
        c.words[i + 1] = over_limit;
        add("in" + pos + "_len_over_limit",
            fail(c, vbase::Code::kInvalidArgument,
                 wasp::IsReply(hc, k) ? wasp::FaultKind::kOversizedReply
                                      : wasp::FaultKind::kHypercallError,
                 true));
      } else if (arg == wasp::Arg::kOut) {
        c.words[i + 1] = over_limit;  // clamped: the call succeeds
        add("out" + pos + "_cap_over_limit", c);
      }
      if (out) {
        add("canary" + pos, good);
      }
      i += static_cast<size_t>(wasp::ArgWords(arg));
    }
  }
  return cases;
}

class HostileArgTest : public ::testing::TestWithParam<HostileCase> {};

TEST_P(HostileArgTest, FailsClassifiedOrCopiesOnlyWhatWasProduced) {
  const HostileCase& c = GetParam();
  std::string source = R"(
virtine_main:
  mov r1, 0x40000
  mov r2, 0x2323232323232323
  mov r3, 0
fill:
  st64 [r1+0], r2
  add r1, 8
  add r3, 1
  cmp r3, 8
  jl fill
  mov r1, path
  mov r0, 0
  out HC_OPEN, r0
)";
  for (size_t i = 0; i < c.words.size(); ++i) {
    if (c.hc->message) {
      source += "  mov r1, " + std::to_string(kMessage) + "\n  mov r2, " + c.words[i] +
                "\n  st64 [r1+" + std::to_string(8 * i) + "], r2\n";
    } else {
      source += "  mov r" + std::to_string(i + 1) + ", " + c.words[i] + "\n";
    }
  }
  if (c.hc->message) {
    source += "  mov r1, " + c.message_va + "\n";
  }
  source += "  mov r0, 0\n  out " + std::to_string(c.hc->port) + R"(, r0
  mov r1, 0x40000
  mov r2, 64
  mov r0, 0
  out HC_RETURN_DATA, r0
  ret
path:
  .asciz "/f"
inbuf:
  .ascii "0123456789abcdef"
)";
  auto image = vrt::BuildImage(vrt::Env::kLong64, source);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  const std::vector<uint8_t> input(kHello.begin(), kHello.end());
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.policy = wasp::kPolicyAllowAll;
  spec.channel = &channel.guest();
  if (c.full_world) {
    runtime.env().PutFile("/f", kHello);
    spec.input = &input;
    channel.host().WriteString(kHello);
  } else {
    channel.host().CloseWrite();
  }
  const wasp::RunOutcome outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.status.code(), c.code) << outcome.status.ToString();
  EXPECT_EQ(outcome.fault, c.fault);
  if (c.code == vbase::Code::kInvalidArgument) {  // one message for every over-limit len
    EXPECT_EQ(outcome.status.message(), std::string(c.hc->name) + ": " +
                                            std::to_string(wasp::kMaxIoLen + 1) +
                                            " bytes exceed kMaxIoLen");
  }
  if (c.code == vbase::Code::kOk) {
    EXPECT_EQ(OutputOf(outcome), c.output);
  }
  if (c.fails_before_handler) {
    EXPECT_TRUE(outcome.output.empty());  // a failed copy-in appends nothing
    EXPECT_TRUE(outcome.console.empty());
    EXPECT_TRUE(outcome.fd_writes.empty());
    EXPECT_TRUE(channel.host().Drain().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(EveryRow, HostileArgTest, ::testing::ValuesIn(HostileCases()),
                         [](const auto& c) { return c.param.name; });

TEST(HandlerSafety, UnterminatedPathIsRejected) {
  // open() with a path pointer into a region with no NUL within bounds.
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 0
fill:
  mov r3, 65
  st8 [r1+0], r3
  add r1, 1
  add r2, 1
  cmp r2, 5000
  jl fill
  mov r1, 0x600
  mov r0, 0
  out HC_OPEN, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyFileIo;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

TEST(HandlerSafety, UnknownHypercallPortFails) {
  auto image = RawImage("start:\n  mov r0, 0\n  out 63, r0\n  hlt\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyAllowAll;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), vbase::Code::kUnimplemented);
}

TEST(HandlerSafety, GuestFaultIsReported) {
  auto image = RawImage("start:\n  brk\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
}

TEST(HandlerSafety, RunawayGuestHitsWatchdog) {
  auto image = RawImage("start:\nloop:\n  jmp loop\n");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.max_insns = 10000;
  auto outcome = runtime.Invoke(spec);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.code(), vbase::Code::kAborted);
}

// --- Custom handlers --------------------------------------------------------------

TEST(CustomHandlers, ClientHandlerOverridesCanned) {
  auto image = RawImage(R"(
start:
  mov r1, 21
  mov r0, 0
  out HC_CONSOLE, r0
  mov r8, 0
  stw [r8+0], r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  spec.policy = wasp::MaskOf(wasp::kHcConsole);
  spec.handlers[wasp::kHcConsole] = [](wasp::HypercallFrame& frame) {
    return vbase::Result<int64_t>(static_cast<int64_t>(frame.arg(0) * 2));
  };
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 42u);
}

// --- File I/O hypercalls --------------------------------------------------------

TEST(FileIo, OpenReadWriteCloseAgainstHostEnv) {
  auto image = RawImage(R"(
start:
  mov r1, path
  mov r0, 0
  out HC_OPEN, r0        ; r0 = fd
  mov r1, r0
  mov r2, 0x600
  mov r3, 64
  out HC_READ, r0        ; r0 = bytes read
  mov r9, r0
  mov r2, 0x600
  mov r3, r9
  mov r1, 1
  out HC_WRITE, r0       ; echo the bytes back to the host
  mov r8, 0
  stw [r8+0], r9
  hlt
path:
  .asciz "/greeting"
)");
  wasp::Runtime runtime;
  runtime.env().PutFile("/greeting", std::string("hello file"));
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  spec.policy = wasp::kPolicyFileIo;
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 10u);
  EXPECT_EQ(std::string(outcome.fd_writes.begin(), outcome.fd_writes.end()), "hello file");
}

TEST(FileIo, MissingFileReturnsMinusOne) {
  auto image = RawImage(R"(
start:
  mov r1, path
  mov r0, 0
  out HC_OPEN, r0
  mov r8, 0
  stw [r8+0], r0
  hlt
path:
  .asciz "/does-not-exist"
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  spec.policy = wasp::kPolicyFileIo;
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  // The raw image runs in real mode: the handler's -1 lands in a 16-bit
  // register, so the stored result word reads back as 0xffff.
  EXPECT_EQ(outcome.result_word, 0xffffu);
}

// --- readfile and send_recv ---------------------------------------------------------

TEST(Policy, ReadFileAndSendRecvAreDefaultDenied) {
  // Each new call is denied without its own bit — under default-deny and
  // under the other canned set alike.
  const struct {
    const char* port;
    wasp::HypercallMask other_set;
  } cases[] = {{"HC_READFILE", wasp::kPolicyStream}, {"HC_SEND_RECV", wasp::kPolicyFileIo}};
  for (const auto& c : cases) {
    auto image = RawImage(std::string("start:\n  mov r0, 0\n  out ") + c.port + ", r0\n  hlt\n");
    for (const wasp::HypercallMask policy : {wasp::kPolicyDenyAll, c.other_set}) {
      wasp::Runtime runtime;
      wasp::ByteChannel channel;
      wasp::VirtineSpec spec;
      spec.image = &image;
      spec.policy = policy;
      spec.channel = &channel.guest();
      auto outcome = runtime.Invoke(spec);
      EXPECT_TRUE(outcome.denied) << c.port;
      EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied) << c.port;
      EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied) << c.port;
    }
  }
}

// A long-mode guest that fills 16 bytes at `buf` with '#' (when it is the
// probe buffer), calls readfile(path, buf, cap), returns 16 bytes of the
// probe buffer through return_data, and returns readfile's result.
wasp::RunOutcome RunReadFile(wasp::Runtime& runtime, const std::string& path,
                             const std::string& buf, int cap) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, R"(
virtine_main:
  mov r1, 0x40000
  mov r2, 0x2323232323232323
  st64 [r1+0], r2
  st64 [r1+8], r2
  mov r1, path
  mov r2, )" + buf + R"(
  mov r3, )" + std::to_string(cap) + R"(
  mov r0, 0
  out HC_READFILE, r0
  mov r9, r0
  mov r1, 0x40000
  mov r2, 16
  mov r0, 0
  out HC_RETURN_DATA, r0
  mov r0, r9
  ret
path:
  .asciz ")" + path + "\"\n");
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.policy = wasp::kPolicyFileIo | wasp::MaskOf(wasp::kHcReturnData);
  return runtime.Invoke(spec);
}

TEST(ReadFile, CopiesAtMostCapBytesAndReturnsTheFullSize) {
  wasp::Runtime runtime;
  runtime.env().PutFile("/greeting", std::string("hello file"));
  auto small = RunReadFile(runtime, "/greeting", "0x40000", 4);
  ASSERT_TRUE(small.status.ok()) << small.status.ToString();
  EXPECT_EQ(small.result_word, 10u);  // the full size, not the bytes copied
  EXPECT_EQ(OutputOf(small), "hell############");
  auto whole = RunReadFile(runtime, "/greeting", "0x40000", 64);
  ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();
  EXPECT_EQ(whole.result_word, 10u);
  EXPECT_EQ(OutputOf(whole), "hello file######");
  EXPECT_EQ(whole.stats.io_exits, 2u);  // readfile + return_data
}

TEST(ReadFile, MissingPathReturnsMinusOne) {
  wasp::Runtime runtime;
  auto outcome = RunReadFile(runtime, "/does-not-exist", "0x40000", 16);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, ~0ULL);
  EXPECT_EQ(OutputOf(outcome), std::string(16, '#'));  // nothing copied
}

TEST(ReadFile, OutOfRangeBufferIsAHypercallError) {
  // A mapped virtual address whose physical target is beyond guest memory:
  // the copy-out fails, the virtine dies classified, and the host is
  // untouched — the file is intact and the runtime keeps serving.
  wasp::Runtime runtime;
  runtime.env().PutFile("/greeting", std::string("hello file"));
  auto outcome = RunReadFile(runtime, "/greeting", "0x20000000", 10);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kHypercallError);
  auto file = runtime.env().GetFile("/greeting");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(std::string(file->begin(), file->end()), "hello file");
  auto again = RunReadFile(runtime, "/greeting", "0x40000", 64);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_EQ(OutputOf(again), "hello file######");
}

// A guest of `env` that puts "ok" at 0x40100, stores the send_recv message
// [0x40100, out_len, 0x40200, 8] at 0x40000 as four words with `store`,
// calls send_recv, returns the 8 bytes at 0x40200 through return_data, and
// returns send_recv's result.
visa::Image SendRecvImage(vrt::Env env, const char* store, uint64_t out_len) {
  const int w = vrt::WordBytes(env);
  const uint64_t msg[4] = {0x40100, out_len, 0x40200, 8};
  std::string source =
      "virtine_main:\n  mov r1, 0x40100\n  mov r2, 0x6b6f\n  st16 [r1+0], r2\n"
      "  mov r1, 0x40000\n";
  for (int i = 0; i < 4; ++i) {
    source += "  mov r2, " + std::to_string(msg[i]) + "\n  " + store + " [r1+" +
              std::to_string(i * w) + "], r2\n";
  }
  source += R"(  mov r0, 0
  out HC_SEND_RECV, r0
  mov r9, r0
  mov r1, 0x40200
  mov r2, 8
  mov r0, 0
  out HC_RETURN_DATA, r0
  mov r0, r9
  ret
)";
  auto image = vrt::BuildImage(env, source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

TEST(SendRecv, SendsThenReceivesInOneExit) {
  auto image = SendRecvImage(vrt::Env::kLong64, "st64", 2);
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("ping");
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 4u);
  EXPECT_EQ(OutputOf(outcome).substr(0, 4), "ping");
  const auto sent = channel.host().Drain();
  EXPECT_EQ(std::string(sent.begin(), sent.end()), "ok");
  EXPECT_EQ(outcome.stats.io_exits, 2u);  // send_recv + return_data
}

TEST(SendRecv, Prot32GuestUsesFourByteMessageWords) {
  // Four 4-byte words: read as 8-byte words they would pair up into two
  // garbage pointers.
  auto image = SendRecvImage(vrt::Env::kProt32, "st32", 2);
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("ping");
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 4;
  spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 4u);
  EXPECT_EQ(OutputOf(outcome).substr(0, 4), "ping");
  const auto sent = channel.host().Drain();
  EXPECT_EQ(std::string(sent.begin(), sent.end()), "ok");
}

TEST(SendRecv, WithoutChannelOrWithOversizedSendIsRejected) {
  auto image = SendRecvImage(vrt::Env::kLong64, "st64", 2);
  {
    wasp::Runtime runtime;
    wasp::VirtineSpec spec;
    spec.image = &image;
    spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
    auto outcome = runtime.Invoke(spec);
    EXPECT_EQ(outcome.status.code(), vbase::Code::kFailedPrecondition);
    EXPECT_EQ(outcome.fault, wasp::FaultKind::kHypercallError);
  }
  // One byte past the I/O ceiling: rejected before anything moves.
  auto oversized = SendRecvImage(vrt::Env::kLong64, "st64", wasp::kMaxIoLen + 1);
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("ping");
  wasp::VirtineSpec spec;
  spec.image = &oversized;
  spec.policy = wasp::kPolicyStream | wasp::MaskOf(wasp::kHcReturnData);
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kInvalidArgument);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kHypercallError);
  EXPECT_TRUE(channel.host().Drain().empty());
  char buf[8];
  EXPECT_EQ(channel.guest().Read(buf, sizeof(buf)), 4u) << "the request was consumed";
}

// --- Channels ---------------------------------------------------------------------

TEST(Channel, RoundTripAndEof) {
  wasp::ByteChannel channel;
  channel.host().WriteString("ping");
  char buf[8];
  EXPECT_EQ(channel.guest().Read(buf, sizeof(buf)), 4u);
  EXPECT_EQ(std::string(buf, 4), "ping");
  channel.guest().WriteString("pong");
  auto data = channel.host().Drain();
  EXPECT_EQ(std::string(data.begin(), data.end()), "pong");
  channel.host().CloseWrite();
  EXPECT_EQ(channel.guest().Read(buf, sizeof(buf)), 0u);  // EOF
}

TEST(Channel, BlockingReadWakesOnWrite) {
  wasp::ByteChannel channel;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    channel.host().WriteString("x");
  });
  char b;
  EXPECT_EQ(channel.guest().Read(&b, 1), 1u);
  EXPECT_EQ(b, 'x');
  writer.join();
}

// --- Marshalling properties ---------------------------------------------------------

class MarshalWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(MarshalWidthTest, ArgPageLayoutMatchesWordSize) {
  const int w = GetParam();
  wasp::ArgPacker packer(w);
  packer.AddWord(0x11);
  packer.AddWord(0x22);
  auto page = packer.Finish();
  ASSERT_GE(page.size(), static_cast<size_t>(4 * w));
  // word 0 = ret (0), word 1 = argc (2), word 2.. = args.
  EXPECT_EQ(page[0], 0);
  EXPECT_EQ(page[static_cast<size_t>(w)], 2);
  EXPECT_EQ(page[static_cast<size_t>(2 * w)], 0x11);
  EXPECT_EQ(page[static_cast<size_t>(3 * w)], 0x22);
}

INSTANTIATE_TEST_SUITE_P(Widths, MarshalWidthTest, ::testing::Values(2, 4, 8));

TEST(Marshal, BufferArgsLandInBufferArea) {
  wasp::ArgPacker packer(8);
  const char payload[] = "DATA";
  packer.AddBuffer({payload, 4});
  auto page = packer.Finish();
  uint64_t ptr = 0;
  memcpy(&ptr, page.data() + 16, 8);
  EXPECT_EQ(ptr, wasp::kArgBufOffset);
  EXPECT_EQ(memcmp(page.data() + ptr, "DATA", 4), 0);
}

TEST(Marshal, NegativeReturnValuesSignExtend) {
  auto image = RawImage(R"(
start:
  mov r0, 5
  neg r0
  mov r8, 0
  stw [r8+0], r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 2;  // the raw image runs in real mode (16-bit words)
  wasp::VirtineFunc<int64_t()> fn(&runtime, spec);
  auto r = fn.Call();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, -5);
}

// --- Folded calls: one VM entry and one exit per warm call -------------------------

// A function-shaped guest: snapshot_get_data into 0x600 (restores resume
// inside it), then return_exit echoing the input with exit code 9.  It uses
// the `in` form, so the result lands in r5 rather than r0.
visa::Image EchoImage() {
  return RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 64
  in r5, HC_SNAPSHOT_GET_DATA
  mov r3, r5
  mov r1, 9
  mov r2, 0x600
  mov r0, 0
  out HC_RETURN_EXIT, r0
  hlt
)");
}

constexpr char kEchoKey[] = "echo";

wasp::VirtineSpec EchoSpec(const visa::Image& image, const std::vector<uint8_t>* input) {
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.key = kEchoKey;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.input = input;
  return spec;
}

TEST(FoldedCalls, WarmCallResumesWithItsOwnInputAndExitsOnce) {
  const visa::Image image = EchoImage();
  wasp::Runtime runtime;
  const std::vector<uint8_t> first = {1, 2, 3};
  const std::vector<uint8_t> second = {4, 5, 6, 7, 8};
  const auto cold = runtime.Invoke(EchoSpec(image, &first));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(cold.stats.took_snapshot);
  EXPECT_EQ(cold.stats.io_exits, 2u);
  EXPECT_EQ(cold.output, first);
  EXPECT_EQ(cold.exit_code, 9u);
  const auto warm = runtime.Invoke(EchoSpec(image, &second));
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.stats.restored_snapshot);
  EXPECT_EQ(warm.stats.io_exits, 1u);
  EXPECT_EQ(warm.output, second);  // delivered on resume, length in r5
  EXPECT_EQ(warm.exit_code, 9u);
  // The resumed call is not an exit: the only exit charge is return_exit's,
  // with no re-entry and no hlt.
  EXPECT_EQ(warm.stats.exit_cycles, runtime.options().vm_defaults.guest_costs.io_exit);
}

TEST(FoldedCalls, SnapshotGetDataNeedsTheGetDataBit) {
  const visa::Image image = EchoImage();
  wasp::Runtime runtime;
  const std::vector<uint8_t> input = {1};
  wasp::VirtineSpec spec = EchoSpec(image, &input);
  spec.policy = wasp::kPolicyManaged & ~wasp::MaskOf(wasp::kHcGetData);
  const auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied);
  EXPECT_TRUE(outcome.denied);
  EXPECT_EQ(runtime.snapshots().Find(kEchoKey), nullptr) << "a denied call captured";
}

TEST(FoldedCalls, ReturnExitWithBytesNeedsTheReturnDataBit) {
  const visa::Image image = EchoImage();
  wasp::Runtime runtime;
  const std::vector<uint8_t> input = {1, 2};
  wasp::VirtineSpec spec = EchoSpec(image, &input);
  spec.policy = wasp::kPolicyManaged & ~wasp::MaskOf(wasp::kHcReturnData);
  const auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied);
  EXPECT_TRUE(outcome.denied);
  EXPECT_TRUE(outcome.output.empty());
  EXPECT_EQ(outcome.exit_code, 0u);
}

TEST(FoldedCalls, EmptyReturnExitIsAPlainExit) {
  auto image = RawImage(R"(
start:
  mov r1, 5
  mov r2, 0x600
  mov r3, 0
  mov r0, 0
  out HC_RETURN_EXIT, r0
  hlt
)");
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = wasp::kPolicyDenyAll;
  const auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.exit_code, 5u);
  EXPECT_TRUE(outcome.output.empty());
  EXPECT_EQ(outcome.stats.io_exits, 1u);
}

TEST(FoldedCalls, WarmRestoreWithoutTheGetDataBitIsDeniedBeforeTheFirstVmrun) {
  const visa::Image image = EchoImage();
  wasp::Runtime runtime;
  const std::vector<uint8_t> input = {1, 2, 3};
  ASSERT_TRUE(runtime.Invoke(EchoSpec(image, &input)).status.ok());
  const uint64_t quarantined = runtime.pool().stats().quarantined;
  wasp::VirtineSpec spec = EchoSpec(image, &input);
  spec.policy = wasp::kPolicyManaged & ~wasp::MaskOf(wasp::kHcGetData);
  const auto outcome = runtime.Invoke(spec);
  EXPECT_TRUE(outcome.stats.restored_snapshot);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied);
  EXPECT_TRUE(outcome.denied);
  EXPECT_TRUE(outcome.output.empty());
  EXPECT_EQ(outcome.stats.insns, 0u) << "the guest ran";
  EXPECT_EQ(outcome.stats.io_exits, 0u);
  EXPECT_EQ(runtime.pool().stats().quarantined, quarantined + 1);
}

TEST(FoldedCalls, GetDataAfterAResumedSnapshotGetDataIsRefused) {
  auto image = RawImage(R"(
start:
  mov r1, 0x600
  mov r2, 16
  mov r0, 0
  out HC_SNAPSHOT_GET_DATA, r0
  out HC_GET_DATA, r0
  hlt
)");
  wasp::Runtime runtime;
  const std::vector<uint8_t> input = {1, 2, 3};
  const auto cold = runtime.Invoke(EchoSpec(image, &input));
  EXPECT_EQ(cold.status.code(), vbase::Code::kPermissionDenied);
  ASSERT_NE(runtime.snapshots().Find(kEchoKey), nullptr);
  const auto warm = runtime.Invoke(EchoSpec(image, &input));
  EXPECT_TRUE(warm.stats.restored_snapshot);
  EXPECT_EQ(warm.status.code(), vbase::Code::kPermissionDenied);
  EXPECT_EQ(warm.fault, cold.fault);
}

// --- snapshot_recv: a stream guest's snapshot point inside its first receive ------

// A stream guest: snapshot_recv into 0x600 (restores resume inside it), then
// return_exit with the whole 64-byte receive buffer and n as the exit code,
// so each run shows every byte its buffer holds, past its own n included.
constexpr char kFirstRecvBody[] = R"(
  mov r1, 0x600
  mov r2, 64
  mov r0, 0
  out HC_SNAPSHOT_RECV, r0
  mov r1, r0
  mov r2, 0x600
  mov r3, 64
  mov r0, 0
  out HC_RETURN_EXIT, r0
  hlt
)";
constexpr char kFirstRecvKey[] = "first-recv";
constexpr wasp::HypercallMask kFirstRecvPolicy =
    wasp::MaskOf(wasp::kHcRecv) | wasp::MaskOf(wasp::kHcReturnData);

// One connection: `request` is waiting on the channel when the guest runs.
wasp::RunOutcome ServeFirstRecv(wasp::Runtime& runtime, const visa::Image& image,
                                const std::string& request, bool fresh_shell,
                                wasp::HypercallMask policy = kFirstRecvPolicy) {
  wasp::ByteChannel channel;
  channel.host().WriteString(request);
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.key = kFirstRecvKey;
  spec.policy = policy;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;
  spec.fresh_shell = fresh_shell;
  spec.channel = &channel.guest();
  return runtime.Invoke(spec);
}

// The buffer a run must return: its own request, then the snapshot's zeros.
std::vector<uint8_t> OwnBytesThenZeros(const std::string& request) {
  std::vector<uint8_t> want(64, 0);
  std::copy(request.begin(), request.end(), want.begin());
  return want;
}

TEST(SnapshotRecv, WarmRunsReadOnlyTheirOwnBytesInOneExit) {
  const visa::Image image = RawImage(std::string("start:\n") + kFirstRecvBody);
  wasp::Runtime runtime;
  const std::string cold_request(48, 'L');
  const auto cold = ServeFirstRecv(runtime, image, cold_request, false);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(cold.stats.took_snapshot);
  EXPECT_EQ(cold.stats.io_exits, 2u);  // snapshot_recv, return_exit
  EXPECT_EQ(cold.exit_code, cold_request.size());
  EXPECT_EQ(cold.output, OwnBytesThenZeros(cold_request));

  // The capture came before the cold request's copy-out: the snapshot holds
  // the buffer's page (the boot info dirtied it) with zeros where the
  // request landed, and resumes into a pending recv.
  const wasp::SnapshotRef snap = runtime.snapshots().Find(kFirstRecvKey);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->pending.port, wasp::kHcRecv);
  const uint8_t* page0 = snap->FindPage(0);
  ASSERT_NE(page0, nullptr);
  EXPECT_EQ(std::vector<uint8_t>(page0 + 0x600, page0 + 0x640), std::vector<uint8_t>(64, 0))
      << "the cold request's bytes are in the snapshot";

  // Each warm run follows a longer request.  The affine shell repairs the
  // previous run's bytes; the fresh shell COW-maps the snapshot.
  const struct {
    const char* path;
    std::string request;
    bool fresh_shell;
  } warm_runs[] = {
      {"affine, after the cold request", "short", false},
      {"affine", std::string(40, 'M'), false},
      {"COW map, after a longer request", "hi", true},
      {"affine, after the COW map", std::string(56, 'N'), false},
      {"affine, after a longer request", "x", false},
  };
  const uint64_t one_exit = runtime.options().vm_defaults.guest_costs.io_exit;
  for (const auto& run : warm_runs) {
    const auto warm = ServeFirstRecv(runtime, image, run.request, run.fresh_shell);
    ASSERT_TRUE(warm.status.ok()) << run.path << ": " << warm.status.ToString();
    EXPECT_TRUE(warm.stats.restored_snapshot) << run.path;
    EXPECT_EQ(warm.stats.mapped_cow, run.fresh_shell) << run.path;
    EXPECT_EQ(warm.stats.affine_restore, !run.fresh_shell) << run.path;
    EXPECT_EQ(warm.stats.io_exits, 1u) << run.path;  // return_exit only
    EXPECT_EQ(warm.stats.exit_cycles, one_exit) << run.path;
    EXPECT_EQ(warm.exit_code, run.request.size()) << run.path;
    EXPECT_EQ(warm.output, OwnBytesThenZeros(run.request)) << run.path;
  }
  EXPECT_EQ(runtime.snapshots().Find(kFirstRecvKey), snap) << "a warm run re-captured";
  EXPECT_TRUE(wasp::VerifySnapshot(*snap));
}

TEST(SnapshotRecv, AfterTheCrtSnapshotIsRefused) {
  // The CRT snapshots after boot (boot flag bit 0), so the guest's own
  // snapshot_recv would be a second capture in one run.
  auto image = vrt::BuildImage(vrt::Env::kLong64, std::string("virtine_main:\n") + kFirstRecvBody);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("request");
  wasp::VirtineSpec spec;
  spec.image = &*image;
  spec.key = kFirstRecvKey;
  spec.policy = kFirstRecvPolicy;
  spec.use_snapshot = true;
  spec.channel = &channel.guest();
  const auto outcome = runtime.Invoke(spec);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied) << outcome.status.ToString();
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kHypercallError);
  EXPECT_FALSE(outcome.denied) << "the policy admits it; the once-only rule refuses it";
  EXPECT_TRUE(outcome.output.empty());
  const wasp::SnapshotRef snap = runtime.snapshots().Find(kFirstRecvKey);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->pending.port, 0) << "the CRT's capture was replaced";
}

TEST(SnapshotRecv, NeedsTheRecvBitBeforeItCaptures) {
  const visa::Image image = RawImage(std::string("start:\n") + kFirstRecvBody);
  wasp::Runtime runtime;
  const wasp::HypercallMask no_recv = wasp::kPolicyAllowAll & ~wasp::MaskOf(wasp::kHcRecv);
  const auto denied = ServeFirstRecv(runtime, image, "request", false, no_recv);
  EXPECT_EQ(denied.status.code(), vbase::Code::kPermissionDenied);
  EXPECT_EQ(denied.fault, wasp::FaultKind::kPolicyDenied);
  EXPECT_TRUE(denied.denied);
  EXPECT_EQ(runtime.snapshots().Find(kFirstRecvKey), nullptr) << "a denied call captured";

  // A warm restore's pending recv is checked against the warm run's own
  // policy, before the first vmrun.
  ASSERT_TRUE(ServeFirstRecv(runtime, image, "request", false).status.ok());
  const auto warm = ServeFirstRecv(runtime, image, "request", false, no_recv);
  EXPECT_TRUE(warm.stats.restored_snapshot);
  EXPECT_EQ(warm.fault, wasp::FaultKind::kPolicyDenied);
  EXPECT_TRUE(warm.output.empty());
  EXPECT_EQ(warm.stats.insns, 0u) << "the guest ran";
  EXPECT_EQ(warm.stats.io_exits, 0u);
}

// --- send_exit: a stream guest's last response and its exit in one exit -----------

// A raw guest (real mode: two-byte message words) that issues send_exit with
// the message [resp, 8, data, 8, 5] at 0x700: it sends the 8-byte response
// "HTTP/1.1" and exits with code 5 and the 8-byte output "counters".
visa::Image SendExitImage() {
  std::string source = "start:\n  mov r1, 0x700\n";
  const char* words[] = {"resp", "8", "data", "8", "5"};
  for (int i = 0; i < 5; ++i) {
    source += std::string("  mov r2, ") + words[i] + "\n  st16 [r1+" + std::to_string(2 * i) +
              "], r2\n";
  }
  source += R"(  mov r0, 0
  out HC_SEND_EXIT, r0
  hlt
resp:
  .ascii "HTTP/1.1"
data:
  .ascii "counters"
)";
  return RawImage(source);
}

constexpr wasp::HypercallMask kSendExitPolicy =
    wasp::MaskOf(wasp::kHcSend) | wasp::MaskOf(wasp::kHcReturnData);

wasp::RunOutcome RunSendExit(wasp::Runtime& runtime, wasp::ByteChannel& channel,
                             wasp::HypercallMask policy = kSendExitPolicy) {
  static const visa::Image image = SendExitImage();
  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.policy = policy;
  spec.channel = &channel.guest();
  return runtime.Invoke(spec);
}

std::string Sent(wasp::ByteChannel& channel) {
  const std::vector<uint8_t> bytes = channel.host().Drain();
  return std::string(bytes.begin(), bytes.end());
}

TEST(SendExit, SendsThenReturnsAndExitsInOneExit) {
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  const auto outcome = RunSendExit(runtime, channel);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(Sent(channel), "HTTP/1.1");
  EXPECT_EQ(OutputOf(outcome), "counters");
  EXPECT_EQ(outcome.exit_code, 5u);
  EXPECT_EQ(outcome.stats.io_exits, 1u);
  // The call ends the run: no re-entry and no hlt.
  EXPECT_EQ(outcome.stats.exit_cycles, runtime.options().vm_defaults.guest_costs.io_exit);
}

TEST(SendExit, APeerThatStoppedReadingDoesNotFailTheExit) {
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.guest().CloseWrite();  // the host end reads no more
  const auto outcome = RunSendExit(runtime, channel);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(OutputOf(outcome), "counters");
  EXPECT_EQ(outcome.exit_code, 5u);
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kNone);
  EXPECT_TRUE(Sent(channel).empty());
}

TEST(SendExit, NeedsTheSendBitAndTheReturnDataBit) {
  for (const uint16_t missing : {wasp::kHcSend, wasp::kHcReturnData}) {
    wasp::Runtime runtime;
    wasp::ByteChannel channel;
    const wasp::HypercallMask policy = wasp::kPolicyAllowAll & ~wasp::MaskOf(missing);
    const auto outcome = RunSendExit(runtime, channel, policy);
    EXPECT_EQ(outcome.status.code(), vbase::Code::kPermissionDenied) << missing;
    EXPECT_EQ(outcome.fault, wasp::FaultKind::kPolicyDenied) << missing;
    EXPECT_TRUE(outcome.denied) << missing;
    EXPECT_TRUE(Sent(channel).empty()) << missing;
    EXPECT_TRUE(outcome.output.empty()) << missing;
    EXPECT_EQ(outcome.exit_code, 0u) << missing;
  }
}

TEST(SendExit, AnInjectedOversizedReplySendsNothing) {
  wasp::FaultPlan plan;
  plan.rules.push_back(wasp::FaultPlan::At(wasp::FaultKind::kOversizedReply, 0));
  wasp::RuntimeOptions options;
  options.fault_plan = std::move(plan);
  wasp::Runtime runtime(std::move(options));
  wasp::ByteChannel channel;
  const auto outcome = RunSendExit(runtime, channel);
  EXPECT_EQ(outcome.status.code(), vbase::Code::kInvalidArgument) << outcome.status.ToString();
  EXPECT_EQ(outcome.fault, wasp::FaultKind::kOversizedReply);
  EXPECT_TRUE(Sent(channel).empty());
  EXPECT_TRUE(outcome.output.empty());
}

// --- Invocation stats ---------------------------------------------------------------

TEST(Stats, PoolAndSnapshotFlagsAreAccurate) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "stats-test";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t, int64_t)> add(&runtime, spec);
  ASSERT_TRUE(add.Call(1, 2).ok());
  EXPECT_FALSE(add.last_outcome().stats.from_pool);
  EXPECT_FALSE(add.last_outcome().stats.restored_snapshot);
  ASSERT_TRUE(add.Call(3, 4).ok());
  EXPECT_TRUE(add.last_outcome().stats.from_pool);
  EXPECT_TRUE(add.last_outcome().stats.restored_snapshot);
  // The first run parked its shell snapshot-affine, so the warm start is a
  // delta restore that repairs only the dirtied pages.
  EXPECT_TRUE(add.last_outcome().stats.affine_restore);
  EXPECT_GT(add.last_outcome().stats.restored_bytes, 0u);
  EXPECT_GT(add.last_outcome().stats.total_cycles, 0u);
  EXPECT_GT(add.last_outcome().stats.total_ns, 0u);
}

// exit_cycles is exactly what the vCPU charged for leaving the VM: a run that
// ends in hlt pays every exit's re-entry plus the hlt; a run that ends in the
// exit hypercall pays that exit but no re-entry and no hlt.  The same guest
// under free exits costs exactly exit_cycles less.
TEST(Stats, ExitCyclesAreTheExitChargesTheCpuMade) {
  const std::string twice = R"(
start:
  mov r1, msg
  mov r2, 1
  mov r0, 0
  out HC_CONSOLE, r0
  out HC_CONSOLE, r0
)";
  const visa::Image halts = RawImage(twice + "  hlt\nmsg:\n  .ascii \"x\"\n");
  const visa::Image exits =
      RawImage(twice + "  mov r1, 0\n  out HC_EXIT, r0\n  hlt\nmsg:\n  .ascii \"x\"\n");
  wasp::Runtime runtime;
  wasp::RuntimeOptions free_options;
  free_options.vm_defaults.guest_costs.io_exit = 0;
  free_options.vm_defaults.guest_costs.io_entry = 0;
  free_options.vm_defaults.guest_costs.hlt_exit = 0;
  wasp::Runtime free_runtime(free_options);
  const vhw::CostModel& costs = runtime.options().vm_defaults.guest_costs;
  const uint64_t round_trip = costs.io_exit + costs.io_entry;
  const struct {
    const visa::Image* image;
    uint64_t exit_cycles;
  } cases[] = {
      {&halts, 2 * round_trip + costs.hlt_exit},
      {&exits, 2 * round_trip + costs.io_exit},
  };
  for (const auto& c : cases) {
    wasp::VirtineSpec spec;
    spec.image = c.image;
    spec.policy = wasp::MaskOf(wasp::kHcConsole);
    const auto charged = runtime.Invoke(spec);
    const auto free = free_runtime.Invoke(spec);
    ASSERT_TRUE(charged.status.ok()) << charged.status.ToString();
    ASSERT_TRUE(free.status.ok()) << free.status.ToString();
    EXPECT_EQ(charged.stats.exit_cycles, c.exit_cycles);
    EXPECT_EQ(charged.stats.guest_cycles - free.stats.guest_cycles, c.exit_cycles);
  }
}

}  // namespace
