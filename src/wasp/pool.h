// The virtine shell pool (Section 5.2, Figure 6), scaled out for multicore
// and made snapshot-aware.
//
// Creating a hardware VM context is expensive (host kernel allocation of
// VMCS/VMCB state, EPT construction).  Wasp therefore keeps released VM
// contexts — "shells" — and reuses them: a released shell is *cleaned*
// (every dirty page zeroed, preventing information leakage) and parked in a
// free list keyed by memory size.  Cleaning can run synchronously on
// release ("Wasp+C") or on a background cleaner crew ("Wasp+CA"), which
// takes cleaning off the acquire/release critical path and brings shell
// provisioning within a few percent of a bare vmrun.
//
// Snapshot affinity: a shell that just ran a snapshot-backed virtine still
// holds that snapshot's memory image, deviating only in the pages the run
// dirtied (tracked by GuestMemory's epoch bitmap).  ReleaseAffine parks such
// a shell *without zeroing it*, tagged by snapshot generation; a later
// AcquireAffine for the same generation gets it back and repairs just the
// delta — warm restores become O(working set) instead of O(image), and the
// release-side zeroing of those same pages disappears entirely.  Isolation
// is preserved: the repaired shell is byte-identical to a full restore, and
// any *other* consumer (a plain Acquire, or a keyed Acquire for a different
// generation) only ever sees an affine shell after it has been fully
// cleaned (reclaimed).
//
// Governance: parked affine shells are memory a long-lived service pays for.
// Under COW backing, what a shell pays for is *private* bytes — the pages it
// privatized on write, which are its epoch-dirty pages — while the shared
// extent buffer (its COW base) is charged **once per live generation**, no
// matter how many shells map it: resident cost is O(image + Σ working sets),
// not O(shells × image).  The runtime parks only COW-backed shells; a shell
// a direct caller parks without a COW base (a full copy) is charged its
// whole guest memory.  Two policies bound residency.  (1) A
// configurable resident-byte budget (PoolOptions::affine_budget_bytes): when
// a park pushes the gauge over budget, shells of the least-recently-used
// *generation* are evicted into the cleaning path (the async cleaner crew
// when one exists, inline otherwise) until the budget holds again; evicting
// a generation's last shell releases its shared charge too.  (2) Eager
// retirement (RetireGeneration): when a snapshot generation is retired — its
// key was re-captured or dropped — every shell parked under it is reclaimed
// immediately instead of lingering until a non-affine consumer happens to
// sweep it up.  Both paths are counted in PoolStats (affine_evictions,
// affine_retired, and the affine_resident_bytes gauge) so tests and benches
// can assert the budget actually holds.  The gauge obeys a conservation
// invariant on a quiescent pool: affine_resident_bytes ==
// affine_shared_bytes + affine_private_bytes == the sum over live
// generations of (shared_bytes + private_bytes), the per-generation rows
// affine_accounting() reports.
//
// Concurrency model — the lock-free fast path.  The common-case acquire and
// release never allocate, and take no mutex but gen_mu_'s shared side (a
// keyed acquire looks up its generation's row; ReleaseAffine finds or
// creates it).  A pooled shell sits on exactly one tagged Treiber stack (see
// freelist.h): the free stack holds clean shells of every memory size, the
// dirty stack feeds the cleaner crew, and every generation's row (GenInfo)
// holds a stack of its own parked shells.  An acquire runs two tiers:
//
//   1. Lock-free pop.  A keyed acquire pops its generation's own stack, so
//      it never scans another generation's shells and finds its
//      generation's shell whichever thread parked it; on a miss, or for a
//      plain acquire, it pops the free stack.
//   2. Mutex slow path.  Only when the bounded pops find nothing does an
//      acquire take sweep_mu_ for the same scans made exhaustive, then an
//      any-generation reclaim, then a fresh create.
//
// One stack scan (PopMatch) serves both tiers and both sides: a shell fits
// when its memory size matches; bounded and lock-free on the fast path,
// exhaustive under sweep_mu_ in the slow path.  One epilogue (Serve) hands a
// found shell out.
//
// PoolStats separates free-list hits and slow-path acquires, so the fast
// path's share is observable, not asserted; callers time acquires
// themselves (InvokeStats::acquire_ns).
#ifndef SRC_WASP_POOL_H_
#define SRC_WASP_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/vkvm/vkvm.h"
#include "src/wasp/freelist.h"

namespace wasp {

enum class CleanMode {
  kNone,   // no pooling: every release destroys the VM
  kSync,   // clean on release, inline
  kAsync,  // clean on a background cleaner crew
};

struct PoolStats {
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;       // shells served from a free or affine list
  uint64_t fresh_creates = 0;   // shells created from scratch
  uint64_t releases = 0;
  uint64_t cleans = 0;
  uint64_t bytes_zeroed = 0;
  // Fast-path counters.  Every acquire is served by exactly one tier:
  // acquires == lane_cache_hits + freelist_hits + slow_path_acquires (fresh
  // creates are slow-path by definition).  The pool has no lane cache, so
  // lane_cache_hits always reads 0; it stays for the readers that export it.
  uint64_t lane_cache_hits = 0;
  uint64_t freelist_hits = 0;       // served by a lock-free stack
  uint64_t slow_path_acquires = 0;  // took the sweep mutex (or created fresh)
  // Snapshot-affinity counters.
  uint64_t affine_hits = 0;      // keyed acquires served with the snapshot resident
  uint64_t affine_parks = 0;     // releases that skipped zeroing (snapshot-backed)
  uint64_t affine_reclaims = 0;  // affine shells cleaned: demand, budget, or retire
  uint64_t delta_pages = 0;      // epoch-dirty pages recorded across affine parks
  // Governance counters (the eviction policy's observable behavior).
  uint64_t affine_evictions = 0;       // shells evicted by the resident-byte budget
  uint64_t affine_retired = 0;         // shells eagerly reclaimed by RetireGeneration
  // Gauge: bytes parked affine right now == affine_shared_bytes +
  // affine_private_bytes (the conservation invariant; exact at quiescence —
  // the lock-free park/unpark paths update the three atomics one at a time).
  uint64_t affine_resident_bytes = 0;
  uint64_t affine_shared_bytes = 0;   // gauge: extent buffers, once per live generation
  uint64_t affine_private_bytes = 0;  // gauge: per-shell privatized pages
  // Quarantine counters (faulted invocations).  A quarantined shell is never
  // parked affine and never pushed to the lock-free free stacks; only a
  // cleaner-crew full scrub readmits it (async mode), or it is destroyed
  // outright (sync / no pooling — there is no crew to scrub it).
  // Conservation: quarantined == quarantine_scrubbed + quarantine_destroyed
  // + quarantined_now (exact at quiescence, like the residency gauge).
  uint64_t quarantined = 0;            // shells handed to Quarantine()
  uint64_t quarantine_scrubbed = 0;    // scrubbed + readmitted by the crew
  uint64_t quarantine_destroyed = 0;   // destroyed (no crew to scrub)
  uint64_t quarantined_now = 0;        // gauge: awaiting the crew's scrub
};

// A breakdown of the affine residency gauge by generation.  The rows are
// read from the per-generation atomic counters and resident_bytes is their
// sum; the PoolStats gauges are kept apart from them, so comparing the two
// on a quiescent pool checks the charge/release bookkeeping — the COW
// analogue of the executor's submitted == completed + queued + in_flight
// conservation law.
struct AffineAccounting {
  struct Generation {
    uint64_t generation = 0;
    uint64_t shared_bytes = 0;   // the extent buffer, charged once
    uint64_t private_bytes = 0;  // privatized pages across parked shells
    int64_t parked_shells = 0;
  };
  uint64_t resident_bytes = 0;  // sum of the rows (== the gauge at quiescence)
  std::vector<Generation> generations;
};

struct PoolOptions {
  CleanMode mode = CleanMode::kSync;
  // Resident-byte budget for parked snapshot-affine shells; 0 = unlimited.
  // A park that exceeds it evicts least-recently-used generations into the
  // cleaning path until parked bytes fit again.
  uint64_t affine_budget_bytes = 0;
};

class Pool {
 public:
  // Async cleaner crew size (mode == kAsync only).
  static constexpr size_t kCleaners = 2;

  explicit Pool(CleanMode mode = CleanMode::kSync) : Pool(PoolOptions{mode}) {}
  explicit Pool(const PoolOptions& options);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Acquires a shell with the given configuration, reusing a clean pooled
  // shell when available.  `*from_pool` (optional) reports which path ran.
  // A keyed acquire with no generation: never served snapshot-resident.
  std::unique_ptr<vkvm::Vm> Acquire(const vkvm::VmConfig& config, bool* from_pool = nullptr) {
    return AcquireAffine(config, /*generation=*/0, nullptr, from_pool);
  }

  // Keyed acquire: prefers a shell holding snapshot `generation` resident
  // (popped from the generation's own stack, whichever thread parked it),
  // falling back to a clean shell and finally a fresh create.  `*affine_hit`
  // reports whether the returned shell holds the snapshot (caller may
  // delta-restore).
  std::unique_ptr<vkvm::Vm> AcquireAffine(const vkvm::VmConfig& config, uint64_t generation,
                                          bool* affine_hit, bool* from_pool = nullptr);

  // Returns a shell to the pool (cleaning per the pool's mode).
  void Release(std::unique_ptr<vkvm::Vm> vm);

  // Parks a snapshot-backed shell *without zeroing*: snapshot `generation`
  // plus the shell's epoch-dirty delta fully describe its memory, so a later
  // AcquireAffine(generation) can delta-restore it.  The post-restore dirty
  // delta is recorded in stats (delta_pages).  Never hand a shell here whose
  // memory deviates from the snapshot outside its epoch bitmap.
  //
  // Residency accounting: a COW-backed shell is charged its epoch-dirty
  // (privatized) bytes only; its base's size is the generation's shared
  // charge, taken once when the generation's first shell parks and released
  // when its last shell leaves.  Every COW-backed shell parked under one
  // generation must map that generation's extent buffer.  A shell without a
  // COW base is charged its full guest memory and no shared bytes.
  void ReleaseAffine(std::unique_ptr<vkvm::Vm> vm, uint64_t generation);

  // Returns a shell whose invocation *faulted* (guest trap, denied or
  // illegal hypercall, poisoned restore, runaway, worker death).  The shell
  // is in an unknown state, so it takes the strictest path back: it is never
  // parked snapshot-affine and never pushed onto a lock-free free stack —
  // in async mode it waits on a dedicated quarantine queue until the cleaner
  // crew has fully scrubbed it (every dirty page zeroed, vCPU reset); with
  // no crew (sync / no pooling) it is destroyed outright.  Either way no
  // later acquire can observe the faulted state: the blast radius of a
  // fault is the one invocation that died.
  void Quarantine(std::unique_ptr<vkvm::Vm> vm);

  // Pops one shell parked under `generation` (any mem size)
  // without any clean-shell or fresh-create fallback: nullptr when nothing
  // is parked.  The re-capture path folds a warm shell's drift into a new
  // snapshot; counted as an acquire + affine hit like AcquireAffine.
  std::unique_ptr<vkvm::Vm> StealParkedAffine(uint64_t generation);

  // Eagerly reclaims every shell parked under snapshot `generation` (the
  // generation was retired: its key re-captured or dropped).  Shells go to
  // the cleaner crew in async mode — retirement is maintenance, not a
  // critical path — and are cleaned inline otherwise.  Counted per shell in
  // affine_retired and affine_reclaims.
  void RetireGeneration(uint64_t generation);

  // Blocks until the cleaner crew has drained the dirty and quarantine
  // stacks (benchmark barrier).
  void DrainCleaner();

  // Pre-populates the pool with `count` clean shells (benchmark warm-up),
  // pushed onto the free stack.
  void Prewarm(const vkvm::VmConfig& config, int count);

  PoolStats stats() const;
  // Consistent snapshot of the residency breakdown (see AffineAccounting).
  AffineAccounting affine_accounting() const;
  // Clean shells of any size on the free stack (conservation checks).  Exact
  // on a quiescent pool; diagnostic (racy walk) under concurrency.
  size_t TotalFreeShells() const;
  // Parked snapshot-affine shells for `generation` (from the per-generation
  // accounting counters).
  size_t AffineShells(uint64_t generation) const;
  // Parked snapshot-affine shells of any generation (conservation checks).
  size_t TotalAffineShells() const;

  CleanMode mode() const { return options_.mode; }

 private:
  struct ShellNode;

  // Generation-LRU + residency state, one row per generation ever parked.
  // Rows are immortal (generations are process-unique and never reused), so
  // the lock-free fast path can hold a GenInfo* with no lifetime protocol;
  // gen_mu_ is a read-mostly shared_mutex guarding only the map itself.
  struct GenInfo {
    uint64_t generation = 0;
    std::atomic<uint64_t> last_use_tick{0};
    std::atomic<int64_t> parked_shells{0};
    // Sum of parked shells' private bytes.
    std::atomic<uint64_t> private_bytes{0};
    // The shared extent buffer, declared once (a property of the snapshot);
    // charged to the gauge while any shell is parked.  The charge pairs with
    // the parked_shells 0->1 / 1->0 transitions, which strictly alternate.
    std::atomic<uint64_t> shared_bytes{0};
    // Set before RetireGeneration sweeps; a park that raced the sweep
    // re-checks it after pushing and re-runs the sweep itself.
    std::atomic<bool> retired{false};
    // This generation's parked shells.
    TaggedStack<ShellNode> parked;
  };

  // A pooled shell's stack node.  Nodes are arena-owned for the pool's
  // lifetime (the Treiber stacks' ABA-safety contract) and recycled through
  // spare_nodes_, so the steady state allocates nothing.  Every field but
  // `next` is written only by the node's owner (pusher before insert /
  // popper after removal; the stack CASes order those).
  struct ShellNode {
    std::atomic<ShellNode*> next{nullptr};
    vkvm::Vm* vm = nullptr;
    uint64_t mem_size = 0;
    uint64_t private_bytes = 0;
    GenInfo* gen = nullptr;  // the generation it is parked under; null when clean
  };

  // Node arena: pop a spare (lock-free) or allocate into all_nodes_.
  ShellNode* WrapShell(std::unique_ptr<vkvm::Vm> vm, uint64_t private_bytes, GenInfo* gen);
  // Takes the vm out of a popped node and recycles the node.
  std::unique_ptr<vkvm::Vm> UnwrapShell(ShellNode* node);

  // Zeroes dirty pages and resets vCPU/accounting.  `charge_inline` charges
  // the modeled memset cost to the shell (sync release and inline affine
  // reclaims sit on a critical path; the async cleaner crew absorbs it off
  // the critical path instead).
  void CleanShell(vkvm::Vm* vm, bool charge_inline);

  // Pops the first node of `stack` whose memory size is `mem_size` (0
  // matches any), examining at most `limit` nodes and re-pushing the
  // mismatches in their original order.  Bounded (kPopScan) on the
  // lock-free fast path, exhaustive (kScanGuard) under sweep_mu_.  Never
  // allocates.
  ShellNode* PopMatch(TaggedStack<ShellNode>& stack, uint64_t mem_size, int limit);
  // Exhaustive search (slow path): under sweep_mu_, the free stack, or
  // `gen`'s stack, or with `gen` null every generation's stack in
  // generation order.
  ShellNode* Sweep(bool affine, uint64_t mem_size, GenInfo* gen);
  // Hands a found node out: releases an affine node's residency charge,
  // counts the pool hit, reports `*from_pool` and unwraps the shell.
  std::unique_ptr<vkvm::Vm> Serve(ShellNode* node, bool* from_pool);
  // The lock-free tier: a bounded pop of the free stack, or of `gen`'s stack
  // when given, for a clean shell or one parked under `gen`; nullptr on
  // miss.  Counts the hit.
  std::unique_ptr<vkvm::Vm> TryFast(GenInfo* gen, uint64_t mem_size, bool* from_pool);
  // The mutex slow path: exhaustive sweep of `gen`'s shells (when given),
  // exhaustive clean sweep, any-generation affine reclaim, finally a fresh
  // create.  Always serves.
  std::unique_ptr<vkvm::Vm> AcquireSlow(const vkvm::VmConfig& config, GenInfo* gen,
                                        bool* affine_hit, bool* from_pool);

  // Pops one dirty shell.  Transfers it to "cleaning in flight" before the
  // dirty count drops so DrainCleaner never observes a false drain.
  std::unique_ptr<vkvm::Vm> PopDirty();
  void CleanerLoop();
  // Parks a node on the free stack (clean) or its generation's stack
  // (affine).  An affine park then re-checks retirement (the park side of
  // the Dekker pattern RetireGeneration documents).
  void Park(ShellNode* node);

  // Accounting row lookup/creation (shared lock for the common hit).
  GenInfo* FindGen(uint64_t generation) const;
  GenInfo* FindOrCreateGen(uint64_t generation);
  // Residency bookkeeping.  TryChargeAffine refuses (returns false) when the
  // generation is retired — the caller diverts the shell to the cleaning
  // path.  The shared buffer is charged on the parked_shells 0->1
  // transition and released on 1->0; transitions strictly alternate, so
  // charge/release pair exactly with the (immutable) declared buffer size.
  bool TryChargeAffine(GenInfo* gen, uint64_t shared_bytes, uint64_t private_bytes);
  void ReleaseAffineCharge(GenInfo* gen, uint64_t private_bytes);

  // Disposes retired-generation shells: releases charges, counts, cleans.
  void RetireSweep(GenInfo* gen);

  // Queues a shell on the dirty stack for the cleaner crew.
  void QueueDirty(std::unique_ptr<vkvm::Vm> vm);
  // Sends a formerly-affine shell through the cleaning path: the dirty
  // queue (async mode) or an inline clean (sync mode).
  void Dispose(std::unique_ptr<vkvm::Vm> vm);
  // Evicts least-recently-used generations until parked affine bytes fit
  // the configured budget again (no-op when unlimited).
  void EnforceAffineBudget();

  const PoolOptions options_;
  TaggedStack<ShellNode> free_;   // clean shells, mixed mem sizes
  TaggedStack<ShellNode> dirty_;  // awaiting the cleaner crew
  // Slow path only: serializes the exhaustive scans, so one never misses a
  // node another holds mid-scan.  The fast paths never take it.
  std::mutex sweep_mu_;

  // Node arena.  spare_nodes_ recycles popped nodes lock-free; all_nodes_
  // (mutex-guarded, touched only when the spare stack is empty) owns them.
  TaggedStack<ShellNode> spare_nodes_;
  mutable std::mutex node_mu_;
  std::vector<std::unique_ptr<ShellNode>> all_nodes_;

  // Cleaner-crew coordination.  The dirty/in-flight counters are atomics;
  // the release fast path pushes lock-free and notifies without the mutex,
  // so cleaners and DrainCleaner wait with a timeout as the belt against a
  // missed notify (the race window is the notify racing a wait entry).
  std::mutex cleaner_mu_;
  std::condition_variable cleaner_cv_;  // cleaners sleep here
  std::condition_variable drain_cv_;    // DrainCleaner sleeps here
  std::atomic<int64_t> dirty_count_{0};
  std::atomic<int64_t> cleaning_in_flight_{0};
  // Quarantined shells awaiting the crew's scrub.  A single global stack:
  // quarantine is the fault path, never a throughput path, and one queue
  // keeps the "never on a free stack until scrubbed" property trivially
  // auditable.  Counted (quarantine_count_) before push, like dirty_count_,
  // so DrainCleaner covers it.
  TaggedStack<ShellNode> quarantine_;
  std::atomic<int64_t> quarantine_count_{0};
  // Parked affine shells across all generations.  A zero read lets acquires
  // skip the affine probes entirely — the common case when nothing is
  // parked.
  std::atomic<int64_t> affine_count_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> cleaners_;

  // Generation table (see GenInfo).  Read-mostly: the fast path takes the
  // shared side only; exclusive only to insert a new generation's row.
  mutable std::shared_mutex gen_mu_;
  std::map<uint64_t, std::unique_ptr<GenInfo>> generations_;
  std::atomic<uint64_t> use_tick_{0};

  struct AtomicStats {
    std::atomic<uint64_t> acquires{0};
    std::atomic<uint64_t> pool_hits{0};
    std::atomic<uint64_t> fresh_creates{0};
    std::atomic<uint64_t> releases{0};
    std::atomic<uint64_t> cleans{0};
    std::atomic<uint64_t> bytes_zeroed{0};
    std::atomic<uint64_t> freelist_hits{0};
    std::atomic<uint64_t> slow_path_acquires{0};
    std::atomic<uint64_t> affine_hits{0};
    std::atomic<uint64_t> affine_parks{0};
    std::atomic<uint64_t> affine_reclaims{0};
    std::atomic<uint64_t> delta_pages{0};
    std::atomic<uint64_t> affine_evictions{0};
    std::atomic<uint64_t> affine_retired{0};
    std::atomic<uint64_t> affine_resident_bytes{0};
    std::atomic<uint64_t> affine_shared_bytes{0};
    std::atomic<uint64_t> affine_private_bytes{0};
    std::atomic<uint64_t> quarantined{0};
    std::atomic<uint64_t> quarantine_scrubbed{0};
    std::atomic<uint64_t> quarantine_destroyed{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace wasp

#endif  // SRC_WASP_POOL_H_
