// Snapshots: the paper's key start-up optimization (Section 5.2).
//
// A snapshot captures a virtine's architectural CPU state plus the set of
// guest-physical pages it has dirtied since the VM was fresh (everything it
// has ever written, including its loaded image).  A restore lays those pages
// into a shell and resumes the vCPU right after the snapshot hypercall,
// skipping boot and runtime init.  The paper lays them down by memcpy (its
// "simple snapshotting strategy", Figure 12); RestoreFullInto keeps that
// copy as the reference.  The runtime takes one of two paths instead:
//   * COW map (MapCowInto): a clean shell maps the captured pages as its
//     shared copy-on-write base, charged per extent mapped;
//   * delta restore (RestoreDeltaInto): a shell that already maps the
//     snapshot (the pool's snapshot-affine path) repairs only the pages
//     written since — GuestMemory's epoch bitmap names them — so a warm
//     restore costs O(working set) rather than O(image).
//
// Layout: captured pages are stored as one contiguous byte buffer plus a
// run-length *extent* table (first page, page count, byte offset).  Dirty
// pages cluster (the image is one run; the stack another), so a snapshot is
// typically a handful of extents, and capture, map and copy execute a few
// large memcpys instead of thousands of page-sized ones — no per-page heap
// allocation, no pointer chase.
//
// Resume into a pending input call: a snapshot taken by snapshot_get_data
// or snapshot_recv records the get_data or recv it was captured inside of
// (`Snapshot::pending`), before that call's bytes were copied in.  The
// runtime completes that call for each restore's own invocation — input or
// first received bytes written, result register set — before the first
// vmrun, so a warm function call enters the VM once and a warm connection
// takes its first request without an exit.
//
// Snapshots are immutable once taken and shared via shared_ptr: restores
// never mutate them, so one virtine's post-snapshot writes cannot leak into
// the next restore (isolation objective, Section 3.3).  Every capture gets a
// process-unique `generation`; the pool uses it to prove a parked shell
// holds exactly this snapshot before taking the delta path.
//
// COW extents: the captured pages live in an immutable, refcounted
// vhw::ExtentBuffer that shells *map* (GuestMemory's COW backing mode)
// instead of copy — N parked shells of one generation keep the image
// resident once, each charged only for the pages it privatized.
//
// Re-capture: a drifted warm service is re-snapshotted from one of its
// shells as another flat capture (CaptureOver): the parent's pages plus the
// shell's epoch-dirty pages, read from the shell, under a fresh generation.
// Every snapshot is one buffer, so every page lookup, restore and COW map
// reads one extent table.
#ifndef SRC_WASP_SNAPSHOT_H_
#define SRC_WASP_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/vhw/cpu.h"
#include "src/vhw/mem.h"

namespace wasp {

// An input call the vCPU was inside of when its snapshot was captured.
struct PendingCall {
  uint16_t port = 0;       // 0 = none; kHcGetData and kHcRecv are the ones accepted
  uint8_t result_reg = 0;  // the register that receives the call's result
};

struct Snapshot {
  using Extent = vhw::ExtentBuffer::Extent;

  vhw::ArchState cpu;
  // The call every restore completes before resuming `cpu` (port 0: none,
  // the vCPU resumes as captured).
  PendingCall pending;
  uint64_t mem_size = 0;
  // Process-unique capture id (never 0); keys the pool's affine shell lists.
  uint64_t generation = 0;
  // The captured pages.  Never null, never mutated; shells map it as their
  // COW base, so the buffer outlives the snapshot while any shell maps it.
  vhw::ExtentBufferRef extent;
  // FNV-1a over the captured bytes, set at capture time.  Restores can
  // verify it (RuntimeOptions::verify_restores) to catch a poisoned extent
  // buffer before laying it into a shell.
  uint64_t checksum = 0;

  // Bytes captured: what one live generation charges against the pool's
  // affine budget, independent of how many shells map it.
  uint64_t byte_size() const { return extent->byte_size(); }
  uint64_t page_count() const { return extent->page_count(); }

  // Pointer to the captured content of `page`, or nullptr when the snapshot
  // does not hold it (i.e. it is all-zero in the snapshot's view).
  const uint8_t* FindPage(uint64_t page) const { return extent->FindPage(page); }
};

using SnapshotRef = std::shared_ptr<const Snapshot>;

// Returns a fresh process-unique snapshot generation (>= 1).
uint64_t NextSnapshotGeneration();

// Captures `mem`'s dirty pages (extent-coalesced) plus `cpu` and the input
// call it is inside of (`pending`) into a new snapshot with a fresh
// generation.
SnapshotRef CaptureSnapshot(const vhw::GuestMemory& mem, const vhw::ArchState& cpu,
                            PendingCall pending = {});

// Re-captures a shell that holds `parent` plus drift into a new flat
// snapshot with a fresh generation: `parent`'s pages and `mem`'s
// *epoch-dirty* pages, all read from `mem`.  The caller guarantees `mem`
// deviates from `parent`'s view only in epoch-dirty pages (the affine shell
// contract), so the capture is `parent`'s view with the drift folded in; a
// page both hold is stored once.  The snapshot resumes at the parent's
// capture point (same CPU state and pending call): folding drift in is only
// sound for services whose warm state stays valid across invocations
// (caches, JIT output) — which is what re-capture is for.
SnapshotRef CaptureOver(const vhw::GuestMemory& mem, const Snapshot& parent);

// FNV-1a over an extent buffer's bytes.
uint64_t ChecksumExtentBytes(const vhw::ExtentBuffer& extent);

// Recomputes `snap`'s checksum and compares it against the recorded
// one.  False means the extent bytes were corrupted after capture (a
// "poisoned" snapshot) and the restore must not proceed.
bool VerifySnapshot(const Snapshot& snap);

// Replays every extent into `mem` (which the caller guarantees is clean /
// all-zero outside the extents).  Marks the written pages dirty and
// prefaults their EPT regions.  Returns the bytes copied (== byte_size()).
// The shell owns a private copy of the image: the paper's "simple
// snapshotting strategy".  No runtime path restores this way; it is the
// reference the two restore paths are tested against, and fig12 parks
// such shells to price full-copy residency.
uint64_t RestoreFullInto(const Snapshot& snap, vhw::GuestMemory* mem);

// Maps `snap`'s extent buffer into clean `mem` as a shared COW base and
// begins its epoch: the shell reads the image through the shared buffer and
// privatizes pages only on write.  Byte-identical to RestoreFullInto, but
// the shell is charged for private pages only.  Returns the shared bytes
// mapped (byte_size()).
uint64_t MapCowInto(const Snapshot& snap, vhw::GuestMemory* mem);

// Delta restore for a shell that maps `snap`'s extent buffer as its COW
// base (checked) and deviates from it only in its epoch-dirty pages: repairs
// exactly those pages back to the base (captured content copied back, pages
// the snapshot never held zeroed), which re-shares them, and begins a new
// epoch.  Returns the bytes repaired.
uint64_t RestoreDeltaInto(const Snapshot& snap, vhw::GuestMemory* mem);

// Keyed snapshot cache: one snapshot per virtine image key ("the first
// execution of a virtine must still go through the initialization process
// ... subsequent executions of the same virtine begin at the snapshot").
//
// The store is read-mostly: after the first invocation of a key, every
// subsequent invocation is a Find().  Lookups therefore take a shared lock
// and run concurrently; only the publishing and retiring calls (Put,
// PutIfAbsent, Take) take the lock exclusively.  Find returns the
// shared_ptr itself, so restores copy pages out of the immutable Snapshot
// without holding any store lock.
class SnapshotStore {
 public:
  SnapshotRef Find(const std::string& key) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = snaps_.find(key);
    return it == snaps_.end() ? nullptr : it->second;
  }

  void Put(const std::string& key, SnapshotRef snap) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    snaps_[key] = std::move(snap);
  }

  // Publishes `snap` only if `key` has no snapshot yet; returns the snapshot
  // that is in the store afterwards (the winner).  Concurrent cold runs of
  // one key race their first-capture Put: exactly one wins, and the losers
  // learn it atomically so they never park shells under a generation nobody
  // will ever look up again.
  SnapshotRef PutIfAbsent(const std::string& key, SnapshotRef snap) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return snaps_.try_emplace(key, std::move(snap)).first->second;
  }

  // Removes and returns `key`'s snapshot (nullptr when absent).  The
  // retirement path uses the returned ref's generation to eagerly reclaim
  // the pool's parked affine shells, so a re-captured key never strands the
  // old generation's memory.
  SnapshotRef Take(const std::string& key) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = snaps_.find(key);
    if (it == snaps_.end()) {
      return nullptr;
    }
    SnapshotRef old = std::move(it->second);
    snaps_.erase(it);
    return old;
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return snaps_.size();
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, SnapshotRef> snaps_;
};

}  // namespace wasp

#endif  // SRC_WASP_SNAPSHOT_H_
