#include "src/wasp/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/base/log.h"
#include "src/wasp/abi.h"

namespace wasp {
namespace {

std::atomic<uint64_t> g_generation{1};

// Copies `mem`'s pages named by `pages` (ascending) into a fresh extent
// buffer, coalescing consecutive pages into runs.
std::shared_ptr<vhw::ExtentBuffer> BuildExtents(const vhw::GuestMemory& mem,
                                                const std::vector<uint64_t>& pages) {
  auto buffer = std::make_shared<vhw::ExtentBuffer>();
  buffer->bytes.resize(pages.size() << vhw::kPageBits);
  uint64_t offset = 0;
  size_t i = 0;
  while (i < pages.size()) {
    size_t run_end = i + 1;
    while (run_end < pages.size() && pages[run_end] == pages[run_end - 1] + 1) {
      ++run_end;
    }
    vhw::ExtentBuffer::Extent extent;
    extent.first_page = pages[i];
    extent.page_count = run_end - i;
    extent.byte_offset = offset;
    const uint64_t nbytes = extent.page_count << vhw::kPageBits;
    std::memcpy(buffer->bytes.data() + offset,
                mem.data() + (pages[i] << vhw::kPageBits), nbytes);
    buffer->extents.push_back(extent);
    offset += nbytes;
    i = run_end;
  }
  VB_CHECK(offset == buffer->bytes.size(), "snapshot capture sizing mismatch");
  return buffer;
}

// Captures the pages of `mem` that `take(page)` selects, plus `cpu` and
// `pending`, under a fresh generation; the caller sets mem_size.
template <typename Take>
std::shared_ptr<Snapshot> Capture(const vhw::GuestMemory& mem, const vhw::ArchState& cpu,
                                  PendingCall pending, Take take) {
  VB_CHECK(pending.port == 0 || pending.port == kHcGetData || pending.port == kHcRecv,
           "a snapshot can only resume into a pending get_data or recv");
  auto snap = std::make_shared<Snapshot>();
  snap->cpu = cpu;
  snap->pending = pending;
  snap->generation = NextSnapshotGeneration();
  std::vector<uint64_t> pages;
  for (uint64_t p = 0; p < mem.NumPages(); ++p) {
    if (take(p)) {
      pages.push_back(p);
    }
  }
  snap->extent = BuildExtents(mem, pages);
  snap->checksum = ChecksumExtentBytes(*snap->extent);
  return snap;
}

}  // namespace

uint64_t NextSnapshotGeneration() { return g_generation.fetch_add(1); }

uint64_t ChecksumExtentBytes(const vhw::ExtentBuffer& extent) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const uint8_t b : extent.bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

bool VerifySnapshot(const Snapshot& snap) {
  return snap.extent != nullptr && ChecksumExtentBytes(*snap.extent) == snap.checksum;
}

SnapshotRef CaptureSnapshot(const vhw::GuestMemory& mem, const vhw::ArchState& cpu,
                            PendingCall pending) {
  auto snap = Capture(mem, cpu, pending, [&](uint64_t p) { return mem.PageDirty(p); });
  snap->mem_size = mem.size();
  return snap;
}

SnapshotRef CaptureOver(const vhw::GuestMemory& mem, const Snapshot& parent) {
  VB_CHECK(mem.size() >= parent.mem_size, "re-capture memory smaller than its parent");
  // The resume point stays the parent's: re-capture folds memory drift in,
  // not a new execution state.
  auto snap = Capture(mem, parent.cpu, parent.pending, [&](uint64_t p) {
    return mem.EpochPageDirty(p) || parent.FindPage(p) != nullptr;
  });
  // The drift may touch pages beyond the parent's span (the shell's memory
  // can be larger): mem_size must cover every captured page so a restore
  // target is never too small for it.
  snap->mem_size = std::max(parent.mem_size, snap->extent->end_page() << vhw::kPageBits);
  return snap;
}

uint64_t RestoreFullInto(const Snapshot& snap, vhw::GuestMemory* mem) {
  // Write marks the pages dirty (so a later pool clean re-zeroes them) and
  // prefaults their EPT regions (the hypervisor's copy populates mappings
  // before the guest runs).
  for (const Snapshot::Extent& extent : snap.extent->extents) {
    vbase::Status st = mem->Write(extent.first_page << vhw::kPageBits,
                                  snap.extent->bytes.data() + extent.byte_offset,
                                  extent.page_count << vhw::kPageBits);
    VB_CHECK(st.ok(), "snapshot restore write failed: " << st.ToString());
  }
  return snap.byte_size();
}

uint64_t MapCowInto(const Snapshot& snap, vhw::GuestMemory* mem) {
  mem->MapCowBase(snap.extent);
  return snap.byte_size();
}

uint64_t RestoreDeltaInto(const Snapshot& snap, vhw::GuestMemory* mem) {
  // Repair only the pages written since the snapshot was laid down: copy
  // captured pages back, zero pages the snapshot never held (one tenant's
  // writes outside the image must not survive into the next invocation).
  // The repair re-shares the privatized pages, dropping the shell's resident
  // charge back to zero.
  VB_CHECK(mem->cow_base() == snap.extent,
           "delta restore needs a shell that maps the snapshot's extent buffer");
  return mem->RepairToBase();
}

}  // namespace wasp
