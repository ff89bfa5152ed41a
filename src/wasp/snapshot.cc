#include "src/wasp/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/base/log.h"
#include "src/wasp/abi.h"

namespace wasp {
namespace {

std::atomic<uint64_t> g_generation{1};

// A page of zeros for repairing delta pages the snapshot never captured.
constexpr uint8_t kZeroPage[vhw::kPageSize] = {};

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
  VB_CHECK(pending.port == 0 || pending.port == kHcGetData,
           "a snapshot can only resume into a pending get_data");
  auto snap = std::make_shared<Snapshot>();
  snap->cpu = cpu;
  snap->pending = pending;
  snap->mem_size = mem.size();
  snap->generation = NextSnapshotGeneration();
  std::vector<uint64_t> pages;
  pages.reserve(mem.CountDirtyPages());
  for (uint64_t p = 0; p < mem.NumPages(); ++p) {
    if (mem.PageDirty(p)) {
      pages.push_back(p);
    }
  }
  snap->extent = BuildExtents(mem, pages);
  snap->checksum = ChecksumExtentBytes(*snap->extent);
  return snap;
}

SnapshotRef CaptureDeltaSnapshot(const vhw::GuestMemory& mem, const Snapshot& parent) {
  VB_CHECK(mem.size() >= parent.mem_size, "delta capture memory smaller than parent");
  auto snap = std::make_shared<Snapshot>();
  // Resume point stays the parent's: the chain folds memory drift in, not a
  // new execution state.
  snap->cpu = parent.cpu;
  snap->pending = parent.pending;
  snap->generation = NextSnapshotGeneration();
  snap->parent_generation = parent.generation;
  auto buffer = BuildExtents(mem, mem.CollectDirtySince());
  buffer->parent = parent.extent;
  // The delta may touch pages beyond the parent's captured span (the donor
  // shell's memory can be larger): mem_size must cover the whole chain so a
  // restore target is never too small for it.
  snap->mem_size = std::max(parent.mem_size, buffer->end_page() << vhw::kPageBits);
  snap->extent = std::move(buffer);
  snap->checksum = ChecksumExtentBytes(*snap->extent);
  return snap;
}

SnapshotRef FlattenSnapshot(const Snapshot& snap) {
  auto flat = std::make_shared<Snapshot>(snap);
  flat->extent = vhw::FlattenChain(snap.extent);
  flat->parent_generation = 0;
  // The flattened layer holds different bytes (the collapsed chain view).
  flat->checksum = ChecksumExtentBytes(*flat->extent);
  return flat;
}

uint64_t RestoreFullInto(const Snapshot& snap, vhw::GuestMemory* mem) {
  // Replay the chain root first so a child's pages land on top of its
  // ancestor's.  Write marks the pages dirty (so a later pool clean
  // re-zeroes them) and prefaults their EPT regions (the hypervisor's copy
  // populates mappings before the guest runs).
  std::vector<const vhw::ExtentBuffer*> layers;
  for (const vhw::ExtentBuffer* layer = snap.extent.get(); layer != nullptr;
       layer = layer->parent.get()) {
    layers.push_back(layer);
  }
  uint64_t copied = 0;
  for (size_t i = layers.size(); i-- > 0;) {
    for (const Snapshot::Extent& extent : layers[i]->extents) {
      vbase::Status st = mem->Write(extent.first_page << vhw::kPageBits,
                                    layers[i]->bytes.data() + extent.byte_offset,
                                    extent.page_count << vhw::kPageBits);
      VB_CHECK(st.ok(), "snapshot restore write failed: " << st.ToString());
    }
    copied += layers[i]->byte_size();
  }
  return copied;
}

uint64_t MapCowInto(const Snapshot& snap, vhw::GuestMemory* mem) {
  mem->MapCowBase(snap.extent);
  return snap.chain_byte_size();
}

uint64_t RestoreDeltaInto(const Snapshot& snap, vhw::GuestMemory* mem) {
  // Repair only the pages written since the snapshot was laid down: copy
  // captured pages back, zero pages the snapshot never held (one tenant's
  // writes outside the image must not survive into the next invocation).
  const std::vector<uint64_t> pages = mem->CollectDirtySince();
  if (mem->HasCowBase() && mem->cow_base() == snap.extent) {
    // COW-backed shell parked under this very snapshot: the repair
    // re-shares the privatized pages, dropping the shell's resident charge
    // back to zero.
    mem->RepairPagesToBase(pages);
    return static_cast<uint64_t>(pages.size()) << vhw::kPageBits;
  }
  for (const uint64_t page : pages) {
    const uint8_t* src = snap.FindPage(page);
    vbase::Status st = mem->Write(page << vhw::kPageBits, src != nullptr ? src : kZeroPage,
                                  vhw::kPageSize);
    VB_CHECK(st.ok(), "snapshot delta restore write failed: " << st.ToString());
  }
  return static_cast<uint64_t>(pages.size()) << vhw::kPageBits;
}

}  // namespace wasp
