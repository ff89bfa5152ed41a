#include "src/vhw/mem.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/base/log.h"

namespace vhw {

const uint8_t* ExtentBuffer::FindPage(uint64_t page) const {
  // Extents are sorted by first_page: binary-search the run containing it.
  auto it = std::upper_bound(
      extents.begin(), extents.end(), page,
      [](uint64_t p, const Extent& e) { return p < e.first_page; });
  if (it == extents.begin()) {
    return nullptr;
  }
  --it;
  if (page >= it->first_page + it->page_count) {
    return nullptr;
  }
  return bytes.data() + it->byte_offset + ((page - it->first_page) << kPageBits);
}

GuestMemory::GuestMemory(uint64_t size)
    : size_((size + kPageSize - 1) & ~(kPageSize - 1)) {
  // Reserve the guard pages with the guest pages, then open only the latter.
  // The kernel backs a page on its first touch, with zeroes.
  void* base = mmap(nullptr, size_ + 2 * kPageSize, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  VB_CHECK(base != MAP_FAILED, "guest memory mmap of " << size_ << " B failed");
  bytes_ = static_cast<uint8_t*>(base) + kPageSize;
  VB_CHECK(mprotect(bytes_, size_, PROT_READ | PROT_WRITE) == 0,
           "guest memory mprotect failed");
  // Advisory: a host whose transparent huge pages are always on would
  // otherwise back a first touch with 2 MB.
  madvise(bytes_, size_, MADV_NOHUGEPAGE);
  dirty_.assign((NumPages() + 63) / 64, 0);
  epoch_.assign(dirty_.size(), 0);
  const uint64_t regions = (size_ + kRegionSize - 1) >> kRegionBits;
  ept_.assign((regions + 63) / 64, 0);
}

GuestMemory::~GuestMemory() { munmap(bytes_ - kPageSize, size_ + 2 * kPageSize); }

vbase::Status GuestMemory::Read(uint64_t gpa, void* dst, uint64_t len) const {
  if (!Contains(gpa, len)) {
    return vbase::OutOfRange("guest read out of bounds");
  }
  std::memcpy(dst, bytes_ + gpa, len);
  return vbase::Status::Ok();
}

vbase::Status GuestMemory::Write(uint64_t gpa, const void* src, uint64_t len) {
  if (!Contains(gpa, len)) {
    return vbase::OutOfRange("guest write out of bounds");
  }
  if (len == 0) {
    return vbase::Status::Ok();
  }
  std::memcpy(bytes_ + gpa, src, len);
  MarkDirty(gpa, len);
  // Host-side writes prefault the EPT for the touched regions (the
  // hypervisor's image copy populates mappings before the guest runs, so
  // the guest does not eat EPT-violation charges for its own image).
  for (uint64_t r = gpa >> kRegionBits; r <= (gpa + len - 1) >> kRegionBits; ++r) {
    ept_[r >> 6] |= 1ULL << (r & 63);
  }
  return vbase::Status::Ok();
}

uint64_t GuestMemory::CountDirtyPages() const {
  uint64_t n = 0;
  for (uint64_t w : dirty_) {
    n += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  return n;
}

uint64_t GuestMemory::ZeroDirtyPages() {
  // Word-granular scan: a zero word skips 64 clean pages in one compare; set
  // bits are peeled with ctz so work stays proportional to dirty pages.
  // Pages are zeroed by memset, not returned by MADV_DONTNEED: a pooled
  // shell's next tenant touches them again, and the refault costs more
  // than the memset at every dirty-run length (1 to 512 pages measured).
  uint64_t zeroed = 0;
  for (size_t w = 0; w < dirty_.size(); ++w) {
    uint64_t word = dirty_[w];
    if (word == 0) {
      continue;
    }
    while (word != 0) {
      const uint64_t p = static_cast<uint64_t>(w) * 64 +
                         static_cast<uint64_t>(__builtin_ctzll(word));
      word &= word - 1;
      std::memset(bytes_ + (p << kPageBits), 0, kPageSize);
      zeroed += kPageSize;
    }
    dirty_[w] = 0;
    epoch_[w] = 0;  // the epoch bitmap is a subset of the dirty bitmap
  }
  last_dirty_page_ = kNoPage;
  // A cleaned shell is all-zero plain memory: its share of any mapped base
  // ends here (the base's refcount drops; the buffer dies with its last
  // sharer).
  cow_base_ = nullptr;
  return zeroed;
}

void GuestMemory::BeginEpoch() {
  std::fill(epoch_.begin(), epoch_.end(), 0);
  last_dirty_page_ = kNoPage;  // its invariant spans both bitmaps
}

uint64_t GuestMemory::CountEpochDirtyPages() const {
  uint64_t n = 0;
  for (uint64_t w : epoch_) {
    n += static_cast<uint64_t>(__builtin_popcountll(w));
  }
  return n;
}

void GuestMemory::MapCowBase(ExtentBufferRef base) {
  VB_CHECK(base != nullptr, "MapCowBase requires a base");
  VB_CHECK(CountDirtyPages() == 0, "MapCowBase requires clean memory");
  VB_CHECK(base->end_page() <= NumPages(), "COW base exceeds guest memory");
  // Materialize the buffer's pages.  Write() gives the exact restore
  // semantics the mapped view must be indistinguishable from: pages marked
  // dirty, EPT regions prefaulted.  These copies are simulator-internal
  // cache fills — the caller charges the (small, per-extent) modeled cost
  // of a mapping, not a memcpy of the image.
  for (const ExtentBuffer::Extent& e : base->extents) {
    vbase::Status st = Write(e.first_page << kPageBits, base->bytes.data() + e.byte_offset,
                             e.page_count << kPageBits);
    VB_CHECK(st.ok(), "COW map write failed: " << st.ToString());
  }
  // Adopting begins the epoch *after* the fill: the materialization writes
  // above must not count as privatization.
  AdoptCowBase(std::move(base));
}

void GuestMemory::AdoptCowBase(ExtentBufferRef base) {
  VB_CHECK(base != nullptr, "AdoptCowBase requires a base");
  cow_base_ = std::move(base);
  BeginEpoch();
}

uint64_t GuestMemory::RepairToBase() {
  VB_CHECK(cow_base_ != nullptr, "RepairToBase requires a mapped base");
  uint64_t repaired = 0;
  for (size_t w = 0; w < epoch_.size(); ++w) {
    for (uint64_t word = epoch_[w]; word != 0; word &= word - 1) {
      const uint64_t page = static_cast<uint64_t>(w) * 64 +
                            static_cast<uint64_t>(__builtin_ctzll(word));
      const uint8_t* src = cow_base_->FindPage(page);
      if (src != nullptr) {
        std::memcpy(bytes_ + (page << kPageBits), src, kPageSize);
      } else {
        std::memset(bytes_ + (page << kPageBits), 0, kPageSize);
      }
      repaired += kPageSize;
    }
  }
  BeginEpoch();
  return repaired;
}

}  // namespace vhw
