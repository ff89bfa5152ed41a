// Guest physical memory with dirty-page, snapshot-epoch, and EPT first-touch
// tracking.
//
// Dirty tracking (4 KB granularity) lets the Wasp pool clean a released
// virtine shell by zeroing only the pages it touched (the paper's
// `vm.clean()`), and lets snapshot restores copy only what changed.
// Epoch tracking is a second, independently resettable dirty bitmap.  A
// copy-on-write shell begins an epoch whenever its memory equals its mapped
// base (map, adopt, repair), so its epoch-dirty pages are exactly the pages
// it privatized: what it is charged while parked, and what the next restore
// of the *same* snapshot repairs (delta restore) instead of re-laying the
// whole image.
// EPT first-touch tracking (2 MB granularity) feeds the cost model: the
// first access to a region models a KVM EPT-violation exit; a pooled shell
// that is reused keeps its EPT, which is precisely why reuse is cheap.
#ifndef SRC_VHW_MEM_H_
#define SRC_VHW_MEM_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/status.h"

namespace vhw {

inline constexpr uint64_t kPageBits = 12;
inline constexpr uint64_t kPageSize = 1ULL << kPageBits;  // 4 KB
inline constexpr uint64_t kRegionBits = 21;
inline constexpr uint64_t kRegionSize = 1ULL << kRegionBits;  // 2 MB

// An immutable, refcounted page store: the backing a copy-on-write guest
// memory maps instead of copying.  Pages are held as run-length extents
// (first page, page count, byte offset into one contiguous buffer), exactly
// the layout snapshots capture in.
//
// Buffers are shared via shared_ptr (ExtentBufferRef) and never mutated
// after construction: shells and snapshots hold references to the same
// bytes, so one generation's image is resident once no matter how many
// shells map it.  The refcount *is* the lifetime rule — a buffer stays
// alive while any shell maps it, even after its snapshot generation
// retires.
class ExtentBuffer {
 public:
  struct Extent {
    uint64_t first_page = 0;
    uint64_t page_count = 0;
    uint64_t byte_offset = 0;
  };

  std::vector<Extent> extents;  // sorted by first_page, non-overlapping
  std::vector<uint8_t> bytes;   // concatenated extent payloads

  // Pointer to `page`'s captured content, or nullptr when no extent holds
  // it (the page is all-zero in the buffer's view).
  const uint8_t* FindPage(uint64_t page) const;

  uint64_t byte_size() const { return bytes.size(); }
  uint64_t page_count() const { return bytes.size() >> kPageBits; }
  // One past the highest covered page.
  uint64_t end_page() const {
    return extents.empty() ? 0 : extents.back().first_page + extents.back().page_count;
  }
};

using ExtentBufferRef = std::shared_ptr<const ExtentBuffer>;

class GuestMemory {
 public:
  // Maps `size` bytes of guest-physical memory (rounded up to a whole page):
  // zero, page-aligned, guarded, resident only once touched.  The bytes are
  // one anonymous private mapping with a PROT_NONE page on each side, so an
  // access past either end faults in every build; huge pages are declined so
  // host residency follows the guest's 4 KB pages.
  explicit GuestMemory(uint64_t size);
  ~GuestMemory();
  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  uint64_t size() const { return size_; }
  uint8_t* data() { return bytes_; }
  const uint8_t* data() const { return bytes_; }

  // Bounds check helper.
  bool Contains(uint64_t gpa, uint64_t len) const {
    return gpa + len >= gpa && gpa + len <= size_;
  }

  // Bulk accessors with bounds checks; Write marks dirty pages.
  vbase::Status Read(uint64_t gpa, void* dst, uint64_t len) const;
  vbase::Status Write(uint64_t gpa, const void* src, uint64_t len);

  // Hot-path unchecked accessors for the CPU (caller checked bounds).
  template <typename T>
  T LoadRaw(uint64_t gpa) const {
    T v;
    std::memcpy(&v, bytes_ + gpa, sizeof(T));
    return v;
  }
  template <typename T>
  void StoreRaw(uint64_t gpa, T v) {
    std::memcpy(bytes_ + gpa, &v, sizeof(T));
    // Interpreter stores cluster heavily (stack, locals): skip the bitmap
    // read-modify-write when this store hits the page the previous store
    // already dirtied.  A straddling store always takes the slow path.
    const uint64_t first = gpa >> kPageBits;
    const uint64_t last = (gpa + sizeof(T) - 1) >> kPageBits;
    if (first == last_dirty_page_ && last == first) {
      return;
    }
    MarkDirty(gpa, sizeof(T));
    last_dirty_page_ = last;
  }

  // --- Dirty tracking ------------------------------------------------------
  void MarkDirty(uint64_t gpa, uint64_t len) {
    const uint64_t first = gpa >> kPageBits;
    const uint64_t last = (gpa + len - 1) >> kPageBits;
    for (uint64_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= 1ULL << (p & 63);
      epoch_[p >> 6] |= 1ULL << (p & 63);
    }
  }
  bool PageDirty(uint64_t page) const { return (dirty_[page >> 6] >> (page & 63)) & 1; }
  uint64_t NumPages() const { return size_ >> kPageBits; }
  uint64_t CountDirtyPages() const;
  // Zeroes every dirty page and clears the dirty bitmap (pool Clean()) with
  // a word-granular bitmap scan: 64 clean pages are skipped per iteration.
  // Drops any mapped COW base (a cleaned shell shares nothing).  Returns the
  // number of bytes zeroed.
  uint64_t ZeroDirtyPages();

  // --- Snapshot epoch ------------------------------------------------------
  // Starts a new epoch: the epoch bitmap forgets all prior writes.  The
  // caller's contract is that memory at this instant matches some reference
  // state (a freshly laid-down snapshot); the epoch-dirty pages then name
  // exactly the pages that deviate from it.
  void BeginEpoch();
  bool EpochPageDirty(uint64_t page) const {
    return (epoch_[page >> 6] >> (page & 63)) & 1;
  }
  uint64_t CountEpochDirtyPages() const;

  // --- EPT first-touch model ----------------------------------------------
  // Returns true when this is the first access to the 2 MB region containing
  // `gpa` since this memory was created (a fresh VM); marks it touched.
  bool TouchRegion(uint64_t gpa) {
    const uint64_t r = gpa >> kRegionBits;
    const uint64_t mask = 1ULL << (r & 63);
    if ((ept_[r >> 6] & mask) != 0) {
      return false;
    }
    ept_[r >> 6] |= mask;
    return true;
  }

  // --- Copy-on-write backing ----------------------------------------------
  // A COW-backed memory maps a shared, immutable ExtentBuffer read-only and
  // privatizes a page on its first write.  The mapping is a modeled
  // construct, like every cost in this machine: the flat `bytes_` cache
  // materializes the buffer's pages eagerly (uncharged simulator-side
  // copies), while the *accounting* — what a parked shell costs, what a
  // restore must repair — follows the privatized pages.  Each of the three
  // calls below leaves memory equal to the base and begins the epoch, so
  // the privatized pages are the epoch-dirty pages by construction.
  //
  // Maps `base` into clean (all-zero) memory: materializes every covered
  // page, marks it dirty, and prefaults its EPT region — byte-identical to
  // laying the snapshot down by copy — then adopts it.  The caller charges
  // the modeled cost of the map.
  void MapCowBase(ExtentBufferRef base);
  // Starts COW tracking against `base` when memory already equals the
  // buffer's view byte-for-byte: at capture and at re-capture (memory *is*
  // what was just captured).  No copies; begins the epoch.
  void AdoptCowBase(ExtentBufferRef base);
  // Repairs the epoch-dirty pages back to the base view (copies covered
  // pages from the base, zeroes uncovered ones) and begins the epoch, so
  // memory equals the base again.  Returns the bytes repaired.  The pages
  // stay dirty: a later clean still re-zeroes them.
  uint64_t RepairToBase();
  bool HasCowBase() const { return cow_base_ != nullptr; }
  const ExtentBufferRef& cow_base() const { return cow_base_; }

 private:
  static constexpr uint64_t kNoPage = ~0ULL;

  uint8_t* bytes_ = nullptr;  // first guest page; a guard page on each side
  uint64_t size_ = 0;
  std::vector<uint64_t> dirty_;  // 1 bit per 4 KB page, since creation/clean
  std::vector<uint64_t> epoch_;  // 1 bit per 4 KB page, since BeginEpoch
  std::vector<uint64_t> ept_;    // 1 bit per 2 MB region
  // The mapped COW base (nullptr = plain memory).
  ExtentBufferRef cow_base_;
  // Page dirtied by the most recent StoreRaw; invariant: when != kNoPage its
  // bit is set in *both* the dirty and epoch bitmaps, so the hot path may
  // skip re-marking it.  Cleared whenever either bitmap is cleared.
  uint64_t last_dirty_page_ = kNoPage;
};

}  // namespace vhw

#endif  // SRC_VHW_MEM_H_
