// Guest physical memory with dirty-page, snapshot-epoch, and EPT first-touch
// tracking.
//
// Dirty tracking (4 KB granularity) lets the Wasp pool clean a released
// virtine shell by zeroing only the pages it touched (the paper's
// `vm.clean()`), and lets snapshot restores copy only what changed.
// Epoch tracking is a second, independently resettable dirty bitmap: the
// snapshot engine begins an epoch right after laying a snapshot into a
// shell, so the next restore of the *same* snapshot repairs only the pages
// written since (delta restore) instead of re-copying the whole image.
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
  // Allocates `size` bytes of zeroed guest-physical memory (rounded up to a
  // whole page).
  explicit GuestMemory(uint64_t size);

  uint64_t size() const { return bytes_.size(); }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  // Bounds check helper.
  bool Contains(uint64_t gpa, uint64_t len) const {
    return gpa + len >= gpa && gpa + len <= bytes_.size();
  }

  // Bulk accessors with bounds checks; Write marks dirty pages.
  vbase::Status Read(uint64_t gpa, void* dst, uint64_t len) const;
  vbase::Status Write(uint64_t gpa, const void* src, uint64_t len);

  // Hot-path unchecked accessors for the CPU (caller checked bounds).
  template <typename T>
  T LoadRaw(uint64_t gpa) const {
    T v;
    std::memcpy(&v, bytes_.data() + gpa, sizeof(T));
    return v;
  }
  template <typename T>
  void StoreRaw(uint64_t gpa, T v) {
    std::memcpy(bytes_.data() + gpa, &v, sizeof(T));
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
    if (cow_base_ != nullptr) {
      // COW write-privatization: the first write to a page breaks its share
      // of the mapped base.  Privatized pages are what a parked shell is
      // charged for — everything else stays an uncounted view of the base.
      for (uint64_t p = first; p <= last; ++p) {
        const uint64_t mask = 1ULL << (p & 63);
        if ((cow_private_[p >> 6] & mask) == 0) {
          cow_private_[p >> 6] |= mask;
          ++cow_private_count_;
        }
      }
    }
  }
  bool PageDirty(uint64_t page) const { return (dirty_[page >> 6] >> (page & 63)) & 1; }
  uint64_t NumPages() const { return bytes_.size() >> kPageBits; }
  uint64_t CountDirtyPages() const;
  // Zeroes every dirty page and clears the dirty bitmap (pool Clean()) with
  // a word-granular bitmap scan: 64 clean pages are skipped per iteration.
  // Drops any mapped COW base (a cleaned shell shares nothing).  Returns the
  // number of bytes zeroed.
  uint64_t ZeroDirtyPages();

  // --- Snapshot epoch ------------------------------------------------------
  // Starts a new epoch: the epoch bitmap forgets all prior writes.  The
  // caller's contract is that memory at this instant matches some reference
  // state (a freshly laid-down snapshot); CollectDirtySince then names
  // exactly the pages that deviate from it.
  void BeginEpoch();
  bool EpochPageDirty(uint64_t page) const {
    return (epoch_[page >> 6] >> (page & 63)) & 1;
  }
  uint64_t CountEpochDirtyPages() const;
  // Pages written since BeginEpoch, in ascending order.
  std::vector<uint64_t> CollectDirtySince() const;

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
  // privatizes pages on first write (MarkDirty above).  The mapping is a
  // modeled construct, like every cost in this machine: the flat `bytes_`
  // cache materializes the buffer's pages eagerly (uncharged simulator-side
  // copies), while the *accounting* — what a parked shell costs, what a
  // restore must repair — follows the private-page bitmap.
  //
  // Maps `base` into clean (all-zero) memory: materializes every covered
  // page, marks it dirty, and prefaults its EPT region — byte-identical to a
  // full snapshot restore — then starts COW tracking with zero private
  // pages.  The caller charges the modeled cost of the map.
  void MapCowBase(ExtentBufferRef base);
  // Starts COW tracking against `base` when memory already equals the
  // buffer's view byte-for-byte: at capture and at re-capture (memory *is*
  // what was just captured).  No copies; private pages reset to zero.
  void AdoptCowBase(ExtentBufferRef base);
  // Repairs the privatized pages back to the base view (copy covered pages
  // from the base, zero uncovered ones) so memory equals the base again.
  // `pages` is the epoch-dirty set — identical to the private set whenever
  // the epoch began at the last map/adopt/repair point.  Clears private
  // bits; dirty/epoch handling matches a delta restore (caller re-begins the
  // epoch).
  void RepairPagesToBase(const std::vector<uint64_t>& pages);
  bool HasCowBase() const { return cow_base_ != nullptr; }
  const ExtentBufferRef& cow_base() const { return cow_base_; }
  uint64_t CowPrivatePages() const { return cow_private_count_; }
  uint64_t CowPrivateBytes() const { return cow_private_count_ << kPageBits; }

 private:
  static constexpr uint64_t kNoPage = ~0ULL;

  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> dirty_;  // 1 bit per 4 KB page, since creation/clean
  std::vector<uint64_t> epoch_;  // 1 bit per 4 KB page, since BeginEpoch
  std::vector<uint64_t> ept_;    // 1 bit per 2 MB region
  // COW state: the mapped base (nullptr = plain memory) and the pages
  // written since it was mapped/adopted (allocated lazily on first map).
  // Invariant: a private page's bit is also set in dirty_ and epoch_ — the
  // same MarkDirty sets all three — except across RepairPagesToBase/
  // BeginEpoch boundaries, where private and epoch reset together.
  ExtentBufferRef cow_base_;
  std::vector<uint64_t> cow_private_;  // 1 bit per 4 KB page, since map
  uint64_t cow_private_count_ = 0;
  // Page dirtied by the most recent StoreRaw; invariant: when != kNoPage its
  // bit is set in *both* the dirty and epoch bitmaps (and the COW private
  // bitmap when a base is mapped), so the hot path may skip re-marking it.
  // Cleared whenever any of those bitmaps is cleared.
  uint64_t last_dirty_page_ = kNoPage;
};

}  // namespace vhw

#endif  // SRC_VHW_MEM_H_
