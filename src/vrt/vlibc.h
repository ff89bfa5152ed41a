// vlibc — the virtine-specific C library (the paper's newlib port analogue,
// Section 5.3).
//
// vlibc is written in the vcc dialect and concatenated with user programs
// before compilation; the compiler's call-graph cut drops everything the
// virtine does not use, keeping images small.  Its "system calls" forward to
// Wasp hypercalls; each port is streamed in from wasp::kHypercalls
// (src/wasp/abi.h) as the integer literal an immediate operand needs.
//
// Provided: a wrapper for each hypercall but snapshot_get_data and
// snapshot_recv, which guests issue inline (stat's wrapper is stat_size),
// string and memory routines
// (strlen/strcmp/strcpy/strcat/memcpy/memset/memcmp/atoi/itoa/uitoa_hex),
// console printing helpers (puts/print_int), and a bump-pointer malloc with
// a trivial free list.
#ifndef SRC_VRT_VLIBC_H_
#define SRC_VRT_VLIBC_H_

#include <cstdint>
#include <string>

namespace vrt {

// Where malloc's heap starts (256 KB).  A guest image must end at or below
// it: the heap grows up from here and would overwrite the image's tail.
inline constexpr uint64_t kVlibcHeapBase = 262144;

// The vlibc source text (vcc dialect).  Prepend to user programs.
const std::string& VlibcSource();

}  // namespace vrt

#endif  // SRC_VRT_VLIBC_H_
