// Build-time ABI invariants, checked statically in one cheap TU.
//
// The hypercall port numbers and the guest physical layout in src/wasp/abi.h
// are a wire contract between the compiler (vcc emits `out PORT, r0`
// sequences), the runtime (wasp dispatches on the port number), and every
// snapshot ever taken (snapshots bake in the guest layout).  The image header
// defaults in src/isa/image.h are likewise baked into boot stubs.  A refactor
// that silently renumbers any of these corrupts existing images and
// snapshots, so this TU fails the build the moment one moves.
#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "src/isa/image.h"
#include "src/wasp/abi.h"

namespace {

// --- Hypercall port numbers (wire contract with vcc-emitted code) -----------
static_assert(wasp::kHcExit == 1, "exit port is baked into every CRT stub");
static_assert(wasp::kHcConsole == 2);
static_assert(wasp::kHcSnapshot == 3);
static_assert(wasp::kHcGetData == 4);
static_assert(wasp::kHcReturnData == 5);
static_assert(wasp::kHcSnapshotGetData == 6, "baked into the managed guests' images");
static_assert(wasp::kHcReturnExit == 7);
static_assert(wasp::kHcSnapshotRecv == 8, "baked into the keep-alive guest's image");
static_assert(wasp::kHcOpen == 16);
static_assert(wasp::kHcRead == 17);
static_assert(wasp::kHcWrite == 18);
static_assert(wasp::kHcClose == 19);
static_assert(wasp::kHcStat == 20);
static_assert(wasp::kHcReadFile == 21);
static_assert(wasp::kHcSend == 32);
static_assert(wasp::kHcRecv == 33);
static_assert(wasp::kHcSendRecv == 34);

// All ports must fit in the 64-bit policy mask, 1 bit per port.
static_assert(wasp::kMaxHypercall == 64);
static_assert(wasp::kHcRecv < wasp::kMaxHypercall);
static_assert(wasp::kHcSendRecv < wasp::kMaxHypercall);
static_assert(std::is_same_v<wasp::HypercallMask, uint64_t>);

// --- Policy masks ------------------------------------------------------------
static_assert(wasp::kPolicyDenyAll == 0, "virtine keyword means default-deny");
static_assert(wasp::kPolicyAllowAll == ~0ULL);
static_assert(wasp::kPolicyFileIo ==
              (wasp::MaskOf(wasp::kHcOpen) | wasp::MaskOf(wasp::kHcRead) |
               wasp::MaskOf(wasp::kHcWrite) | wasp::MaskOf(wasp::kHcClose) |
               wasp::MaskOf(wasp::kHcStat) | wasp::MaskOf(wasp::kHcReadFile)));
static_assert(wasp::kPolicyStream == (wasp::MaskOf(wasp::kHcSend) | wasp::MaskOf(wasp::kHcRecv) |
                                      wasp::MaskOf(wasp::kHcSendRecv)));
static_assert(wasp::kPolicyManaged == (wasp::MaskOf(wasp::kHcSnapshot) |
                                       wasp::MaskOf(wasp::kHcGetData) |
                                       wasp::MaskOf(wasp::kHcReturnData)));
// File I/O and stream sets are disjoint and neither implicitly grants exit.
static_assert((wasp::kPolicyFileIo & wasp::kPolicyStream) == 0);
static_assert((wasp::kPolicyFileIo & wasp::MaskOf(wasp::kHcExit)) == 0);

// --- Guest physical layout ---------------------------------------------------
// arg page < boot info < real-mode stack < image load, and the arg page must
// not overrun the boot info block.
static_assert(wasp::kArgPageAddr == 0x0);
static_assert(wasp::kBootInfoAddr == 0x500);
static_assert(wasp::kRealModeStackTop == 0x7000);
static_assert(wasp::kImageLoadAddr == 0x8000, "paper: images load at 0x8000");
static_assert(wasp::kArgPageAddr + wasp::kArgPageSize <= wasp::kBootInfoAddr,
              "arg page must end before the boot info block");
static_assert(wasp::kArgBufOffset < wasp::kArgPageSize);
static_assert(wasp::kBootFlagSnapshot == 1);

// --- Image header defaults ---------------------------------------------------
static_assert(visa::kDefaultLoadAddr == wasp::kImageLoadAddr,
              "isa and wasp must agree on the load address");

TEST(BuildSanity, ImageDefaultsMatchAbi) {
  visa::Image img;
  EXPECT_EQ(img.load_addr, wasp::kImageLoadAddr);
  EXPECT_EQ(img.entry, wasp::kImageLoadAddr);
  EXPECT_EQ(img.size(), 0u);
}

TEST(BuildSanity, ImageSymbolLookup) {
  visa::Image img;
  img.symbols["main"] = wasp::kImageLoadAddr + 0x10;
  auto hit = img.Symbol("main");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), wasp::kImageLoadAddr + 0x10);
  EXPECT_FALSE(img.Symbol("nope").ok());
}

TEST(BuildSanity, PadToNeverShrinks) {
  visa::Image img;
  img.bytes = {1, 2, 3};
  img.PadTo(8);
  EXPECT_EQ(img.size(), 8u);
  img.PadTo(4);  // smaller than current size: no-op
  EXPECT_EQ(img.size(), 8u);
  EXPECT_EQ(img.bytes[2], 3);
  EXPECT_EQ(img.bytes[7], 0);
}

}  // namespace
