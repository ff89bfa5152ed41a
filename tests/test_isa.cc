// Assembler / disassembler / encoding tests.
#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/isa/disassembler.h"
#include "src/isa/isa.h"

namespace {

TEST(Assembler, EmptyImageHasLoadAddrEntry) {
  auto image = visa::Assemble("start:\n  hlt\n");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->load_addr, 0x8000u);
  EXPECT_EQ(image->entry, 0x8000u);
  EXPECT_EQ(image->bytes.size(), 1u);
  EXPECT_EQ(image->bytes[0], static_cast<uint8_t>(visa::Op::kHlt));
}

TEST(Assembler, OrgChangesBase) {
  auto image = visa::Assemble(".org 0x10000\nstart:\n  hlt\n");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->load_addr, 0x10000u);
  EXPECT_EQ(image->entry, 0x10000u);
}

TEST(Assembler, EquAndExpressions) {
  auto image = visa::Assemble(R"(
.equ BASE, 0x100
.equ OFF, 8
start:
  mov r0, BASE+OFF
  mov r1, BASE-1
  hlt
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  int size = 0;
  auto insn = visa::Decode(image->bytes.data(), image->bytes.size(), 0, &size);
  ASSERT_TRUE(insn.ok());
  EXPECT_EQ(insn->imm, 0x108);
}

TEST(Assembler, DataDirectives) {
  auto image = visa::Assemble(R"(
start:
  hlt
data:
  .byte 1, 2, 255
  .word 0x1234
  .dword 0xdeadbeef
  .quad 0x1122334455667788
  .asciz "hi"
  .space 4
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto data = image->Symbol("data");
  ASSERT_TRUE(data.ok());
  const uint64_t off = *data - image->load_addr;
  EXPECT_EQ(image->bytes[off], 1);
  EXPECT_EQ(image->bytes[off + 2], 255);
  EXPECT_EQ(image->bytes[off + 3], 0x34);  // .word little-endian
  EXPECT_EQ(image->bytes[off + 5], 0xef);  // .dword
  EXPECT_EQ(image->bytes[off + 9 + 7], 0x11);  // .quad high byte
  EXPECT_EQ(image->bytes[off + 17], 'h');
  EXPECT_EQ(image->bytes[off + 19], 0);  // NUL
  EXPECT_EQ(image->bytes.size(), off + 20 + 4);
}

TEST(Assembler, AlignPads) {
  auto image = visa::Assemble("start:\n  hlt\n  .align 8\nd:\n  .quad 1\n");
  ASSERT_TRUE(image.ok());
  auto d = image->Symbol("d");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d % 8, 0u);
}

TEST(Assembler, LabelArithmeticInDirectives) {
  auto image = visa::Assemble(R"(
start:
  hlt
tab:
  .quad 1, 2, 3
tab_end:
size:
  .word tab_end-tab
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto size_at = image->Symbol("size");
  ASSERT_TRUE(size_at.ok());
  const uint64_t off = *size_at - image->load_addr;
  EXPECT_EQ(image->bytes[off], 24);
}

TEST(Assembler, ForwardAndBackwardBranches) {
  auto image = visa::Assemble(R"(
start:
loop:
  add r0, 1
  cmp r0, 3
  jl loop
  jmp done
  brk
done:
  hlt
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
}

TEST(Assembler, ErrorsAreDiagnosed) {
  EXPECT_FALSE(visa::Assemble("bogus r0, r1\n").ok());
  EXPECT_FALSE(visa::Assemble("mov r99, 1\n").ok());
  EXPECT_FALSE(visa::Assemble("jmp nowhere\n").ok());
  EXPECT_FALSE(visa::Assemble("x:\nx:\n  hlt\n").ok());  // duplicate label
  EXPECT_FALSE(visa::Assemble("  ldw r0, r1\n").ok());   // not a memory operand
  EXPECT_FALSE(visa::Assemble("  cset r0, zz\n").ok());  // bad condition
  EXPECT_FALSE(visa::Assemble("  ljmp bogus, x\nx:\n").ok());
  // A 32-bit immediate or displacement field is never silently truncated;
  // wider values load with mov's 64-bit immediate.
  EXPECT_FALSE(visa::Assemble("  add r0, 4294967296\n").ok());
  EXPECT_FALSE(visa::Assemble("  cmp r0, 2147483648\n").ok());
  EXPECT_FALSE(visa::Assemble("  ldw r0, [r1+4294967296]\n").ok());
  EXPECT_FALSE(visa::Assemble("  stw [r1-2147483649], r0\n").ok());
  EXPECT_TRUE(
      visa::Assemble("  add r0, 2147483647\n  sub r0, -2147483648\n  mov r0, 4294967296\n")
          .ok());
}

TEST(Assembler, CommentsAndWhitespace) {
  auto image = visa::Assemble(
      "; leading comment\nstart:  hlt  ; trailing\n# hash comment\n");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->bytes.size(), 1u);
}

// Round-trip: assemble -> disassemble -> compare mnemonics.
TEST(Disassembler, RoundTripsCoreInstructions) {
  const char* source = R"(
start:
  mov r0, 42
  mov r1, r0
  ldw r2, [r1+8]
  stw [r1+8], r2
  ld8 r3, [r2+0]
  st64 [r2-4], r3
  lea r4, [r1+16]
  add r0, r1
  sub r0, 5
  imul r0, r1
  udiv r0, r1
  cmp r0, 7
  test r0, r1
  cset r5, eq
  push r0
  pop r1
  in r0, 0x10
  out 0x10, r0
  rdtsc r6
  not r0
  neg r1
  hlt
)";
  auto image = visa::Assemble(source);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const std::string listing = visa::Disassemble(*image);
  for (const char* expect :
       {"mov r0, 42", "mov r1, r0", "ldw r2, [r1+8]", "stw [r1+8], r2", "ld8 r3, [r2]",
        "st64 [r2-4], r3", "lea r4, [r1+16]", "add r0, r1", "sub r0, 5", "imul r0, r1",
        "udiv r0, r1", "cmp r0, 7", "test r0, r1", "cset r5, eq", "push r0", "pop r1",
        "rdtsc r6", "not r0", "neg r1", "hlt"}) {
    EXPECT_NE(listing.find(expect), std::string::npos) << "missing: " << expect
                                                       << "\n" << listing;
  }
}

TEST(Decode, RejectsInvalidOpcode) {
  const uint8_t bytes[] = {0xff};
  int size = 0;
  EXPECT_FALSE(visa::Decode(bytes, 1, 0, &size).ok());
}

TEST(Decode, RejectsTruncatedInstruction) {
  const uint8_t bytes[] = {static_cast<uint8_t>(visa::Op::kMovRi), 0x00};
  int size = 0;
  EXPECT_FALSE(visa::Decode(bytes, 2, 0, &size).ok());
}

TEST(InsnSize, MatchesEncodedLayout) {
  EXPECT_EQ(visa::InsnSize(visa::Op::kHlt), 1);
  EXPECT_EQ(visa::InsnSize(visa::Op::kMovRr), 2);
  EXPECT_EQ(visa::InsnSize(visa::Op::kMovRi), 10);
  EXPECT_EQ(visa::InsnSize(visa::Op::kAddRi), 6);
  EXPECT_EQ(visa::InsnSize(visa::Op::kJmp), 5);
  EXPECT_EQ(visa::InsnSize(visa::Op::kJcc), 6);
  EXPECT_EQ(visa::InsnSize(visa::Op::kIn), 4);
}

TEST(Image, PadToGrowsWithZeros) {
  visa::Image image;
  image.bytes = {1, 2, 3};
  image.PadTo(10);
  EXPECT_EQ(image.bytes.size(), 10u);
  EXPECT_EQ(image.bytes[9], 0u);
  image.PadTo(5);  // never shrinks
  EXPECT_EQ(image.bytes.size(), 10u);
}

}  // namespace
