// Assembler / disassembler / encoding tests.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

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
  // Memory operands: a scale other than 1, 2, 4 or 8, a subtracted register,
  // a second index and a third register are each rejected with the line.
  for (const char* bad : {"  ldw r0, [r1+r2*3]\n", "  ldw r0, [r1+r2*16]\n",
                          "  ldw r0, [r1-r2]\n", "  stw [r1-r2*8], r0\n",
                          "  ldw r0, [r1*2+r2*4]\n", "  lea r0, [r1+r2+r3]\n",
                          "  ldw r0, [r1+r2*2+r3]\n", "  ldw r0, [4+r1*8+r2*8]\n",
                          "  ldw r0, [r1+8*r2]\n"}) {
    auto image = visa::Assemble(std::string("  nop\n") + bad);
    ASSERT_FALSE(image.ok()) << bad;
    EXPECT_NE(image.status().ToString().find("asm line 2"), std::string::npos)
        << bad << image.status().ToString();
  }
  // A missing or extra operand, and a value wider than its field (control
  // register nibble, 16-bit port, rel32 branch), are rejected the same way.
  for (const char* bad : {"  je\n", "  wrcr\n", "x: je x, x\n", "  nop r0\n", "  ret x\n",
                          "  wrcr 16, r1\n", "  rdcr r0, 19\n", "  out 65537, r1\n",
                          "  in r0, 70000\n", "  out -1, r1\n", "  jmp 0x100008000\n",
                          "  call r1, r2\n", "  mov r0\n", "  ljmp long64\n"}) {
    auto image = visa::Assemble(std::string("  nop\n") + bad);
    ASSERT_FALSE(image.ok()) << bad;
    EXPECT_NE(image.status().ToString().find("asm line 2"), std::string::npos)
        << bad << image.status().ToString();
  }
  // A data value wider than its directive's unit (signed or unsigned), a
  // number literal past 2^64 - 1 and a negative .space are rejected too.
  for (const char* bad : {"  .byte 256\n", "  .byte -129\n", "  .word 70000\n",
                          "  .word -32769\n", "  .dword 0x100000000\n",
                          "  .dword -2147483649\n", "  add r0, 18446744073709551617\n",
                          "  mov r0, 0x10000000000000001\n", "  .quad 18446744073709551616\n",
                          "  .space -5\nx: jmp x\n"}) {
    auto image = visa::Assemble(std::string("  nop\n") + bad);
    ASSERT_FALSE(image.ok()) << bad;
    EXPECT_NE(image.status().ToString().find("asm line 2"), std::string::npos)
        << bad << image.status().ToString();
  }
  // An operand whose value pass 1 fixes (a .space or .align size, the .org
  // base, an .equ value) cannot name a symbol defined below it: pass 1 would
  // read it as 0 and pass 2 as its address, so the sizes and the labels
  // after it would disagree between the passes.
  for (const char* bad : {"  .space x\nx: jmp x\n", "  .space x - 0x8000\nx:\n",
                          "  .align x\nx:\n", "  .equ n, later\nlater:\n  mov r0, n\n",
                          ".org x\n  nop\nx:\n"}) {
    auto image = visa::Assemble(bad);
    ASSERT_FALSE(image.ok()) << bad;
    EXPECT_NE(image.status().ToString().find("asm line 1: symbol not defined above"),
              std::string::npos)
        << bad << image.status().ToString();
  }
  // An .equ name is a symbol like a label: it is defined once.
  EXPECT_FALSE(visa::Assemble("  .equ n, 1\n  .equ n, 2\n").ok());
  EXPECT_FALSE(visa::Assemble("x:\n  .equ x, 5\n  hlt\n").ok());
  // Backward references in those operands still assemble.
  auto sized = visa::Assemble("  .equ n, 3\nx:\n  .space n\n  .align x - 0x7ffc\ny:\n"
                              "  .equ m, y\n  .quad m\n");
  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  EXPECT_EQ(sized->bytes, (std::vector<uint8_t>{0, 0, 0, 0, 0x04, 0x80, 0, 0, 0, 0, 0, 0}));
  // The widest data values each unit holds, both ways, and a literal of
  // exactly 2^64 - 1.
  auto data = visa::Assemble(
      "  .byte 255, -128\n  .word 65535, -32768\n  .dword 0xffffffff, -2147483648\n"
      "  .quad 0xffffffffffffffff\n");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->bytes, (std::vector<uint8_t>{0xff, 0x80, 0xff, 0xff, 0x00, 0x80, 0xff,
                                               0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x80,
                                               0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                               0xff}));
  EXPECT_TRUE(visa::Assemble("  ldw r0, [r1+r2*8-8]\n  lea r0, [r1+r2]\n  st8 [r1], r0\n"
                             "x:\n  ldw r0, [x+r1*4]\n  stw [x-8], r0\n")
                  .ok());
  // The widest values each field holds: rel32 both ways, cr 15, port 0xffff.
  EXPECT_TRUE(visa::Assemble("  jmp 0x80008004\n  jmp -0x7fff7ff6\n  wrcr 15, r1\n"
                             "  rdcr r0, 8\n  out 65535, r1\n  in r0, 0\n")
                  .ok());
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

// Round-trip: assemble -> disassemble -> compare mnemonics.  SYM is an
// absolute address (256), so its operands disassemble with the number.
TEST(Disassembler, RoundTripsCoreInstructions) {
  const char* source = R"(
.equ SYM, 0x100
start:
  mov r0, 42
  mov r1, r0
  ldw r2, [r1+8]
  stw [r1+8], r2
  ld8 r3, [r2+0]
  st64 [r2-4], r3
  lea r4, [r1+16]
  ldw r2, [r1+r3*8-8]
  ld8 r3, [r7+r5+1]
  stw [SYM+0], r0
  ldw r0, [SYM+r0*8]
  lea r5, [r2*4]
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
  jmp r2
  hlt
)";
  auto image = visa::Assemble(source);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const std::string listing = visa::Disassemble(*image);
  for (const char* expect :
       {"mov r0, 42", "mov r1, r0", "ldw r2, [r1+8]", "stw [r1+8], r2", "ld8 r3, [r2]",
        "st64 [r2-4], r3", "lea r4, [r1+16]", "ldw r2, [r1+r3*8-8]", "ld8 r3, [r7+r5+1]",
        "stw [256], r0", "ldw r0, [256+r0*8]", "lea r5, [r2*4]", "add r0, r1", "sub r0, 5", "imul r0, r1",
        "udiv r0, r1", "cmp r0, 7", "test r0, r1", "cset r5, eq", "push r0", "pop r1",
        "rdtsc r6", "not r0", "neg r1", "jmp r2", "hlt"}) {
    EXPECT_NE(listing.find(expect), std::string::npos) << "missing: " << expect
                                                       << "\n" << listing;
  }
  // The listing (each line "%08x:  insn") assembles back to the same bytes.
  std::istringstream lines(listing);
  std::string again = "start:\n";
  for (std::string line; std::getline(lines, line);) {
    again += "  " + line.substr(11) + "\n";
  }
  auto reassembled = visa::Assemble(again);
  ASSERT_TRUE(reassembled.ok()) << reassembled.status().ToString() << "\n" << again;
  EXPECT_EQ(reassembled->bytes, image->bytes) << again;
}

// Every kOps row (each condition for jcc and cset, each mode for ljmp)
// disassembles to text that reassembles to the same bytes; a branch lists
// its absolute target and a conditional jump its own mnemonic.
TEST(Disassembler, RoundTripsEveryOpcode) {
  std::string source = "start:\n";
  for (const visa::OpInfo& row : visa::kOps) {
    const std::string name = row.name;
    switch (row.form) {
      case visa::Form::kNone:
        source += "  " + name + "\n";
        break;
      case visa::Form::kR:
        source += "  " + name + " r3\n";
        break;
      case visa::Form::kRR:
        source += "  " + name + " r1, r15\n";
        break;
      case visa::Form::kRI32:
        source += "  " + name + " r4, -5\n";
        break;
      case visa::Form::kRI64:
        source += "  " + name + " r5, 0x123456789\n";
        break;
      case visa::Form::kLoad:
        source += "  " + name + " r6, [r7+r8*4-12]\n  " + name + " r6, [64+r2*2]\n";
        break;
      case visa::Form::kStore:
        source += "  " + name + " [r9+20], r10\n  " + name + " [0], r10\n";
        break;
      case visa::Form::kRel:
        source += "  " + name + " start\n  " + name + " end\n";
        break;
      case visa::Form::kJcc:
        for (const visa::CondInfo& c : visa::kConds) {
          source += "  " + std::string(c.jcc) + " start\n  " + c.jcc + " end\n";
        }
        break;
      case visa::Form::kLjmp:
        for (const char* mode : visa::kModeNames) {
          source += "  " + name + " " + mode + ", end\n";
        }
        break;
      case visa::Form::kCset:
        for (const visa::CondInfo& c : visa::kConds) {
          source += "  " + name + " r11, " + c.name + "\n";
        }
        break;
      case visa::Form::kWrcr:
        source += "  " + name + " 4, r12\n";
        break;
      case visa::Form::kRdcr:
        source += "  " + name + " r13, 8\n";
        break;
      case visa::Form::kIn:
        source += "  " + name + " r14, 0x10\n";
        break;
      case visa::Form::kOut:
        source += "  " + name + " 0xffff, r2\n";
        break;
    }
  }
  source += "end:\n  hlt\n";
  auto image = visa::Assemble(source);
  ASSERT_TRUE(image.ok()) << image.status().ToString() << "\n" << source;
  const std::string listing = visa::Disassemble(*image);
  std::istringstream lines(listing);
  std::string again = "start:\n";
  std::vector<bool> seen(static_cast<size_t>(visa::Op::kOpCount));
  uint64_t addr = image->load_addr;
  for (std::string line; std::getline(lines, line);) {
    again += "  " + line.substr(11) + "\n";
    int size = 0;
    auto insn = visa::Decode(image->bytes.data(), image->bytes.size(),
                             addr - image->load_addr, &size);
    ASSERT_TRUE(insn.ok()) << line;
    seen[static_cast<size_t>(insn->op)] = true;
    addr += static_cast<uint64_t>(size);
  }
  EXPECT_EQ(addr, image->load_addr + image->bytes.size()) << listing;
  for (size_t op = 0; op < seen.size(); ++op) {
    EXPECT_TRUE(seen[op]) << "no " << visa::kOps[op].name << " (op " << op << ") listed";
  }
  auto reassembled = visa::Assemble(again);
  ASSERT_TRUE(reassembled.ok()) << reassembled.status().ToString() << "\n" << again;
  EXPECT_EQ(reassembled->bytes, image->bytes) << listing;

  auto branches = visa::Assemble("x:\n  jmp x\n  je x\n  ljmp prot32, x\n  call y\ny:\n");
  ASSERT_TRUE(branches.ok()) << branches.status().ToString();
  EXPECT_EQ(visa::Disassemble(*branches),
            "00008000:  jmp 0x8000\n00008005:  je 0x8000\n0000800b:  ljmp prot32, 0x8000\n"
            "00008011:  call 0x8016\n");
}

TEST(Decode, RejectsInvalidOpcode) {
  const uint8_t bytes[] = {0xff};
  int size = 0;
  EXPECT_FALSE(visa::Decode(bytes, 1, 0, &size).ok());
}

// A register byte past r15, a condition past ae and an unknown mode are
// invalid encodings, as they are to the CPU.
TEST(Decode, RejectsInvalidFields) {
  auto decodes = [](std::vector<uint8_t> bytes) {
    bytes.resize(16);
    return visa::Decode(bytes.data(), bytes.size(), 0, nullptr).ok();
  };
  auto op = [](visa::Op o) { return static_cast<uint8_t>(o); };
  EXPECT_TRUE(decodes({op(visa::Op::kMovRi), 15}));
  EXPECT_FALSE(decodes({op(visa::Op::kMovRi), 16}));
  EXPECT_FALSE(decodes({op(visa::Op::kMovRi), 40}));
  EXPECT_TRUE(decodes({op(visa::Op::kIn), 2, 0, 15}));
  EXPECT_FALSE(decodes({op(visa::Op::kIn), 2, 0, 200}));
  EXPECT_FALSE(decodes({op(visa::Op::kOut), 2, 0, 16}));
  EXPECT_TRUE(decodes({op(visa::Op::kJcc), 9}));
  EXPECT_FALSE(decodes({op(visa::Op::kJcc), 10}));
  EXPECT_TRUE(decodes({op(visa::Op::kCset), 0x39}));
  EXPECT_FALSE(decodes({op(visa::Op::kCset), 0x3a}));
  EXPECT_TRUE(decodes({op(visa::Op::kLjmp), 2}));
  EXPECT_FALSE(decodes({op(visa::Op::kLjmp), 3}));
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
  EXPECT_EQ(visa::InsnSize(visa::Op::kJmpR), 2);
  // [op][ab][x][disp32]: every load, store and lea has one memory operand.
  EXPECT_EQ(visa::InsnSize(visa::Op::kLd8), 7);
  EXPECT_EQ(visa::InsnSize(visa::Op::kStW), 7);
  EXPECT_EQ(visa::InsnSize(visa::Op::kLea), 7);
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
