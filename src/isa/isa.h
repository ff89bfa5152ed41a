// VBC — the "virtine bytecode" instruction set.
//
// VBC is the guest ISA of this reproduction's software machine.  It is an
// x86-inspired, little-endian register ISA designed so that a guest binary
// *boots* the way the paper's 160-line assembly stub does: the CPU starts in
// 16-bit real mode, loads a GDT (`lgdt`), flips CR0.PE, far-jumps to 32-bit
// protected mode, writes real page tables into guest memory, enables
// CR4.PAE / EFER.LME / CR0.PG, and far-jumps to 64-bit long mode.
//
// Mode-dependent width: arithmetic, PUSH/POP/CALL/RET and the `ldw`/`stw`
// word accessors operate at the current mode's natural width (16/32/64 bits).
// Fixed-width loads/stores (ld8..ld64) are mode-independent.
//
// Hypercalls use port I/O (`out port, reg`), mirroring Wasp's virtual I/O
// port interface; `hlt` exits to the hypervisor.
#ifndef SRC_ISA_ISA_H_
#define SRC_ISA_ISA_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"

namespace visa {

// Number of general-purpose registers.  r14 is the conventional frame
// pointer ("fp"), r15 the stack pointer ("sp").
inline constexpr int kNumRegs = 16;
inline constexpr int kFp = 14;
inline constexpr int kSp = 15;

// x86-style execution modes (the three classic boot stages).
enum class Mode : uint8_t {
  kReal16 = 0,
  kProt32 = 1,
  kLong64 = 2,
};

// Natural word width, in bytes, of a mode.
inline int WordBytes(Mode mode) {
  switch (mode) {
    case Mode::kReal16:
      return 2;
    case Mode::kProt32:
      return 4;
    case Mode::kLong64:
      return 8;
  }
  return 8;
}

const char* ModeName(Mode mode);

// Condition codes for `jcc`/`cset` (signed: lt/le/gt/ge, unsigned: b/be/a/ae).
enum class Cond : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kB,
  kBe,
  kA,
  kAe,
};

const char* CondName(Cond cc);

// Control-register indices accepted by wrcr/rdcr.  EFER is modeled as
// control register 8 to avoid a separate MSR instruction.
inline constexpr uint8_t kCr0 = 0;
inline constexpr uint8_t kCr3 = 3;
inline constexpr uint8_t kCr4 = 4;
inline constexpr uint8_t kCrEfer = 8;

// Architectural bits (subset of x86).
inline constexpr uint64_t kCr0Pe = 1ULL << 0;   // protected mode enable
inline constexpr uint64_t kCr0Pg = 1ULL << 31;  // paging enable
inline constexpr uint64_t kCr4Pae = 1ULL << 5;  // physical address extension
inline constexpr uint64_t kEferLme = 1ULL << 8;   // long mode enable
inline constexpr uint64_t kEferLma = 1ULL << 10;  // long mode active (read-only)

// Page-table entry bits (x86-64 layout subset).
inline constexpr uint64_t kPtePresent = 1ULL << 0;
inline constexpr uint64_t kPteWrite = 1ULL << 1;
inline constexpr uint64_t kPteLarge = 1ULL << 7;  // PS: 2 MB page at PD level

// Opcodes.  Stable numbering; encoded as a single byte.
enum class Op : uint8_t {
  kNop = 0,
  kHlt,
  kBrk,
  kRet,
  kMovRr,
  kMovRi,
  kLd8,
  kLd8S,
  kLd16,
  kLd16S,
  kLd32,
  kLd32S,
  kLd64,
  kLdW,
  kSt8,
  kSt16,
  kSt32,
  kSt64,
  kStW,
  kLea,
  kAddRr,
  kAddRi,
  kSubRr,
  kSubRi,
  kAndRr,
  kAndRi,
  kOrRr,
  kOrRi,
  kXorRr,
  kXorRi,
  kShlRr,
  kShlRi,
  kShrRr,
  kShrRi,
  kSarRr,
  kSarRi,
  kMulRr,
  kImulRr,
  kUdivRr,
  kIdivRr,
  kUmodRr,
  kImodRr,
  kNotR,
  kNegR,
  kCmpRr,
  kCmpRi,
  kTestRr,
  kCset,
  kJmp,
  kJcc,
  kCall,
  kCallR,
  kPush,
  kPop,
  kIn,
  kOut,
  kRdtsc,
  kLgdt,
  kWrcr,
  kRdcr,
  kLjmp,
  kJmpR,
  kOpCount,  // sentinel
};

const char* OpName(Op op);

// Encoded size in bytes of an instruction with opcode `op`.
int InsnSize(Op op);

// A decoded instruction (used by the disassembler and tests; the CPU
// interpreter decodes inline for speed but follows the same layout).
//
// Encoding layout, little-endian:
//   [op:u8]                                   kNop/kHlt/kBrk/kRet
//   [op:u8][ab:u8]                            reg/reg forms (a=hi nibble, b=lo);
//                                             kCallR/kJmpR (a=target register)
//   [op:u8][a:u8][imm:i64]                    kMovRi
//   [op:u8][ab:u8][imm:i32]                   ALU-imm, CMP-imm, SHL-imm
//   [op:u8][ab:u8][x:u8][disp:i32]            loads (a=dst, b=base),
//                                             stores (a=base, b=src), lea
//   [op:u8][rel:i32]                          kJmp/kCall (relative to next insn)
//   [op:u8][cc:u8][rel:i32]                   kJcc
//   [op:u8][mode:u8][rel:i32]                 kLjmp
//   [op:u8][ab:u8]                            kCset (a=reg, b=cc),
//                                             kWrcr (a=cr, b=reg),
//                                             kRdcr (a=reg, b=cr)
//   [op:u8][port:u16][reg:u8]                 kIn (reg <- port), kOut (port <- reg)
//
// Every load, store and lea carries one x86-style memory operand,
//   effective address = (no_base ? 0 : base) + (has_index ? index << s : 0) + disp
// masked to the mode width, described by the x byte:
//   x = index << 4 | s << 2 | has_index << 1 | no_base     (scale = 1 << s)
// x = 0 is the plain [base+disp] form; with no_base the base register field
// is 0 and unread.  The assembler writes the operand as
// [rB], [rB±d], [rB+rI], [rB+rI*S±d] or, with no base, [d] / [d+rI*S], where
// S is 1, 2, 4 or 8 and d may be a symbol expression (an absolute address).
// Folding the index costs nothing extra: the access is charged like [rB+d].
inline constexpr uint8_t kMemNoBase = 1 << 0;
inline constexpr uint8_t kMemHasIndex = 1 << 1;

struct Insn {
  Op op = Op::kNop;
  uint8_t a = 0;
  uint8_t b = 0;
  Cond cc = Cond::kEq;
  Mode mode = Mode::kReal16;
  int64_t imm = 0;  // also a memory operand's displacement
  uint16_t port = 0;
  uint8_t x = 0;    // memory operand's x byte (loads, stores, lea)
};

// Decodes one instruction at `bytes[offset]`.  `len` is the buffer length.
// Returns the decoded instruction; `*size` receives the encoded size.
vbase::Result<Insn> Decode(const uint8_t* bytes, uint64_t len, uint64_t offset, int* size);

// Renders a decoded instruction as assembler text.
std::string ToString(const Insn& insn);

}  // namespace visa

#endif  // SRC_ISA_ISA_H_
