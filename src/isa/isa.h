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
//
// Each opcode's mnemonic and operand layout is written once, in kOps below;
// the assembler, the decoder and the disassembler read it.
#ifndef SRC_ISA_ISA_H_
#define SRC_ISA_ISA_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "src/base/status.h"

namespace visa {

// Number of general-purpose registers.  r14 is the conventional frame
// pointer ("fp"), r15 the stack pointer ("sp").
inline constexpr int kNumRegs = 16;
inline constexpr int kFp = 14;
inline constexpr int kSp = 15;

// Whether every row of `rows` sits at the index its `key` enumerator names.
template <typename Row, size_t N, typename Enum>
constexpr bool InEnumOrder(const Row (&rows)[N], Enum Row::*key) {
  for (size_t i = 0; i < N; ++i) {
    if (static_cast<size_t>(rows[i].*key) != i) {
      return false;
    }
  }
  return true;
}

// x86-style execution modes (the three classic boot stages).
enum class Mode : uint8_t {
  kReal16 = 0,
  kProt32 = 1,
  kLong64 = 2,
};

// Each mode's name, as `ljmp` takes it, indexed by Mode.
inline constexpr const char* kModeNames[] = {"real16", "prot32", "long64"};
static_assert(std::size(kModeNames) == static_cast<size_t>(Mode::kLong64) + 1);

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

// `mode` must be a Mode enumerator.
inline const char* ModeName(Mode mode) { return kModeNames[static_cast<size_t>(mode)]; }

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

// One row per condition, in Cond order: its name as cset's operand, and the
// mnemonic of the conditional jump on it.
struct CondInfo {
  Cond cc;
  const char* name;
  const char* jcc;
};

inline constexpr CondInfo kConds[] = {
    {Cond::kEq, "eq", "je"}, {Cond::kNe, "ne", "jne"}, {Cond::kLt, "lt", "jl"},
    {Cond::kLe, "le", "jle"}, {Cond::kGt, "gt", "jg"}, {Cond::kGe, "ge", "jge"},
    {Cond::kB, "b", "jb"},   {Cond::kBe, "be", "jbe"}, {Cond::kA, "a", "ja"},
    {Cond::kAe, "ae", "jae"},
};
static_assert(std::size(kConds) == static_cast<size_t>(Cond::kAe) + 1);
static_assert(InEnumOrder(kConds, &CondInfo::cc));

// `cc` must be a Cond enumerator.
inline const char* CondName(Cond cc) { return kConds[static_cast<size_t>(cc)].name; }

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

// Operand layouts.  Every encoding starts with the opcode byte and is
// little-endian.  An `ab` byte holds field a in its high nibble and field b
// in its low one; a register byte or nibble names r0-r15, a cc a Cond and a
// mode a Mode, and any other value is an invalid encoding.
enum class Form : uint8_t {
  kNone,   // [op]
  kR,      // [op][ab]                  a = register, b = 0 (ignored)
  kRR,     // [op][ab]                  a, b = registers
  kRI32,   // [op][ab][imm:i32]         a = register, b = 0 (ignored)
  kRI64,   // [op][reg:u8][imm:i64]
  kLoad,   // [op][ab][x:u8][disp:i32]  a = destination, b = base; x below
  kStore,  // [op][ab][x:u8][disp:i32]  a = base, b = source; x below
  kRel,    // [op][rel:i32]             target = next instruction + rel
  kJcc,    // [op][cc:u8][rel:i32]
  kLjmp,   // [op][mode:u8][rel:i32]
  kCset,   // [op][ab]                  a = register, b = cc
  kWrcr,   // [op][ab]                  a = control register, b = register
  kRdcr,   // [op][ab]                  a = register, b = control register
  kIn,     // [op][port:u16][reg:u8]    reg <- port
  kOut,    // [op][port:u16][reg:u8]    port <- reg
};

// Encoded size in bytes of an instruction of `form`.
constexpr int FormSize(Form form) {
  switch (form) {
    case Form::kNone:
      return 1;
    case Form::kR:
    case Form::kRR:
    case Form::kCset:
    case Form::kWrcr:
    case Form::kRdcr:
      return 2;
    case Form::kIn:
    case Form::kOut:
      return 4;
    case Form::kRel:
      return 5;
    case Form::kRI32:
    case Form::kJcc:
    case Form::kLjmp:
      return 6;
    case Form::kLoad:
    case Form::kStore:
      return 7;
    case Form::kRI64:
      return 10;
  }
  return 1;
}

// One row per opcode, in Op order: its mnemonic and its operand layout.
// Rows that share a mnemonic (mov, the ALU ops, cmp, jmp, call) differ in
// whether the last operand is a register.  A conditional jump is written
// with its condition's `jcc` mnemonic (kConds), never as "jcc".
struct OpInfo {
  Op op;
  const char* name;
  Form form;
};

inline constexpr OpInfo kOps[] = {
    {Op::kNop, "nop", Form::kNone},      {Op::kHlt, "hlt", Form::kNone},
    {Op::kBrk, "brk", Form::kNone},      {Op::kRet, "ret", Form::kNone},
    {Op::kMovRr, "mov", Form::kRR},      {Op::kMovRi, "mov", Form::kRI64},
    {Op::kLd8, "ld8", Form::kLoad},      {Op::kLd8S, "ld8s", Form::kLoad},
    {Op::kLd16, "ld16", Form::kLoad},    {Op::kLd16S, "ld16s", Form::kLoad},
    {Op::kLd32, "ld32", Form::kLoad},    {Op::kLd32S, "ld32s", Form::kLoad},
    {Op::kLd64, "ld64", Form::kLoad},    {Op::kLdW, "ldw", Form::kLoad},
    {Op::kSt8, "st8", Form::kStore},     {Op::kSt16, "st16", Form::kStore},
    {Op::kSt32, "st32", Form::kStore},   {Op::kSt64, "st64", Form::kStore},
    {Op::kStW, "stw", Form::kStore},     {Op::kLea, "lea", Form::kLoad},
    {Op::kAddRr, "add", Form::kRR},      {Op::kAddRi, "add", Form::kRI32},
    {Op::kSubRr, "sub", Form::kRR},      {Op::kSubRi, "sub", Form::kRI32},
    {Op::kAndRr, "and", Form::kRR},      {Op::kAndRi, "and", Form::kRI32},
    {Op::kOrRr, "or", Form::kRR},        {Op::kOrRi, "or", Form::kRI32},
    {Op::kXorRr, "xor", Form::kRR},      {Op::kXorRi, "xor", Form::kRI32},
    {Op::kShlRr, "shl", Form::kRR},      {Op::kShlRi, "shl", Form::kRI32},
    {Op::kShrRr, "shr", Form::kRR},      {Op::kShrRi, "shr", Form::kRI32},
    {Op::kSarRr, "sar", Form::kRR},      {Op::kSarRi, "sar", Form::kRI32},
    {Op::kMulRr, "mul", Form::kRR},      {Op::kImulRr, "imul", Form::kRR},
    {Op::kUdivRr, "udiv", Form::kRR},    {Op::kIdivRr, "idiv", Form::kRR},
    {Op::kUmodRr, "umod", Form::kRR},    {Op::kImodRr, "imod", Form::kRR},
    {Op::kNotR, "not", Form::kR},        {Op::kNegR, "neg", Form::kR},
    {Op::kCmpRr, "cmp", Form::kRR},      {Op::kCmpRi, "cmp", Form::kRI32},
    {Op::kTestRr, "test", Form::kRR},    {Op::kCset, "cset", Form::kCset},
    {Op::kJmp, "jmp", Form::kRel},       {Op::kJcc, "jcc", Form::kJcc},
    {Op::kCall, "call", Form::kRel},     {Op::kCallR, "call", Form::kR},
    {Op::kPush, "push", Form::kR},       {Op::kPop, "pop", Form::kR},
    {Op::kIn, "in", Form::kIn},          {Op::kOut, "out", Form::kOut},
    {Op::kRdtsc, "rdtsc", Form::kR},     {Op::kLgdt, "lgdt", Form::kR},
    {Op::kWrcr, "wrcr", Form::kWrcr},    {Op::kRdcr, "rdcr", Form::kRdcr},
    {Op::kLjmp, "ljmp", Form::kLjmp},    {Op::kJmpR, "jmp", Form::kR},
};
static_assert(std::size(kOps) == static_cast<size_t>(Op::kOpCount));
static_assert(InEnumOrder(kOps, &OpInfo::op));

// `op` must be below Op::kOpCount.
inline const char* OpName(Op op) { return kOps[static_cast<size_t>(op)].name; }

// Encoded size in bytes of an instruction with opcode `op` (below kOpCount).
inline int InsnSize(Op op) { return FormSize(kOps[static_cast<size_t>(op)].form); }

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

// A decoded instruction, used by the disassembler and tests.  The CPU
// interpreter reads operands inline for speed; CpuDecode.AgreesWithCpuOnEveryOpcode
// (test_cpu) checks that it accepts exactly the encodings Decode accepts.
struct Insn {
  Op op = Op::kNop;
  uint8_t a = 0;
  uint8_t b = 0;
  Cond cc = Cond::kEq;
  Mode mode = Mode::kReal16;
  int64_t imm = 0;  // also a memory operand's displacement and a branch's rel
  uint16_t port = 0;
  uint8_t x = 0;    // memory operand's x byte (loads, stores, lea)
};

// Decodes one instruction at `bytes[offset]`.  `len` is the buffer length.
// Returns the decoded instruction; `*size` receives the encoded size.  An
// invalid encoding (see Form) is an error.
vbase::Result<Insn> Decode(const uint8_t* bytes, uint64_t len, uint64_t offset, int* size);

// Renders a decoded instruction, located at guest address `addr`, as
// assembler text that assembles back to the same bytes at that address: a
// branch shows its absolute target.
std::string ToString(const Insn& insn, uint64_t addr);

}  // namespace visa

#endif  // SRC_ISA_ISA_H_
