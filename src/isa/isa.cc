#include "src/isa/isa.h"

#include <cstring>
#include <sstream>

namespace visa {
namespace {

// Reads a little-endian value of N bytes.
template <typename T>
T ReadLe(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// Whether `op` is a load, a store or lea (the ops with a memory operand).
bool HasMemOperand(Op op) { return op >= Op::kLd8 && op <= Op::kLea; }

// A memory operand in the assembler's syntax: [rB+rI*S±d], each part
// present only when encoded; with no base the displacement (an absolute
// address) comes first, as in [d+rI*S].
std::string MemOperand(const Insn& insn, int base) {
  std::string s = "[";
  if ((insn.x & kMemNoBase) == 0) {
    s += "r" + std::to_string(base);
  } else if (insn.imm != 0 || (insn.x & kMemHasIndex) == 0) {
    s += std::to_string(insn.imm);
  }
  if ((insn.x & kMemHasIndex) != 0) {
    if (s.size() > 1) {
      s += "+";
    }
    s += "r" + std::to_string(insn.x >> 4);
    if (const int scale = 1 << ((insn.x >> 2) & 3); scale > 1) {
      s += "*" + std::to_string(scale);
    }
  }
  if ((insn.x & kMemNoBase) == 0 && insn.imm != 0) {
    s += (insn.imm > 0 ? "+" : "") + std::to_string(insn.imm);
  }
  return s + "]";
}

}  // namespace

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kReal16:
      return "real16";
    case Mode::kProt32:
      return "prot32";
    case Mode::kLong64:
      return "long64";
  }
  return "?";
}

const char* CondName(Cond cc) {
  switch (cc) {
    case Cond::kEq:
      return "eq";
    case Cond::kNe:
      return "ne";
    case Cond::kLt:
      return "lt";
    case Cond::kLe:
      return "le";
    case Cond::kGt:
      return "gt";
    case Cond::kGe:
      return "ge";
    case Cond::kB:
      return "b";
    case Cond::kBe:
      return "be";
    case Cond::kA:
      return "a";
    case Cond::kAe:
      return "ae";
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kHlt: return "hlt";
    case Op::kBrk: return "brk";
    case Op::kRet: return "ret";
    case Op::kMovRr: return "mov";
    case Op::kMovRi: return "mov";
    case Op::kLd8: return "ld8";
    case Op::kLd8S: return "ld8s";
    case Op::kLd16: return "ld16";
    case Op::kLd16S: return "ld16s";
    case Op::kLd32: return "ld32";
    case Op::kLd32S: return "ld32s";
    case Op::kLd64: return "ld64";
    case Op::kLdW: return "ldw";
    case Op::kSt8: return "st8";
    case Op::kSt16: return "st16";
    case Op::kSt32: return "st32";
    case Op::kSt64: return "st64";
    case Op::kStW: return "stw";
    case Op::kLea: return "lea";
    case Op::kAddRr: return "add";
    case Op::kAddRi: return "add";
    case Op::kSubRr: return "sub";
    case Op::kSubRi: return "sub";
    case Op::kAndRr: return "and";
    case Op::kAndRi: return "and";
    case Op::kOrRr: return "or";
    case Op::kOrRi: return "or";
    case Op::kXorRr: return "xor";
    case Op::kXorRi: return "xor";
    case Op::kShlRr: return "shl";
    case Op::kShlRi: return "shl";
    case Op::kShrRr: return "shr";
    case Op::kShrRi: return "shr";
    case Op::kSarRr: return "sar";
    case Op::kSarRi: return "sar";
    case Op::kMulRr: return "mul";
    case Op::kImulRr: return "imul";
    case Op::kUdivRr: return "udiv";
    case Op::kIdivRr: return "idiv";
    case Op::kUmodRr: return "umod";
    case Op::kImodRr: return "imod";
    case Op::kNotR: return "not";
    case Op::kNegR: return "neg";
    case Op::kCmpRr: return "cmp";
    case Op::kCmpRi: return "cmp";
    case Op::kTestRr: return "test";
    case Op::kCset: return "cset";
    case Op::kJmp: return "jmp";
    case Op::kJcc: return "jcc";
    case Op::kCall: return "call";
    case Op::kCallR: return "call";
    case Op::kPush: return "push";
    case Op::kPop: return "pop";
    case Op::kIn: return "in";
    case Op::kOut: return "out";
    case Op::kRdtsc: return "rdtsc";
    case Op::kLgdt: return "lgdt";
    case Op::kWrcr: return "wrcr";
    case Op::kRdcr: return "rdcr";
    case Op::kLjmp: return "ljmp";
    case Op::kJmpR: return "jmp";
    case Op::kOpCount: return "?";
  }
  return "?";
}

int InsnSize(Op op) {
  switch (op) {
    case Op::kNop:
    case Op::kHlt:
    case Op::kBrk:
    case Op::kRet:
      return 1;
    case Op::kMovRr:
    case Op::kNotR:
    case Op::kNegR:
    case Op::kCmpRr:
    case Op::kTestRr:
    case Op::kCset:
    case Op::kPush:
    case Op::kPop:
    case Op::kRdtsc:
    case Op::kLgdt:
    case Op::kWrcr:
    case Op::kRdcr:
    case Op::kCallR:
    case Op::kJmpR:
    case Op::kAddRr:
    case Op::kSubRr:
    case Op::kAndRr:
    case Op::kOrRr:
    case Op::kXorRr:
    case Op::kShlRr:
    case Op::kShrRr:
    case Op::kSarRr:
    case Op::kMulRr:
    case Op::kImulRr:
    case Op::kUdivRr:
    case Op::kIdivRr:
    case Op::kUmodRr:
    case Op::kImodRr:
      return 2;
    case Op::kMovRi:
      return 10;
    case Op::kAddRi:
    case Op::kSubRi:
    case Op::kAndRi:
    case Op::kOrRi:
    case Op::kXorRi:
    case Op::kShlRi:
    case Op::kShrRi:
    case Op::kSarRi:
    case Op::kCmpRi:
    case Op::kJcc:
    case Op::kLjmp:
      return 6;
    case Op::kLd8:
    case Op::kLd8S:
    case Op::kLd16:
    case Op::kLd16S:
    case Op::kLd32:
    case Op::kLd32S:
    case Op::kLd64:
    case Op::kLdW:
    case Op::kSt8:
    case Op::kSt16:
    case Op::kSt32:
    case Op::kSt64:
    case Op::kStW:
    case Op::kLea:
      return 7;
    case Op::kJmp:
    case Op::kCall:
      return 5;
    case Op::kIn:
    case Op::kOut:
      return 4;
    case Op::kOpCount:
      return 1;
  }
  return 1;
}

vbase::Result<Insn> Decode(const uint8_t* bytes, uint64_t len, uint64_t offset, int* size) {
  if (offset >= len) {
    return vbase::OutOfRange("decode offset beyond buffer");
  }
  const uint8_t raw = bytes[offset];
  if (raw >= static_cast<uint8_t>(Op::kOpCount)) {
    return vbase::InvalidArgument("invalid opcode " + std::to_string(raw));
  }
  Insn insn;
  insn.op = static_cast<Op>(raw);
  const int sz = InsnSize(insn.op);
  if (offset + static_cast<uint64_t>(sz) > len) {
    return vbase::OutOfRange("truncated instruction");
  }
  const uint8_t* p = bytes + offset + 1;
  switch (insn.op) {
    case Op::kNop:
    case Op::kHlt:
    case Op::kBrk:
    case Op::kRet:
      break;
    case Op::kMovRi:
      insn.a = p[0];
      insn.imm = ReadLe<int64_t>(p + 1);
      break;
    case Op::kJmp:
    case Op::kCall:
      insn.imm = ReadLe<int32_t>(p);
      break;
    case Op::kJcc:
      insn.cc = static_cast<Cond>(p[0]);
      insn.imm = ReadLe<int32_t>(p + 1);
      break;
    case Op::kLjmp:
      insn.mode = static_cast<Mode>(p[0]);
      insn.imm = ReadLe<int32_t>(p + 1);
      break;
    case Op::kIn:
    case Op::kOut:
      insn.port = ReadLe<uint16_t>(p);
      insn.a = p[2];
      break;
    default: {
      const uint8_t ab = p[0];
      insn.a = ab >> 4;
      insn.b = ab & 0xf;
      if (HasMemOperand(insn.op)) {
        insn.x = p[1];
        insn.imm = ReadLe<int32_t>(p + 2);
      } else if (sz == 6) {
        insn.imm = ReadLe<int32_t>(p + 1);
      }
      if (insn.op == Op::kCset) {
        insn.cc = static_cast<Cond>(insn.b);
      }
      break;
    }
  }
  if (size != nullptr) {
    *size = sz;
  }
  return insn;
}

std::string ToString(const Insn& insn) {
  std::ostringstream os;
  auto reg = [](int r) { return "r" + std::to_string(r); };
  os << OpName(insn.op);
  switch (insn.op) {
    case Op::kNop:
    case Op::kHlt:
    case Op::kBrk:
    case Op::kRet:
      break;
    case Op::kMovRr:
    case Op::kAddRr:
    case Op::kSubRr:
    case Op::kAndRr:
    case Op::kOrRr:
    case Op::kXorRr:
    case Op::kShlRr:
    case Op::kShrRr:
    case Op::kSarRr:
    case Op::kMulRr:
    case Op::kImulRr:
    case Op::kUdivRr:
    case Op::kIdivRr:
    case Op::kUmodRr:
    case Op::kImodRr:
    case Op::kCmpRr:
    case Op::kTestRr:
      os << " " << reg(insn.a) << ", " << reg(insn.b);
      break;
    case Op::kMovRi:
      os << " " << reg(insn.a) << ", " << insn.imm;
      break;
    case Op::kAddRi:
    case Op::kSubRi:
    case Op::kAndRi:
    case Op::kOrRi:
    case Op::kXorRi:
    case Op::kShlRi:
    case Op::kShrRi:
    case Op::kSarRi:
    case Op::kCmpRi:
      os << " " << reg(insn.a) << ", " << insn.imm;
      break;
    case Op::kLd8:
    case Op::kLd8S:
    case Op::kLd16:
    case Op::kLd16S:
    case Op::kLd32:
    case Op::kLd32S:
    case Op::kLd64:
    case Op::kLdW:
    case Op::kLea:
      os << " " << reg(insn.a) << ", " << MemOperand(insn, insn.b);
      break;
    case Op::kSt8:
    case Op::kSt16:
    case Op::kSt32:
    case Op::kSt64:
    case Op::kStW:
      os << " " << MemOperand(insn, insn.a) << ", " << reg(insn.b);
      break;
    case Op::kNotR:
    case Op::kNegR:
    case Op::kPush:
    case Op::kPop:
    case Op::kRdtsc:
    case Op::kLgdt:
    case Op::kCallR:
    case Op::kJmpR:
      os << " " << reg(insn.a);
      break;
    case Op::kCset:
      os << " " << reg(insn.a) << ", " << CondName(insn.cc);
      break;
    case Op::kJmp:
    case Op::kCall:
      os << " " << insn.imm;
      break;
    case Op::kJcc:
      os << " " << CondName(insn.cc) << ", " << insn.imm;
      break;
    case Op::kLjmp:
      os << " " << ModeName(insn.mode) << ", " << insn.imm;
      break;
    case Op::kIn:
      os << " " << reg(insn.a) << ", 0x" << std::hex << insn.port;
      break;
    case Op::kOut:
      os << " 0x" << std::hex << insn.port << std::dec << ", " << reg(insn.a);
      break;
    case Op::kWrcr:
      os << " " << static_cast<int>(insn.a) << ", " << reg(insn.b);
      break;
    case Op::kRdcr:
      os << " " << reg(insn.a) << ", " << static_cast<int>(insn.b);
      break;
    case Op::kOpCount:
      break;
  }
  return os.str();
}

}  // namespace visa
