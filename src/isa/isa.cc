#include "src/isa/isa.h"

#include <cstdio>
#include <cstring>

namespace visa {
namespace {

// Reads a little-endian value of N bytes.
template <typename T>
T ReadLe(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

std::string Reg(int r) { return "r" + std::to_string(r); }

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

// A memory operand in the assembler's syntax: [rB+rI*S±d], each part
// present only when encoded; with no base the displacement (an absolute
// address) comes first, as in [d+rI*S].
std::string MemOperand(const Insn& insn, int base) {
  std::string s = "[";
  if ((insn.x & kMemNoBase) == 0) {
    s += Reg(base);
  } else if (insn.imm != 0 || (insn.x & kMemHasIndex) == 0) {
    s += std::to_string(insn.imm);
  }
  if ((insn.x & kMemHasIndex) != 0) {
    if (s.size() > 1) {
      s += "+";
    }
    s += Reg(insn.x >> 4);
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
  const Form form = kOps[raw].form;
  const int sz = FormSize(form);
  if (offset + static_cast<uint64_t>(sz) > len) {
    return vbase::OutOfRange("truncated instruction");
  }
  const uint8_t* p = bytes + offset + 1;
  auto ab = [&] {
    insn.a = p[0] >> 4;
    insn.b = p[0] & 0xf;
  };
  switch (form) {
    case Form::kNone:
      break;
    case Form::kR:
    case Form::kRR:
    case Form::kWrcr:
    case Form::kRdcr:
      ab();
      break;
    case Form::kRI32:
      ab();
      insn.imm = ReadLe<int32_t>(p + 1);
      break;
    case Form::kRI64:
      insn.a = p[0];
      insn.imm = ReadLe<int64_t>(p + 1);
      break;
    case Form::kLoad:
    case Form::kStore:
      ab();
      insn.x = p[1];
      insn.imm = ReadLe<int32_t>(p + 2);
      break;
    case Form::kRel:
      insn.imm = ReadLe<int32_t>(p);
      break;
    case Form::kJcc:
      insn.cc = static_cast<Cond>(p[0]);
      insn.imm = ReadLe<int32_t>(p + 1);
      break;
    case Form::kLjmp:
      insn.mode = static_cast<Mode>(p[0]);
      insn.imm = ReadLe<int32_t>(p + 1);
      break;
    case Form::kCset:
      ab();
      insn.cc = static_cast<Cond>(insn.b);
      break;
    case Form::kIn:
    case Form::kOut:
      insn.port = ReadLe<uint16_t>(p);
      insn.a = p[2];
      break;
  }
  if (insn.a >= kNumRegs) {
    return vbase::InvalidArgument("invalid register " + std::to_string(insn.a));
  }
  if (static_cast<size_t>(insn.cc) >= std::size(kConds)) {
    return vbase::InvalidArgument("invalid condition " + std::to_string(static_cast<int>(insn.cc)));
  }
  if (static_cast<size_t>(insn.mode) >= std::size(kModeNames)) {
    return vbase::InvalidArgument("invalid mode " + std::to_string(static_cast<int>(insn.mode)));
  }
  if (size != nullptr) {
    *size = sz;
  }
  return insn;
}

std::string ToString(const Insn& insn, uint64_t addr) {
  const Form form = kOps[static_cast<size_t>(insn.op)].form;
  const std::string a = Reg(insn.a);
  const std::string b = Reg(insn.b);
  // A branch's absolute target: the next instruction plus rel.
  auto target = [&] {
    return Hex(addr + static_cast<uint64_t>(FormSize(form)) + static_cast<uint64_t>(insn.imm));
  };
  std::string ops;
  switch (form) {
    case Form::kNone:
      break;
    case Form::kR:
      ops = a;
      break;
    case Form::kRR:
      ops = a + ", " + b;
      break;
    case Form::kRI32:
    case Form::kRI64:
      ops = a + ", " + std::to_string(insn.imm);
      break;
    case Form::kLoad:
      ops = a + ", " + MemOperand(insn, insn.b);
      break;
    case Form::kStore:
      ops = MemOperand(insn, insn.a) + ", " + b;
      break;
    case Form::kRel:
      ops = target();
      break;
    case Form::kJcc:
      return kConds[static_cast<size_t>(insn.cc)].jcc + (" " + target());
    case Form::kLjmp:
      ops = ModeName(insn.mode) + (", " + target());
      break;
    case Form::kCset:
      ops = a + ", " + CondName(insn.cc);
      break;
    case Form::kWrcr:
      ops = std::to_string(insn.a) + ", " + b;
      break;
    case Form::kRdcr:
      ops = a + ", " + std::to_string(insn.b);
      break;
    case Form::kIn:
      ops = a + ", " + Hex(insn.port);
      break;
    case Form::kOut:
      ops = Hex(insn.port) + ", " + a;
      break;
  }
  const std::string name = OpName(insn.op);
  return ops.empty() ? name : name + " " + ops;
}

}  // namespace visa
