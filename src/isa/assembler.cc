#include "src/isa/assembler.h"

#include <cctype>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/isa/isa.h"

namespace visa {
namespace {

struct Statement {
  int lineno = 0;
  std::string mnemonic;                // lower-cased; empty for label-only lines
  std::vector<std::string> operands;   // top-level comma-separated
  std::string raw;                     // original text for error messages
};

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '$';
}

// Splits an operand list on top-level commas (not inside quotes or brackets).
std::vector<std::string> SplitOperands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  bool in_str = false;
  bool in_chr = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) {
        cur += s[++i];
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (in_chr) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) {
        cur += s[++i];
      } else if (c == '\'') {
        in_chr = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
      cur += c;
    } else if (c == '\'') {
      in_chr = true;
      cur += c;
    } else if (c == '[') {
      ++depth;
      cur += c;
    } else if (c == ']') {
      --depth;
      cur += c;
    } else if (c == ',' && depth == 0) {
      out.push_back(Trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  std::string last = Trim(cur);
  if (!last.empty()) {
    out.push_back(last);
  }
  return out;
}

// Whether `v` fits a sign-extended imm32/disp32 field.
bool FitsI32(int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

std::optional<int> ParseReg(const std::string& tok) {
  std::string t = Lower(tok);
  if (t == "fp") {
    return kFp;
  }
  if (t == "sp") {
    return kSp;
  }
  if (t.size() >= 2 && t[0] == 'r') {
    int n = 0;
    for (size_t i = 1; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) {
        return std::nullopt;
      }
      n = n * 10 + (t[i] - '0');
    }
    if (n >= 0 && n < kNumRegs) {
      return n;
    }
  }
  return std::nullopt;
}

std::optional<Cond> ParseCond(const std::string& tok) {
  static const std::unordered_map<std::string, Cond> kMap = {
      {"eq", Cond::kEq}, {"ne", Cond::kNe}, {"lt", Cond::kLt}, {"le", Cond::kLe},
      {"gt", Cond::kGt}, {"ge", Cond::kGe}, {"b", Cond::kB},   {"be", Cond::kBe},
      {"a", Cond::kA},   {"ae", Cond::kAe},
  };
  auto it = kMap.find(Lower(tok));
  if (it == kMap.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<Mode> ParseMode(const std::string& tok) {
  std::string t = Lower(tok);
  if (t == "real16") {
    return Mode::kReal16;
  }
  if (t == "prot32") {
    return Mode::kProt32;
  }
  if (t == "long64") {
    return Mode::kLong64;
  }
  return std::nullopt;
}

// The assembler proper.
class Assembler {
 public:
  vbase::Result<Image> Run(const std::string& source) {
    if (vbase::Status st = ParseLines(source); !st.ok()) {
      return st;
    }
    if (vbase::Status st = Pass1(); !st.ok()) {
      return st;
    }
    if (vbase::Status st = Pass2(); !st.ok()) {
      return st;
    }
    if (auto it = symbols_.find("start"); it != symbols_.end()) {
      image_.entry = it->second;
    } else {
      image_.entry = image_.load_addr;
    }
    image_.symbols = {symbols_.begin(), symbols_.end()};
    return std::move(image_);
  }

 private:
  vbase::Status Err(const Statement& st, const std::string& msg) {
    return vbase::InvalidArgument("asm line " + std::to_string(st.lineno) + ": " + msg +
                                  " [" + st.raw + "]");
  }

  vbase::Status ParseLines(const std::string& source) {
    std::vector<std::string> lines;
    std::string cur;
    for (char c : source) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) {
      lines.push_back(cur);
    }
    int lineno = 0;
    for (std::string& line : lines) {
      ++lineno;
      // Strip comments (not inside string literals).
      bool in_str = false;
      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) {
          in_str = !in_str;
        } else if ((line[i] == ';' || line[i] == '#') && !in_str) {
          line = line.substr(0, i);
          break;
        }
      }
      std::string text = Trim(line);
      if (text.empty()) {
        continue;
      }
      // Peel off leading labels ("name:").
      while (true) {
        size_t i = 0;
        while (i < text.size() && IsIdentChar(text[i])) {
          ++i;
        }
        if (i > 0 && i < text.size() && text[i] == ':') {
          Statement label_stmt;
          label_stmt.lineno = lineno;
          label_stmt.mnemonic = ":label";
          label_stmt.operands = {text.substr(0, i)};
          label_stmt.raw = text;
          stmts_.push_back(label_stmt);
          text = Trim(text.substr(i + 1));
          if (text.empty()) {
            break;
          }
          continue;
        }
        break;
      }
      if (text.empty()) {
        continue;
      }
      Statement st;
      st.lineno = lineno;
      st.raw = text;
      size_t sp = 0;
      while (sp < text.size() && !std::isspace(static_cast<unsigned char>(text[sp]))) {
        ++sp;
      }
      st.mnemonic = Lower(text.substr(0, sp));
      st.operands = SplitOperands(Trim(text.substr(sp)));
      stmts_.push_back(std::move(st));
    }
    return vbase::Status::Ok();
  }

  // Evaluates an immediate expression: term (('+'|'-') term)*.
  // In pass 1, unresolved labels evaluate to 0 (sizes never depend on them).
  vbase::Result<int64_t> EvalExpr(const Statement& st, const std::string& expr, bool pass2) {
    std::string s = Trim(expr);
    if (s.empty()) {
      return Err(st, "empty expression");
    }
    int64_t acc = 0;
    int sign = 1;
    size_t i = 0;
    bool expect_term = true;
    while (i < s.size()) {
      char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (expect_term) {
        if (c == '-') {
          sign = -sign;
          ++i;
          continue;
        }
        if (c == '+') {
          ++i;
          continue;
        }
        int64_t term = 0;
        if (c == '\'') {
          // Character literal.
          if (i + 2 < s.size() && s[i + 1] == '\\' && s[i + 3] == '\'') {
            char e = s[i + 2];
            switch (e) {
              case 'n': term = '\n'; break;
              case 't': term = '\t'; break;
              case 'r': term = '\r'; break;
              case '0': term = '\0'; break;
              case '\\': term = '\\'; break;
              case '\'': term = '\''; break;
              default: return Err(st, "bad escape in char literal");
            }
            i += 4;
          } else if (i + 2 < s.size() && s[i + 2] == '\'') {
            term = static_cast<unsigned char>(s[i + 1]);
            i += 3;
          } else {
            return Err(st, "bad char literal");
          }
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
          size_t j = i;
          int base = 10;
          if (c == '0' && j + 1 < s.size() && (s[j + 1] == 'x' || s[j + 1] == 'X')) {
            base = 16;
            j += 2;
          }
          uint64_t v = 0;
          size_t start = j;
          while (j < s.size() && std::isalnum(static_cast<unsigned char>(s[j]))) {
            int d;
            char ch = static_cast<char>(std::tolower(static_cast<unsigned char>(s[j])));
            if (ch >= '0' && ch <= '9') {
              d = ch - '0';
            } else if (base == 16 && ch >= 'a' && ch <= 'f') {
              d = ch - 'a' + 10;
            } else {
              return Err(st, "bad digit in number");
            }
            v = v * static_cast<uint64_t>(base) + static_cast<uint64_t>(d);
            ++j;
          }
          if (j == start) {
            return Err(st, "bad number");
          }
          term = static_cast<int64_t>(v);
          i = j;
        } else if (IsIdentChar(c)) {
          size_t j = i;
          while (j < s.size() && IsIdentChar(s[j])) {
            ++j;
          }
          std::string name = s.substr(i, j - i);
          auto it = symbols_.find(name);
          if (it != symbols_.end()) {
            term = static_cast<int64_t>(it->second);
          } else if (pass2) {
            return Err(st, "undefined symbol: " + name);
          } else {
            term = 0;
          }
          i = j;
        } else {
          return Err(st, std::string("unexpected character '") + c + "' in expression");
        }
        acc += sign * term;
        sign = 1;
        expect_term = false;
      } else {
        if (c == '+') {
          sign = 1;
        } else if (c == '-') {
          sign = -1;
        } else {
          return Err(st, std::string("expected operator, got '") + c + "'");
        }
        expect_term = true;
        ++i;
      }
    }
    if (expect_term) {
      return Err(st, "trailing operator in expression");
    }
    return acc;
  }

  struct MemRef {
    int base = 0;
    int64_t disp = 0;
  };

  vbase::Result<MemRef> ParseMem(const Statement& st, const std::string& tok, bool pass2) {
    std::string t = Trim(tok);
    if (t.size() < 3 || t.front() != '[' || t.back() != ']') {
      return Err(st, "expected memory operand [reg+disp]");
    }
    std::string inner = Trim(t.substr(1, t.size() - 2));
    size_t i = 0;
    while (i < inner.size() && IsIdentChar(inner[i])) {
      ++i;
    }
    auto reg = ParseReg(inner.substr(0, i));
    if (!reg) {
      return Err(st, "memory operand must start with a register");
    }
    MemRef m;
    m.base = *reg;
    std::string rest = Trim(inner.substr(i));
    if (!rest.empty()) {
      if (rest[0] != '+' && rest[0] != '-') {
        return Err(st, "expected +/- displacement");
      }
      auto disp = EvalExpr(st, rest, pass2);
      if (!disp.ok()) {
        return disp.status();
      }
      m.disp = *disp;
    }
    return m;
  }

  // Parses a string literal for .ascii/.asciz.
  vbase::Result<std::string> ParseString(const Statement& st, const std::string& tok) {
    std::string t = Trim(tok);
    if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
      return Err(st, "expected string literal");
    }
    std::string out;
    for (size_t i = 1; i + 1 < t.size(); ++i) {
      char c = t[i];
      if (c == '\\' && i + 2 < t.size()) {
        char e = t[++i];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '0': out += '\0'; break;
          case '\\': out += '\\'; break;
          case '"': out += '"'; break;
          default: return Err(st, "bad string escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  // Returns the encoded size of a statement; 0 for pure directives that emit
  // nothing.  Also validates operand shapes so pass 2 can assume them.
  vbase::Result<int64_t> StatementSize(const Statement& st, uint64_t addr) {
    const std::string& m = st.mnemonic;
    const auto& ops = st.operands;
    auto is_reg = [&](size_t idx) { return idx < ops.size() && ParseReg(ops[idx]).has_value(); };

    if (m == ":label" || m == ".equ" || m == ".org") {
      return 0;
    }
    if (m == ".byte" || m == ".word" || m == ".dword" || m == ".quad") {
      int unit = m == ".byte" ? 1 : m == ".word" ? 2 : m == ".dword" ? 4 : 8;
      return static_cast<int64_t>(ops.size()) * unit;
    }
    if (m == ".ascii" || m == ".asciz") {
      auto s = ParseString(st, ops.empty() ? "" : ops[0]);
      if (!s.ok()) {
        return s.status();
      }
      return static_cast<int64_t>(s->size()) + (m == ".asciz" ? 1 : 0);
    }
    if (m == ".space") {
      auto n = EvalExpr(st, ops.empty() ? "" : ops[0], /*pass2=*/false);
      if (!n.ok()) {
        return n.status();
      }
      return *n;
    }
    if (m == ".align") {
      auto n = EvalExpr(st, ops.empty() ? "" : ops[0], /*pass2=*/false);
      if (!n.ok()) {
        return n.status();
      }
      if (*n <= 0) {
        return Err(st, ".align requires positive operand");
      }
      uint64_t a = static_cast<uint64_t>(*n);
      return static_cast<int64_t>((a - (addr % a)) % a);
    }

    // Instructions.
    if (m == "nop") return InsnSize(Op::kNop);
    if (m == "hlt") return InsnSize(Op::kHlt);
    if (m == "brk") return InsnSize(Op::kBrk);
    if (m == "ret") return InsnSize(Op::kRet);
    if (m == "mov") {
      if (ops.size() != 2 || !is_reg(0)) {
        return Err(st, "mov needs reg, reg|imm");
      }
      return is_reg(1) ? InsnSize(Op::kMovRr) : InsnSize(Op::kMovRi);
    }
    static const std::unordered_map<std::string, Op> kLoads = {
        {"ld8", Op::kLd8},   {"ld8s", Op::kLd8S},   {"ld16", Op::kLd16},
        {"ld16s", Op::kLd16S}, {"ld32", Op::kLd32}, {"ld32s", Op::kLd32S},
        {"ld64", Op::kLd64}, {"ldw", Op::kLdW},     {"lea", Op::kLea},
    };
    static const std::unordered_map<std::string, Op> kStores = {
        {"st8", Op::kSt8}, {"st16", Op::kSt16}, {"st32", Op::kSt32},
        {"st64", Op::kSt64}, {"stw", Op::kStW},
    };
    if (kLoads.count(m) != 0 || kStores.count(m) != 0) {
      return 6;
    }
    static const std::unordered_map<std::string, std::pair<Op, Op>> kAlu = {
        {"add", {Op::kAddRr, Op::kAddRi}}, {"sub", {Op::kSubRr, Op::kSubRi}},
        {"and", {Op::kAndRr, Op::kAndRi}}, {"or", {Op::kOrRr, Op::kOrRi}},
        {"xor", {Op::kXorRr, Op::kXorRi}}, {"shl", {Op::kShlRr, Op::kShlRi}},
        {"shr", {Op::kShrRr, Op::kShrRi}}, {"sar", {Op::kSarRr, Op::kSarRi}},
        {"cmp", {Op::kCmpRr, Op::kCmpRi}},
    };
    if (auto it = kAlu.find(m); it != kAlu.end()) {
      if (ops.size() != 2 || !is_reg(0)) {
        return Err(st, m + " needs reg, reg|imm");
      }
      return is_reg(1) ? InsnSize(it->second.first) : InsnSize(it->second.second);
    }
    static const std::unordered_map<std::string, Op> kRr = {
        {"mul", Op::kMulRr},   {"imul", Op::kImulRr}, {"udiv", Op::kUdivRr},
        {"idiv", Op::kIdivRr}, {"umod", Op::kUmodRr}, {"imod", Op::kImodRr},
        {"test", Op::kTestRr},
    };
    if (kRr.count(m) != 0) {
      return 2;
    }
    static const std::unordered_map<std::string, Op> kR = {
        {"not", Op::kNotR}, {"neg", Op::kNegR}, {"push", Op::kPush},
        {"pop", Op::kPop},  {"rdtsc", Op::kRdtsc}, {"lgdt", Op::kLgdt},
    };
    if (kR.count(m) != 0) {
      return 2;
    }
    if (m == "cset" || m == "wrcr" || m == "rdcr") {
      return 2;
    }
    if (m == "jmp") {
      return InsnSize(Op::kJmp);
    }
    if (m == "call") {
      if (ops.size() != 1) {
        return Err(st, "call needs one operand");
      }
      return is_reg(0) ? InsnSize(Op::kCallR) : InsnSize(Op::kCall);
    }
    static const char* kJccNames[] = {"je", "jne", "jl", "jle", "jg",
                                      "jge", "jb", "jbe", "ja", "jae"};
    for (const char* name : kJccNames) {
      if (m == name) {
        return InsnSize(Op::kJcc);
      }
    }
    if (m == "ljmp") {
      return InsnSize(Op::kLjmp);
    }
    if (m == "in" || m == "out") {
      return InsnSize(Op::kIn);
    }
    return Err(st, "unknown mnemonic: " + m);
  }

  vbase::Status Pass1() {
    uint64_t addr = image_.load_addr;
    bool emitted_any = false;
    for (const Statement& st : stmts_) {
      if (st.mnemonic == ":label") {
        if (symbols_.count(st.operands[0]) != 0) {
          return Err(st, "duplicate label: " + st.operands[0]);
        }
        symbols_[st.operands[0]] = addr;
        continue;
      }
      if (st.mnemonic == ".org") {
        if (emitted_any) {
          return Err(st, ".org must precede code");
        }
        auto v = EvalExpr(st, st.operands.empty() ? "" : st.operands[0], false);
        if (!v.ok()) {
          return v.status();
        }
        image_.load_addr = static_cast<uint64_t>(*v);
        addr = image_.load_addr;
        continue;
      }
      if (st.mnemonic == ".equ") {
        if (st.operands.size() != 2) {
          return Err(st, ".equ needs name, value");
        }
        auto v = EvalExpr(st, st.operands[1], false);
        if (!v.ok()) {
          return v.status();
        }
        symbols_[st.operands[0]] = static_cast<uint64_t>(*v);
        continue;
      }
      auto size = StatementSize(st, addr);
      if (!size.ok()) {
        return size.status();
      }
      if (*size > 0) {
        emitted_any = true;
      }
      addr += static_cast<uint64_t>(*size);
    }
    return vbase::Status::Ok();
  }

  void Emit8(uint8_t v) { image_.bytes.push_back(v); }
  void Emit16(uint16_t v) {
    Emit8(static_cast<uint8_t>(v));
    Emit8(static_cast<uint8_t>(v >> 8));
  }
  void Emit32(uint32_t v) {
    Emit16(static_cast<uint16_t>(v));
    Emit16(static_cast<uint16_t>(v >> 16));
  }
  void Emit64(uint64_t v) {
    Emit32(static_cast<uint32_t>(v));
    Emit32(static_cast<uint32_t>(v >> 32));
  }

  uint64_t CurAddr() const { return image_.load_addr + image_.bytes.size(); }

  vbase::Status Pass2() {
    for (const Statement& st : stmts_) {
      const std::string& m = st.mnemonic;
      const auto& ops = st.operands;
      if (m == ":label" || m == ".equ" || m == ".org") {
        continue;
      }
      if (m == ".byte" || m == ".word" || m == ".dword" || m == ".quad") {
        for (const std::string& o : ops) {
          auto v = EvalExpr(st, o, true);
          if (!v.ok()) {
            return v.status();
          }
          if (m == ".byte") {
            Emit8(static_cast<uint8_t>(*v));
          } else if (m == ".word") {
            Emit16(static_cast<uint16_t>(*v));
          } else if (m == ".dword") {
            Emit32(static_cast<uint32_t>(*v));
          } else {
            Emit64(static_cast<uint64_t>(*v));
          }
        }
        continue;
      }
      if (m == ".ascii" || m == ".asciz") {
        auto s = ParseString(st, ops.empty() ? "" : ops[0]);
        if (!s.ok()) {
          return s.status();
        }
        for (char c : *s) {
          Emit8(static_cast<uint8_t>(c));
        }
        if (m == ".asciz") {
          Emit8(0);
        }
        continue;
      }
      if (m == ".space") {
        auto n = EvalExpr(st, ops[0], true);
        if (!n.ok()) {
          return n.status();
        }
        for (int64_t i = 0; i < *n; ++i) {
          Emit8(0);
        }
        continue;
      }
      if (m == ".align") {
        auto n = EvalExpr(st, ops[0], true);
        if (!n.ok()) {
          return n.status();
        }
        uint64_t a = static_cast<uint64_t>(*n);
        while (CurAddr() % a != 0) {
          Emit8(0);
        }
        continue;
      }
      VB_RETURN_IF_ERROR(EmitInsn(st));
    }
    return vbase::Status::Ok();
  }

  vbase::Status EmitInsn(const Statement& st) {
    const std::string& m = st.mnemonic;
    const auto& ops = st.operands;
    auto reg = [&](size_t i) { return *ParseReg(ops[i]); };
    auto expr = [&](size_t i) { return EvalExpr(st, ops[i], true); };

    auto emit_rr = [&](Op op, int a, int b) {
      Emit8(static_cast<uint8_t>(op));
      Emit8(static_cast<uint8_t>((a << 4) | b));
    };
    auto emit_ri32 = [&](Op op, int a, int64_t imm) {
      Emit8(static_cast<uint8_t>(op));
      Emit8(static_cast<uint8_t>(a << 4));
      Emit32(static_cast<uint32_t>(static_cast<int32_t>(imm)));
    };
    auto emit_mem = [&](Op op, int a, int b, int64_t disp) {
      Emit8(static_cast<uint8_t>(op));
      Emit8(static_cast<uint8_t>((a << 4) | b));
      Emit32(static_cast<uint32_t>(static_cast<int32_t>(disp)));
    };

    if (m == "nop") { Emit8(static_cast<uint8_t>(Op::kNop)); return vbase::Status::Ok(); }
    if (m == "hlt") { Emit8(static_cast<uint8_t>(Op::kHlt)); return vbase::Status::Ok(); }
    if (m == "brk") { Emit8(static_cast<uint8_t>(Op::kBrk)); return vbase::Status::Ok(); }
    if (m == "ret") { Emit8(static_cast<uint8_t>(Op::kRet)); return vbase::Status::Ok(); }

    if (m == "mov") {
      if (auto b = ParseReg(ops[1])) {
        emit_rr(Op::kMovRr, reg(0), *b);
      } else {
        auto v = expr(1);
        if (!v.ok()) {
          return v.status();
        }
        Emit8(static_cast<uint8_t>(Op::kMovRi));
        Emit8(static_cast<uint8_t>(reg(0)));
        Emit64(static_cast<uint64_t>(*v));
      }
      return vbase::Status::Ok();
    }

    static const std::unordered_map<std::string, Op> kLoads = {
        {"ld8", Op::kLd8},   {"ld8s", Op::kLd8S},   {"ld16", Op::kLd16},
        {"ld16s", Op::kLd16S}, {"ld32", Op::kLd32}, {"ld32s", Op::kLd32S},
        {"ld64", Op::kLd64}, {"ldw", Op::kLdW},     {"lea", Op::kLea},
    };
    if (auto it = kLoads.find(m); it != kLoads.end()) {
      if (ops.size() != 2 || !ParseReg(ops[0])) {
        return Err(st, m + " needs reg, [mem]");
      }
      auto mem = ParseMem(st, ops[1], true);
      if (!mem.ok()) {
        return mem.status();
      }
      if (!FitsI32(mem->disp)) {
        return Err(st, "displacement out of 32-bit range: " + std::to_string(mem->disp));
      }
      emit_mem(it->second, reg(0), mem->base, mem->disp);
      return vbase::Status::Ok();
    }
    static const std::unordered_map<std::string, Op> kStores = {
        {"st8", Op::kSt8}, {"st16", Op::kSt16}, {"st32", Op::kSt32},
        {"st64", Op::kSt64}, {"stw", Op::kStW},
    };
    if (auto it = kStores.find(m); it != kStores.end()) {
      if (ops.size() != 2 || !ParseReg(ops[1])) {
        return Err(st, m + " needs [mem], reg");
      }
      auto mem = ParseMem(st, ops[0], true);
      if (!mem.ok()) {
        return mem.status();
      }
      if (!FitsI32(mem->disp)) {
        return Err(st, "displacement out of 32-bit range: " + std::to_string(mem->disp));
      }
      // Store encoding: a = base register, b = source register.
      emit_mem(it->second, mem->base, reg(1), mem->disp);
      return vbase::Status::Ok();
    }

    static const std::unordered_map<std::string, std::pair<Op, Op>> kAlu = {
        {"add", {Op::kAddRr, Op::kAddRi}}, {"sub", {Op::kSubRr, Op::kSubRi}},
        {"and", {Op::kAndRr, Op::kAndRi}}, {"or", {Op::kOrRr, Op::kOrRi}},
        {"xor", {Op::kXorRr, Op::kXorRi}}, {"shl", {Op::kShlRr, Op::kShlRi}},
        {"shr", {Op::kShrRr, Op::kShrRi}}, {"sar", {Op::kSarRr, Op::kSarRi}},
        {"cmp", {Op::kCmpRr, Op::kCmpRi}},
    };
    if (auto it = kAlu.find(m); it != kAlu.end()) {
      if (auto b = ParseReg(ops[1])) {
        emit_rr(it->second.first, reg(0), *b);
      } else {
        auto v = expr(1);
        if (!v.ok()) {
          return v.status();
        }
        if (!FitsI32(*v)) {
          return Err(st, "immediate out of 32-bit range: " + std::to_string(*v) +
                             " (load it with mov first)");
        }
        emit_ri32(it->second.second, reg(0), *v);
      }
      return vbase::Status::Ok();
    }

    static const std::unordered_map<std::string, Op> kRr = {
        {"mul", Op::kMulRr},   {"imul", Op::kImulRr}, {"udiv", Op::kUdivRr},
        {"idiv", Op::kIdivRr}, {"umod", Op::kUmodRr}, {"imod", Op::kImodRr},
        {"test", Op::kTestRr},
    };
    if (auto it = kRr.find(m); it != kRr.end()) {
      if (ops.size() != 2 || !ParseReg(ops[0]) || !ParseReg(ops[1])) {
        return Err(st, m + " needs reg, reg");
      }
      emit_rr(it->second, reg(0), reg(1));
      return vbase::Status::Ok();
    }

    static const std::unordered_map<std::string, Op> kR = {
        {"not", Op::kNotR}, {"neg", Op::kNegR}, {"push", Op::kPush},
        {"pop", Op::kPop},  {"rdtsc", Op::kRdtsc}, {"lgdt", Op::kLgdt},
    };
    if (auto it = kR.find(m); it != kR.end()) {
      if (ops.size() != 1 || !ParseReg(ops[0])) {
        return Err(st, m + " needs reg");
      }
      emit_rr(it->second, reg(0), 0);
      return vbase::Status::Ok();
    }

    if (m == "cset") {
      if (ops.size() != 2 || !ParseReg(ops[0])) {
        return Err(st, "cset needs reg, cond");
      }
      auto cc = ParseCond(ops[1]);
      if (!cc) {
        return Err(st, "bad condition: " + ops[1]);
      }
      emit_rr(Op::kCset, reg(0), static_cast<int>(*cc));
      return vbase::Status::Ok();
    }
    if (m == "wrcr") {
      auto cr = expr(0);
      if (!cr.ok() || ops.size() != 2 || !ParseReg(ops[1])) {
        return Err(st, "wrcr needs crN, reg");
      }
      emit_rr(Op::kWrcr, static_cast<int>(*cr), reg(1));
      return vbase::Status::Ok();
    }
    if (m == "rdcr") {
      if (ops.size() != 2 || !ParseReg(ops[0])) {
        return Err(st, "rdcr needs reg, crN");
      }
      auto cr = expr(1);
      if (!cr.ok()) {
        return cr.status();
      }
      emit_rr(Op::kRdcr, reg(0), static_cast<int>(*cr));
      return vbase::Status::Ok();
    }

    auto emit_rel = [&](Op op, std::optional<Cond> cc, std::optional<Mode> mode,
                        const std::string& target) -> vbase::Status {
      auto v = EvalExpr(st, target, true);
      if (!v.ok()) {
        return v.status();
      }
      const int size = InsnSize(op);
      const int64_t rel = *v - static_cast<int64_t>(CurAddr() + static_cast<uint64_t>(size));
      Emit8(static_cast<uint8_t>(op));
      if (cc) {
        Emit8(static_cast<uint8_t>(*cc));
      }
      if (mode) {
        Emit8(static_cast<uint8_t>(*mode));
      }
      Emit32(static_cast<uint32_t>(static_cast<int32_t>(rel)));
      return vbase::Status::Ok();
    };

    if (m == "jmp") {
      return emit_rel(Op::kJmp, std::nullopt, std::nullopt, ops[0]);
    }
    if (m == "call") {
      if (auto r = ParseReg(ops[0])) {
        emit_rr(Op::kCallR, *r, 0);
        return vbase::Status::Ok();
      }
      return emit_rel(Op::kCall, std::nullopt, std::nullopt, ops[0]);
    }
    static const std::unordered_map<std::string, Cond> kJcc = {
        {"je", Cond::kEq}, {"jne", Cond::kNe}, {"jl", Cond::kLt}, {"jle", Cond::kLe},
        {"jg", Cond::kGt}, {"jge", Cond::kGe}, {"jb", Cond::kB},  {"jbe", Cond::kBe},
        {"ja", Cond::kA},  {"jae", Cond::kAe},
    };
    if (auto it = kJcc.find(m); it != kJcc.end()) {
      return emit_rel(Op::kJcc, it->second, std::nullopt, ops[0]);
    }
    if (m == "ljmp") {
      if (ops.size() != 2) {
        return Err(st, "ljmp needs mode, target");
      }
      auto mode = ParseMode(ops[0]);
      if (!mode) {
        return Err(st, "bad mode: " + ops[0]);
      }
      return emit_rel(Op::kLjmp, std::nullopt, *mode, ops[1]);
    }
    if (m == "in" || m == "out") {
      if (ops.size() != 2) {
        return Err(st, m + " needs two operands");
      }
      const bool is_in = m == "in";
      const std::string& reg_tok = is_in ? ops[0] : ops[1];
      const std::string& port_tok = is_in ? ops[1] : ops[0];
      auto r = ParseReg(reg_tok);
      if (!r) {
        return Err(st, m + " register operand invalid");
      }
      auto port = EvalExpr(st, port_tok, true);
      if (!port.ok()) {
        return port.status();
      }
      Emit8(static_cast<uint8_t>(is_in ? Op::kIn : Op::kOut));
      Emit16(static_cast<uint16_t>(*port));
      Emit8(static_cast<uint8_t>(*r));
      return vbase::Status::Ok();
    }
    return Err(st, "unknown mnemonic: " + m);
  }



  std::vector<Statement> stmts_;
  std::unordered_map<std::string, uint64_t> symbols_;
  Image image_;
};

}  // namespace

vbase::Result<Image> Assemble(const std::string& source) {
  Assembler assembler;
  return assembler.Run(source);
}

}  // namespace visa
