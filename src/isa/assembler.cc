#include "src/isa/assembler.h"

#include <cctype>
#include <cstring>
#include <optional>
#include <string_view>
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
  Op op = Op::kOpCount;                // an instruction's kOps row (pass 1)
  int64_t size = 0;                    // encoded byte count (pass 1)
  Cond cc = Cond::kEq;                 // kJcc: the mnemonic's condition
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

// The byte width of a data directive's values; 0 for any other mnemonic.
int DataUnit(const std::string& m) {
  return m == ".byte" ? 1 : m == ".word" ? 2 : m == ".dword" ? 4 : m == ".quad" ? 8 : 0;
}

// Whether a data directive's value fits its `unit` bytes as a signed or an
// unsigned number (.byte -128..255, .word -32768..65535, ...; .quad any).
bool FitsUnit(int64_t v, int unit) {
  if (unit == 8) {
    return true;
  }
  const int64_t span = int64_t{1} << (8 * unit);
  return v >= -span / 2 && v < span;
}

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
  const std::string t = Lower(tok);
  for (const CondInfo& c : kConds) {
    if (t == c.name) {
      return c.cc;
    }
  }
  return std::nullopt;
}

std::optional<Mode> ParseMode(const std::string& tok) {
  const std::string t = Lower(tok);
  for (size_t i = 0; i < std::size(kModeNames); ++i) {
    if (t == kModeNames[i]) {
      return static_cast<Mode>(i);
    }
  }
  return std::nullopt;
}

// Whether `form`'s last operand is a register: of two rows sharing a
// mnemonic, the one a statement whose last operand is a register selects.
bool TakesRegisterLast(Form form) { return form == Form::kR || form == Form::kRR; }

size_t OperandCount(Form form) {
  switch (form) {
    case Form::kNone:
      return 0;
    case Form::kR:
    case Form::kRel:
    case Form::kJcc:
      return 1;
    default:
      return 2;
  }
}

// A mnemonic's kOps rows: `reg` when the last operand is a register,
// `other` when it is not (the same row when the mnemonic has one).
struct Mnemonic {
  Op reg = Op::kOpCount;
  Op other = Op::kOpCount;
  Cond cc = Cond::kEq;
};

// Every mnemonic of kOps, plus each condition's jcc mnemonic for kJcc.
const std::unordered_map<std::string_view, Mnemonic>& Mnemonics() {
  static const std::unordered_map<std::string_view, Mnemonic> index = [] {
    std::unordered_map<std::string_view, Mnemonic> m;
    for (const OpInfo& row : kOps) {
      if (row.form != Form::kJcc) {
        Mnemonic& e = m[row.name];
        (TakesRegisterLast(row.form) ? e.reg : e.other) = row.op;
      }
    }
    for (auto& [name, e] : m) {
      if (e.reg == Op::kOpCount) {
        e.reg = e.other;
      } else if (e.other == Op::kOpCount) {
        e.other = e.reg;
      }
    }
    for (const CondInfo& c : kConds) {
      m[c.jcc] = Mnemonic{Op::kJcc, Op::kJcc, c.cc};
    }
    return m;
  }();
  return index;
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
  // Pass 1 evaluates only the operands whose value it fixes (.space, .align,
  // .org, .equ); a symbol there must be defined above, because a forward
  // reference would read differently in the two passes.
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
            if (v > (UINT64_MAX - static_cast<uint64_t>(d)) / static_cast<uint64_t>(base)) {
              return Err(st, "number out of 64-bit range");
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
            return Err(st, "symbol not defined above: " + name +
                               " (.space, .align, .org and .equ cannot refer forward)");
          }
          i = j;
        } else {
          return Err(st, std::string("unexpected character '") + c + "' in expression");
        }
        // Terms add modulo 2^64, as the registers they load do.
        const uint64_t mag = static_cast<uint64_t>(term);
        acc = static_cast<int64_t>(static_cast<uint64_t>(acc) + (sign < 0 ? 0 - mag : mag));
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

  // A parsed memory operand; see isa.h for the forms and the x byte.
  struct MemRef {
    int base = 0;
    int64_t disp = 0;
    uint8_t x = 0;
  };

  // Parses [rB], [rB±d], [rB+rI], [rB+rI*S±d], [d] or [d+rI*S]: terms joined
  // by + and -.  An unscaled register is the base, or the index when a base
  // is already present; a scaled one (S in 1, 2, 4, 8) is always the index;
  // every other term is part of the displacement expression.
  vbase::Result<MemRef> ParseMem(const Statement& st, const std::string& tok) {
    std::string t = Trim(tok);
    if (t.size() < 3 || t.front() != '[' || t.back() != ']') {
      return Err(st, "expected memory operand [reg+disp]");
    }
    const std::string inner = t.substr(1, t.size() - 2);
    std::vector<std::pair<int, std::string>> terms;  // (sign, text)
    int sign = 1;
    std::string cur;
    bool in_chr = false;
    for (size_t i = 0; i < inner.size(); ++i) {
      const char c = inner[i];
      if (c == '\'' && (i == 0 || inner[i - 1] != '\\')) {
        in_chr = !in_chr;
      }
      if (in_chr || (c != '+' && c != '-')) {
        cur += c;
        continue;
      }
      if (!Trim(cur).empty()) {
        terms.emplace_back(sign, Trim(cur));
        cur.clear();
        sign = 1;
      }
      if (c == '-') {
        sign = -sign;
      }
    }
    if (Trim(cur).empty()) {
      return Err(st, "incomplete memory operand");
    }
    terms.emplace_back(sign, Trim(cur));
    MemRef m;
    bool has_base = false;
    std::string disp;
    for (const auto& [term_sign, text] : terms) {
      const size_t star = text.find('*');
      const auto reg = ParseReg(Trim(text.substr(0, star)));
      if (!reg) {
        if (star != std::string::npos) {
          return Err(st, "only a register can be scaled: " + text);
        }
        disp += (term_sign < 0 ? "-" : "+") + text;
        continue;
      }
      if (term_sign < 0) {
        return Err(st, "a register cannot be subtracted in a memory operand");
      }
      int scale_log2 = 0;
      if (star != std::string::npos) {
        const std::string scale = Trim(text.substr(star + 1));
        if (scale != "1" && scale != "2" && scale != "4" && scale != "8") {
          return Err(st, "index scale must be 1, 2, 4 or 8: " + text);
        }
        scale_log2 = scale == "1" ? 0 : scale == "2" ? 1 : scale == "4" ? 2 : 3;
      } else if (!has_base) {
        has_base = true;
        m.base = *reg;
        continue;
      }
      if ((m.x & kMemHasIndex) != 0) {
        return Err(st, has_base ? "a memory operand holds at most two registers"
                                : "a memory operand holds one index register");
      }
      m.x = static_cast<uint8_t>(*reg << 4 | scale_log2 << 2 | kMemHasIndex);
    }
    if (!has_base) {
      m.x |= kMemNoBase;
    }
    if (!disp.empty()) {
      auto v = EvalExpr(st, disp, true);
      if (!v.ok()) {
        return v.status();
      }
      if (!FitsI32(*v)) {
        return Err(st, "displacement out of 32-bit range: " + std::to_string(*v));
      }
      m.disp = *v;
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
  // nothing.  Resolves an instruction's kOps row and checks its operand
  // count, so pass 2 encodes it by its Form.
  vbase::Result<int64_t> StatementSize(Statement& st, uint64_t addr) {
    const std::string& m = st.mnemonic;
    const auto& ops = st.operands;

    if (m == ":label" || m == ".equ" || m == ".org") {
      return 0;
    }
    if (const int unit = DataUnit(m); unit != 0) {
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
      if (n.ok() && *n < 0) {
        return Err(st, ".space size is negative: " + std::to_string(*n));
      }
      return n;
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

    // Instructions: the mnemonic, then the shape of the last operand, picks
    // the row.
    const auto& mnemonics = Mnemonics();
    const auto it = mnemonics.find(m);
    if (it == mnemonics.end()) {
      return Err(st, "unknown mnemonic: " + m);
    }
    const bool reg_last = !ops.empty() && ParseReg(ops.back()).has_value();
    st.op = reg_last ? it->second.reg : it->second.other;
    st.cc = it->second.cc;
    const size_t want = OperandCount(kOps[static_cast<size_t>(st.op)].form);
    if (ops.size() != want) {
      return Err(st, m + " takes " + std::to_string(want) + " operand" + (want == 1 ? "" : "s") +
                         ", not " + std::to_string(ops.size()));
    }
    return InsnSize(st.op);
  }

  vbase::Status Pass1() {
    uint64_t addr = image_.load_addr;
    bool emitted_any = false;
    for (Statement& st : stmts_) {
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
        if (!symbols_.emplace(st.operands[0], static_cast<uint64_t>(*v)).second) {
          return Err(st, "duplicate symbol: " + st.operands[0]);
        }
        continue;
      }
      auto size = StatementSize(st, addr);
      if (!size.ok()) {
        return size.status();
      }
      st.size = *size;
      if (*size > 0) {
        emitted_any = true;
      }
      addr += static_cast<uint64_t>(*size);
    }
    return vbase::Status::Ok();
  }

  void Emit8(uint8_t v) { image_.bytes.push_back(v); }
  // The low `bytes` bytes of `v`, little-endian.
  void EmitLE(uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      Emit8(static_cast<uint8_t>(v >> (8 * b)));
    }
  }

  uint64_t CurAddr() const { return image_.load_addr + image_.bytes.size(); }

  vbase::Status Pass2() {
    for (const Statement& st : stmts_) {
      const std::string& m = st.mnemonic;
      const auto& ops = st.operands;
      if (m == ":label" || m == ".equ" || m == ".org") {
        continue;
      }
      if (const int unit = DataUnit(m); unit != 0) {
        for (const std::string& o : ops) {
          auto v = EvalExpr(st, o, true);
          if (!v.ok()) {
            return v.status();
          }
          if (!FitsUnit(*v, unit)) {
            return Err(st, m + " value out of range: " + std::to_string(*v));
          }
          EmitLE(static_cast<uint64_t>(*v), unit);
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
      if (m == ".space" || m == ".align") {
        // Zero fill of the size pass 1 fixed, so the two passes agree.
        image_.bytes.resize(image_.bytes.size() + static_cast<uint64_t>(st.size));
        continue;
      }
      VB_RETURN_IF_ERROR(EmitInsn(st));
    }
    return vbase::Status::Ok();
  }

  // Operand i as a register.
  vbase::Status RegOperand(const Statement& st, size_t i, int* out) {
    const auto r = ParseReg(st.operands[i]);
    if (!r) {
      return Err(st, "expected a register: " + st.operands[i]);
    }
    *out = *r;
    return vbase::Status::Ok();
  }

  // Operand i as an expression whose value fits [lo, hi]: a field is never
  // silently truncated.
  vbase::Status FieldOperand(const Statement& st, size_t i, int64_t lo, int64_t hi,
                             const char* what, int64_t* out) {
    auto v = EvalExpr(st, st.operands[i], true);
    if (!v.ok()) {
      return v.status();
    }
    if (*v < lo || *v > hi) {
      return Err(st, std::string(what) + " out of range: " + std::to_string(*v));
    }
    *out = *v;
    return vbase::Status::Ok();
  }

  // Operand i as a branch target, stored as rel32 from `next`.
  vbase::Status RelOperand(const Statement& st, size_t i, uint64_t next, int64_t* out) {
    auto v = EvalExpr(st, st.operands[i], true);
    if (!v.ok()) {
      return v.status();
    }
    const auto rel = static_cast<int64_t>(static_cast<uint64_t>(*v) - next);
    if (!FitsI32(rel)) {
      return Err(st, "branch target out of 32-bit range: " + st.operands[i]);
    }
    *out = rel;
    return vbase::Status::Ok();
  }

  // Encodes an instruction by its row's Form (layouts in isa.h).
  vbase::Status EmitInsn(const Statement& st) {
    const Form form = kOps[static_cast<size_t>(st.op)].form;
    const uint64_t next = CurAddr() + static_cast<uint64_t>(FormSize(form));
    int a = 0;
    int b = 0;
    int64_t v = 0;
    Emit8(static_cast<uint8_t>(st.op));
    switch (form) {
      case Form::kNone:
        break;
      case Form::kR:
        VB_RETURN_IF_ERROR(RegOperand(st, 0, &a));
        Emit8(static_cast<uint8_t>(a << 4));
        break;
      case Form::kRR:
        VB_RETURN_IF_ERROR(RegOperand(st, 0, &a));
        VB_RETURN_IF_ERROR(RegOperand(st, 1, &b));
        Emit8(static_cast<uint8_t>(a << 4 | b));
        break;
      case Form::kRI32:
        VB_RETURN_IF_ERROR(RegOperand(st, 0, &a));
        VB_RETURN_IF_ERROR(FieldOperand(st, 1, INT32_MIN, INT32_MAX,
                                        "32-bit immediate (load wider ones with mov)", &v));
        Emit8(static_cast<uint8_t>(a << 4));
        EmitLE(static_cast<uint64_t>(v), 4);
        break;
      case Form::kRI64:
        VB_RETURN_IF_ERROR(RegOperand(st, 0, &a));
        VB_RETURN_IF_ERROR(FieldOperand(st, 1, INT64_MIN, INT64_MAX, "immediate", &v));
        Emit8(static_cast<uint8_t>(a));
        EmitLE(static_cast<uint64_t>(v), 8);
        break;
      case Form::kLoad:
      case Form::kStore: {
        const bool load = form == Form::kLoad;
        VB_RETURN_IF_ERROR(RegOperand(st, load ? 0 : 1, &a));
        auto mem = ParseMem(st, st.operands[load ? 1 : 0]);
        if (!mem.ok()) {
          return mem.status();
        }
        // A load's a is its destination and b its base; a store's a is its
        // base and b its source.
        Emit8(static_cast<uint8_t>(load ? a << 4 | mem->base : mem->base << 4 | a));
        Emit8(mem->x);
        EmitLE(static_cast<uint64_t>(mem->disp), 4);
        break;
      }
      case Form::kRel:
        VB_RETURN_IF_ERROR(RelOperand(st, 0, next, &v));
        EmitLE(static_cast<uint64_t>(v), 4);
        break;
      case Form::kJcc:
        VB_RETURN_IF_ERROR(RelOperand(st, 0, next, &v));
        Emit8(static_cast<uint8_t>(st.cc));
        EmitLE(static_cast<uint64_t>(v), 4);
        break;
      case Form::kLjmp: {
        const auto mode = ParseMode(st.operands[0]);
        if (!mode) {
          return Err(st, "bad mode: " + st.operands[0]);
        }
        VB_RETURN_IF_ERROR(RelOperand(st, 1, next, &v));
        Emit8(static_cast<uint8_t>(*mode));
        EmitLE(static_cast<uint64_t>(v), 4);
        break;
      }
      case Form::kCset: {
        VB_RETURN_IF_ERROR(RegOperand(st, 0, &a));
        const auto cc = ParseCond(st.operands[1]);
        if (!cc) {
          return Err(st, "bad condition: " + st.operands[1]);
        }
        Emit8(static_cast<uint8_t>(a << 4 | static_cast<int>(*cc)));
        break;
      }
      case Form::kWrcr:
        VB_RETURN_IF_ERROR(FieldOperand(st, 0, 0, 15, "control register", &v));
        VB_RETURN_IF_ERROR(RegOperand(st, 1, &b));
        Emit8(static_cast<uint8_t>(v << 4 | b));
        break;
      case Form::kRdcr:
        VB_RETURN_IF_ERROR(RegOperand(st, 0, &a));
        VB_RETURN_IF_ERROR(FieldOperand(st, 1, 0, 15, "control register", &v));
        Emit8(static_cast<uint8_t>(a << 4 | v));
        break;
      case Form::kIn:
      case Form::kOut: {
        const bool in = form == Form::kIn;
        VB_RETURN_IF_ERROR(RegOperand(st, in ? 0 : 1, &a));
        VB_RETURN_IF_ERROR(FieldOperand(st, in ? 1 : 0, 0, 0xffff, "port", &v));
        EmitLE(static_cast<uint64_t>(v), 2);
        Emit8(static_cast<uint8_t>(a));
        break;
      }
    }
    return vbase::Status::Ok();
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
