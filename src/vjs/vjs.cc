#include "src/vjs/vjs.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

#include "src/base/nesting.h"

namespace vjs {
namespace {

// --- Bytecode ops (shared contract with the engine in EngineSource) ---------
enum Op : uint8_t {
  kHalt = 0,
  kPush = 1,    // i32 little-endian
  kLoad = 2,    // u8 slot
  kStore = 3,   // u8 slot
  kAdd = 4,
  kSub = 5,
  kMul = 6,
  kDiv = 7,
  kMod = 8,
  kLt = 9,
  kLe = 10,
  kGt = 11,
  kGe = 12,
  kEq = 13,
  kNe = 14,
  kJmp = 15,    // i16 relative to next instruction
  kJz = 16,     // pops condition
  kCallB = 17,  // u8 builtin, u8 nargs; result pushed
  kAnd = 18,
  kOr = 19,
  kXor = 20,
  kShl = 21,
  kShr = 22,
  kNot = 23,
  kNeg = 24,
  kPop = 25,
};

// Builtin indices.
enum Builtin : uint8_t {
  kInputLen = 0,
  kInput = 1,
  kOut = 2,
  kB64 = 3,
};

// The parser's tables live here, not as function statics, so the recursive
// parse functions' frames hold no initializer temporaries.
struct BuiltinFn {
  const char* name;
  Builtin index;
  int nargs;
};
constexpr BuiltinFn kBuiltinFns[] = {
    {"input_len", kInputLen, 0}, {"input", kInput, 1}, {"out", kOut, 1}, {"b64", kB64, 1}};

// && and || compile to the bitwise forms (operands are 0/1 comparisons in
// practice); microjs has no short-circuit side effects to preserve.
struct BinaryOp {
  const char* text;
  Op op;
};
constexpr BinaryOp kBinaryOps[] = {
    {"+", kAdd},  {"-", kSub},  {"*", kMul},  {"/", kDiv},   {"%", kMod},  {"<", kLt},
    {"<=", kLe},  {">", kGt},   {">=", kGe},  {"==", kEq},   {"!=", kNe},  {"&", kAnd},
    {"&&", kAnd}, {"|", kOr},   {"||", kOr},  {"^", kXor},   {"<<", kShl}, {">>", kShr},
};

struct JsToken {
  enum Kind { kEof, kIdent, kNum, kPunct } kind = kEof;
  std::string text;
  int64_t value = 0;
  int line = 1;
};

class ScriptCompiler {
 public:
  explicit ScriptCompiler(const std::string& src) : src_(src) {}

  vbase::Result<std::vector<uint8_t>> Run() {
    VB_RETURN_IF_ERROR(Tokenize());
    while (!Is(JsToken::kEof)) {
      VB_RETURN_IF_ERROR(Statement());
    }
    code_.push_back(kHalt);
    if (max_stack_ > kEngineStackWords) {
      return vbase::InvalidArgument("microjs: the script needs " + std::to_string(max_stack_) +
                                    " operand stack slots; the engine has " +
                                    std::to_string(kEngineStackWords));
    }
    return code_;
  }

 private:
  vbase::Status Err(const std::string& msg) {
    return vbase::InvalidArgument("microjs line " + std::to_string(Peek().line) + ": " + msg);
  }

  // Fails once the parse nests deeper than kMaxScriptNesting.
  vbase::Status CheckNesting() {
    if (depth_ > kMaxScriptNesting) {
      return Err("statements and expressions nest deeper than " +
                 std::to_string(kMaxScriptNesting) + " levels");
    }
    return vbase::Status::Ok();
  }

  vbase::Status Tokenize() {
    size_t i = 0;
    int line = 1;
    const size_t n = src_.size();
    while (i < n) {
      const char c = src_[i];
      if (c == '\n') {
        ++line;
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < n && src_[i + 1] == '/') {
        while (i < n && src_[i] != '\n') {
          ++i;
        }
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < n && (std::isalnum(static_cast<unsigned char>(src_[j])) || src_[j] == '_')) {
          ++j;
        }
        toks_.push_back({JsToken::kIdent, src_.substr(i, j - i), 0, line});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        int64_t v = 0;
        while (j < n && std::isdigit(static_cast<unsigned char>(src_[j]))) {
          v = v * 10 + (src_[j] - '0');
          ++j;
        }
        toks_.push_back({JsToken::kNum, src_.substr(i, j - i), v, line});
        i = j;
        continue;
      }
      static const char* kPuncts[] = {"<=", ">=", "==", "!=", "&&", "||", "<<", ">>",
                                      "+", "-", "*", "/", "%", "&", "|", "^", "!",
                                      "<", ">", "=", "(", ")", "{", "}", ";", ","};
      bool matched = false;
      for (const char* p : kPuncts) {
        const size_t len = std::char_traits<char>::length(p);
        if (src_.compare(i, len, p) == 0) {
          toks_.push_back({JsToken::kPunct, p, 0, line});
          i += len;
          matched = true;
          break;
        }
      }
      if (!matched) {
        return vbase::InvalidArgument("microjs: bad character at line " + std::to_string(line));
      }
    }
    toks_.push_back({JsToken::kEof, "", 0, line});
    return vbase::Status::Ok();
  }

  const JsToken& Peek() const { return toks_[std::min(pos_, toks_.size() - 1)]; }
  const JsToken& Next() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  bool Is(JsToken::Kind k) const { return Peek().kind == k; }
  bool IsP(const char* p) const { return Peek().kind == JsToken::kPunct && Peek().text == p; }
  bool IsI(const char* w) const { return Peek().kind == JsToken::kIdent && Peek().text == w; }
  bool EatP(const char* p) {
    if (IsP(p)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool EatI(const char* w) {
    if (IsI(w)) {
      ++pos_;
      return true;
    }
    return false;
  }
  vbase::Status Expect(const char* p) {
    if (!EatP(p)) {
      return Err(std::string("expected '") + p + "'");
    }
    return vbase::Status::Ok();
  }

  void Emit(uint8_t b) { code_.push_back(b); }
  // Emits an opcode that moves the engine's operand stack by `stack_effect`
  // words, tracking the deepest the stack gets.
  void EmitOp(uint8_t op, int stack_effect) {
    Emit(op);
    stack_ += stack_effect;
    max_stack_ = std::max(max_stack_, stack_);
  }
  void Emit32(int32_t v) {
    for (int i = 0; i < 4; ++i) {
      Emit(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  size_t EmitJump(uint8_t op) {
    EmitOp(op, op == kJz ? -1 : 0);  // JZ pops its condition
    Emit(0);
    Emit(0);
    return code_.size() - 2;
  }
  // Points the i16 jump operand at `at` (relative to the end of its
  // instruction) to `target`; an offset outside i16 is an error, not a wrap.
  vbase::Status SetJump(size_t at, size_t target) {
    const int64_t rel = static_cast<int64_t>(target) - static_cast<int64_t>(at + 2);
    if (rel < INT16_MIN || rel > INT16_MAX) {
      return Err("jump offset " + std::to_string(rel) + " does not fit in 16 bits");
    }
    code_[at] = static_cast<uint8_t>(rel);
    code_[at + 1] = static_cast<uint8_t>(rel >> 8);
    return vbase::Status::Ok();
  }
  vbase::Status PatchJump(size_t at) { return SetJump(at, code_.size()); }

  vbase::Result<int> Slot(const std::string& name, bool create) {
    auto it = slots_.find(name);
    if (it != slots_.end()) {
      return it->second;
    }
    if (!create) {
      return Err("undefined variable '" + name + "'");
    }
    if (slots_.size() >= 250) {
      return Err("too many variables");
    }
    const int slot = static_cast<int>(slots_.size());
    slots_[name] = slot;
    return slot;
  }

  vbase::Status Statement() {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    if (EatI("var")) {
      if (!Is(JsToken::kIdent)) {
        return Err("expected variable name");
      }
      std::string name = Next().text;
      auto slot = Slot(name, /*create=*/true);
      if (!slot.ok()) {
        return slot.status();
      }
      VB_RETURN_IF_ERROR(Expect("="));
      VB_RETURN_IF_ERROR(Expression());
      VB_RETURN_IF_ERROR(Expect(";"));
      EmitOp(kStore, -1);
      Emit(static_cast<uint8_t>(*slot));
      return vbase::Status::Ok();
    }
    if (EatI("while")) {
      const size_t head = code_.size();
      VB_RETURN_IF_ERROR(Expect("("));
      VB_RETURN_IF_ERROR(Expression());
      VB_RETURN_IF_ERROR(Expect(")"));
      const size_t exit_jump = EmitJump(kJz);
      VB_RETURN_IF_ERROR(Block());
      // Back-edge.
      VB_RETURN_IF_ERROR(SetJump(EmitJump(kJmp), head));
      return PatchJump(exit_jump);
    }
    if (EatI("if")) {
      VB_RETURN_IF_ERROR(Expect("("));
      VB_RETURN_IF_ERROR(Expression());
      VB_RETURN_IF_ERROR(Expect(")"));
      const size_t else_jump = EmitJump(kJz);
      VB_RETURN_IF_ERROR(Block());
      if (EatI("else")) {
        const size_t end_jump = EmitJump(kJmp);
        VB_RETURN_IF_ERROR(PatchJump(else_jump));
        VB_RETURN_IF_ERROR(Block());
        return PatchJump(end_jump);
      }
      return PatchJump(else_jump);
    }
    // Assignment or expression statement.
    if (Is(JsToken::kIdent) && toks_[pos_ + 1].kind == JsToken::kPunct &&
        toks_[pos_ + 1].text == "=") {
      std::string name = Next().text;
      Next();  // '='
      auto slot = Slot(name, /*create=*/false);
      if (!slot.ok()) {
        return slot.status();
      }
      VB_RETURN_IF_ERROR(Expression());
      VB_RETURN_IF_ERROR(Expect(";"));
      EmitOp(kStore, -1);
      Emit(static_cast<uint8_t>(*slot));
      return vbase::Status::Ok();
    }
    VB_RETURN_IF_ERROR(Expression());
    VB_RETURN_IF_ERROR(Expect(";"));
    EmitOp(kPop, -1);
    return vbase::Status::Ok();
  }

  vbase::Status Block() {
    if (EatP("{")) {
      while (!IsP("}")) {
        if (Is(JsToken::kEof)) {
          return Err("unterminated block");
        }
        VB_RETURN_IF_ERROR(Statement());
      }
      Next();
      return vbase::Status::Ok();
    }
    return Statement();
  }

  static int Prec(const std::string& op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    return -1;
  }

  vbase::Status Expression(int min_prec = 0) {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    VB_RETURN_IF_ERROR(Unary());
    while (Peek().kind == JsToken::kPunct) {
      const int prec = Prec(Peek().text);
      if (prec < 0 || prec < min_prec) {
        break;
      }
      const std::string& op = Next().text;
      VB_RETURN_IF_ERROR(Expression(prec + 1));
      const BinaryOp* binary = nullptr;
      for (const BinaryOp& b : kBinaryOps) {
        if (op == b.text) {
          binary = &b;
        }
      }
      if (binary == nullptr) {
        return Err("bad operator " + op);
      }
      EmitOp(binary->op, -1);  // pops two operands, pushes the result
    }
    return vbase::Status::Ok();
  }

  vbase::Status Unary() {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    if (EatP("-")) {
      VB_RETURN_IF_ERROR(Unary());
      EmitOp(kNeg, 0);
      return vbase::Status::Ok();
    }
    if (EatP("!")) {
      VB_RETURN_IF_ERROR(Unary());
      EmitOp(kNot, 0);
      return vbase::Status::Ok();
    }
    return Primary();
  }

  vbase::Status Primary() {
    if (Is(JsToken::kNum)) {
      EmitOp(kPush, 1);
      Emit32(static_cast<int32_t>(Next().value));
      return vbase::Status::Ok();
    }
    if (EatP("(")) {
      VB_RETURN_IF_ERROR(Expression());
      return Expect(")");
    }
    if (Is(JsToken::kIdent)) {
      const std::string& name = Next().text;
      if (EatP("(")) {
        const BuiltinFn* fn = nullptr;
        for (const BuiltinFn& f : kBuiltinFns) {
          if (name == f.name) {
            fn = &f;
          }
        }
        if (fn == nullptr) {
          return Err("unknown function '" + name + "'");
        }
        int nargs = 0;
        if (!IsP(")")) {
          while (true) {
            VB_RETURN_IF_ERROR(Expression());
            ++nargs;
            if (!EatP(",")) {
              break;
            }
          }
        }
        VB_RETURN_IF_ERROR(Expect(")"));
        if (nargs != fn->nargs) {
          return Err("wrong argument count for '" + name + "'");
        }
        EmitOp(kCallB, 1 - nargs);  // pops the arguments, pushes the result
        Emit(static_cast<uint8_t>(fn->index));
        Emit(static_cast<uint8_t>(nargs));
        return vbase::Status::Ok();
      }
      auto slot = Slot(name, /*create=*/false);
      if (!slot.ok()) {
        return slot.status();
      }
      EmitOp(kLoad, 1);
      Emit(static_cast<uint8_t>(*slot));
      return vbase::Status::Ok();
    }
    return Err("expected expression");
  }

  const std::string& src_;
  std::vector<JsToken> toks_;
  size_t pos_ = 0;
  std::vector<uint8_t> code_;
  std::map<std::string, int> slots_;
  int depth_ = 0;      // statement/expression nesting of the parse
  int stack_ = 0;      // operand stack depth after the code emitted so far
  int max_stack_ = 0;  // the deepest it has been
};

}  // namespace

vbase::Result<std::vector<uint8_t>> CompileScript(const std::string& source) {
  ScriptCompiler compiler(source);
  return compiler.Run();
}

const char* Base64ScriptSource() {
  return R"js(
var n = input_len();
var i = 0;
while (i + 3 <= n) {
  var x = input(i) * 65536 + input(i + 1) * 256 + input(i + 2);
  out(b64((x / 262144) % 64));
  out(b64((x / 4096) % 64));
  out(b64((x / 64) % 64));
  out(b64(x % 64));
  i = i + 3;
}
var r = n - i;
if (r == 1) {
  var y = input(i) * 65536;
  out(b64((y / 262144) % 64));
  out(b64((y / 4096) % 64));
  out(61);
  out(61);
}
if (r == 2) {
  var z = input(i) * 65536 + input(i + 1) * 256;
  out(b64((z / 262144) % 64));
  out(b64((z / 4096) % 64));
  out(b64((z / 64) % 64));
  out(61);
}
)js";
}

std::string HostBase64(const std::vector<uint8_t>& data) {
  static const char* kTab = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  size_t i = 0;
  while (i + 3 <= data.size()) {
    const uint32_t x = (data[i] << 16) | (data[i + 1] << 8) | data[i + 2];
    out += kTab[(x >> 18) & 63];
    out += kTab[(x >> 12) & 63];
    out += kTab[(x >> 6) & 63];
    out += kTab[x & 63];
    i += 3;
  }
  const size_t rem = data.size() - i;
  if (rem == 1) {
    const uint32_t x = data[i] << 16;
    out += kTab[(x >> 18) & 63];
    out += kTab[(x >> 12) & 63];
    out += "==";
  } else if (rem == 2) {
    const uint32_t x = (data[i] << 16) | (data[i + 1] << 8);
    out += kTab[(x >> 18) & 63];
    out += kTab[(x >> 12) & 63];
    out += kTab[(x >> 6) & 63];
    out += '=';
  }
  return out;
}

std::string EngineSource(const std::vector<uint8_t>& script, bool teardown) {
  std::ostringstream os;
  os << "char SCRIPT[" << script.size() << "] = {";
  for (size_t i = 0; i < script.size(); ++i) {
    os << static_cast<int>(script[i]) << (i + 1 < script.size() ? "," : "");
  }
  os << "};\n";
  os << "int TEARDOWN = " << (teardown ? 1 : 0) << ";\n";
  os << R"vc(
char B64TAB[65] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Engine state (all heap-allocated by engine_init, Duktape-context style).
int *E_STACK;
int *E_VARS;
int *E_OBJS;
char *E_IN;
char *E_OUT;
int E_INN = 0;
int E_OUTN = 0;
int E_NOBJS = 0;

// Allocates the interpreter stack, variable slots, an object heap of 96
// initialized objects, and I/O buffers — the engine-warm-up work that the
// snapshot optimization elides.
int engine_init() {
  int i;
  char *p;
  E_STACK = malloc()vc" << kEngineStackWords * 8 << R"vc();
  E_VARS = malloc(2048);
  E_OBJS = malloc(2048);
  E_IN = malloc(65536);
  E_OUT = malloc(98304);
  E_NOBJS = 96;
  for (i = 0; i < E_NOBJS; i = i + 1) {
    p = malloc(256);
    memset(p, i & 255, 256);
    E_OBJS[i] = p;
  }
  for (i = 0; i < 256; i = i + 1) {
    E_VARS[i] = 0;
  }
  return 0;
}

// Releases the object heap (clearing each object models destructor /
// finalizer work).  Skipped by the NT variants.
int engine_teardown() {
  int i;
  char *p;
  for (i = 0; i < E_NOBJS; i = i + 1) {
    p = E_OBJS[i];
    memset(p, 0, 256);
    free(p);
  }
  return 0;
}

// Interprets `code` until HALT.  Dispatch is one `switch (op)` over the dense
// opcode set 0-25, which vcc compiles to a jump table: every bytecode costs
// one bounds check and one indirect jump to its own arm.  Each arm ends in
// `continue`, straight back to the fetch.  An unknown opcode returns -1.
int run(char *code) {
  int pc;
  int sp;
  int op;
  int a;
  int b;
  pc = 0;
  sp = 0;
  while (1) {
    op = code[pc];
    pc = pc + 1;
    switch (op) {
      case 0:  // HALT
        return 0;
      case 1:  // PUSH i32
        a = code[pc] | (code[pc + 1] << 8) | (code[pc + 2] << 16) | (code[pc + 3] << 24);
        if (a & 2147483648) {
          a = a - 4294967296;
        }
        pc = pc + 4;
        E_STACK[sp] = a;
        sp = sp + 1;
        continue;
      case 2:  // LOAD
        E_STACK[sp] = E_VARS[code[pc]];
        pc = pc + 1;
        sp = sp + 1;
        continue;
      case 3:  // STORE
        sp = sp - 1;
        E_VARS[code[pc]] = E_STACK[sp];
        pc = pc + 1;
        continue;
      // Binary ops pop b and replace a with a OP b.
      case 4: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] + E_STACK[sp]; continue;
      case 5: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] - E_STACK[sp]; continue;
      case 6: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] * E_STACK[sp]; continue;
      case 7: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] / E_STACK[sp]; continue;
      case 8: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] % E_STACK[sp]; continue;
      case 9: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] < E_STACK[sp]; continue;
      case 10: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] <= E_STACK[sp]; continue;
      case 11: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] > E_STACK[sp]; continue;
      case 12: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] >= E_STACK[sp]; continue;
      case 13: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] == E_STACK[sp]; continue;
      case 14: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] != E_STACK[sp]; continue;
      case 15:  // JMP i16
        a = code[pc] | (code[pc + 1] << 8);
        if (a & 32768) {
          a = a - 65536;
        }
        pc = pc + 2 + a;
        continue;
      case 16:  // JZ
        a = code[pc] | (code[pc + 1] << 8);
        if (a & 32768) {
          a = a - 65536;
        }
        pc = pc + 2;
        sp = sp - 1;
        if (E_STACK[sp] == 0) {
          pc = pc + a;
        }
        continue;
      case 17:  // CALLB builtin nargs
        a = code[pc];
        b = code[pc + 1];
        pc = pc + 2;
        sp = sp - b;
        if (a == 0) {
          E_STACK[sp] = E_INN;
        }
        if (a == 1) {
          E_STACK[sp] = E_IN[E_STACK[sp]];
        }
        if (a == 2) {
          E_OUT[E_OUTN] = E_STACK[sp];
          E_OUTN = E_OUTN + 1;
          E_STACK[sp] = 0;
        }
        if (a == 3) {
          E_STACK[sp] = B64TAB[E_STACK[sp] & 63];
        }
        sp = sp + 1;
        continue;
      // The bitwise binary ops (>> is arithmetic).
      case 18: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] & E_STACK[sp]; continue;
      case 19: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] | E_STACK[sp]; continue;
      case 20: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] ^ E_STACK[sp]; continue;
      case 21: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] << E_STACK[sp]; continue;
      case 22: sp = sp - 1; E_STACK[sp - 1] = E_STACK[sp - 1] >> E_STACK[sp]; continue;
      case 23:  // NOT
        E_STACK[sp - 1] = !E_STACK[sp - 1];
        continue;
      case 24:  // NEG
        E_STACK[sp - 1] = -E_STACK[sp - 1];
        continue;
      case 25:  // POP
        sp = sp - 1;
        continue;
    }
    return -1;  // bad opcode
  }
  return 0;
}

// Exits with the in-guest cycles spent on init + run + teardown as the exit
// code: the engine cost with zero virtualization overhead (the native
// baseline).  The snapshot point (Section 6.5: after long-mode boot + engine
// init) is inside the input call, snapshot_get_data, so a warm call resumes
// with its input delivered and leaves in the one exit that carries its
// output.  The call is issued inline, so the resumed frame is main's own,
// which no later call overwrites, and the per-call state is reset right
// after it: a re-captured snapshot (a finished call's memory folded in)
// still resumes cleanly.
int main() {
  int t0;
  int t1;
  t0 = __rdtsc();
  engine_init();
  E_INN = __hc2(6, E_IN, 65536);  // snapshot_get_data
  E_OUTN = 0;
  run(SCRIPT);
  if (TEARDOWN) {
    engine_teardown();
  }
  t1 = __rdtsc();
  return_exit(t1 - t0, E_OUT, E_OUTN);
  return 0;
}
)vc";
  return os.str();
}

}  // namespace vjs
