#include "src/vjs/vjs.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "src/base/nesting.h"
#include "src/wasp/abi.h"

namespace vjs {
namespace {

// --- The program: [op, operand] word pairs ---------------------------------
//
// CompileScript emits the form the engine executes, so the engine never
// reassembles an operand or searches for a builtin: PUSH carries its i32 and
// LOAD/STORE their slot in the operand word, a jump carries the word index of
// its target, each builtin is its own op, and a literal right operand rides
// in the operand word of its binary op's K form.  The values are the case
// labels of the engine's arms in EngineSource.
enum Op : int {
  kHalt = 0,
  kPush = 1,
  kLoad = 2,
  kStore = 3,
  kJmp = 4,
  kJz = 5,  // pops the condition
  kNot = 6,
  kNeg = 7,
  kPop = 8,
  kBuiltin = 9,             // + kBuiltinFns index
  kBinary = 13,             // + kBinaryOps index: pops the right operand
  kBinaryK = kBinary + 16,  // + kBinaryOps index: the right operand is literal
  kBad = kBinaryK + 16,     // no arm: the engine stops
};

// The variable slots a LOAD or STORE operand can name.
constexpr int kSlots = 256;

// The engine's arena (see engine_init in EngineSource).  Its first page
// holds the operand stack's top kStackTopBytes, the variable slots and the
// start of the I/O region; the rest of the stack lies in the pages below.
constexpr int kPageBytes = 4096;
constexpr int kStackBytes = kEngineStackWords * 8;
constexpr int kStackTopBytes = 512;
constexpr int kVarBytes = kSlots * 8;
constexpr int kIoBytes = kEngineInputBytes + kEngineOutputBytes;

// The parser's tables live here, not as function statics, so the recursive
// parse functions' frames hold no initializer temporaries.  kBuiltinFns is
// in the order of the engine's builtin arms.
struct BuiltinFn {
  const char* name;
  int nargs;
};
constexpr BuiltinFn kBuiltinFns[] = {{"input_len", 0}, {"input", 1}, {"out", 1}, {"b64", 1}};

// The 16 binary operators.  Each is also the vcc operator the engine's arm
// applies, and its position numbers the arms (kBinary + i, kBinaryK + i).
constexpr const char* kBinaryOps[] = {"+",  "-",  "*",  "/", "%", "<", "<=", ">",
                                      ">=", "==", "!=", "&", "|", "^", "<<", ">>"};
static_assert(kBuiltin + std::size(kBuiltinFns) == kBinary && std::size(kBinaryOps) == 16);

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
    scopes_.emplace_back();
    while (!Is(JsToken::kEof)) {
      VB_RETURN_IF_ERROR(Statement());
    }
    Emit(kHalt, 0, 0);
    if (max_stack_ > kEngineStackWords) {
      return vbase::InvalidArgument("microjs: the script needs " + std::to_string(max_stack_) +
                                    " operand stack slots; the engine has " +
                                    std::to_string(kEngineStackWords));
    }
    const auto* bytes = reinterpret_cast<const uint8_t*>(code_.data());
    return std::vector<uint8_t>(bytes, bytes + code_.size() * sizeof(int64_t));
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
        uint64_t v = 0;
        while (j < n && std::isdigit(static_cast<unsigned char>(src_[j]))) {
          const uint64_t d = static_cast<uint64_t>(src_[j] - '0');
          if (v > (UINT64_MAX - d) / 10) {
            return vbase::InvalidArgument("microjs: number out of 64-bit range at line " +
                                          std::to_string(line));
          }
          v = v * 10 + d;
          ++j;
        }
        toks_.push_back({JsToken::kNum, src_.substr(i, j - i), static_cast<int64_t>(v), line});
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

  // Moves the engine's operand stack by `words`, tracking the deepest it gets.
  void Move(int words) {
    stack_ += words;
    max_stack_ = std::max(max_stack_, stack_);
  }
  // Appends an [op, operand] pair that moves the stack by `stack_effect`
  // words; returns the pair's word index.
  size_t Emit(int op, int64_t operand, int stack_effect) {
    code_.push_back(op);
    code_.push_back(operand);
    Move(stack_effect);
    return code_.size() - 2;
  }
  size_t EmitJump(int op) { return Emit(op, 0, op == kJz ? -1 : 0); }  // JZ pops its condition
  // Points the jump at word `at` to the next pair emitted.
  void PatchJump(size_t at) { code_[at + 1] = static_cast<int64_t>(code_.size()); }

  // A name's slot.  Slots are numbered once per name for the whole script,
  // but a name is visible only from the end of its `var` to the end of the
  // enclosing block, so every read follows a store made earlier in the same
  // call: nothing a snapshot captured from an earlier call is ever read.
  vbase::Result<int> Slot(const std::string& name, bool create) {
    if (!create && visible_.count(name) == 0) {
      return Err("undefined variable '" + name + "'");
    }
    auto it = slots_.find(name);
    if (it != slots_.end()) {
      return it->second;
    }
    if (slots_.size() >= kSlots) {
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
      Emit(kStore, *slot, -1);
      if (visible_.insert(name).second) {
        scopes_.back().push_back(name);
      }
      return vbase::Status::Ok();
    }
    if (EatI("while")) {
      const size_t head = code_.size();
      VB_RETURN_IF_ERROR(Expect("("));
      VB_RETURN_IF_ERROR(Expression());
      VB_RETURN_IF_ERROR(Expect(")"));
      const size_t exit_jump = EmitJump(kJz);
      VB_RETURN_IF_ERROR(Block());
      Emit(kJmp, static_cast<int64_t>(head), 0);  // the back-edge
      PatchJump(exit_jump);
      return vbase::Status::Ok();
    }
    if (EatI("if")) {
      VB_RETURN_IF_ERROR(Expect("("));
      VB_RETURN_IF_ERROR(Expression());
      VB_RETURN_IF_ERROR(Expect(")"));
      const size_t else_jump = EmitJump(kJz);
      VB_RETURN_IF_ERROR(Block());
      if (EatI("else")) {
        const size_t end_jump = EmitJump(kJmp);
        PatchJump(else_jump);
        VB_RETURN_IF_ERROR(Block());
        PatchJump(end_jump);
      } else {
        PatchJump(else_jump);
      }
      return vbase::Status::Ok();
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
      Emit(kStore, *slot, -1);
      return vbase::Status::Ok();
    }
    VB_RETURN_IF_ERROR(Expression());
    VB_RETURN_IF_ERROR(Expect(";"));
    Emit(kPop, 0, -1);
    return vbase::Status::Ok();
  }

  // An `if` or `while` body, braced or not: a scope of its own.
  vbase::Status Block() {
    scopes_.emplace_back();
    if (EatP("{")) {
      while (!IsP("}")) {
        if (Is(JsToken::kEof)) {
          return Err("unterminated block");
        }
        VB_RETURN_IF_ERROR(Statement());
      }
      Next();
    } else {
      VB_RETURN_IF_ERROR(Statement());
    }
    for (const std::string& name : scopes_.back()) {
      visible_.erase(name);
    }
    scopes_.pop_back();
    return vbase::Status::Ok();
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
      const size_t right = code_.size();
      VB_RETURN_IF_ERROR(Expression(prec + 1));
      // && and || compile to the bitwise forms (operands are 0/1 comparisons
      // in practice); microjs has no short-circuit side effects to preserve.
      const std::string bitwise = op == "&&" ? "&" : op == "||" ? "|" : op;
      const auto* binary = std::find(std::begin(kBinaryOps), std::end(kBinaryOps), bitwise);
      if (binary == std::end(kBinaryOps)) {
        return Err("bad operator " + op);
      }
      const int index = static_cast<int>(binary - std::begin(kBinaryOps));
      // The op pops two operands and pushes the result.  A right operand
      // that is one PUSH (nothing jumps between it and the op) becomes the
      // op's K form, its literal already in the operand word.
      if (code_.size() == right + 2 && code_[right] == kPush) {
        code_[right] = kBinaryK + index;
        Move(-1);
      } else {
        Emit(kBinary + index, 0, -1);
      }
    }
    return vbase::Status::Ok();
  }

  vbase::Status Unary() {
    const vbase::NestingLevel level(&depth_);
    VB_RETURN_IF_ERROR(CheckNesting());
    if (EatP("-")) {
      VB_RETURN_IF_ERROR(Unary());
      Emit(kNeg, 0, 0);
      return vbase::Status::Ok();
    }
    if (EatP("!")) {
      VB_RETURN_IF_ERROR(Unary());
      Emit(kNot, 0, 0);
      return vbase::Status::Ok();
    }
    return Primary();
  }

  vbase::Status Primary() {
    if (Is(JsToken::kNum)) {
      Emit(kPush, static_cast<int32_t>(Next().value), 1);
      return vbase::Status::Ok();
    }
    if (EatP("(")) {
      VB_RETURN_IF_ERROR(Expression());
      return Expect(")");
    }
    if (Is(JsToken::kIdent)) {
      const std::string& name = Next().text;
      if (EatP("(")) {
        const auto* fn = std::find_if(std::begin(kBuiltinFns), std::end(kBuiltinFns),
                                      [&](const BuiltinFn& f) { return name == f.name; });
        if (fn == std::end(kBuiltinFns)) {
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
        // Pops the arguments, pushes the result.
        Emit(kBuiltin + static_cast<int>(fn - std::begin(kBuiltinFns)), 0, 1 - nargs);
        return vbase::Status::Ok();
      }
      auto slot = Slot(name, /*create=*/false);
      if (!slot.ok()) {
        return slot.status();
      }
      Emit(kLoad, *slot, 1);
      return vbase::Status::Ok();
    }
    return Err("expected expression");
  }

  const std::string& src_;
  std::vector<JsToken> toks_;
  size_t pos_ = 0;
  std::vector<int64_t> code_;
  std::map<std::string, int> slots_;
  std::set<std::string> visible_;                // names readable here
  std::vector<std::vector<std::string>> scopes_;  // names each open block made visible
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
  // Whole pairs only: a cut-off pair at the end is dropped.  A pair the
  // engine has no arm for, or whose operand is a jump target off the
  // script's pairs or a slot outside the variables, becomes the bad op, and
  // a closing bad pair stops control that runs off the end, so the engine
  // never executes past what the script says.
  std::vector<int64_t> code(script.size() / 16 * 2);
  for (size_t i = 0; i < code.size(); ++i) {
    std::memcpy(&code[i], &script[8 * i], sizeof(int64_t));
  }
  const int64_t words = static_cast<int64_t>(code.size());
  for (size_t at = 0; at < code.size(); at += 2) {
    const int64_t op = code[at];
    const int64_t operand = code[at + 1];
    const bool bad_target = (op == kJmp || op == kJz) &&
                            (operand < 0 || operand >= words || operand % 2 != 0);
    const bool bad_slot = (op == kLoad || op == kStore) && (operand < 0 || operand >= kSlots);
    if (op < 0 || op >= kBad || bad_target || bad_slot) {
      code[at] = kBad;
      code[at + 1] = 0;
    }
  }
  code.push_back(kBad);
  code.push_back(0);
  std::ostringstream os;
  os << "int CODE[" << code.size() << "] = {";
  for (size_t i = 0; i < code.size(); ++i) {
    os << code[i] << (i + 1 < code.size() ? "," : "");
  }
  os << "};\n";
  os << R"vc(
char B64TAB[65] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Engine state (all heap-allocated by engine_init, Duktape-context style).
// main reads it into registers before the snapshot point; a call writes no
// global.
int *E_VARS;
char *E_IO;
int *E_OBJS;
int E_NOBJS = 0;
int E_T0 = 0;

// Carves the arena: one page-aligned block whose first page holds the top
// of the operand stack (which grows down into the pages below it), the
// variable slots right above that top, and the start of the I/O region,
// where snapshot_get_data writes the input and the output follows the
// input's bytes.  A call with a shallow stack and a few hundred bytes of
// I/O writes that one page.  Then builds an object heap of 96 initialized
// objects: the engine-warm-up work that the snapshot optimization elides.
int engine_init() {
  int i;
  char *p;
  int page;
  page = malloc()vc" << kStackBytes + kPageBytes + kVarBytes + kIoBytes << R"vc();
  page = (page + )vc" << kStackBytes - kStackTopBytes << " + " << kPageBytes - 1 << ") & ~"
     << kPageBytes - 1 << R"vc(;
  E_VARS = page + )vc" << kStackTopBytes << R"vc(;
  E_IO = page + )vc" << kStackTopBytes + kVarBytes << R"vc(;
  E_OBJS = malloc(2048);
  E_NOBJS = 96;
  for (i = 0; i < E_NOBJS; i = i + 1) {
    p = malloc(256);
    memset(p, i & 255, 256);
    E_OBJS[i] = p;
  }
  for (i = 0; i < )vc" << kVarBytes / 8 << R"vc(; i = i + 1) {
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

// Boots the engine, takes the call's input, runs CODE (the host decoded the
// script into [op, operand] word pairs) over it, and exits with the output.
//
// The snapshot point (Section 6.5: after long-mode boot + engine init) is
// inside the input call, snapshot_get_data, issued inline from main's own
// frame, so a warm call resumes with its input delivered and leaves in the
// one exit, return_exit, that carries its output.  In between it calls no
// function and writes nothing but the arena: every piece of working state
// is a register local.  `pc` indexes the word pairs, `t` caches the operand
// stack's top and `sp` points at the rest; they, the variable and I/O bases
// and the output count are set before the snapshot, and the input length
// `n` and the output base (right after the input) after it.  A re-captured
// snapshot (a finished call's memory folded in) still resumes cleanly,
// since the registers come from the snapshot's pending input call.
//
// Dispatch is one `switch` over the dense op set, which vcc compiles to a
// jump table: a bytecode costs one bounds check and one indirect jump to its
// own arm, and an operand is one load of `code[pc - 1]`.  Arms 13-28 pop
// their right operand; arms 29-44 are the same 16 operators with a literal
// right operand.  HALT, the bad-op word (45) and any op without an arm leave
// the loop.  input(i) reads 0 outside [0, n), so no index reaches the
// output or the engine's own memory, and out(c) drops every byte past the
// first )vc" << kEngineOutputBytes << R"vc(.
//
// The exit code is the in-guest cycles spent on init + run + teardown
// (rdtsc): the engine cost with zero virtualization overhead (the native
// baseline).
int main() {
  int *code;
  int pc;
  int *sp;
  int t;
  int a;
  int *vars;
  char *in;
  char *out;
  int outn;
  int n;
  E_T0 = __rdtsc();
  engine_init();
  code = CODE;
  pc = 0;
  vars = E_VARS;
  sp = vars;
  t = 0;
  in = E_IO;
  outn = 0;
  n = __hc2()vc" << wasp::kHcSnapshotGetData << ", in, " << kEngineInputBytes << R"vc();
  out = in + n;
  while (1) {
    pc = pc + 2;
    switch (code[pc - 2]) {
      case 0:  // HALT
        break;
      case 1:  // PUSH k
        sp = sp - 1;
        *sp = t;
        t = code[pc - 1];
        continue;
      case 2:  // LOAD slot
        sp = sp - 1;
        *sp = t;
        a = code[pc - 1];
        t = vars[a];
        continue;
      case 3:  // STORE slot
        a = code[pc - 1];
        vars[a] = t;
        t = *sp;
        sp = sp + 1;
        continue;
      case 4:  // JMP target
        pc = code[pc - 1];
        continue;
      case 5:  // JZ target: pops the condition
        if (t == 0) {
          pc = code[pc - 1];
        }
        t = *sp;
        sp = sp + 1;
        continue;
      case 6:  // NOT
        t = !t;
        continue;
      case 7:  // NEG
        t = -t;
        continue;
      case 8:  // POP
        t = *sp;
        sp = sp + 1;
        continue;
      case 9:  // input_len()
        sp = sp - 1;
        *sp = t;
        t = n;
        continue;
      case 10:  // input(i)
        if (t < n) {
          if (t >= 0) {
            t = in[t];
            continue;
          }
        }
        t = 0;
        continue;
      case 11:  // out(c)
        if (outn < )vc" << kEngineOutputBytes << R"vc() {
          out[outn] = t;
          outn = outn + 1;
        }
        t = 0;
        continue;
      case 12:  // b64(i)
        a = t & 63;
        t = B64TAB[a];
        continue;
      // The binary ops (>> is arithmetic).
)vc";
  for (size_t i = 0; i < std::size(kBinaryOps); ++i) {
    os << "      case " << kBinary + static_cast<int>(i) << ": t = *sp " << kBinaryOps[i]
       << " t; sp = sp + 1; continue;\n";
  }
  os << "      // The same with the literal right operand in the operand word.\n";
  for (size_t i = 0; i < std::size(kBinaryOps); ++i) {
    os << "      case " << kBinaryK + static_cast<int>(i) << ": t = t " << kBinaryOps[i]
       << " code[pc - 1]; continue;\n";
  }
  os << R"vc(    }
    // HALT, the bad-op word, or an op without an arm.
)vc" << (teardown ? "    engine_teardown();\n" : "") << R"vc(    a = E_T0;
    return __hc3()vc" << wasp::kHcReturnExit << R"vc(, __rdtsc() - a, out, outn);
  }
}
)vc";
  return os.str();
}

}  // namespace vjs
