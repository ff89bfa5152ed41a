// Differential oracle for the microjs engine.
//
// A seeded generator writes microjs scripts: declared variables, nested
// while/if/else with bounded trip counts, every binary operator with a
// literal right operand (which CompileScript emits as the operator's K form)
// and with a variable or computed one (its plain form), ! and unary minus,
// literals that wrap to negative i32s, and all four builtins.  Each script's
// [op, operand] word pairs, as CompileScript emits them, run in two places:
//
//   - a host-side reference interpreter written here from the engine's op
//     numbering, with 64-bit wrapping arithmetic and an arithmetic >>,
//     independent of EngineSource's check and of the guest engine;
//   - the engine virtine in a snapshotting Runtime: a cold call that
//     captures the snapshot, then a warm call on a second input.
//
// Both calls' output bytes must equal the reference's exactly.  Scripts end
// by writing every byte of every variable, so a wrong value anywhere shows.
//
// The language defines input(i) as 0 outside [0, input_len()) and drops
// out() bytes past vjs::kEngineOutputBytes, and the reference does the same;
// generated scripts read in-range indices mostly, and computed out-of-range
// ones on both sides.  They divide only by values in [1, 99] and shift only
// by counts in [0, 63].  The reference rejects anything else, so a generator
// bug fails loudly instead of comparing undefined behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

namespace {

constexpr int kScripts = 200;
constexpr size_t kMinInput = 8;

// --- The reference interpreter ----------------------------------------------

// The engine's ops, numbered as its arms in vjs.cc.  Binary operator i (in
// Operator order) is op kBinary + i, or kBinaryK + i with its literal right
// operand in the operand word.
enum : int64_t {
  kHalt = 0,
  kPush = 1,   // operand: an i32 literal
  kLoad = 2,   // operand: a slot
  kStore = 3,  // operand: a slot
  kJmp = 4,    // operand: the word index of the target pair
  kJz = 5,     // the same; pops the condition
  kNot = 6,
  kNeg = 7,
  kPop = 8,
  kInputLen = 9,
  kInput = 10,
  kOut = 11,
  kB64 = 12,
  kBinary = 13,
  kBinaryK = 29,
};
enum Operator {
  kAdd, kSub, kMul, kDiv, kMod, kLt, kLe, kGt, kGe, kEq, kNe, kAnd, kOr, kXor, kShl, kShr,
};

struct Reference {
  std::string error;  // empty when the script ran to HALT
  std::vector<uint8_t> output;
};

// Runs CompileScript's word pairs over `input` the way the language defines
// them.
Reference Interpret(const std::vector<uint8_t>& bytes, const std::vector<uint8_t>& input) {
  static const char kB64Tab[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  Reference ref;
  std::vector<int64_t> code(bytes.size() / 8);
  std::memcpy(code.data(), bytes.data(), code.size() * 8);
  std::vector<int64_t> stack;
  int64_t vars[256] = {};
  size_t pc = 0;
  auto fail = [&](const std::string& why) {
    ref.error = why + " at word " + std::to_string(pc);
    return ref;
  };
  auto pop = [&] {
    const int64_t v = stack.back();
    stack.pop_back();
    return v;
  };
  if (bytes.size() % 16 != 0) {
    return fail("a partial pair");
  }
  for (int steps = 0; steps < 1'000'000; ++steps) {
    if (pc >= code.size()) {
      return fail("ran off the end");
    }
    const int64_t op = code[pc];
    const int64_t operand = code[pc + 1];
    const bool binary = op >= kBinary && op < kBinary + 16;
    const bool binary_k = op >= kBinaryK && op < kBinaryK + 16;
    const size_t pops = op == kHalt || op == kPush || op == kLoad || op == kJmp || op == kInputLen
                            ? 0
                        : binary ? 2
                                 : 1;
    if (stack.size() < pops) {
      return fail("stack underflow");
    }
    if ((op == kPush || binary_k) && operand != static_cast<int32_t>(operand)) {
      return fail("a literal past i32");
    }
    if ((op == kLoad || op == kStore) && (operand < 0 || operand >= 256)) {
      return fail("slot " + std::to_string(operand));
    }
    if ((op == kJmp || op == kJz) &&
        (operand < 0 || operand >= static_cast<int64_t>(code.size()) || operand % 2 != 0)) {
      return fail("jump target " + std::to_string(operand));
    }
    pc += 2;
    switch (op) {
      case kHalt:
        return ref;
      case kPush:
        stack.push_back(operand);
        continue;
      case kLoad:
        stack.push_back(vars[operand]);
        continue;
      case kStore:
        vars[operand] = pop();
        continue;
      case kJmp:
      case kJz:
        if (op == kJmp || pop() == 0) {
          pc = static_cast<size_t>(operand);
        }
        continue;
      case kInputLen:
        stack.push_back(static_cast<int64_t>(input.size()));
        continue;
      case kInput: {
        const int64_t i = pop();
        const bool inside = i >= 0 && i < static_cast<int64_t>(input.size());
        stack.push_back(inside ? input[static_cast<size_t>(i)] : 0);
        continue;
      }
      case kOut: {
        const uint8_t c = static_cast<uint8_t>(pop());
        if (ref.output.size() < static_cast<size_t>(vjs::kEngineOutputBytes)) {
          ref.output.push_back(c);
        }
        stack.push_back(0);
        continue;
      }
      case kB64:
        stack.push_back(kB64Tab[pop() & 63]);
        continue;
      case kNot:
        stack.back() = stack.back() == 0;
        continue;
      case kNeg:
        stack.back() = static_cast<int64_t>(0 - static_cast<uint64_t>(stack.back()));
        continue;
      case kPop:
        stack.pop_back();
        continue;
      default:
        break;
    }
    if (!binary && !binary_k) {
      return fail("unknown op " + std::to_string(op));
    }
    const int64_t b = binary ? pop() : operand;
    const int64_t a = pop();
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    const int64_t which = op - (binary ? kBinary : kBinaryK);
    if ((which == kDiv || which == kMod) && (b < 1 || b > 99)) {
      return fail("divisor " + std::to_string(b) + " out of range");
    }
    if ((which == kShl || which == kShr) && (b < 0 || b > 63)) {
      return fail("shift count " + std::to_string(b) + " out of range");
    }
    int64_t r = 0;
    switch (which) {
      case kAdd: r = static_cast<int64_t>(ua + ub); break;
      case kSub: r = static_cast<int64_t>(ua - ub); break;
      case kMul: r = static_cast<int64_t>(ua * ub); break;
      case kDiv: r = a / b; break;
      case kMod: r = a % b; break;
      case kLt: r = a < b; break;
      case kLe: r = a <= b; break;
      case kGt: r = a > b; break;
      case kGe: r = a >= b; break;
      case kEq: r = a == b; break;
      case kNe: r = a != b; break;
      case kAnd: r = a & b; break;
      case kOr: r = a | b; break;
      case kXor: r = a ^ b; break;
      case kShl: r = static_cast<int64_t>(ua << b); break;
      default: r = a >> b; break;
    }
    stack.push_back(r);
  }
  return fail("step limit");
}

// --- The script generator ------------------------------------------------------

// Writes one random script.  The divisor variables d0-d1 and shift-count
// variables s0-s1 are assigned once, up front, and never again, so a plain
// `/`, `%`, `<<` or `>>` can take a variable right operand and stay in
// range.  Each loop has its own counter, which no random statement assigns.
class ScriptGen {
 public:
  explicit ScriptGen(uint64_t seed) : rng_(seed) {}

  std::string Script() {
    std::string out;
    for (int i = 0; i < 2; ++i) {
      out += "var d" + std::to_string(i) + " = " + std::to_string(1 + Pick(16)) + ";\n";
      out += "var s" + std::to_string(i) + " = " + std::to_string(Pick(32)) + ";\n";
    }
    for (int i = 0; i < kValueVars; ++i) {
      out += "var v" + std::to_string(i) + " = " + Literal() + ";\n";
    }
    out += Block(4 + Pick(4), 0);
    // Every byte of every value variable, low byte first.
    for (int i = 0; i < kValueVars; ++i) {
      for (int shift = 0; shift < 64; shift += 8) {
        out += "out(v" + std::to_string(i) + " >> " + std::to_string(shift) + ");\n";
      }
    }
    return out;
  }

 private:
  static constexpr int kValueVars = 4;

  bool Chance(int percent) { return static_cast<int>(rng_.Below(100)) < percent; }
  int Pick(int n) { return static_cast<int>(rng_.Below(static_cast<uint64_t>(n))); }

  std::string Value() { return "v" + std::to_string(Pick(kValueVars)); }

  std::string Literal() {
    switch (Pick(8)) {
      case 0: {
        // Past INT32_MAX: CompileScript wraps these to negative i32s.
        static const char* kWide[] = {"2147483647", "2147483648", "4294967295", "3000000000"};
        return kWide[Pick(4)];
      }
      case 1:
        return std::to_string(rng_.Below(70000));
      default:
        return std::to_string(rng_.Below(40));
    }
  }

  // An operand with no side effects and no nesting.
  std::string Leaf() {
    switch (Pick(5)) {
      case 0:
        return Literal();
      case 1:
        return "input_len()";
      case 2:
        return "input(" + std::to_string(Pick(static_cast<int>(kMinInput))) + ")";
      default:
        return Value();
    }
  }

  // The right operand of `op`: a literal (the fused arm), a variable, or a
  // computed value (both plain), always in range for / % << >>.
  std::string Right(const std::string& op, int depth) {
    const int kind = Pick(3);
    if (op == "/" || op == "%") {
      return kind == 0 ? std::to_string(1 + Pick(99))
             : kind == 1 ? "d" + std::to_string(Pick(2))
                         : "((" + Expr(depth - 1) + " & 15) + 1)";
    }
    if (op == "<<" || op == ">>") {
      return kind == 0 ? std::to_string(Pick(32))
             : kind == 1 ? "s" + std::to_string(Pick(2))
                         : "(" + Expr(depth - 1) + " & 31)";
    }
    return kind == 0 ? Literal() : kind == 1 ? Value() : "(" + Expr(depth - 1) + ")";
  }

  std::string Expr(int depth) {
    if (depth <= 0 || Chance(20)) {
      return Leaf();
    }
    static const char* kOps[] = {"+", "-", "*",  "/",  "%", "<", "<=", ">", ">=",
                                 "==", "!=", "&", "|", "^", "<<", ">>", "&&", "||"};
    switch (Pick(10)) {
      case 0:
        return "-" + Leaf();
      case 1:
        return "!(" + Expr(depth - 1) + ")";
      case 2:
        // An index computed at run time.  Mostly in range: the & keeps it
        // non-negative, and input_len() is at least kMinInput.  Otherwise
        // below the input, over the engine's variables and operand stack,
        // or past its end, where the call's own output begins.
        switch (Pick(4)) {
          case 0:
            return "input(-1 - (" + Expr(depth - 1) + " & 4095))";
          case 1:
            return "input(input_len() + (" + Expr(depth - 1) + " & 65535))";
          default:
            return "input((" + Expr(depth - 1) + " & 1023) % input_len())";
        }
      case 3:
        return Chance(50) ? "b64(" + Expr(depth - 1) + ")" : "out(" + Expr(depth - 1) + ")";
      default: {
        const std::string op = kOps[Pick(static_cast<int>(std::size(kOps)))];
        const std::string left = Expr(depth - 1);
        return "(" + left + " " + op + " " + Right(op, depth) + ")";
      }
    }
  }

  std::string Indent(int depth) { return std::string(2 * static_cast<size_t>(depth), ' '); }

  std::string Block(int statements, int depth) {
    std::string out;
    for (int i = 0; i < statements; ++i) {
      out += Statement(depth);
    }
    return out;
  }

  // Each random choice is its own statement: the operands of `+` are
  // evaluated in no fixed order, and a seed must give one script.
  std::string Statement(int depth) {
    const std::string pad = Indent(depth);
    const int kind = Pick(depth < 2 ? 7 : 4);
    if (kind <= 1) {
      const std::string target = Value();
      return pad + target + " = " + Expr(3) + ";\n";
    }
    if (kind == 2) {
      return pad + "out(" + Expr(3) + ");\n";
    }
    if (kind == 3) {
      return pad + Expr(2) + ";\n";
    }
    if (kind <= 5) {
      const std::string cond = Expr(2);
      std::string out = pad + "if (" + cond + ") {\n";
      out += Block(1 + Pick(3), depth + 1) + pad + "}";
      if (Chance(50)) {
        out += " else {\n";
        out += Block(1 + Pick(3), depth + 1) + pad + "}";
      }
      return out + "\n";
    }
    const std::string counter = "c" + std::to_string(loops_++);
    std::string out = pad + "var " + counter + " = 0;\n";
    out += pad + "while (" + counter + " < " + std::to_string(Pick(5)) + ") {\n";
    out += Block(1 + Pick(3), depth + 1);
    return out + Indent(depth + 1) + counter + " = " + counter + " + 1;\n" + pad + "}\n";
  }

  vbase::Rng rng_;
  int loops_ = 0;
};

std::vector<uint8_t> RandomInput(vbase::Rng* rng) {
  std::vector<uint8_t> input(kMinInput + rng->Below(57));
  for (uint8_t& b : input) {
    b = static_cast<uint8_t>(rng->Next());
  }
  return input;
}

TEST(VjsOracle, EngineMatchesReferenceOnRandomScripts) {
  int failures = 0;
  for (int i = 0; i < kScripts && failures < 3; ++i) {
    const uint64_t seed = 0x7a5e0000u + static_cast<uint64_t>(i);
    ScriptGen gen(seed);
    const std::string source = gen.Script();
    auto bytecode = vjs::CompileScript(source);
    ASSERT_TRUE(bytecode.ok()) << bytecode.status().ToString() << "\n" << source;
    vbase::Rng rng(seed);
    const std::vector<uint8_t> inputs[2] = {RandomInput(&rng), RandomInput(&rng)};
    auto image = vcc::CompileProgram(
        vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
        vrt::Env::kLong64);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    wasp::Runtime runtime;
    for (int call = 0; call < 2; ++call) {
      const Reference want = Interpret(*bytecode, inputs[call]);
      ASSERT_TRUE(want.error.empty()) << "generator bug in script " << i << ": " << want.error
                                      << "\n" << source;
      wasp::VirtineSpec spec;
      spec.image = &image.value();
      spec.key = "vjs-oracle";
      spec.mem_size = 2ULL << 20;
      spec.policy = wasp::kPolicyManaged;
      spec.use_snapshot = true;
      spec.crt_snapshot = false;
      spec.input = &inputs[call];
      const wasp::RunOutcome outcome = runtime.Invoke(spec);
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString() << "\n" << source;
      ASSERT_EQ(outcome.stats.restored_snapshot, call == 1);
      if (outcome.output != want.output) {
        const auto diff = std::mismatch(outcome.output.begin(), outcome.output.end(),
                                        want.output.begin(), want.output.end());
        ++failures;
        ADD_FAILURE() << "script " << i << ", " << (call == 0 ? "cold" : "warm") << " call: "
                      << outcome.output.size() << " output bytes vs the reference's "
                      << want.output.size() << ", first difference at byte "
                      << diff.first - outcome.output.begin() << "\n"
                      << source;
        break;
      }
    }
  }
}

}  // namespace
