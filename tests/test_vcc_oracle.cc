// Differential oracle for vcc's optimizing code generator.
//
// A seeded generator writes whole programs over the dialect: word and char
// scalars, params, local and global arrays, pointer arithmetic, locals whose
// address goes to a callee, nested loops with break/continue, &&/||/!/?:,
// ++/--/op=, multi-argument calls, recursion, early returns from inside
// loops, more live scalars than r4-r13 can hold, and literals wider than 32
// bits.  Each program is compiled twice — by the default generator (register
// allocation + fast paths) and by the plain reference generator — and both
// builds run in real16, prot32 and long64.  They must agree on the return
// value, the console bytes and the final bytes of every global that is not
// a pointer (a pointer's value is an address, and the data section moves
// with the code size).
//
// Generated programs avoid everything that may legitimately differ between
// the two builds: they never read uninitialized memory, never let a pointer
// value (as opposed to a difference within one array) reach a result, keep
// every index in bounds, and divide only by odd values.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/vcc/ast.h"
#include "src/vrt/env.h"
#include "src/wasp/runtime.h"

namespace {

constexpr int kPrograms = 200;

// Writes one random program.  Every function's locals are declared and
// initialized up front; loop counters are read but never assigned by the
// random statements, so every loop terminates.
class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  std::string Program() {
    std::string out;
    out += "int G[8];\nchar C[8];\nint *gp;\nint g0 = " + SmallLit() + ";\nint g1 = " +
           SmallLit() + ";\nchar gc = " + SmallLit() + ";\n\n";
    out += "int bump(int *q, int by) {\n  *q = *q + by;\n  *q ^= by << 2;\n  return *q;\n}\n\n";
    out += "int fill(char *s, int n, int v) {\n  int k;\n  for (k = 0; k < n; k++) {\n"
           "    s[k] = v + k * 7;\n  }\n  return n;\n}\n\n";
    out += Rec();
    out += Mix();
    out += Main();
    return out;
  }

 private:
  enum class Fn { kMain, kMix, kRec };

  bool Chance(int percent) { return static_cast<int>(rng_.Below(100)) < percent; }
  int Pick(int n) { return static_cast<int>(rng_.Below(static_cast<uint64_t>(n))); }
  template <typename T>
  T PickOf(const std::vector<T>& v) { return v[rng_.Below(v.size())]; }

  std::string SmallLit() { return std::to_string(rng_.Below(100)); }

  std::string Lit() {
    switch (Pick(10)) {
      case 0: {
        // Wider than imm32: exercises the literal-load paths.
        static const std::vector<std::string> kWide = {
            "4294967296", "2147483648", "4294967295", "8589934597", "1099511627776",
            "2147483647", "281474976710655", "3000000000"};
        return PickOf(kWide);
      }
      case 1:
        return std::to_string(rng_.Below(70000));
      case 2:
        return "'" + std::string(1, static_cast<char>('a' + Pick(26))) + "'";
      default:
        return std::to_string(rng_.Below(40));
    }
  }

  std::string Indent() const { return std::string(2 * (indent_ + 1), ' '); }

  // --- Variables in scope -----------------------------------------------------

  // Readable scalars of the current function (adds loop counters and
  // rec's depth parameter, which the random statements never assign).
  std::vector<std::string> Readable() const {
    std::vector<std::string> v = Writable();
    if (fn_ == Fn::kRec) {
      v.push_back("n");
    }
    for (int i = 0; i < loop_depth_; ++i) {
      v.push_back(LoopVar(i));
    }
    return v;
  }

  // Scalars the random statements may assign.
  std::vector<std::string> Writable() const {
    std::vector<std::string> v = {"g0", "g1", "gc"};
    switch (fn_) {
      case Fn::kMain:
        for (int i = 0; i < 12; ++i) {
          v.push_back("x" + std::to_string(i));
        }
        v.push_back("c0");
        v.push_back("c1");
        break;
      case Fn::kMix:
        v.insert(v.end(), {"a", "b", "c", "u", "t", "h"});
        break;
      case Fn::kRec:
        v.insert(v.end(), {"acc", "t"});
        break;
    }
    return v;
  }

  std::string LoopVar(int depth) const {
    return (fn_ == Fn::kMain ? "i" : "j") + std::to_string(depth);
  }

  // Word and char arrays of the current function, with their lengths.
  std::vector<std::pair<std::string, int>> Arrays() const {
    std::vector<std::pair<std::string, int>> v = {{"G", 8}, {"C", 8}};
    if (fn_ == Fn::kMain) {
      v.push_back({"A", 8});
      v.push_back({"S", 8});
    }
    return v;
  }

  // --- Expressions ------------------------------------------------------------

  std::string Leaf() {
    switch (Pick(8)) {
      case 0:
      case 1:
        return Lit();
      case 2: {
        const auto& [arr, n] = PickOf(Arrays());
        return arr + "[" + std::to_string(Pick(n)) + "]";
      }
      default:
        return PickOf(Readable());
    }
  }

  std::string Index(int depth, int n) {
    // A loop counter plus a constant stays in bounds: counters stay at or
    // below 4 inside their loops.
    if (loop_depth_ > 0 && n == 8 && Chance(30)) {
      return LoopVar(Pick(loop_depth_)) + " + " + std::to_string(Pick(4));
    }
    return "(" + Expr(depth) + ") & " + std::to_string(n - 1);
  }

  std::string Expr(int depth) {
    if (depth <= 0 || Chance(25)) {
      return Leaf();
    }
    const int d = depth - 1;
    switch (Pick(20)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {
        static const std::vector<std::string> kOps = {"+", "-", "*", "&", "|", "^",
                                                      "<<", ">>", "+", "-"};
        return "(" + Expr(d) + " " + PickOf(kOps) + " " + Expr(d) + ")";
      }
      case 5: {
        static const std::vector<std::string> kCmp = {"<", "<=", ">", ">=", "==", "!="};
        return "(" + Expr(d) + " " + PickOf(kCmp) + " " + Expr(d) + ")";
      }
      case 6:
        return "(" + Expr(d) + (Chance(50) ? " && " : " || ") + Expr(d) + ")";
      case 7: {
        static const std::vector<std::string> kUn = {"-", "~", "!"};
        return PickOf(kUn) + "(" + Expr(d) + ")";
      }
      case 8:
        return "(" + Cond(d) + " ? " + Expr(d) + " : " + Expr(d) + ")";
      case 9:
        return "(" + Expr(d) + (Chance(50) ? " / (" : " % (") + Expr(d) + " | 1))";
      case 10:
      case 11: {
        const auto& [arr, n] = PickOf(Arrays());
        return arr + "[" + Index(d, n) + "]";
      }
      case 12:
        if (fn_ == Fn::kMain) {
          return Chance(50) ? "p[" + Index(d, 4) + "]" : "*(p + (" + Expr(d) + " & 3))";
        }
        return Leaf();
      case 13:
        if (fn_ == Fn::kMain) {
          return Chance(50) ? "(p - A)" : "(p < A + " + std::to_string(Pick(5)) + ")";
        }
        return "gp[" + Index(d, 4) + "]";
      case 14:
        // Wide literal folded into an ALU or compare form.
        return "(" + Expr(d) + (Chance(50) ? " - 4294967296" : " < 4294967296") + ")";
      case 15:
        if (depth >= 2 && Chance(60)) {
          return "(" + PickOf(Writable()) + " = " + Expr(d) + ")";
        }
        return Leaf();
      case 16: {
        static const std::vector<std::string> kIncDec = {"++", "--"};
        const std::string v = PickOf(Writable());
        return Chance(50) ? "(" + v + PickOf(kIncDec) + ")" : "(" + PickOf(kIncDec) + v + ")";
      }
      case 17:
        if (fn_ == Fn::kMain && loop_depth_ <= 1) {
          return "mix(" + Expr(d) + ", " + Expr(d) + ", " + Expr(d) + ")";
        }
        return Leaf();
      case 18:
        if (fn_ == Fn::kMain) {
          return "rec(" + Expr(d) + " & 3, " + Expr(d) + ")";
        }
        return Leaf();
      default:
        return Leaf();
    }
  }

  // A condition: mostly comparisons (the fused cmp + jcc path), often of a
  // loop counter against a small constant, where the operands are equal
  // often enough that `<` and `<=` disagree.
  std::string Cond(int depth) {
    static const std::vector<std::string> kCmp = {"<", "<=", ">", ">=", "==", "!="};
    switch (depth <= 0 ? 4 + Pick(2) : Pick(7)) {
      case 0:
        return "(" + Cond(depth - 1) + (Chance(50) ? " && " : " || ") + Cond(depth - 1) + ")";
      case 1:
        return "!(" + Cond(depth - 1) + ")";
      case 2:
        return Expr(depth);
      case 3:
        return "(" + Expr(depth) + " & " + Lit() + ")";
      case 4: {
        const std::string v =
            loop_depth_ > 0 && Chance(70) ? LoopVar(Pick(loop_depth_)) : PickOf(Readable());
        return "(" + v + " " + PickOf(kCmp) + " " + std::to_string(Pick(5)) + ")";
      }
      default:
        return "(" + Expr(depth) + " " + PickOf(kCmp) + " " + Expr(depth) + ")";
    }
  }

  // --- Statements -------------------------------------------------------------

  std::string Lvalue() {
    switch (Pick(6)) {
      case 0: {
        const auto& [arr, n] = PickOf(Arrays());
        return arr + "[" + Index(1, n) + "]";
      }
      case 1:
        if (fn_ == Fn::kMain) {
          return Chance(50) ? "p[" + Index(1, 4) + "]" : "(*(p + (" + Expr(1) + " & 3)))";
        }
        return PickOf(Writable());
      default:
        return PickOf(Writable());
    }
  }

  std::string Stmt(int depth) {
    const std::string in = Indent();
    const int d = depth - 1;
    switch (Pick(24)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
        return in + Lvalue() + " = " + Expr(3) + ";\n";
      case 5:
      case 6: {
        static const std::vector<std::string> kOps = {"+=", "-=", "*=", "&=", "|=",
                                                      "^=", "<<=", ">>="};
        if (Chance(15)) {
          return in + Lvalue() + (Chance(50) ? " /= (" : " %= (") + Expr(2) + " | 1);\n";
        }
        return in + Lvalue() + " " + PickOf(kOps) + " " + Expr(2) + ";\n";
      }
      case 7: {
        static const std::vector<std::string> kIncDec = {"++", "--"};
        return in + (Chance(50) ? Lvalue() + PickOf(kIncDec) : PickOf(kIncDec) + Lvalue()) +
               ";\n";
      }
      case 8:
      case 9:
        if (depth > 0) {
          std::string s = in + "if (" + Cond(2) + ") {\n" + Block(d, 3);
          if (Chance(50)) {
            s += in + "} else {\n" + Block(d, 2);
          }
          return s + in + "}\n";
        }
        return in + PickOf(Writable()) + " = " + Expr(2) + ";\n";
      case 10:
      case 11:
        if (depth > 0 && loop_depth_ < 3) {
          const std::string v = LoopVar(loop_depth_);
          std::string s = in + "for (" + v + " = 0; " + v + " < " + std::to_string(1 + Pick(4)) +
                          "; " + v + "++) {\n";
          ++loop_depth_;
          s += Block(d, 4);
          --loop_depth_;
          return s + in + "}\n";
        }
        return in + PickOf(Writable()) + " += " + Expr(2) + ";\n";
      case 12:
        if (depth > 0 && loop_depth_ < 3) {
          const std::string v = LoopVar(loop_depth_);
          std::string s = in + v + " = 0;\n" + in + "while (" + v + " < " +
                          std::to_string(1 + Pick(4)) + ") {\n";
          ++loop_depth_;
          ++indent_;
          s += Indent() + v + "++;\n";
          --indent_;
          s += Block(d, 3);
          --loop_depth_;
          return s + in + "}\n";
        }
        return in + PickOf(Writable()) + " -= " + Expr(2) + ";\n";
      case 13:
        if (loop_depth_ > 0) {
          return in + "if (" + Cond(1) + ") {\n" + in + "  " +
                 (Chance(50) ? "break" : "continue") + ";\n" + in + "}\n";
        }
        return in + PickOf(Writable()) + " ^= " + Expr(2) + ";\n";
      case 14:
        if (fn_ == Fn::kMain) {
          return in + "p = A + (" + Expr(2) + " & 3);\n";
        }
        return in + "gp[" + Index(1, 4) + "] = " + Expr(2) + ";\n";
      case 15:
        if (fn_ == Fn::kMain) {
          return in + "bump(&x" + std::to_string(10 + Pick(2)) + ", " + Expr(2) + ");\n";
        }
        return in + PickOf(Writable()) + " = " + Expr(2) + ";\n";
      case 16:
        if (fn_ == Fn::kMain) {
          return in + "fill(" + (Chance(50) ? "S" : "C") + ", " + Expr(1) + " & 7, " + Expr(2) +
                 ");\n";
        }
        return in + PickOf(Writable()) + " = " + Expr(2) + ";\n";
      case 17:
        if (fn_ == Fn::kMain && loop_depth_ <= 1) {
          return in + PickOf(Writable()) + " = mix(" + Expr(2) + ", " + Expr(2) + ", " +
                 Expr(2) + ");\n";
        }
        return in + PickOf(Writable()) + " = " + Expr(3) + ";\n";
      case 18:
        return in + "__hc2(2, " + (fn_ == Fn::kMain && Chance(50) ? "S" : "C") + ", " +
               std::to_string(1 + Pick(8)) + ");\n";
      case 19:
        if (fn_ != Fn::kMain) {
          // An early return, often from inside a loop: every return path
          // must restore the callee-saved registers.
          return in + "if (" + Cond(1) + ") {\n" + in + "  return " + Expr(2) + ";\n" + in +
                 "}\n";
        }
        return in + PickOf(Writable()) + " = " + Expr(2) + ";\n";
      default:
        return in + Lvalue() + " = " + Expr(2) + ";\n";
    }
  }

  std::string Block(int depth, int max_stmts) {
    ++indent_;
    std::string s;
    const int n = 1 + Pick(max_stmts);
    for (int i = 0; i < n; ++i) {
      s += Stmt(depth);
    }
    --indent_;
    return s;
  }

  std::string Body(int stmts) {
    std::string s;
    for (int i = 0; i < stmts; ++i) {
      s += Stmt(3);
    }
    return s;
  }

  std::string Rec() {
    fn_ = Fn::kRec;
    std::string s = "int rec(int n, int acc) {\n  int t = acc * 3 + n;\n";
    s += "  if (n <= 0) {\n    return t;\n  }\n";
    s += "  t = t ^ " + Expr(2) + ";\n";
    s += "  return rec(n - 1, t) + n;\n}\n\n";
    return s;
  }

  std::string Mix() {
    fn_ = Fn::kMix;
    std::string s = "int mix(int a, int b, int c) {\n";
    s += "  int u = a ^ " + Lit() + ";\n  int t = c - " + Lit() + ";\n  int h = b;\n";
    s += "  int j0 = 0;\n  int j1 = 0;\n  int j2 = 0;\n";
    s += Body(4 + Pick(4));
    s += "  return a + b * 3 + c * 5 + u * 7 + t * 11 + h * 13;\n}\n\n";
    return s;
  }

  std::string Main() {
    fn_ = Fn::kMain;
    std::string s = "int main() {\n";
    for (int i = 0; i < 12; ++i) {
      s += "  int x" + std::to_string(i) + " = " + Lit() + ";\n";
    }
    s += "  char c0 = " + SmallLit() + ";\n  char c1 = " + SmallLit() + ";\n";
    s += "  int A[8];\n  char S[8];\n  int *p;\n  int i0 = 0;\n  int i1 = 0;\n  int i2 = 0;\n";
    s += "  for (i0 = 0; i0 < 8; i0++) {\n    A[i0] = i0 * " + SmallLit() + ";\n";
    s += "    S[i0] = i0 + " + SmallLit() + ";\n    G[i0] = " + SmallLit() +
         " - i0;\n    C[i0] = i0 * 3;\n  }\n";
    s += "  p = A + " + std::to_string(Pick(4)) + ";\n  gp = G + " + std::to_string(Pick(4)) +
         ";\n";
    s += Body(10 + Pick(10));
    // Dump every non-pointer global, then fold every local into the return
    // value.
    s += "  __hc2(5, G, 8 * sizeof(int));\n  __hc2(5, C, 8);\n";
    s += "  __hc2(5, &g0, sizeof(int));\n  __hc2(5, &g1, sizeof(int));\n  __hc2(5, &gc, 1);\n";
    s += "  __hc2(2, S, 8);\n";
    std::string ret = "(p - A) + (gp - G)";
    for (int i = 0; i < 12; ++i) {
      ret = "(" + ret + ") * 31 + x" + std::to_string(i);
    }
    s += "  return ((" + ret + ") * 31 + c0) * 31 + c1 + A[0] + A[5] * 7 + A[7] * 3;\n}\n";
    return s;
  }

  vbase::Rng rng_;
  Fn fn_ = Fn::kMain;
  int loop_depth_ = 0;
  int indent_ = 0;
};

struct Outcome {
  bool ok = false;
  std::string error;
  uint64_t result = 0;
  std::string console;
  std::vector<uint8_t> globals;
};

Outcome CompileAndRun(const vcc::Program& program, vrt::Env env, bool reference) {
  Outcome run;
  auto text = vcc::Generate(program, "main", vrt::WordBytes(env), reference);
  if (!text.ok()) {
    run.error = "generate: " + text.status().ToString();
    return run;
  }
  auto image = vrt::BuildImage(env, *text);
  if (!image.ok()) {
    run.error = "assemble: " + image.status().ToString();
    return run;
  }
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = vrt::WordBytes(env);
  spec.policy = wasp::MaskOf(wasp::kHcConsole) | wasp::MaskOf(wasp::kHcReturnData);
  spec.max_insns = 20'000'000;
  auto outcome = runtime.Invoke(spec);
  if (!outcome.status.ok()) {
    run.error = "run: " + outcome.status.ToString();
    return run;
  }
  run.ok = true;
  run.result = outcome.result_word;
  run.console = outcome.console;
  run.globals = outcome.output;
  return run;
}

class CodegenOracle : public ::testing::TestWithParam<vrt::Env> {};

TEST_P(CodegenOracle, OptimizedMatchesReferenceOnRandomPrograms) {
  const vrt::Env env = GetParam();
  int failures = 0;
  for (int i = 0; i < kPrograms && failures < 3; ++i) {
    ProgramGen gen(0x5eed0000u + static_cast<uint64_t>(i));
    const std::string source = gen.Program();
    auto program = vcc::Parse(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n" << source;
    const Outcome ref = CompileAndRun(*program, env, /*reference=*/true);
    ASSERT_TRUE(ref.ok) << "reference build failed: " << ref.error << "\n" << source;
    const Outcome opt = CompileAndRun(*program, env, /*reference=*/false);
    const bool same = opt.ok && opt.result == ref.result && opt.console == ref.console &&
                      opt.globals == ref.globals;
    if (!same) {
      ++failures;
      ADD_FAILURE() << "program " << i << " in " << vrt::EnvName(env) << ": "
                    << (opt.ok ? "" : "optimized build failed: " + opt.error + "; ")
                    << "result " << opt.result << " vs reference " << ref.result
                    << (opt.console == ref.console ? "" : ", console differs")
                    << (opt.globals == ref.globals ? "" : ", globals differ") << "\n"
                    << source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Envs, CodegenOracle,
                         ::testing::Values(vrt::Env::kReal16, vrt::Env::kProt32,
                                           vrt::Env::kLong64),
                         [](const auto& param_info) { return vrt::EnvName(param_info.param); });

}  // namespace
