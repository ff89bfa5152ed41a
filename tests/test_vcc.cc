// Compiler tests: language semantics (via end-to-end execution in a
// virtine), the virtine annotation pipeline, call-graph cutting, policy
// derivation, and the byte-identity of the shipped guests' images.
#include <gtest/gtest.h>

#include <regex>

#include "src/vcc/ast.h"
#include "src/vaes/aes.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vnet/server.h"
#include "src/vrt/env.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

// Compiles `source` (entry `main`) and runs main(args...) in a long64
// virtine, returning the result word.
int64_t RunProgram(const std::string& source, std::vector<int64_t> args = {},
                   std::string* console = nullptr, wasp::HypercallMask policy = 0) {
  auto image = vcc::CompileProgram(source, "main", vrt::Env::kLong64);
  if (!image.ok()) {
    ADD_FAILURE() << "compile failed: " << image.status().ToString();
    return INT64_MIN;
  }
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.policy = policy;
  wasp::ArgPacker packer(8);
  for (int64_t a : args) {
    packer.AddWord(static_cast<uint64_t>(a));
  }
  spec.args_page = packer.Finish();
  auto outcome = runtime.Invoke(spec);
  if (!outcome.status.ok()) {
    ADD_FAILURE() << "run failed: " << outcome.status.ToString();
    return INT64_MIN;
  }
  if (console != nullptr) {
    *console = outcome.console;
  }
  return static_cast<int64_t>(outcome.result_word);
}

int64_t RunVlibcProgram(const std::string& source, std::vector<int64_t> args = {},
                        std::string* console = nullptr,
                        wasp::HypercallMask policy = wasp::MaskOf(wasp::kHcConsole)) {
  return RunProgram(vrt::VlibcSource() + source, std::move(args), console, policy);
}

TEST(VccSemantics, ArithmeticAndPrecedence) {
  EXPECT_EQ(RunProgram("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(RunProgram("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(RunProgram("int main() { return 7 / 2 + 7 % 2; }"), 4);
  EXPECT_EQ(RunProgram("int main() { return -5 + 3; }"), -2);
  EXPECT_EQ(RunProgram("int main() { return 1 << 10; }"), 1024);
  EXPECT_EQ(RunProgram("int main() { return -16 >> 2; }"), -4);
  EXPECT_EQ(RunProgram("int main() { return (0xff & 0x0f) | 0x30; }"), 0x3f);
  EXPECT_EQ(RunProgram("int main() { return ~0 + 2; }"), 1);
}

TEST(VccSemantics, ComparisonsAndLogic) {
  EXPECT_EQ(RunProgram("int main() { return 3 < 5; }"), 1);
  EXPECT_EQ(RunProgram("int main() { return -1 < 1; }"), 1);
  EXPECT_EQ(RunProgram("int main() { return 5 <= 5 && 6 > 2; }"), 1);
  EXPECT_EQ(RunProgram("int main() { return 0 && 1 || 1; }"), 1);
  EXPECT_EQ(RunProgram("int main() { return !42; }"), 0);
  EXPECT_EQ(RunProgram("int main() { return 1 ? 10 : 20; }"), 10);
  EXPECT_EQ(RunProgram("int main() { return 0 ? 10 : 20; }"), 20);
}

TEST(VccSemantics, ShortCircuitSideEffects) {
  const char* src = R"(
    int g = 0;
    int bump() { g = g + 1; return 1; }
    int main() {
      0 && bump();
      1 || bump();
      return g;
    })";
  EXPECT_EQ(RunProgram(src), 0);
}

TEST(VccSemantics, ControlFlow) {
  const char* loop = R"(
    int main(int n) {
      int sum;
      int i;
      sum = 0;
      for (i = 1; i <= n; i = i + 1) {
        if (i % 2 == 0) {
          continue;
        }
        sum = sum + i;
      }
      return sum;
    })";
  EXPECT_EQ(RunProgram(loop, {10}), 25);  // 1+3+5+7+9

  const char* brk = R"(
    int main() {
      int i;
      i = 0;
      while (1) {
        i = i + 1;
        if (i == 7) {
          break;
        }
      }
      return i;
    })";
  EXPECT_EQ(RunProgram(brk), 7);

  // Inside a loop, `break` leaves only a switch; `continue` goes to the loop.
  const char* sw = R"(
    int main() {
      int i;
      int n = 0;
      for (i = 0; i < 10; i = i + 1) {
        switch (i & 3) {
          case 0: n = n + 1; break;
          case 1: continue;
          case 2: n = n + 100;
          case 3: n = n + 10; break;
          default: n = n + 5000;
        }
        n = n + 1000;
      }
      return n;
    })";
  // i = 0,4,8: 1001 each; 2,6: 1110 each; 3,7: 1010 each; 1,5,9: skipped.
  EXPECT_EQ(RunProgram(sw), 3 * 1001 + 2 * 1110 + 2 * 1010);
}

// A program that folds switch outcomes over x = -2..11 from three switches:
// dense with holes and a default in the middle (a jump table), dense
// without a default (a jump table), and sparse and negative (a compare
// chain).
constexpr char kSwitchProgram[] = R"(
  int dense(int x) {
    int r = 0;
    switch (x) {
      case 1: r = r + 1;
      case 2: r = r + 10; break;
      case 4: return 400;
      case 5:
      case 6: r = 60; break;
      default: r = -1;
      case 8: r = r + 8;
    }
    return r;
  }
  int nodefault(int x) {
    switch (x - 1) { case 0: return 5; case 1: return 6; case 2: return 7; case 3: return 8; }
    return 9;
  }
  int sparse(int x) {
    switch (x * 3) { case -6: return 1; case 9: return 2; case 30: return 3; case 1000: return 4; }
    return 0;
  }
  int main() {
    int x;
    int s = 0;
    for (x = -2; x < 12; x = x + 1) {
      s = s * 7 + dense(x) + nodefault(x) * 3 + sparse(x) * 5;
    }
    return s;
  })";

// The same sums computed on the host.
int64_t SwitchProgramExpected() {
  auto dense = [](int64_t x) -> int64_t {
    switch (x) {
      case 1: return 11;
      case 2: return 10;
      case 4: return 400;
      case 5:
      case 6: return 60;
      case 8: return 8;
      default: return 7;
    }
  };
  auto nodefault = [](int64_t x) -> int64_t { return x >= 1 && x <= 4 ? x + 4 : 9; };
  auto sparse = [](int64_t x) -> int64_t {
    switch (x * 3) {
      case -6: return 1;
      case 9: return 2;
      case 30: return 3;
      default: return 0;
    }
  };
  int64_t s = 0;
  for (int64_t x = -2; x < 12; ++x) {
    s = s * 7 + dense(x) + nodefault(x) * 3 + sparse(x) * 5;
  }
  return s;
}

TEST(VccSemantics, Switch) {
  EXPECT_EQ(RunProgram(kSwitchProgram), SwitchProgramExpected());
  // The dense switches get jump tables; the sparse one a compare chain.
  auto asm_text = vcc::CompileToAsm(kSwitchProgram);
  ASSERT_TRUE(asm_text.ok()) << asm_text.status().ToString();
  size_t tables = 0;
  for (size_t at = asm_text->find("jmp r0"); at != std::string::npos;
       at = asm_text->find("jmp r0", at + 1)) {
    ++tables;
  }
  EXPECT_EQ(tables, 2u) << *asm_text;
  EXPECT_NE(asm_text->find("cmp r0, 1000"), std::string::npos) << *asm_text;

  // Either lowering evaluates a scrutinee with a side effect once.
  const char* once = R"(
    int calls = 0;
    int next() { calls = calls + 1; return calls; }
    int dense() {
      switch (next()) { case 1: return 10; case 2: return 20; case 3: return 30; case 4: return 40; }
      return 0;
    }
    int sparse() {
      switch (next()) { case 5: return 1; case 9: return 2; case 99: return 3; }
      return 7;
    }
    int main() {
      int r = dense() * 100 + sparse();
      return r * 10 + calls;
    })";
  // dense: next() == 1 -> 10; sparse: next() == 2 -> 7; calls == 2.
  EXPECT_EQ(RunProgram(once), (10 * 100 + 7) * 10 + 2);
}

TEST(VccSemantics, RecursionFib) {
  const char* src = R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main(int n) { return fib(n); })";
  EXPECT_EQ(RunProgram(src, {20}), 6765);
}

TEST(VccSemantics, PointersAndArrays) {
  const char* src = R"(
    int main() {
      int a[8];
      int *p;
      int i;
      for (i = 0; i < 8; i = i + 1) {
        a[i] = i * i;
      }
      p = a + 3;
      return *p + p[1];  // 9 + 16
    })";
  EXPECT_EQ(RunProgram(src), 25);
}

// Every memory operand in `asm_text` (the text between brackets).
std::vector<std::string> MemOperands(const std::string& asm_text) {
  std::vector<std::string> out;
  static const std::regex kMem(R"(\[([^\]]*)\])");
  for (auto it = std::sregex_iterator(asm_text.begin(), asm_text.end(), kMem);
       it != std::sregex_iterator(); ++it) {
    out.push_back((*it)[1]);
  }
  return out;
}

// The body of function `name` in generated assembly: from its label to the
// next unindented label that is not a local (.L) one.
std::string FunctionBody(const std::string& asm_text, const std::string& name) {
  const std::string text = "\n" + asm_text;  // the first function starts the text
  const size_t start = text.find("\n" + name + ":\n");
  if (start == std::string::npos) {
    return "";
  }
  size_t end = start + name.size() + 3;
  while (end < text.size() && (text[end] == ' ' || text[end] == '.')) {
    end = text.find('\n', end) + 1;
  }
  return text.substr(start, end - start);
}

// The optimizing generator folds register-variable indexes, scaled by the
// element size, into the access, addresses global scalars by symbol, and
// indexes the jump table in the load; the reference generator keeps the
// plain [rB+d] form everywhere.
TEST(VccCodegen, IndexedAndAbsoluteOperands) {
  auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
  ASSERT_TRUE(bytecode.ok());
  const std::string engine =
      vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false);
  auto asm_text = vcc::CompileToAsm(engine);
  ASSERT_TRUE(asm_text.ok()) << asm_text.status().ToString();
  // The dispatch loop is inlined into main.
  const std::string loop = FunctionBody(*asm_text, "main");
  ASSERT_FALSE(loop.empty()) << *asm_text;
  EXPECT_NE(loop.find("ldw r0, [r7+r6*8-16]"), std::string::npos) << loop;  // code[pc - 2]
  EXPECT_NE(loop.find("stw [r10+r8*8+0], r4"), std::string::npos) << loop;  // vars[a] = t
  EXPECT_NE(loop.find("ldw r10, [E_VARS+0]"), std::string::npos) << loop;   // vars = E_VARS
  EXPECT_NE(loop.find("+r0*8]"), std::string::npos) << loop;  // the jump-table load
  EXPECT_EQ(loop.find("shl r3"), std::string::npos) << loop;
  EXPECT_EQ(loop.find("mov r0, E_VARS"), std::string::npos) << loop;

  auto program = vcc::Parse(engine);
  ASSERT_TRUE(program.ok());
  for (int w : {2, 4, 8}) {
    auto reference = vcc::Generate(*program, "main", w, /*reference=*/true);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    static const std::regex kPlain(R"((r\d+|fp|sp)[+-]\d+)");
    for (const std::string& operand : MemOperands(*reference)) {
      EXPECT_TRUE(std::regex_match(operand, kPlain)) << "[" << operand << "] at w=" << w;
    }
  }
}

// Runs generated long64 assembly in a virtine that may leave through
// return_exit.
wasp::RunOutcome RunAsm(const std::string& asm_text) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, asm_text);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) {
    return {};
  }
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.policy = wasp::MaskOf(wasp::kHcReturnData);
  auto outcome = runtime.Invoke(spec);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  return outcome;
}

// The optimizing generator evaluates a hypercall's first operand into r1 and
// loads a later register-variable or literal operand straight into its
// register, so the call stages nothing on the stack; the reference generator
// pushes every operand and pops them into r1..r3.  Both builds exit with the
// same code and output.
TEST(VccCodegen, HypercallLeafOperandsSkipTheStack) {
  const char* src = R"(
    char M[8] = "virtine";
    int main() {
      char *p;
      int i;
      int code;
      p = M;
      code = 0;
      for (i = 0; i < 7; i = i + 1) {
        code = code + p[i];
      }
      return __hc3(7, code & 255, p, 7);
    })";
  auto program = vcc::Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  int expected_code = 0;
  for (const char c : std::string("virtine")) {
    expected_code += c;
  }
  for (const bool reference : {false, true}) {
    auto text = vcc::Generate(*program, "main", 8, reference);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    const std::string main_fn = FunctionBody(*text, "main");
    const std::string exit = "  mov r0, 0\n  out 7, r0\n";
    if (reference) {
      EXPECT_NE(main_fn.find("  push r0\n  pop r1\n  pop r2\n  pop r3\n" + exit),
                std::string::npos)
          << main_fn;
    } else {
      EXPECT_EQ(main_fn.find("push r0"), std::string::npos) << main_fn;
      for (const char* pop : {"pop r1", "pop r2", "pop r3"}) {
        EXPECT_EQ(main_fn.find(pop), std::string::npos) << main_fn;
      }
      EXPECT_NE(main_fn.find("  mov r1, r0\n"), std::string::npos) << main_fn;
      EXPECT_NE(main_fn.find("  mov r3, 7\n" + exit), std::string::npos) << main_fn;
    }
    const wasp::RunOutcome outcome = RunAsm(*text);
    EXPECT_EQ(outcome.exit_code, static_cast<uint64_t>(expected_code & 255)) << reference;
    EXPECT_EQ(std::string(outcome.output.begin(), outcome.output.end()), "virtine") << reference;
  }
}

// Both builds evaluate hypercall operands right to left: a later operand
// held in a register is read before an earlier operand assigns it.
TEST(VccSemantics, HypercallOperandsEvaluateRightToLeft) {
  const char* src = R"(
    char M[8] = "virtine";
    int main() {
      int n;
      int i;
      n = 0;
      for (i = 0; i < 3; i = i + 1) {
        n = n + 1;
      }
      return __hc3(7, (n = 5) + 40, M, n);
    })";
  auto program = vcc::Parse(src);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (const bool reference : {false, true}) {
    auto text = vcc::Generate(*program, "main", 8, reference);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    const wasp::RunOutcome outcome = RunAsm(*text);
    EXPECT_EQ(outcome.exit_code, 45u) << reference;
    EXPECT_EQ(std::string(outcome.output.begin(), outcome.output.end()), "vir") << reference;
  }
}

TEST(VccSemantics, CharArraysAreByteAccurate) {
  const char* src = R"(
    int main() {
      char b[4];
      b[0] = 300;        // truncates to 44
      b[1] = 1;
      return b[0] + b[1];
    })";
  EXPECT_EQ(RunProgram(src), 45);
}

TEST(VccSemantics, PointerDifference) {
  const char* src = R"(
    int main() {
      int a[10];
      int *p;
      int *q;
      p = a + 2;
      q = a + 9;
      return q - p;
    })";
  EXPECT_EQ(RunProgram(src), 7);
}

TEST(VccSemantics, GlobalsWithInitializers) {
  const char* src = R"(
    int counter = 40;
    int table[4] = {1, 2, 3, 4};
    int main() {
      counter = counter + table[2];
      return counter;
    })";
  EXPECT_EQ(RunProgram(src), 43);
}

// A global initializer wider than its object converts as C does, to the
// object's width, so the data directive that holds it stays in range.
TEST(VccSemantics, GlobalInitializersConvertToTheirWidth) {
  const char* src = R"(
    int g = 4294967297;
    char c = 300;
    int main() { return g * 1000 + c; })";
  auto image = vcc::CompileProgram(src, "main", vrt::Env::kProt32);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = vrt::WordBytes(vrt::Env::kProt32);
  const wasp::RunOutcome outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 1044u);  // g reads 1, c reads 44
}

TEST(VccSemantics, CompoundAssignAndIncDec) {
  const char* src = R"(
    int main() {
      int x;
      int i;
      x = 10;
      x += 5;
      x *= 2;
      x -= 6;   // 24
      x /= 3;   // 8
      x <<= 2;  // 32
      x >>= 1;  // 16
      x |= 3;   // 19
      x &= 0x17; // 19 & 23 = 19
      x ^= 1;   // 18
      i = 0;
      x = x + i++;  // 18, i=1
      x = x + ++i;  // 20, i=2
      return x * 10 + i;
    })";
  EXPECT_EQ(RunProgram(src), 202);
}

TEST(VccSemantics, StringLiteralsAndConsole) {
  std::string console;
  const char* src = R"(
    int main() {
      puts("hello from a virtine\n");
      print_int(-42);
      return 0;
    })";
  EXPECT_EQ(RunVlibcProgram(src, {}, &console), 0);
  EXPECT_EQ(console, "hello from a virtine\n-42");
}

TEST(VccSemantics, SizeofAndWordWidth) {
  EXPECT_EQ(RunProgram("int main() { return sizeof(int); }"), 8);
  EXPECT_EQ(RunProgram("int main() { return sizeof(char); }"), 1);
  EXPECT_EQ(RunProgram("int main() { return sizeof(int*); }"), 8);
}

TEST(VccVlibc, StringRoutines) {
  const char* src = R"(
    int main() {
      char buf[64];
      char num[24];
      strcpy(buf, "abc");
      strcat(buf, "def");
      if (strcmp(buf, "abcdef") != 0) { return 1; }
      if (strlen(buf) != 6) { return 2; }
      if (atoi("-1234") != -1234) { return 3; }
      itoa(num, 9081);
      if (strcmp(num, "9081") != 0) { return 4; }
      uitoa_hex(num, 48879);
      if (strcmp(num, "beef") != 0) { return 5; }
      memset(buf, 'x', 5);
      buf[5] = 0;
      if (strcmp(buf, "xxxxx") != 0) { return 6; }
      return 42;
    })";
  EXPECT_EQ(RunVlibcProgram(src), 42);
}

TEST(VccVlibc, MallocBumpAllocator) {
  const char* src = R"(
    int main() {
      char *a;
      char *b;
      a = malloc(100);
      b = malloc(100);
      if (b - a < 100) { return 1; }
      memset(a, 7, 100);
      memset(b, 9, 100);
      if (a[99] != 7) { return 2; }
      if (b[0] != 9) { return 3; }
      return 0;
    })";
  EXPECT_EQ(RunVlibcProgram(src), 0);
}

// --- Virtine annotations -----------------------------------------------------

TEST(VccVirtines, AnnotatedFunctionCompilesAndRuns) {
  const char* src = R"(
    virtine int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    })";
  auto virtines = vcc::CompileVirtines(src);
  ASSERT_TRUE(virtines.ok()) << virtines.status().ToString();
  ASSERT_EQ(virtines->size(), 1u);
  EXPECT_EQ((*virtines)[0].name, "fib");
  EXPECT_EQ((*virtines)[0].policy, wasp::kPolicyDenyAll);
  EXPECT_EQ((*virtines)[0].num_args, 1);

  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &(*virtines)[0].image;
  spec.key = "fib-anno";
  spec.policy = (*virtines)[0].policy;
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  auto r = fib.Call(15);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, 610);
}

TEST(VccVirtines, PolicyKeywords) {
  const char* src = R"(
    virtine int a() { return 1; }
    virtine_permissive int b() { return 2; }
    virtine_config(0x30006) int c() { return 3; }
    int helper() { return 4; }
  )";
  auto virtines = vcc::CompileVirtines(src);
  ASSERT_TRUE(virtines.ok()) << virtines.status().ToString();
  ASSERT_EQ(virtines->size(), 3u);
  EXPECT_EQ((*virtines)[0].policy, wasp::kPolicyDenyAll);
  EXPECT_EQ((*virtines)[1].policy, wasp::kPolicyAllowAll);
  EXPECT_EQ((*virtines)[2].policy, 0x30006u);
}

TEST(VccVirtines, CallGraphCutKeepsImagesSmall) {
  // `big` is unreachable from `leaf`; its code must not be packaged.
  std::string src = "virtine int leaf(int x) { return x + 1; }\n";
  src += "int big() { return ";
  for (int i = 0; i < 200; ++i) {
    src += "1 + ";
  }
  src += "0; }\n";
  src += "virtine int fat(int x) { return big() + x; }\n";
  auto virtines = vcc::CompileVirtines(src);
  ASSERT_TRUE(virtines.ok()) << virtines.status().ToString();
  ASSERT_EQ(virtines->size(), 2u);
  const auto& leaf = (*virtines)[0];
  const auto& fat = (*virtines)[1];
  EXPECT_LT(leaf.image.bytes.size() + 200, fat.image.bytes.size())
      << "dead code was not eliminated from the leaf image";
  // Virtine images stay in the ~16 KB ballpark the paper quotes.
  EXPECT_LT(leaf.image.bytes.size(), 16u * 1024);
}

TEST(VccVirtines, GeneratedHeaderContainsSpecs) {
  const char* src = "virtine int twice(int x) { return 2 * x; }";
  auto virtines = vcc::CompileVirtines(src);
  ASSERT_TRUE(virtines.ok());
  const std::string header = vcc::EmitCppHeader(*virtines, "TEST_GUARD_H_");
  EXPECT_NE(header.find("twice_image"), std::string::npos);
  EXPECT_NE(header.find("twice_spec"), std::string::npos);
  EXPECT_NE(header.find("TEST_GUARD_H_"), std::string::npos);
}

TEST(VccErrors, UsefulDiagnostics) {
  EXPECT_FALSE(vcc::CompileProgram("int main() { return x; }").ok());
  EXPECT_FALSE(vcc::CompileProgram("int main() { return f(); }").ok());
  EXPECT_FALSE(vcc::CompileProgram("int main() { return 1 }").ok());
  EXPECT_FALSE(vcc::CompileProgram("int main() { break; }").ok());
  EXPECT_FALSE(vcc::CompileProgram("virtine int g = 3; int main() { return 0; }").ok());
  EXPECT_FALSE(vcc::CompileVirtines("int main() { return 0; }").ok());  // no annotations
  // A literal past 64 bits is an error, not an overflow in the lexer.
  EXPECT_EQ(RunProgram("int main() { return 0xffffffffffffffff; }"), -1);
  auto wide = vcc::CompileToAsm("int main() { return 99999999999999999999; }\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().ToString().find("64-bit range"), std::string::npos)
      << wide.status().ToString();
}

// Nesting is capped, so no source can exhaust the host's stack in the parser
// or in the code generator's walk of the syntax tree.  In `return e;` the
// statement and the expression take two levels; each unary operator, and
// each operand a left-associative chain adds, one more.
TEST(VccErrors, NestingIsCapped) {
  const int cap = vcc::kMaxNesting;
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) {
      out += s;
    }
    return out;
  };
  auto returning = [](const std::string& e) { return "int main() { return " + e + "; }"; };
  auto expect_too_deep = [](const std::string& source) {
    auto r = vcc::CompileToAsm(source);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().ToString().find("nest deeper"), std::string::npos)
        << r.status().ToString();
  };
  EXPECT_EQ(RunProgram(returning(repeat("- ", cap - 3) + "7")), -7);  // an odd count
  expect_too_deep(returning(repeat("- ", cap - 2) + "7"));
  EXPECT_EQ(RunProgram(returning("1" + repeat(" + 1", cap - 3))), cap - 2);
  expect_too_deep(returning("1" + repeat(" + 1", cap - 2)));
  expect_too_deep(returning(repeat("(", 100000) + "1" + repeat(")", 100000)));
}

// Each malformed switch is rejected with the line of the offending label or
// statement.
TEST(VccErrors, SwitchDiagnostics) {
  auto error_of = [](const std::string& body) {
    auto r = vcc::CompileProgram("int main(int x) {\n  int y = 2;\n" + body + "\n  return 0;\n}");
    return r.ok() ? std::string("compiled") : r.status().ToString();
  };
  auto expect_error = [&](const std::string& body, const std::string& what) {
    const std::string err = error_of(body);
    EXPECT_NE(err.find("line 3"), std::string::npos) << body << " -> " << err;
    EXPECT_NE(err.find(what), std::string::npos) << body << " -> " << err;
  };
  expect_error("  switch (x) { case 1: case 2: case 1: break; }", "duplicate case value 1");
  expect_error("  switch (x) { case 2 - 3: case -1: break; }", "duplicate case value -1");
  expect_error("  switch (x) { default: break; case 1: default: break; }", "second default");
  expect_error("  switch (x) { case y: break; }", "not a compile-time constant");
  expect_error("  case 1: x = 2;", "'case' label outside a switch body");
  expect_error("  default: x = 2;", "'default' label outside a switch body");
  expect_error("  switch (x) { case 1: { case 2: break; } }", "'case' label outside");
  expect_error("  switch (x) { case 1: continue; }", "continue outside loop");
  expect_error("  break;", "break outside loop or switch");
  // Only a loop gives `continue` a target; a switch inside one passes it on.
  EXPECT_EQ(error_of("  while (x) { switch (x) { case 1: continue; } x = 0; }"), "compiled");
}

// --- Guest image hashes --------------------------------------------------------

// FNV-1a 64 over an image's bytes.
uint64_t ImageHash(const visa::Image& image) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : image.bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

TEST(GuestImages, MatchTheirRecordedHashes) {
  // The shipped guests, compiled with vlibc as their users compile them.  A
  // change to the compiler, vlibc, the ABI or a guest's source that moves an
  // image fails here; one that means to re-records its hash (the failure
  // prints it) and says why.
  auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
  ASSERT_TRUE(bytecode.ok()) << bytecode.status().ToString();
  const struct {
    const char* guest;
    std::string source;
    vrt::Env env;
    size_t size;
    uint64_t hash;
  } guests[] = {
      {"static handler", vnet::StaticHandlerSource(), vrt::Env::kLong64, 5723,
       0xc2b5e11fc3721803ULL},
      {"keep-alive handler", vnet::KeepAliveHandlerSource(), vrt::Env::kLong64, 7643,
       0x764dce92b4e83c72ULL},
      {"b64 engine", vjs::EngineSource(*bytecode, /*teardown=*/false), vrt::Env::kLong64, 4480,
       0xcf4bbeea4c3aa0efULL},
      {"teardown engine", vjs::EngineSource(*bytecode, /*teardown=*/true), vrt::Env::kLong64,
       4640, 0x35f4af67cffa0647ULL},
      {"AES guest", vaes::GuestAesSource(), vrt::Env::kLong64, 3363, 0xf6c06ce7517d3cf1ULL},
      {"echo handler", vnet::EchoHandlerSource(), vrt::Env::kProt32, 580,
       0xea365537940d6169ULL},
  };
  for (const auto& g : guests) {
    auto image = vcc::CompileProgram(vrt::VlibcSource() + g.source, "main", g.env);
    ASSERT_TRUE(image.ok()) << g.guest << ": " << image.status().ToString();
    EXPECT_EQ(image->bytes.size(), g.size) << g.guest;
    EXPECT_EQ(ImageHash(*image), g.hash)
        << g.guest << ": 0x" << std::hex << ImageHash(*image);
  }
}

}  // namespace
