// Deeper compiler semantics: nested control flow, multi-level pointers,
// function-call conventions, argument evaluation, operator interactions,
// and cross-environment compilation — each verified by executing in a
// virtine (the only ground truth for a compiler is what the machine runs).
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/vcc/vcc.h"
#include "src/vrt/env.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

int64_t RunIn(vrt::Env env, const std::string& source, std::vector<int64_t> args = {}) {
  auto image = vcc::CompileProgram(source, "main", env);
  if (!image.ok()) {
    ADD_FAILURE() << "compile failed: " << image.status().ToString();
    return INT64_MIN;
  }
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = vrt::WordBytes(env);
  wasp::ArgPacker packer(spec.word_bytes);
  for (int64_t a : args) {
    packer.AddWord(static_cast<uint64_t>(a));
  }
  spec.args_page = packer.Finish();
  auto outcome = runtime.Invoke(spec);
  if (!outcome.status.ok()) {
    ADD_FAILURE() << "run failed: " << outcome.status.ToString();
    return INT64_MIN;
  }
  // Sign-extend from the environment word width.
  const int bits = spec.word_bytes * 8;
  if (bits < 64) {
    return static_cast<int64_t>(outcome.result_word << (64 - bits)) >> (64 - bits);
  }
  return static_cast<int64_t>(outcome.result_word);
}

int64_t Run64(const std::string& source, std::vector<int64_t> args = {}) {
  return RunIn(vrt::Env::kLong64, source, std::move(args));
}

TEST(VccDeep, NestedLoopsAndScopes) {
  const char* src = R"(
    int main() {
      int total;
      int i;
      total = 0;
      for (i = 0; i < 5; i = i + 1) {
        int j;                  // inner scope shadows nothing, fresh slot
        for (j = 0; j <= i; j = j + 1) {
          int k;
          k = i * j;
          total = total + k;
        }
      }
      return total;
    })";
  // sum over i of sum over j<=i of i*j = sum i * i(i+1)/2 = 0+1+6+18+40 = 65
  EXPECT_EQ(Run64(src), 65);
}

TEST(VccDeep, VariableShadowingInBlocks) {
  const char* src = R"(
    int main() {
      int x;
      x = 1;
      {
        int x;
        x = 100;
        if (x != 100) { return 1; }
      }
      return x;
    })";
  EXPECT_EQ(Run64(src), 1);
}

TEST(VccDeep, PointerToPointer) {
  const char* src = R"(
    int main() {
      int v;
      int *p;
      int **pp;
      v = 7;
      p = &v;
      pp = &p;
      **pp = 21;
      return v + *p;
    })";
  EXPECT_EQ(Run64(src), 42);
}

TEST(VccDeep, AddressOfArrayElement) {
  const char* src = R"(
    int main() {
      int a[4];
      int *p;
      a[2] = 5;
      p = &a[2];
      *p = *p + 10;
      return a[2];
    })";
  EXPECT_EQ(Run64(src), 15);
}

TEST(VccDeep, FunctionsPassPointersAndMutate) {
  const char* src = R"(
    int bump(int *p, int by) {
      *p = *p + by;
      return *p;
    }
    int main() {
      int x;
      x = 10;
      bump(&x, 5);
      bump(&x, 27);
      return x;
    })";
  EXPECT_EQ(Run64(src), 42);
}

TEST(VccDeep, ManyArgumentsUseStackSlotsInOrder) {
  const char* src = R"(
    int weigh(int a, int b, int c, int d, int e, int f) {
      return a + 2*b + 3*c + 4*d + 5*e + 6*f;
    }
    int main() {
      return weigh(1, 2, 3, 4, 5, 6);
    })";
  EXPECT_EQ(Run64(src), 1 + 4 + 9 + 16 + 25 + 36);
}

TEST(VccDeep, MutualRecursion) {
  // Calls resolve at codegen time over the whole translation unit, so
  // mutual recursion needs no forward declarations.
  const char* mutual = R"(
    int is_even(int n) {
      if (n == 0) { return 1; }
      return is_odd(n - 1);
    }
    int is_odd(int n) {
      if (n == 0) { return 0; }
      return is_even(n - 1);
    }
    int main(int n) { return is_even(n); })";
  EXPECT_EQ(Run64(mutual, {10}), 1);
  EXPECT_EQ(Run64(mutual, {11}), 0);
}

TEST(VccDeep, TernaryNesting) {
  const char* src = R"(
    int classify(int n) {
      return n < 0 ? 0 - 1 : n == 0 ? 0 : 1;
    }
    int main(int n) { return classify(n); })";
  EXPECT_EQ(Run64(src, {-5}), -1);
  EXPECT_EQ(Run64(src, {0}), 0);
  EXPECT_EQ(Run64(src, {9}), 1);
}

TEST(VccDeep, ArgumentEvaluationCountsSideEffectsOnce) {
  const char* src = R"(
    int g = 0;
    int tick() { g = g + 1; return g; }
    int pair(int a, int b) { return a * 100 + b; }
    int main() {
      int r;
      r = pair(tick(), tick());
      return r + g * 1000;
    })";
  // Arguments are evaluated right-to-left: b=1, a=2 -> 201; g==2 -> +2000.
  EXPECT_EQ(Run64(src), 2201);
}

TEST(VccDeep, WhileWithComplexCondition) {
  const char* src = R"(
    int main() {
      int i;
      int j;
      i = 0;
      j = 100;
      while (i < 10 && j > 90) {
        i = i + 2;
        j = j - 1;
      }
      return i * 1000 + j;
    })";
  EXPECT_EQ(Run64(src), 10095);
}

TEST(VccDeep, CharPointerStringWalk) {
  const char* src = R"(
    int count_vowels(char *s) {
      int n;
      int i;
      n = 0;
      for (i = 0; s[i]; i = i + 1) {
        if (s[i] == 'a' || s[i] == 'e' || s[i] == 'i' ||
            s[i] == 'o' || s[i] == 'u') {
          n = n + 1;
        }
      }
      return n;
    }
    int main() {
      return count_vowels("isolating functions at the hardware limit");
    })";
  EXPECT_EQ(Run64(src), 14);  // i,o,a,i + u,i,o + a + e + a,a,e + i,i
}

TEST(VccDeep, GlobalArraysAcrossCalls) {
  const char* src = R"(
    int memo[32];
    int fib(int n) {
      if (n < 2) { return n; }
      if (memo[n]) { return memo[n]; }
      memo[n] = fib(n - 1) + fib(n - 2);
      return memo[n];
    }
    int main(int n) { return fib(n); })";
  EXPECT_EQ(Run64(src, {30}), 832040);
}

class CrossEnvTest : public ::testing::TestWithParam<vrt::Env> {};

TEST_P(CrossEnvTest, SameSourceRunsInEveryEnvironment) {
  const char* src = R"(
    int gcd(int a, int b) {
      while (b != 0) {
        int t;
        t = a % b;
        a = b;
        b = t;
      }
      return a;
    }
    int main(int a, int b) { return gcd(a, b); })";
  EXPECT_EQ(RunIn(GetParam(), src, {252, 105}), 21);
  EXPECT_EQ(RunIn(GetParam(), src, {17, 5}), 1);
}

INSTANTIATE_TEST_SUITE_P(Envs, CrossEnvTest,
                         ::testing::Values(vrt::Env::kReal16, vrt::Env::kProt32,
                                           vrt::Env::kLong64),
                         [](const auto& param_info) { return vrt::EnvName(param_info.param); });

TEST(VccDeep, RandomizedExpressionDifferentialTest) {
  // Generate random arithmetic expressions over safe operators, evaluate
  // them with a host-side reference evaluator at 64-bit width, and compare
  // against the compiled guest result (classic compiler differential test).
  // Operands include literals wider than the 32-bit immediate field, which
  // must be loaded whole rather than folded into an ALU form.
  vbase::Rng rng(2024);
  const int64_t kWide[] = {4294967296, 2147483648, 4294967295, 8589934597, 1099511627776};
  for (int trial = 0; trial < 24; ++trial) {
    std::string expr;
    uint64_t expect = 0;  // wrapping, like the guest
    // Build "v0 op v1 op v2 ..." left-associated with + - * | & ^.
    const int terms = 3 + static_cast<int>(rng.Below(4));
    for (int i = 0; i < terms; ++i) {
      const int64_t v = rng.Below(3) == 0 ? kWide[rng.Below(5)]
                                          : static_cast<int64_t>(rng.Below(1000)) - 500;
      const std::string lit = "(" + std::to_string(v) + ")";
      if (i == 0) {
        expr = lit;
        expect = static_cast<uint64_t>(v);
        continue;
      }
      const char* ops[] = {"+", "-", "*", "|", "&", "^"};
      const char* op = ops[rng.Below(6)];
      expr = "(" + expr + " " + op + " " + lit + ")";
      const uint64_t u = static_cast<uint64_t>(v);
      switch (op[0]) {
        case '+': expect = expect + u; break;
        case '-': expect = expect - u; break;
        case '*': expect = expect * u; break;
        case '|': expect = expect | u; break;
        case '&': expect = expect & u; break;
        case '^': expect = expect ^ u; break;
      }
    }
    const std::string src = "int main() { return " + expr + "; }";
    EXPECT_EQ(Run64(src), static_cast<int64_t>(expect)) << "expr: " << expr;
  }
}

// A literal that does not fit the 32-bit immediate field must never be
// folded into an ALU, compare or index form (where it would be cut to 32
// bits); it is loaded whole.
TEST(VccDeep, WideLiteralsAreNotTruncated) {
  EXPECT_EQ(Run64("int main() { int a; a = 5; return a - 4294967296; }"), 5 - 4294967296);
  EXPECT_EQ(Run64("int main() { int a; a = 5; return a + 4294967296; }"), 5 + 4294967296);
  EXPECT_EQ(Run64("int main() { int a; a = 5; return a < 4294967296; }"), 1);
  EXPECT_EQ(Run64("int main() { int a; a = 5; if (a < 4294967296) { return 1; } return 0; }"),
            1);
  EXPECT_EQ(Run64("int main() { int a; a = 5; a += 4294967296; return a; }"), 5 + 4294967296);
  EXPECT_EQ(Run64("int main() { int a; a = 4294967301; return a & 4294967296; }"), 4294967296);
  EXPECT_EQ(Run64("int main() { int a; a = 1; return a << 33 == 8589934592; }"), 1);
  // An index wide enough to wrap the address space back onto the array.
  EXPECT_EQ(Run64(R"(
    int A[4];
    int main() {
      int *p;
      A[0] = 77;
      p = A - 4294967296;
      return p[4294967296];
    })"),
            77);
  // The microjs engine's PUSH sign fix-up: a 32-bit pattern with bit 31 set
  // becomes a negative word.
  EXPECT_EQ(Run64(R"(
    int main() {
      int a;
      a = 4294967291;
      if (a & 2147483648) {
        a = a - 4294967296;
      }
      return a;
    })"),
            -5);
}

}  // namespace
