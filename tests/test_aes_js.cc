// Case-study substrate tests: AES-128 against FIPS-197 / NIST vectors (host
// and in-virtine), and the microjs engine (compiler + in-virtine execution)
// against the host base64 reference, including property-style sweeps.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/rng.h"
#include "src/vaes/aes.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

namespace {

// FIPS-197 Appendix B key/plaintext.
const vaes::Key kFipsKey = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

TEST(AesHost, Fips197AppendixBVector) {
  const vaes::Block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                                 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const vaes::Block expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                                0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  EXPECT_EQ(vaes::EncryptBlock(vaes::ExpandKey(kFipsKey), plaintext), expected);
}

TEST(AesHost, NistSp800_38aCbcVectors) {
  // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first two blocks.
  const vaes::Key key = kFipsKey;
  const vaes::Block iv = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const std::vector<uint8_t> plaintext = {
      0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e,
      0x11, 0x73, 0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03,
      0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51};
  const std::vector<uint8_t> expected = {
      0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9, 0x8e,
      0x9b, 0x12, 0xe9, 0x19, 0x7d, 0x50, 0x86, 0xcb, 0x9b, 0x50, 0x72,
      0x19, 0xee, 0x95, 0xdb, 0x11, 0x3a, 0x91, 0x76, 0x78, 0xb2};
  EXPECT_EQ(vaes::EncryptCbc(key, iv, plaintext), expected);
}

TEST(AesHost, Pkcs7PadIsAlwaysBlockMultiple) {
  for (size_t n = 0; n < 40; ++n) {
    const auto padded = vaes::Pkcs7Pad(std::vector<uint8_t>(n, 0x7));
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), n);
    EXPECT_EQ(padded.back(), padded.size() - n);
  }
}

class AesVirtineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto image = vcc::CompileProgram(vrt::VlibcSource() + vaes::GuestAesSource(), "main",
                                     vrt::Env::kLong64);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    image_ = new visa::Image(std::move(*image));
    runtime_ = new wasp::Runtime();
  }
  static void TearDownTestSuite() {
    delete runtime_;
    runtime_ = nullptr;
    delete image_;
    image_ = nullptr;
  }

  static std::vector<uint8_t> EncryptInVirtine(const vaes::Key& key, const vaes::Block& iv,
                                               const std::vector<uint8_t>& plaintext) {
    std::vector<uint8_t> input;
    input.insert(input.end(), key.begin(), key.end());
    input.insert(input.end(), iv.begin(), iv.end());
    input.insert(input.end(), plaintext.begin(), plaintext.end());
    wasp::VirtineSpec spec;
    spec.image = image_;
    spec.key = "aes-test";
    spec.policy = wasp::kPolicyManaged;
    spec.use_snapshot = true;
    spec.crt_snapshot = false;  // the guest snapshots inside its input call
    spec.input = &input;
    auto outcome = runtime_->Invoke(spec);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    return outcome.output;
  }

  static visa::Image* image_;
  static wasp::Runtime* runtime_;
};

visa::Image* AesVirtineTest::image_ = nullptr;
wasp::Runtime* AesVirtineTest::runtime_ = nullptr;

TEST_F(AesVirtineTest, MatchesNistCbcVector) {
  const vaes::Block iv = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                          0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const std::vector<uint8_t> plaintext = {
      0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e,
      0x11, 0x73, 0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03,
      0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51};
  EXPECT_EQ(EncryptInVirtine(kFipsKey, iv, plaintext),
            vaes::EncryptCbc(kFipsKey, iv, plaintext));
}

// A warm call enters the VM once and leaves through the one exit that carries
// its ciphertext; a cold or unsnapshotted call also exits at its input call.
TEST_F(AesVirtineTest, WarmCallsTakeOneExit) {
  const vaes::Block iv = {};
  const std::vector<uint8_t> plaintext(32, 0x5c);
  std::vector<uint8_t> input(kFipsKey.begin(), kFipsKey.end());
  input.insert(input.end(), iv.begin(), iv.end());
  input.insert(input.end(), plaintext.begin(), plaintext.end());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = image_;
  spec.key = "aes-exits";
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;
  spec.input = &input;
  const auto cold = runtime.Invoke(spec);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(cold.stats.took_snapshot);
  EXPECT_EQ(cold.stats.io_exits, 2u);
  const auto warm = runtime.Invoke(spec);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.stats.restored_snapshot);
  EXPECT_EQ(warm.stats.io_exits, 1u);
  EXPECT_EQ(warm.output, vaes::EncryptCbc(kFipsKey, iv, plaintext));
  EXPECT_EQ(warm.exit_code, plaintext.size());
  spec.use_snapshot = false;
  const auto unsnapshotted = runtime.Invoke(spec);
  ASSERT_TRUE(unsnapshotted.status.ok()) << unsnapshotted.status.ToString();
  EXPECT_EQ(unsnapshotted.stats.io_exits, 2u);
  EXPECT_EQ(unsnapshotted.output, warm.output);
}

TEST_F(AesVirtineTest, RandomizedEquivalenceWithHost) {
  vbase::Rng rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    vaes::Key key;
    vaes::Block iv;
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng.Next());
    }
    for (auto& b : iv) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> plaintext(16 * (1 + rng.Below(8)));
    for (auto& b : plaintext) {
      b = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_EQ(EncryptInVirtine(key, iv, plaintext), vaes::EncryptCbc(key, iv, plaintext))
        << "trial " << trial;
  }
}

// --- microjs --------------------------------------------------------------------

// Runs `bytecode` once in a fresh engine virtine (no snapshot, empty input)
// and returns its output bytes.
std::vector<uint8_t> RunBytecode(const std::vector<uint8_t>& bytecode) {
  auto image = vcc::CompileProgram(
      vrt::VlibcSource() + vjs::EngineSource(bytecode, /*teardown=*/false), "main",
      vrt::Env::kLong64);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) {
    return {};
  }
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  std::vector<uint8_t> empty;
  spec.input = &empty;
  auto outcome = runtime.Invoke(spec);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  return outcome.output;
}

// Compiles `script` and runs it as RunBytecode does.
std::vector<uint8_t> RunScript(const std::string& script) {
  auto bytecode = vjs::CompileScript(script);
  EXPECT_TRUE(bytecode.ok()) << bytecode.status().ToString();
  if (!bytecode.ok()) {
    return {};
  }
  return RunBytecode(*bytecode);
}

// A name is visible from the end of its `var` to the end of its block (a
// braceless if or while body included), so a read can never reach a slot
// this call has not stored.
TEST(MicroJs, AVarIsVisibleFromItsDeclarationToTheEndOfItsBlock) {
  EXPECT_FALSE(vjs::CompileScript("if (input_len() > 100) { var x = 7; } out(x + 48);").ok());
  EXPECT_FALSE(vjs::CompileScript("var x = x + 1;").ok());
  EXPECT_FALSE(vjs::CompileScript("if (1) var x = 7; out(x);").ok());
  EXPECT_FALSE(vjs::CompileScript("while (0) { var x = 1; } x = 2;").ok());
  EXPECT_FALSE(vjs::CompileScript("if (1) { } else { var x = 1; } out(x);").ok());
  EXPECT_TRUE(vjs::CompileScript("var x = 1; if (x) { var x = x + 1; } out(x);").ok());
  EXPECT_TRUE(vjs::CompileScript("if (1) { var x = 1; if (x) { out(x); } }").ok());
  EXPECT_TRUE(vjs::CompileScript("if (1) { var x = 1; } var x = 2; out(x);").ok());
}

TEST(MicroJs, CompileErrorsAreDiagnosed) {
  EXPECT_FALSE(vjs::CompileScript("var ;").ok());
  EXPECT_FALSE(vjs::CompileScript("x = 1;").ok());            // undefined var
  EXPECT_FALSE(vjs::CompileScript("var x = foo(1);").ok());   // unknown builtin
  EXPECT_FALSE(vjs::CompileScript("var x = input();").ok());  // arity
  EXPECT_FALSE(vjs::CompileScript("while (1) { ").ok());
  EXPECT_TRUE(vjs::CompileScript("var x = 1 + 2 * 3;").ok());

  // A literal wraps to i32, and one past 64 bits is an error rather than
  // an overflow in the host's tokenizer.
  EXPECT_EQ(RunScript("out(18446744073709551615);\n"), std::vector<uint8_t>{0xff});
  auto wide = vjs::CompileScript("out(99999999999999999999);\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.status().ToString().find("64-bit range"), std::string::npos)
      << wide.status().ToString();

  // A jump carries the word index of its target, so a body of any length can
  // be jumped over.  Each statement below is 12 pairs, and was 64 bytes in
  // the byte code microjs used to emit, whose 16-bit jump offsets reached
  // 32,767 bytes: each body, at 520 statements, is past that reach.  (The
  // whole engine image stays under the 256 KB where vlibc's heap begins.)
  std::string body;
  for (int i = 0; i < 520; ++i) {
    body += "x = x + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1;\n";
  }
  EXPECT_EQ(RunScript("var x = 0;\nif (x < 1) {\n" + body + "}\nwhile (x < 6000) {\n" + body +
                      "}\nout(x);\n"),
            std::vector<uint8_t>{10400 % 256});

  // Nesting is capped, so no script can exhaust the host's stack.  The
  // statement, out's argument and its unary operand take five levels, and
  // each minus sign one more.
  const int cap = vjs::kMaxScriptNesting;
  auto negated = [](int signs) { return "out(" + std::string(signs, '-') + "7);\n"; };
  EXPECT_EQ(RunScript(negated(cap - 5)), std::vector<uint8_t>{0xf9});  // -7, an odd count
  auto too_deep = vjs::CompileScript(negated(cap - 4));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.status().ToString().find("nest deeper"), std::string::npos);
  const std::string parens = "var x = " + std::string(100000, '(') + "1" +
                             std::string(100000, ')') + ";\n";
  auto hostile = vjs::CompileScript(parens);
  ASSERT_FALSE(hostile.ok());
  EXPECT_NE(hostile.status().ToString().find("nest deeper"), std::string::npos);

  // The engine's operand stack holds kEngineStackWords words, and a script
  // that needs more is rejected rather than overflowing into the variables.
  // Chaining every binary operator from loosest to tightest binding leaves
  // each left operand pending, so `slots` operands are on the stack at once
  // (a parenthesis after each `*` starts the next round).
  auto stack_hungry = [](int slots) {
    static const char* kOps[] = {"||", "&&", "|", "^", "&", "==", "<", "<<", "+", "*"};
    std::string open;
    std::string close;
    for (int i = 0; i + 1 < slots; ++i) {
      open += std::string("1") + kOps[i % 10];
      if (i % 10 == 9) {
        open += "(";
        close += ")";
      }
    }
    // The loosest operator is ||, which microjs compiles to bitwise or:
    // x is 1.
    return "var y = 7;\nvar x = " + open + "1" + close + ";\nout(y);\nout(x);\n";
  };
  EXPECT_EQ(RunScript(stack_hungry(vjs::kEngineStackWords)), (std::vector<uint8_t>{7, 1}));
  auto overflow = vjs::CompileScript(stack_hungry(vjs::kEngineStackWords + 1));
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().ToString().find("1025 operand stack slots"), std::string::npos)
      << overflow.status().ToString();
}

// EngineSource checks whatever bytes it is handed.  It reads whole [op,
// operand] pairs only and turns a pair without an arm, a jump off the
// script's pairs or a slot outside the variables into the engine's bad-op
// word, which ends the run: the call exits cleanly with the output written
// before it.  Each bad pair is followed by pairs that print 'B', so one let
// through shows in the output, and each script is allocated to its exact
// size, so the ASan lane catches any read past the end.
TEST(MicroJs, MalformedBytecodeStopsAtTheBadOp) {
  auto compiled = vjs::CompileScript("out(65);\n");
  ASSERT_TRUE(compiled.ok());
  // PUSH 65, out, POP, HALT.
  std::vector<int64_t> out_a(compiled->size() / 8);
  std::memcpy(out_a.data(), compiled->data(), compiled->size());
  ASSERT_EQ(out_a, (std::vector<int64_t>{1, 65, 11, 0, 8, 0, 0, 0}));
  out_a.resize(6);  // without HALT: each case appends its tail
  // A case's pairs, then PUSH 66, out, POP.  A JZ after PUSH 1 falls through
  // when it is kept, whatever its target.
  auto then_b = [](std::vector<int64_t> tail) {
    tail.insert(tail.end(), {1, 66, 11, 0, 8, 0});
    return tail;
  };
  struct Case {
    const char* what;
    std::vector<int64_t> tail;
    size_t cut = 0;  // bytes taken off the script's end
  };
  const int64_t end = 6 + 4 + 6;  // the word past a JZ case's last word
  const Case kCases[] = {
      {"a trailing partial word", {11, 0}, 13},
      {"a pair cut after its op word", {11, 0}, 8},
      {"op -1", then_b({-1, 0})},
      {"op 45", then_b({45, 0})},
      {"op 46", then_b({46, 0})},
      {"op INT64_MAX", then_b({INT64_MAX, 0})},
      {"a JMP to an odd word, whose value is out's arm", then_b({1, 11, 8, 0, 4, 7})},
      {"a JZ to an odd word", then_b({1, 1, 5, 7})},
      {"a JZ to -2", then_b({1, 1, 5, -2})},
      {"a JZ to the word past the end", then_b({1, 1, 5, end})},
      {"a LOAD of slot 256", then_b({2, 256})},
      {"a LOAD of slot -1", then_b({2, -1})},
      {"a STORE to slot 256", then_b({1, 7, 3, 256})},
      {"a STORE to slot -1", then_b({1, 7, 3, -1})},
      {"no HALT", {}},
  };
  // The same pairs in range are kept.
  const Case kKept[] = {
      {"a JZ to word 0", then_b({1, 1, 5, 0})},
      {"a JZ to the last pair", then_b({1, 1, 5, end - 2})},
      {"a LOAD of slot 255", then_b({2, 255})},
      {"a STORE to slot 0", then_b({1, 7, 3, 0})},
  };
  auto run = [&](const Case& c) {
    std::vector<int64_t> words = out_a;
    words.insert(words.end(), c.tail.begin(), c.tail.end());
    std::vector<uint8_t> script(words.size() * 8 - c.cut);
    std::memcpy(script.data(), words.data(), script.size());
    return RunBytecode(script);
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(run(c), std::vector<uint8_t>{'A'}) << c.what;
  }
  for (const Case& c : kKept) {
    EXPECT_EQ(run(c), (std::vector<uint8_t>{'A', 'B'})) << c.what;
  }
  EXPECT_TRUE(RunBytecode(std::vector<uint8_t>()).empty()) << "an empty script";
}

TEST(MicroJs, HostBase64MatchesKnownVectors) {
  EXPECT_EQ(vjs::HostBase64({}), "");
  EXPECT_EQ(vjs::HostBase64({'f'}), "Zg==");
  EXPECT_EQ(vjs::HostBase64({'f', 'o'}), "Zm8=");
  EXPECT_EQ(vjs::HostBase64({'f', 'o', 'o'}), "Zm9v");
  EXPECT_EQ(vjs::HostBase64({'f', 'o', 'o', 'b', 'a', 'r'}), "Zm9vYmFy");
}

class JsEngineTest : public ::testing::Test {
 protected:
  static std::string RunBase64(const std::vector<uint8_t>& payload) {
    static visa::Image* image = [] {
      auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
      EXPECT_TRUE(bytecode.ok());
      auto img = vcc::CompileProgram(
          vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/true), "main",
          vrt::Env::kLong64);
      EXPECT_TRUE(img.ok()) << img.status().ToString();
      return new visa::Image(std::move(*img));
    }();
    static wasp::Runtime* runtime = new wasp::Runtime();
    wasp::VirtineSpec spec;
    spec.image = image;
    spec.key = "js-engine-test";
    spec.mem_size = 2ULL << 20;
    spec.policy = wasp::kPolicyManaged;
    spec.use_snapshot = true;
    spec.crt_snapshot = false;
    spec.input = &payload;
    auto outcome = runtime->Invoke(spec);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    return std::string(outcome.output.begin(), outcome.output.end());
  }
};

TEST_F(JsEngineTest, Base64PaddingCases) {
  EXPECT_EQ(RunBase64({'f'}), "Zg==");
  EXPECT_EQ(RunBase64({'f', 'o'}), "Zm8=");
  EXPECT_EQ(RunBase64({'f', 'o', 'o'}), "Zm9v");
}

TEST_F(JsEngineTest, RandomPayloadsMatchHostReference) {
  vbase::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<uint8_t> payload(1 + rng.Below(120));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_EQ(RunBase64(payload), vjs::HostBase64(payload)) << "trial " << trial;
  }
}

// --- The engine's call boundary: one VM entry, one exit ----------------------------

// The base64 engine as Vespid registers it (no teardown), built once.
const visa::Image& Base64Engine() {
  static const visa::Image* image = [] {
    auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
    EXPECT_TRUE(bytecode.ok());
    auto img = vcc::CompileProgram(
        vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
        vrt::Env::kLong64);
    EXPECT_TRUE(img.ok()) << img.status().ToString();
    return new visa::Image(std::move(*img));
  }();
  return *image;
}

constexpr char kEngineKey[] = "b64-boundary";

wasp::VirtineSpec EngineSpec(const std::vector<uint8_t>* payload) {
  wasp::VirtineSpec spec;
  spec.image = &Base64Engine();
  spec.key = kEngineKey;
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;
  spec.input = payload;
  return spec;
}

std::string OutputOf(const wasp::RunOutcome& outcome) {
  return std::string(outcome.output.begin(), outcome.output.end());
}

// Every base64 padding case (lengths 0-3), then seeded random payloads.
std::vector<std::vector<uint8_t>> BoundaryPayloads(uint64_t seed) {
  std::vector<std::vector<uint8_t>> payloads = {{}, {'f'}, {'f', 'o'}, {'f', 'o', 'o'}};
  vbase::Rng rng(seed);
  for (int i = 0; i < 6; ++i) {
    std::vector<uint8_t> payload(1 + rng.Below(200));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

TEST(EngineBoundary, WarmCallsTakeOneExit) {
  wasp::Runtime runtime;
  const std::vector<uint8_t> payload = {'f', 'o', 'o'};
  const auto cold = runtime.Invoke(EngineSpec(&payload));
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(cold.stats.took_snapshot);
  EXPECT_EQ(cold.stats.io_exits, 2u);
  const auto warm = runtime.Invoke(EngineSpec(&payload));
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.stats.restored_snapshot);
  EXPECT_EQ(warm.stats.io_exits, 1u);
  EXPECT_EQ(OutputOf(warm), "Zm9v");
  wasp::VirtineSpec unsnapshotted = EngineSpec(&payload);
  unsnapshotted.use_snapshot = false;
  const auto plain = runtime.Invoke(unsnapshotted);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_EQ(plain.stats.io_exits, 2u);
  EXPECT_EQ(OutputOf(plain), "Zm9v");
  // The exit code carries the engine's in-guest rdtsc (the native baseline).
  EXPECT_GT(plain.exit_code, 0u);
}

// Each restore path resumes into the pending input call and must deliver that
// call's own payload: affine delta repair, and COW map onto a clean shell.
enum class RestorePath { kAffineDelta, kCowMap };

class EngineRestorePathTest : public ::testing::TestWithParam<RestorePath> {};

TEST_P(EngineRestorePathTest, EveryCallEncodesItsOwnPayload) {
  wasp::Runtime runtime;
  const auto payloads = BoundaryPayloads(31);
  // The cold call takes the snapshot with the last payload's bytes in hand.
  ASSERT_TRUE(runtime.Invoke(EngineSpec(&payloads.back())).status.ok());
  for (const auto& payload : payloads) {
    wasp::VirtineSpec spec = EngineSpec(&payload);
    spec.fresh_shell = GetParam() == RestorePath::kCowMap;
    const auto outcome = runtime.Invoke(spec);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.stats.affine_restore, GetParam() == RestorePath::kAffineDelta);
    EXPECT_EQ(outcome.stats.mapped_cow, GetParam() == RestorePath::kCowMap);
    EXPECT_EQ(outcome.stats.io_exits, 1u);
    EXPECT_EQ(OutputOf(outcome), vjs::HostBase64(payload)) << payload.size() << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(AllRestorePaths, EngineRestorePathTest,
                         ::testing::Values(RestorePath::kAffineDelta, RestorePath::kCowMap));

// A re-captured snapshot keeps its parent's pending input call, through
// every re-capture of a series.
TEST(EngineBoundary, RecapturedSnapshotsStillDeliverEachCallsInput) {
  constexpr int kRounds = 6;
  wasp::Runtime runtime;
  const auto payloads = BoundaryPayloads(57);
  ASSERT_TRUE(runtime.Invoke(EngineSpec(&payloads[0])).status.ok());
  for (int round = 0; round < kRounds; ++round) {
    // The re-capture folds this finished call's memory (its input, its
    // output, the engine's counters) into the snapshot.
    ASSERT_TRUE(runtime.Invoke(EngineSpec(&payloads[4 + round % 6])).status.ok());
    const wasp::RecaptureOutcome recapture = runtime.RecaptureSnapshot(kEngineKey);
    ASSERT_EQ(recapture.status, wasp::RecaptureOutcome::Status::kRecaptured)
        << "round " << round;
    for (const auto& payload : payloads) {
      const auto outcome = runtime.Invoke(EngineSpec(&payload));
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.stats.io_exits, 1u);
      EXPECT_EQ(OutputOf(outcome), vjs::HostBase64(payload))
          << "round " << round << ", " << payload.size() << " bytes";
    }
  }
}

// Chaos on a warm call lands on its one exit, return_exit: the reply-side
// injection is consumed by its output, and the exit-boundary kinds fire there.
TEST(EngineBoundary, InjectedFaultsFireAtTheWarmCallsOneExit) {
  const wasp::FaultKind kinds[] = {wasp::FaultKind::kOversizedReply,
                                   wasp::FaultKind::kWorkerDeath,
                                   wasp::FaultKind::kPolicyDenied,
                                   wasp::FaultKind::kIllegalHypercall};
  wasp::RuntimeOptions options;
  uint64_t invocation = 1;  // invocation 0 is the cold call
  for (const wasp::FaultKind kind : kinds) {
    options.fault_plan.rules.push_back(wasp::FaultPlan::At(kind, invocation++));
  }
  wasp::Runtime runtime(options);
  const std::vector<uint8_t> payload = {'f', 'o', 'o'};
  ASSERT_TRUE(runtime.Invoke(EngineSpec(&payload)).status.ok());
  for (const wasp::FaultKind kind : kinds) {
    const uint64_t quarantined = runtime.pool().stats().quarantined;
    const auto outcome = runtime.Invoke(EngineSpec(&payload));
    EXPECT_TRUE(outcome.stats.restored_snapshot);
    EXPECT_FALSE(outcome.status.ok());
    EXPECT_EQ(outcome.fault, kind) << wasp::FaultKindName(kind);
    EXPECT_EQ(outcome.stats.io_exits, 1u) << wasp::FaultKindName(kind);
    EXPECT_TRUE(outcome.output.empty()) << wasp::FaultKindName(kind);
    EXPECT_EQ(runtime.pool().stats().quarantined, quarantined + 1);
    EXPECT_EQ(runtime.fault_injector()->stats().injected[static_cast<int>(kind)], 1u);
  }
  const auto clean = runtime.Invoke(EngineSpec(&payload));
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(OutputOf(clean), "Zm9v");
}

// Runs `script` in a snapshotting engine (no teardown), once per input: the
// first call is cold and captures the snapshot, the later ones are warm.
// After call `recapture_after` (if any) the snapshot is re-captured.
std::vector<wasp::RunOutcome> RunScriptCalls(const std::string& script,
                                             const std::vector<std::vector<uint8_t>>& inputs,
                                             size_t recapture_after = SIZE_MAX) {
  auto bytecode = vjs::CompileScript(script);
  EXPECT_TRUE(bytecode.ok()) << bytecode.status().ToString();
  if (!bytecode.ok()) {
    return {};
  }
  auto image = vcc::CompileProgram(
      vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
      vrt::Env::kLong64);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) {
    return {};
  }
  wasp::Runtime runtime;
  std::vector<wasp::RunOutcome> outcomes;
  for (const std::vector<uint8_t>& input : inputs) {
    wasp::VirtineSpec spec;
    spec.image = &image.value();
    spec.key = "engine-bounds";
    spec.mem_size = 2ULL << 20;
    spec.policy = wasp::kPolicyManaged;
    spec.use_snapshot = true;
    spec.crt_snapshot = false;
    spec.input = &input;
    outcomes.push_back(runtime.Invoke(spec));
    EXPECT_TRUE(outcomes.back().status.ok()) << outcomes.back().status.ToString();
    EXPECT_EQ(outcomes.back().stats.restored_snapshot, outcomes.size() > 1);
    if (outcomes.size() == recapture_after + 1) {
      EXPECT_EQ(runtime.RecaptureSnapshot(spec.key).status,
                wasp::RecaptureOutcome::Status::kRecaptured);
    }
  }
  return outcomes;
}

// A variable declared in a branch is read only inside it, so a snapshot
// re-captured after a call that took the branch hands nothing to a later
// call that did not.
TEST(EngineBoundary, ABranchVariableDoesNotOutliveARecapture) {
  const char* script = R"js(
if (input_len() > 100) {
  var x = 7;
  out(x + 48);
}
if (input_len() <= 100) {
  var y = input_len();
  out(y + 48);
}
)js";
  const std::vector<uint8_t> short_input = {'f', 'o', 'o'};
  const std::vector<uint8_t> long_input(200, 'z');
  const auto outcomes = RunScriptCalls(
      script, {short_input, long_input, short_input, long_input}, /*recapture_after=*/1);
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(OutputOf(outcomes[i]), i % 2 == 0 ? "3" : "7") << "call " << i;
  }
}

// out() past the engine's output capacity drops the byte instead of writing
// past the output region: a script that writes 100,000 bytes gets back its
// first kEngineOutputBytes, on the cold call and on a warm one.
TEST(EngineBoundary, OutputPastItsCapacityIsDropped) {
  const char* script = "var i = 0;\nwhile (i < 100000) {\n  out(65 + i % 3);\n  i = i + 1;\n}\n";
  std::string want;
  for (int i = 0; i < vjs::kEngineOutputBytes; ++i) {
    want += static_cast<char>(65 + i % 3);
  }
  const std::vector<uint8_t> input = {'f', 'o', 'o'};
  const auto outcomes = RunScriptCalls(script, {input, input});
  ASSERT_EQ(outcomes.size(), 2u);
  for (const wasp::RunOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.output.size(), want.size());
    EXPECT_TRUE(OutputOf(outcome) == want);
  }
}

// input(i) reads 0 outside [0, input_len()).  Below the input lie the
// engine's variable slots and operand stack, and right after it the call's
// own output, so an unchecked index would read either: the loop ORs 4 KB on
// each side into `seen`.  The warm call's input is shorter than the cold
// call's.
TEST(EngineBoundary, InputOutsideTheInputReadsZero) {
  const char* script = R"js(
out(77);
var n = input_len();
var seen = 0;
var i = 1;
while (i <= 4096) {
  seen = seen | input(0 - i) | input(n - 1 + i);
  i = i + 1;
}
out(seen);
out(input(-1));
out(input(n));
out(input(65536));
out(input(n - 1));
)js";
  std::vector<uint8_t> longer(300, 0x5a);
  longer.back() = 'z';
  const auto outcomes = RunScriptCalls(script, {longer, {'f', 'o', 'o'}});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].output, (std::vector<uint8_t>{77, 0, 0, 0, 0, 'z'}));
  EXPECT_EQ(outcomes[1].output, (std::vector<uint8_t>{77, 0, 0, 0, 0, 'o'}));
}

TEST(MicroJs, ArithmeticScriptSemantics) {
  // A script of 14 operator checks (true outcomes only); emits their count
  // via out().  EachOperatorArmComputesItsOwnOperator checks every arm.
  const char* script = R"js(
var a = 10;
var b = 3;
var r = 0;
if (a / b == 3) { r = r + 1; }
if (a % b == 1) { r = r + 1; }
if ((a << 2) == 40) { r = r + 1; }
if ((a >> 1) == 5) { r = r + 1; }
if ((a & b) == 2) { r = r + 1; }
if ((a | b) == 11) { r = r + 1; }
if ((a ^ b) == 9) { r = r + 1; }
if (a > b) { r = r + 1; }
if (b < a) { r = r + 1; }
if (a >= 10) { r = r + 1; }
if (b <= 3) { r = r + 1; }
if (a != b) { r = r + 1; }
if (!(a == b)) { r = r + 1; }
if (-b == 0 - 3) { r = r + 1; }
out(r + 48);
)js";
  // 14 checks passed -> '0' + 14 = '>'.
  EXPECT_EQ(RunScript(script), std::vector<uint8_t>{'0' + 14});
}

// Each of the engine's 32 binary arms, plus NOT and NEG, on operands that
// tell it apart from its neighbours.  Every operator runs with a variable
// right operand (its plain arm) and with a literal one (its fused arm), and
// every comparison sees a less, an equal, a greater and a signed pair in
// both forms, so false results are checked as well as true ones and no two
// arms of a kind can trade places unnoticed.  One output byte per check
// (out() keeps the low byte), so a failure names its arm.
TEST(MicroJs, EachOperatorArmComputesItsOwnOperator) {
  struct Check {
    const char* expr;
    uint8_t want;
  };
  const Check kChecks[] = {
      // Variable right operands: the plain arms.
      {"a + b", 10},     {"a - b", 4},      {"a * b", 21},     {"a / b", 2},
      {"a % b", 1},      {"s & b", 2},      {"s | b", 7},      {"s ^ b", 5},
      {"a << c", 28},    {"m >> c", 0xfe},
      {"2 < b", 1},      {"3 < b", 0},      {"4 < b", 0},      {"m < b", 1},
      {"2 <= b", 1},     {"3 <= b", 1},     {"4 <= b", 0},     {"m <= b", 1},
      {"2 > b", 0},      {"3 > b", 0},      {"4 > b", 1},      {"m > b", 0},
      {"2 >= b", 0},     {"3 >= b", 1},     {"4 >= b", 1},     {"m >= b", 0},
      {"2 == b", 0},     {"3 == b", 1},     {"4 == b", 0},     {"m == b", 0},
      {"2 != b", 1},     {"3 != b", 0},     {"4 != b", 1},     {"m != b", 1},
      // Literal right operands: the fused arms.
      {"a + 5", 12},     {"a - 5", 2},      {"a * 5", 35},     {"m / 2", 0xfd},
      {"m % 2", 0xff},   {"s & 3", 2},      {"s | 3", 7},      {"s ^ 3", 5},
      {"b << 2", 12},    {"12 >> 2", 3},    {"-8 >> 1", 0xfc},
      {"2 < 3", 1},      {"3 < 3", 0},      {"4 < 3", 0},      {"-1 < 1", 1},
      {"2 <= 3", 1},     {"3 <= 3", 1},     {"4 <= 3", 0},     {"-1 <= 1", 1},
      {"2 > 3", 0},      {"3 > 3", 0},      {"4 > 3", 1},      {"-1 > 1", 0},
      {"2 >= 3", 0},     {"3 >= 3", 1},     {"4 >= 3", 1},     {"-1 >= 1", 0},
      {"2 == 3", 0},     {"3 == 3", 1},     {"4 == 3", 0},     {"-1 == 1", 0},
      {"2 != 3", 1},     {"3 != 3", 0},     {"4 != 3", 1},     {"-1 != 1", 1},
      // NOT and NEG.
      {"!0", 1},         {"!b", 0},         {"-b", 0xfd},
  };
  std::string script = "var a = 7;\nvar b = 3;\nvar m = 0 - 7;\nvar s = 6;\nvar c = 2;\n";
  for (const Check& check : kChecks) {
    script += std::string("out(") + check.expr + ");\n";
  }
  const std::vector<uint8_t> output = RunScript(script);
  ASSERT_EQ(output.size(), std::size(kChecks));
  for (size_t i = 0; i < std::size(kChecks); ++i) {
    EXPECT_EQ(output[i], kChecks[i].want) << kChecks[i].expr;
  }
}

}  // namespace
