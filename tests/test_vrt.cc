// vrt tests: execution environments, boot stubs, the CRT contract, the
// assembly prelude constants (which must mirror wasp/abi.h), vlibc edge
// cases, and real-mode constraints.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "src/vcc/vcc.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/abi.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

TEST(Env, WordSizesMatchModes) {
  EXPECT_EQ(vrt::WordBytes(vrt::Env::kReal16), 2);
  EXPECT_EQ(vrt::WordBytes(vrt::Env::kProt32), 4);
  EXPECT_EQ(vrt::WordBytes(vrt::Env::kLong64), 8);
  EXPECT_EQ(vrt::FinalMode(vrt::Env::kReal16), visa::Mode::kReal16);
  EXPECT_EQ(vrt::FinalMode(vrt::Env::kProt32), visa::Mode::kProt32);
  EXPECT_EQ(vrt::FinalMode(vrt::Env::kLong64), visa::Mode::kLong64);
}

TEST(Env, PreludeConstantsMirrorAbi) {
  // The .equ constants baked into guest images must match the hypervisor's
  // ABI header, or hypercalls would hit the wrong handlers.  Every row of
  // the hypercall table defines HC_<NAME>.
  const std::string prelude = vrt::AsmPrelude(vrt::Env::kLong64);
  auto expect_equ = [&](const std::string& name, uint64_t value) {
    const std::string line = ".equ " + name + ", " + std::to_string(value) + "\n";
    EXPECT_NE(prelude.find(line), std::string::npos) << "missing " << line;
  };
  for (const wasp::HypercallInfo& hc : wasp::kHypercalls) {
    std::string symbol = "HC_";
    for (const char* c = hc.name; *c != '\0'; ++c) {
      symbol += static_cast<char>(std::toupper(static_cast<unsigned char>(*c)));
    }
    expect_equ(symbol, hc.port);
  }
  expect_equ("HC_SNAPSHOT_GET_DATA", wasp::kHcSnapshotGetData);
  expect_equ("HC_RETURN_EXIT", wasp::kHcReturnExit);
  expect_equ("BOOTINFO", wasp::kBootInfoAddr);
  expect_equ("WORD", 8);
}

TEST(Env, VlibcPortsMatchAbi) {
  // vlibc streams its wrappers' ports in from the hypercall table; check
  // they reach the right handlers by exercising one wrapper per family end
  // to end.
  const char* probe = R"(
    int main() {
      char buf[8];
      puts("c");                       // console
      if (get_data(buf, 8) != 3) { return 1; }
      return_data(buf, 3);
      if (stat_size("/p") != 2) { return 2; }    // stat
      int fd;
      fd = open("/p");
      if (fd < 3) { return 3; }
      if (read(fd, buf, 8) != 2) { return 4; }
      write(1, buf, 2);
      if (close(fd) != 0) { return 5; }
      if (readfile("/p", buf, 1) != 2) { return 6; }
      if (buf[0] != 'x') { return 7; }
      int msg[4];
      msg[0] = "ab";
      msg[1] = 2;
      msg[2] = buf;
      msg[3] = 8;
      if (send_recv(msg) != 3) { return 8; }
      return 0;
    })";
  auto image = vcc::CompileProgram(vrt::VlibcSource() + probe, "main", vrt::Env::kLong64);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  runtime.env().PutFile("/p", std::string("xy"));
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.policy = wasp::kPolicyAllowAll;
  std::vector<uint8_t> input = {7, 8, 9};
  spec.input = &input;
  wasp::ByteChannel channel;
  channel.host().WriteString("xyz");
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 0u) << "vlibc probe failed at step " << outcome.result_word;
  EXPECT_EQ(outcome.console, "c");
  EXPECT_EQ(outcome.output.size(), 3u);
  EXPECT_EQ(outcome.fd_writes.size(), 2u);
  const auto sent = channel.host().Drain();
  EXPECT_EQ(std::string(sent.begin(), sent.end()), "ab");
}

TEST(Env, ImagesStayVirtineSized) {
  // The paper quotes ~16 KB virtine images; even with all of vlibc linked
  // in, a small program stays in that ballpark thanks to the call-graph cut.
  auto fib = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(fib.ok());
  EXPECT_LT(fib->size(), 4u * 1024);
  auto full = vcc::CompileProgram(
      vrt::VlibcSource() + "int main() { puts(\"x\"); return 0; }", "main",
      vrt::Env::kLong64);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(full->size(), 16u * 1024);
}

TEST(Env, Real16ImagesMustFitLowMemory) {
  // The real-mode environment is limited to 16-bit addressing; image bytes
  // land below 64 KB (load addr 0x8000 + size).
  auto image = vrt::BuildImage(vrt::Env::kReal16, vrt::FibSource());
  ASSERT_TRUE(image.ok());
  EXPECT_LT(image->load_addr + image->size(), 0x10000u);
}

TEST(Env, BootStubsShareOneCrt) {
  // All three environments run the same argument-unmarshalling CRT; a
  // 3-argument function must work in each mode (within its value range).
  const char* sum3 = R"(
virtine_main:
  push fp
  mov fp, sp
  ldw r0, [fp+WORD+WORD]
  ldw r1, [fp+WORD+WORD+WORD]
  add r0, r1
  ldw r1, [fp+WORD+WORD+WORD+WORD]
  add r0, r1
  pop fp
  ret
)";
  for (vrt::Env env : {vrt::Env::kReal16, vrt::Env::kProt32, vrt::Env::kLong64}) {
    auto image = vrt::BuildImage(env, sum3);
    ASSERT_TRUE(image.ok()) << vrt::EnvName(env);
    wasp::Runtime runtime;
    wasp::VirtineSpec spec;
    spec.image = &image.value();
    spec.word_bytes = vrt::WordBytes(env);
    wasp::VirtineFunc<int64_t(int64_t, int64_t, int64_t)> sum(&runtime, spec);
    auto r = sum.Call(100, 20, 3);
    ASSERT_TRUE(r.ok()) << vrt::EnvName(env) << ": " << r.status().ToString();
    EXPECT_EQ(*r, 123) << vrt::EnvName(env);
  }
}

TEST(Env, CrtSkipsSnapshotWhenFlagClear) {
  // With use_snapshot=false the CRT must not issue the snapshot hypercall,
  // so the whole run takes no IO exits at all (hlt only).
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  wasp::VirtineFunc<int64_t(int64_t, int64_t)> add(&runtime, spec);
  ASSERT_TRUE(add.Call(1, 1).ok());
  EXPECT_EQ(add.last_outcome().stats.io_exits, 0u);
}

TEST(Vlibc, ItoaAtoiRoundTripProperty) {
  // Round-trip a spread of values through guest itoa/atoi.
  const char* src = R"(
    int main(int v) {
      char buf[24];
      itoa(buf, v);
      return atoi(buf);
    })";
  auto image = vcc::CompileProgram(vrt::VlibcSource() + src, "main", vrt::Env::kLong64);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = "itoa-roundtrip";
  spec.use_snapshot = true;
  wasp::VirtineFunc<int64_t(int64_t)> roundtrip(&runtime, spec);
  for (int64_t v : {0LL, 1LL, -1LL, 42LL, -987654LL, 2147483647LL, 1000000007LL}) {
    auto r = roundtrip.Call(v);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, v);
  }
}

TEST(Vlibc, MemRoutinesEdgeCases) {
  const char* src = R"(
    int main() {
      char a[16];
      char b[16];
      memset(a, 0xab, 16);
      memcpy(b, a, 0);               // zero-length copy is a no-op
      memset(b, 1, 16);
      if (memcmp(a, b, 0) != 0) { return 1; }   // zero-length compare
      if (memcmp(a, b, 16) == 0) { return 2; }
      memcpy(b, a, 16);
      if (memcmp(a, b, 16) != 0) { return 3; }
      if (strlen("") != 0) { return 4; }
      if (strcmp("", "") != 0) { return 5; }
      if (strcmp("a", "b") >= 0) { return 6; }
      if (strcmp("b", "a") <= 0) { return 7; }
      return 0;
    })";
  auto image = vcc::CompileProgram(vrt::VlibcSource() + src, "main", vrt::Env::kLong64);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 0u) << "failed check " << outcome.result_word;
}

constexpr vrt::Env kAllEnvs[] = {vrt::Env::kReal16, vrt::Env::kProt32, vrt::Env::kLong64};

// Compiles vlibc + `program` for `env` and runs its main with /p (2 bytes)
// and /big (40,000 bytes) in the host environment.
wasp::RunOutcome RunVlibcProgram(vrt::Env env, const std::string& program,
                                 wasp::HypercallMask policy) {
  auto image = vcc::CompileProgram(vrt::VlibcSource() + program, "main", env);
  EXPECT_TRUE(image.ok()) << vrt::EnvName(env) << ": " << image.status().ToString();
  if (!image.ok()) {
    return {};
  }
  wasp::Runtime runtime;
  runtime.env().PutFile("/p", std::string("xy"));
  runtime.env().PutFile("/big", std::string(40000, 'b'));
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = vrt::WordBytes(env);
  spec.policy = policy;
  return runtime.Invoke(spec);
}

TEST(Vlibc, StatWritesOneGuestWordInEveryEnv) {
  // stat stores the size as one word of the guest's width: the words after
  // it survive, stat_size's buffer holds it in every mode, and a size no
  // signed word holds (40,000 in real16) fails instead of truncating.
  for (vrt::Env env : kAllEnvs) {
    std::ostringstream program;
    program << R"(
    int main() {
      int st[4];
      if (stat_size("/p") != 2) { return 1; }
      if (stat_size("/big") != )" << (vrt::WordBytes(env) == 2 ? "-1" : "40000") << R"() {
        return 2;
      }
      st[0] = 0;
      st[1] = 7;
      st[2] = 7;
      st[3] = 7;
      if (__hc2()" << wasp::kHcStat << R"(, "/p", st) != 0) { return 3; }
      if (st[0] != 2) { return 4; }
      if (st[1] != 7 || st[2] != 7 || st[3] != 7) { return 5; }
      return 0;
    })";
    const auto outcome = RunVlibcProgram(env, program.str(), wasp::kPolicyFileIo);
    EXPECT_TRUE(outcome.status.ok()) << vrt::EnvName(env) << ": " << outcome.status.ToString();
    EXPECT_EQ(outcome.result_word, 0u) << vrt::EnvName(env) << ": failed check "
                                       << outcome.result_word;
  }
}

TEST(Vlibc, UitoaHexRendersEveryWordWidth) {
  // A negative value renders one digit per nibble of the guest word (>> is
  // arithmetic, so it never shifts down to 0); others render as usual.
  const char* program = R"(
    int main() {
      char buf[24];
      return_data(buf, uitoa_hex(buf, -1));
      return_data(buf, uitoa_hex(buf, 48879));
      return_data(buf, uitoa_hex(buf, 0));
      return 0;
    })";
  for (vrt::Env env : kAllEnvs) {
    const auto outcome = RunVlibcProgram(env, program, wasp::MaskOf(wasp::kHcReturnData));
    EXPECT_TRUE(outcome.status.ok()) << vrt::EnvName(env) << ": " << outcome.status.ToString();
    EXPECT_EQ(std::string(outcome.output.begin(), outcome.output.end()),
              std::string(2 * vrt::WordBytes(env), 'f') + "beef0")
        << vrt::EnvName(env);
  }
}

TEST(Samples, EchoGuestTerminatesOnEof) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::EchoSource());
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::ByteChannel channel;
  channel.host().WriteString("abc");
  channel.host().CloseWrite();  // second recv returns EOF
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.policy = wasp::kPolicyStream;
  spec.channel = &channel.guest();
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  auto echoed = channel.host().Drain();
  EXPECT_EQ(std::string(echoed.begin(), echoed.end()), "abc");
}

TEST(Env, RawImageStartsAtEntry) {
  auto image = vrt::BuildRawImage("start:\n  mov r0, 9\n  mov r8, 0\n  stw [r8+0], r0\n  hlt\n");
  ASSERT_TRUE(image.ok());
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.word_bytes = 2;
  auto outcome = runtime.Invoke(spec);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.result_word, 9u);
}

}  // namespace
