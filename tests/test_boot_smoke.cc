// End-to-end smoke tests: boot each execution environment, run fib through
// the full Wasp invoke path, and check the boot milestones that feed the
// Table 1 reproduction.
#include <gtest/gtest.h>

#include "src/isa/disassembler.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

uint64_t FibRef(uint64_t n) { return n < 2 ? n : FibRef(n - 1) + FibRef(n - 2); }

class BootSmokeTest : public ::testing::TestWithParam<vrt::Env> {};

TEST_P(BootSmokeTest, FibRunsInEveryEnvironment) {
  const vrt::Env env = GetParam();
  auto image = vrt::BuildImage(env, vrt::FibSource());
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  spec.key = std::string("fib-smoke-") + vrt::EnvName(env);
  spec.word_bytes = vrt::WordBytes(env);

  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);
  auto result = fib.Call(20);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(static_cast<uint64_t>(*result), FibRef(20));
}

INSTANTIATE_TEST_SUITE_P(AllEnvs, BootSmokeTest,
                         ::testing::Values(vrt::Env::kReal16, vrt::Env::kProt32,
                                           vrt::Env::kLong64),
                         [](const auto& param_info) { return vrt::EnvName(param_info.param); });

TEST(BootMilestones, Long64BootLogsEveryTable1Component) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  auto vm = vkvm::Vm::Create(vkvm::VmConfig{});
  ASSERT_TRUE(vm->LoadBlob(image->load_addr, image->bytes.data(), image->bytes.size()).ok());
  uint64_t boot_info[2] = {vm->memory().size(), 0};
  ASSERT_TRUE(vm->memory().Write(wasp::kBootInfoAddr, boot_info, sizeof(boot_info)).ok());
  vm->ResetVcpu(image->entry);
  vm->cpu().set_reg(visa::kSp, wasp::kRealModeStackTop);
  // Argument page: argc = 1, arg0 = 5 (fib needs one argument).
  uint64_t args[3] = {0, 1, 5};
  ASSERT_TRUE(vm->memory().Write(wasp::kArgPageAddr, args, sizeof(args)).ok());
  auto run = vm->Run();
  ASSERT_EQ(run.kind, vhw::ExitKind::kHlt) << run.fault;

  std::vector<vhw::BootEvent> events;
  for (const auto& m : vm->cpu().milestones()) {
    events.push_back(m.event);
  }
  const std::vector<vhw::BootEvent> expected = {
      vhw::BootEvent::kFirstInsn,  vhw::BootEvent::kLgdtReal, vhw::BootEvent::kCr0PeSet,
      vhw::BootEvent::kJump32,     vhw::BootEvent::kLgdtProt, vhw::BootEvent::kEferLmeSet,
      vhw::BootEvent::kCr0PgSet,   vhw::BootEvent::kJump64,   vhw::BootEvent::kHlt,
  };
  EXPECT_EQ(events, expected);

  // The identity map should dominate: its charge covers the 512 PDE stores
  // plus EPT construction (Table 1's ~28 K cycles).
  const auto& ms = vm->cpu().milestones();
  uint64_t idmap_cost = 0;
  for (size_t i = 1; i < ms.size(); ++i) {
    if (ms[i].event == vhw::BootEvent::kCr0PgSet) {
      idmap_cost = ms[i].cycles - ms[i - 1].cycles;
    }
  }
  EXPECT_GT(idmap_cost, 20000u);
  EXPECT_LT(idmap_cost, 45000u);
}

TEST(Marshalling, TwoArgumentAddition) {
  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::Add2Source());
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &image.value();
  wasp::VirtineFunc<int64_t(int64_t, int64_t)> add(&runtime, spec);
  auto r = add.Call(1234, 4321);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, 5555);
}

}  // namespace
