// Figure 3: latency to run fib(20) in the three classic x86 operating modes.
//
// The same mode-agnostic fib guest runs under the real16, prot32, and
// long64 environments; measured from KVM_RUN entry to the hlt exit,
// Tukey-filtered as in the paper (Section 4.2, footnote 3).
#include "bench/bench_util.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/vkvm/vkvm.h"
#include "src/wasp/abi.h"

int main() {
  benchutil::Header(
      "Figure 3: fib(20) latency by processor mode (entry -> exit)",
      "real-mode execution skips the expensive boot components (~10K+ cycles saved); "
      "protected and long mode are essentially the same");

  constexpr int kTrials = 100;
  vbase::Table table({"mode", "mean cycles", "min cycles", "mean us", "boot components"});
  for (vrt::Env env : {vrt::Env::kReal16, vrt::Env::kProt32, vrt::Env::kLong64}) {
    auto image = vrt::BuildImage(env, vrt::FibSource());
    VB_CHECK(image.ok(), image.status().ToString());
    const int w = vrt::WordBytes(env);
    std::vector<double> samples;
    size_t boot_events = 0;
    for (int t = 0; t < kTrials; ++t) {
      auto vm = vkvm::Vm::Create(vkvm::VmConfig{});
      VB_CHECK(vm->LoadBlob(image->load_addr, image->bytes.data(), image->bytes.size()).ok(),
               "");
      uint64_t boot_info[2] = {vm->memory().size(), 0};
      VB_CHECK(vm->memory().Write(wasp::kBootInfoAddr, boot_info, sizeof(boot_info)).ok(), "");
      // Argument page in the environment's word size: ret, argc=1, n=20.
      std::vector<uint8_t> args(static_cast<size_t>(w) * 3, 0);
      args[static_cast<size_t>(w)] = 1;
      args[static_cast<size_t>(w) * 2] = 20;
      VB_CHECK(vm->memory().Write(wasp::kArgPageAddr, args.data(), args.size()).ok(), "");
      vm->ResetVcpu(image->entry);
      vm->cpu().set_reg(visa::kSp, wasp::kRealModeStackTop);
      const uint64_t before = vm->total_cycles();  // excludes VM creation
      auto run = vm->Run();
      VB_CHECK(run.kind == vhw::ExitKind::kHlt, run.fault);
      // Verify the result while we are here.
      uint64_t result = 0;
      VB_CHECK(vm->memory().Read(0, &result, static_cast<uint64_t>(w)).ok(), "");
      VB_CHECK(result == 6765, "fib(20) wrong in " << vrt::EnvName(env) << ": " << result);
      samples.push_back(static_cast<double>(vm->total_cycles() - before));
      boot_events = vm->cpu().milestones().size();
    }
    const std::vector<double> filtered = vbase::TukeyFilter(samples);
    const vbase::Summary s = vbase::Summarize(filtered);
    table.AddRow({vrt::EnvName(env), benchutil::Cycles(s.mean), benchutil::Cycles(s.min),
                  benchutil::Us(s.mean), std::to_string(boot_events)});
  }
  table.Print();
  std::printf("\n%d trials per mode, Tukey outliers removed; same fib binary in all modes.\n",
              kTrials);
  return 0;
}
