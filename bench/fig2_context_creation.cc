// Figure 2: lower bounds on execution-context creation.
//
// Rows: null function call, bare vmrun (KVM_RUN of an existing context),
// pthread create+join, fresh KVM VM create+enter+hlt, and process fork/wait
// for scale.  Modeled cycles are deterministic; wall times measure the real
// host work this reproduction performs (allocation, zeroing, dispatch).
#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include "bench/bench_util.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/vkvm/vkvm.h"

namespace {

volatile int g_sink = 0;
void NullFunction() { g_sink = g_sink + 1; }

}  // namespace

int main() {
  benchutil::Header(
      "Figure 2: lower bounds on execution context creation",
      "function << vmrun << pthread << KVM VM creation << process; creating a bare "
      "virtual context is cheap relative to processes");

  constexpr int kTrials = 200;
  auto image = vrt::BuildRawImage(vrt::HaltSource());
  VB_CHECK(image.ok(), image.status().ToString());
  vkvm::VmConfig cfg;
  const vkvm::HostCostModel host = cfg.host_costs;

  // --- function call -------------------------------------------------------
  vbase::WallTimer t_fn;
  for (int i = 0; i < 1000000; ++i) {
    NullFunction();
  }
  const double fn_wall_ns = static_cast<double>(t_fn.ElapsedNanos()) / 1e6;

  // --- bare vmrun: re-enter an existing VM context and hlt -----------------
  auto vm = vkvm::Vm::Create(cfg);
  VB_CHECK(vm->LoadBlob(image->load_addr, image->bytes.data(), image->bytes.size()).ok(), "");
  uint64_t vmrun_cycles = 0;
  std::vector<double> vmrun_wall;
  for (int i = 0; i < kTrials; ++i) {
    vm->ResetVcpu(image->entry);
    vm->ResetAccounting();
    vbase::WallTimer t;
    auto run = vm->Run();
    vmrun_wall.push_back(static_cast<double>(t.ElapsedNanos()));
    VB_CHECK(run.kind == vhw::ExitKind::kHlt, run.fault);
    vmrun_cycles = vm->total_cycles();
  }

  // --- pthread create + join ------------------------------------------------
  std::vector<double> thread_wall;
  for (int i = 0; i < kTrials; ++i) {
    vbase::WallTimer t;
    std::thread th([] {});
    th.join();
    thread_wall.push_back(static_cast<double>(t.ElapsedNanos()));
  }

  // --- fresh KVM VM: create + enter + hlt -----------------------------------
  uint64_t kvm_cycles = 0;
  std::vector<double> kvm_wall;
  for (int i = 0; i < kTrials; ++i) {
    vbase::WallTimer t;
    auto fresh = vkvm::Vm::Create(cfg);
    VB_CHECK(fresh->LoadBlob(image->load_addr, image->bytes.data(), image->bytes.size()).ok(),
             "");
    fresh->ResetVcpu(image->entry);
    auto run = fresh->Run();
    kvm_wall.push_back(static_cast<double>(t.ElapsedNanos()));
    VB_CHECK(run.kind == vhw::ExitKind::kHlt, run.fault);
    kvm_cycles = fresh->total_cycles();
  }

  // --- process fork + waitpid ------------------------------------------------
  std::vector<double> fork_wall;
  for (int i = 0; i < 32; ++i) {
    vbase::WallTimer t;
    const pid_t pid = fork();
    if (pid == 0) {
      _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    fork_wall.push_back(static_cast<double>(t.ElapsedNanos()));
  }

  auto mean = [](const std::vector<double>& v) { return vbase::Summarize(v).mean; };
  vbase::Table table({"context", "modeled cycles", "modeled us", "wall ns (this host)"});
  table.AddRow({"function call", "5", "0.0", vbase::Fmt(fn_wall_ns, 1)});
  table.AddRow({"vmrun (KVM_RUN, existing ctx)", std::to_string(vmrun_cycles),
                benchutil::Us(static_cast<double>(vmrun_cycles)), vbase::Fmt(mean(vmrun_wall), 0)});
  table.AddRow({"pthread create+join", std::to_string(host.pthread_create),
                benchutil::Us(static_cast<double>(host.pthread_create)),
                vbase::Fmt(mean(thread_wall), 0)});
  table.AddRow({"KVM VM create+enter+hlt", std::to_string(kvm_cycles),
                benchutil::Us(static_cast<double>(kvm_cycles)), vbase::Fmt(mean(kvm_wall), 0)});
  table.AddRow({"process fork+waitpid", std::to_string(host.process_fork),
                benchutil::Us(static_cast<double>(host.process_fork)),
                vbase::Fmt(mean(fork_wall), 0)});
  table.Print();
  std::printf("\nKVM hardware on this host: %s (software machine substitutes; DESIGN.md S2)\n",
              vkvm::KvmHardwareAvailable() ? "available" : "absent");
  return 0;
}
