// Quickstart: isolate a C function in a virtine.
//
// This is the paper's Figure 9 flow end to end: a `virtine`-annotated C
// function is compiled by vcc into a bootable ~KB image, and each call runs
// in its own hardware-style virtual machine context through the embeddable
// Wasp hypervisor — pooled, snapshotted, and default-deny isolated.
#include <cstdio>

#include "src/base/clock.h"
#include "src/vcc/vcc.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

// The host's answer each virtine call is checked against.
int64_t HostFib(int64_t n) { return n < 2 ? n : HostFib(n - 1) + HostFib(n - 2); }

}  // namespace

int main() {
  // 1. A C function annotated with the `virtine` keyword (Figure 9).
  const char* source = R"(
    virtine int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    })";

  auto virtines = vcc::CompileVirtines(source);
  if (!virtines.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", virtines.status().ToString().c_str());
    return 1;
  }
  const vcc::CompiledVirtine& fib_virtine = (*virtines)[0];
  std::printf("compiled virtine '%s': image %zu bytes, policy %#llx, %d arg(s)\n",
              fib_virtine.name.c_str(), fib_virtine.image.bytes.size(),
              static_cast<unsigned long long>(fib_virtine.policy), fib_virtine.num_args);

  // 2. Embed the Wasp hypervisor and wrap the image in a typed function.
  wasp::Runtime runtime;
  wasp::VirtineSpec spec;
  spec.image = &fib_virtine.image;
  spec.key = fib_virtine.name;
  spec.policy = fib_virtine.policy;
  spec.use_snapshot = true;  // language-extension default
  wasp::VirtineFunc<int64_t(int64_t)> fib(&runtime, spec);

  // 3. Call it like a function: every call is its own isolated VM.  The
  // first call boots and snapshots; the later ones restore the snapshot.
  for (int n : {10, 20, 25}) {
    auto result = fib.Call(n);
    if (!result.ok()) {
      std::fprintf(stderr, "virtine failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    if (*result != HostFib(n)) {
      std::fprintf(stderr, "fib(%d) = %lld, host says %lld\n", n,
                   static_cast<long long>(*result), static_cast<long long>(HostFib(n)));
      return 1;
    }
    const auto& stats = fib.last_outcome().stats;
    std::printf(
        "fib(%2d) = %8lld | %s%s | modeled %9llu cycles (%8.1f us) | wall %7.1f us\n", n,
        static_cast<long long>(*result), stats.from_pool ? "pooled" : "fresh ",
        stats.restored_snapshot ? "+snapshot" : "         ",
        static_cast<unsigned long long>(stats.total_cycles),
        vbase::CyclesToMicros(stats.total_cycles), static_cast<double>(stats.total_ns) / 1e3);
  }

  const auto pool_stats = runtime.pool().stats();
  std::printf("pool: %llu acquires, %llu hits, %llu fresh creates\n",
              static_cast<unsigned long long>(pool_stats.acquires),
              static_cast<unsigned long long>(pool_stats.pool_hits),
              static_cast<unsigned long long>(pool_stats.fresh_creates));
  return 0;
}
