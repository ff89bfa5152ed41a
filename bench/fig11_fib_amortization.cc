// Figure 11: latency of virtines as computational intensity increases.
//
// fib(n) for growing n, comparing native execution, virtines without
// snapshotting, and virtines with snapshotting (language-extension flow).
// "Native" is the same generated code with every virtualization charge
// stripped (no VM creation/boot, no exit costs), the same-currency
// equivalent of the paper's native function call.
#include "bench/bench_util.h"
#include "src/vcc/vcc.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

constexpr char kFibSource[] = R"(
  virtine int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
  })";

struct Sample {
  double total_cycles;
  double native_cycles;
};

Sample RunOnce(wasp::Runtime* runtime, const vcc::CompiledVirtine& cv, bool snapshot, int n) {
  wasp::VirtineSpec spec;
  spec.image = &cv.image;
  spec.key = snapshot ? "fib-snap" : "";
  spec.use_snapshot = snapshot;
  wasp::VirtineFunc<int64_t(int64_t)> fib(runtime, spec);
  auto result = fib.Call(n);
  VB_CHECK(result.ok(), result.status().ToString());
  const auto& stats = fib.last_outcome().stats;
  Sample s;
  s.total_cycles = static_cast<double>(stats.total_cycles);
  // Native equivalent: guest work only, minus exit/boot charges.  For the
  // snapshot runs the boot was skipped, so guest cycles are already just
  // CRT + fib; for non-snapshot runs this subtraction is approximate and we
  // only use the snapshot-run-derived value.
  s.native_cycles = static_cast<double>(
      stats.guest_cycles > stats.exit_cycles ? stats.guest_cycles - stats.exit_cycles : 0);
  return s;
}

}  // namespace

int main() {
  benchutil::Header(
      "Figure 11: virtine latency vs computational intensity (fib)",
      "snapshotting is ~2.5x faster at fib(0); slowdown vs native falls from 6.6x to "
      "~1.0x as work grows; overheads amortize with ~100us of work");

  auto virtines = vcc::CompileVirtines(kFibSource);
  VB_CHECK(virtines.ok(), virtines.status().ToString());
  const vcc::CompiledVirtine& cv = (*virtines)[0];

  vbase::Table table({"n", "native us", "virtine us", "virtine+snap us", "slowdown",
                      "slowdown+snap"});
  double crossover_n = -1;
  for (int n : {0, 5, 10, 15, 20, 25, 30}) {
    const int trials = n >= 25 ? 2 : 10;
    std::vector<double> native, plain, snap;
    wasp::Runtime runtime;  // fresh runtime per n: first snap run pays snapshot
    for (int t = 0; t < trials; ++t) {
      plain.push_back(RunOnce(&runtime, cv, false, n).total_cycles);
      const Sample s = RunOnce(&runtime, cv, true, n);
      snap.push_back(s.total_cycles);
      if (t > 0 || trials == 1) {
        native.push_back(s.native_cycles);  // steady-state restore runs only
      }
    }
    const double native_us = vbase::CyclesToMicros(
        static_cast<uint64_t>(vbase::Summarize(native).mean));
    const double plain_us =
        vbase::CyclesToMicros(static_cast<uint64_t>(vbase::Summarize(plain).mean));
    const double snap_us =
        vbase::CyclesToMicros(static_cast<uint64_t>(vbase::Summarize(snap).mean));
    table.AddRow({std::to_string(n), vbase::Fmt(native_us, 1), vbase::Fmt(plain_us, 1),
                  vbase::Fmt(snap_us, 1), vbase::Fmt(plain_us / native_us, 2) + "x",
                  vbase::Fmt(snap_us / native_us, 2) + "x"});
    if (crossover_n < 0 && snap_us / native_us < 1.10) {
      crossover_n = n;
    }
  }
  table.Print();
  std::printf("\nslowdown < 1.10x first reached at fib(%d) (the amortization point; the "
              "paper reaches it with ~100us of work)\n",
              static_cast<int>(crossover_n));
  return 0;
}
