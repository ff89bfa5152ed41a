// Figure 14: slowdown of JavaScript (microjs) virtines relative to native.
//
// Variants: plain virtine, virtine+snapshot, virtine-NT (no teardown), and
// virtine+snapshot+NT.  The native baseline is the engine's own in-guest
// measurement (rdtsc around init + run + teardown, its exit code): the same
// managed runtime with zero virtualization overhead.  The policy permits
// only snapshot, get_data and return_data; the engine folds them into
// snapshot_get_data and return_exit, and the table reports the exits each
// variant actually takes and the bytes its warm calls' restores repair.
// Exits 1 if virtine+snapshot+NT's warm call restores more than one page
// (the engine keeps a call's writes in the first page of its arena).
#include <algorithm>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/runtime.h"

namespace {

visa::Image BuildEngine(bool teardown) {
  auto bytecode = vjs::CompileScript(vjs::Base64ScriptSource());
  VB_CHECK(bytecode.ok(), bytecode.status().ToString());
  auto image = vcc::CompileProgram(
      vrt::VlibcSource() + vjs::EngineSource(*bytecode, teardown), "main",
      vrt::Env::kLong64);
  VB_CHECK(image.ok(), image.status().ToString());
  return std::move(*image);
}

}  // namespace

int main() {
  benchutil::Header(
      "Figure 14: microjs (Duktape-analogue) virtines, slowdown vs native",
      "plain virtine adds ~125us over the 419us native baseline; snapshotting halves "
      "overhead; snapshot+no-teardown leaves essentially only parse+execute");

  const visa::Image with_teardown = BuildEngine(/*teardown=*/true);
  const visa::Image no_teardown = BuildEngine(/*teardown=*/false);

  // 384-byte payload, as a Duktape-scale UDF input.
  vbase::Rng rng(7);
  std::vector<uint8_t> payload(384);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::string expected = vjs::HostBase64(payload);

  struct Variant {
    const char* label;
    const visa::Image* image;
    bool snapshot;
  };
  const Variant variants[] = {
      {"virtine", &with_teardown, false},
      {"virtine+snapshot", &with_teardown, true},
      {"virtine NT", &no_teardown, false},
      {"virtine+snapshot+NT", &no_teardown, true},
  };

  constexpr int kTrials = 8;
  double native_us = 0;
  struct Row {
    std::string label;
    double mean_us;
    uint64_t first_exits;  // trial 0: a snapshot variant's cold call
    uint64_t later_exits;  // every later trial (checked equal)
    uint64_t warm_restored_bytes;  // the most any later trial's restore repaired
  };
  std::vector<Row> rows;
  for (const Variant& variant : variants) {
    wasp::Runtime runtime;
    std::vector<double> cycles;
    Row row{variant.label, 0, 0, 0, 0};
    for (int t = 0; t < kTrials; ++t) {
      wasp::VirtineSpec spec;
      spec.image = variant.image;
      spec.key = std::string("js-") + variant.label;
      spec.mem_size = 2ULL << 20;
      spec.policy = wasp::kPolicyManaged;
      spec.use_snapshot = variant.snapshot;
      spec.crt_snapshot = false;  // the engine snapshots after init (S6.5)
      spec.input = &payload;
      auto outcome = runtime.Invoke(spec);
      VB_CHECK(outcome.status.ok(), outcome.status.ToString());
      VB_CHECK(std::string(outcome.output.begin(), outcome.output.end()) == expected,
               "base64 output mismatch");
      cycles.push_back(static_cast<double>(outcome.stats.total_cycles));
      if (t > 0) {
        row.warm_restored_bytes = std::max(row.warm_restored_bytes, outcome.stats.restored_bytes);
      }
      if (t == 0) {
        row.first_exits = outcome.stats.io_exits;
      } else if (t == 1) {
        row.later_exits = outcome.stats.io_exits;
      } else {
        VB_CHECK(outcome.stats.io_exits == row.later_exits, "warm exit count varies");
      }
      // The guest exits with rdtsc(init+run+teardown): the native baseline.
      // Only meaningful on non-snapshot runs of the full-teardown engine.
      if (variant.image == &with_teardown && !variant.snapshot) {
        VB_CHECK(outcome.exit_code != 0, "the engine reported no native baseline");
        native_us = vbase::CyclesToMicros(outcome.exit_code);
      }
    }
    row.mean_us = vbase::CyclesToMicros(static_cast<uint64_t>(vbase::Summarize(cycles).mean));
    rows.push_back(row);
  }

  vbase::Table table({"configuration", "latency us", "slowdown vs native", "exits first/later",
                      "warm restored KB"});
  table.AddRow({"native engine (in-guest rdtsc)", vbase::Fmt(native_us, 1), "1.00x", "-", "-"});
  for (const Row& row : rows) {
    table.AddRow({row.label, vbase::Fmt(row.mean_us, 1),
                  vbase::Fmt(row.mean_us / native_us, 2) + "x",
                  std::to_string(row.first_exits) + "/" + std::to_string(row.later_exits),
                  vbase::Fmt(static_cast<double>(row.warm_restored_bytes) / 1024, 1)});
  }
  table.Print();
  std::printf("\n%d trials per variant; payload %zu B.  Exits are measured per invocation:\n"
              "the first trial of a snapshot variant is its cold call; a warm call resumes\n"
              "inside snapshot_get_data with its input delivered and leaves through\n"
              "return_exit.  Warm restored KB is the most a later trial's restore repaired\n"
              "(a plain virtine restores nothing: it boots from the image).\n",
              kTrials, payload.size());

  // CI gate: a warm NT call writes only the first page of the engine's arena.
  const Row& nt = rows.back();  // virtine+snapshot+NT, the last variant
  const bool one_page = nt.warm_restored_bytes <= 4096;
  std::printf("\nClaim check: %s restores %.1f KB per warm call (limit: 4 KB) (%s)\n",
              nt.label.c_str(), static_cast<double>(nt.warm_restored_bytes) / 1024,
              one_page ? "PASS" : "FAIL");
  return one_page ? 0 : 1;
}
