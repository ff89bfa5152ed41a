// Figure 15: serverless virtine performance vs a container-based platform
// under the paper's bursty Locust pattern (ramp up, two bursts, ramp down).
//
// The Vespid (virtine) half is *run, not modeled*: every arrival of the
// trace becomes a real invocation of the microjs base64 function, submitted
// at its trace time to the wasp::Executor in virtual time (snapshot
// restores, pool reuse, the cold first touch, and the executor's own
// scheduling), and each request holds its lane for its own modeled cycles.
// The container half remains the explicit analytic model calibrated to
// published OpenWhisk-style cold/warm starts (DESIGN.md S2) — the
// comparison baseline.  Both halves share the same arrival trace (same
// generator, same seed), so the timelines compare bucket for bucket.
//
// Gates (non-zero exit): every arrival is served without a fault, and a
// second replay on a fresh runtime prints an identical Vespid timeline.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/vjs/vjs.h"
#include "src/vnet/serverless.h"
#include "src/wasp/runtime.h"

namespace {

// Ramp up, burst, dip, burst, ramp down (the paper's Locust profile).
const std::vector<vnet::LoadPhase> kPattern = {
    {5, 2}, {20, 2}, {120, 3}, {15, 2}, {120, 3}, {20, 2}, {5, 2},
};
constexpr uint64_t kSeed = 42;
constexpr int kLanes = 8;

// One Vespid replay of the trace on a fresh runtime.
vnet::GovernedReplay ReplayOnFreshRuntime(const std::vector<uint8_t>& payload) {
  wasp::Runtime runtime;
  vnet::Vespid vespid(&runtime);
  VB_CHECK(vespid.Register("b64", vjs::Base64ScriptSource()).ok(), "register failed");
  auto replay = vespid.ReplayBurstyLoad("b64", kPattern, payload, {kLanes, kSeed});
  VB_CHECK(replay.ok(), replay.status().ToString());
  return std::move(*replay);
}

// The timeline as printed, so two replays compare by what a reader sees.
std::string Timeline(const vnet::SimResult& sim) {
  vbase::Table table({"t (s)", "offered rps", "completed rps", "mean lat us", "p99 lat us",
                      "cold starts"});
  for (const auto& point : sim.timeline) {
    table.AddRow({vbase::Fmt(point.t_s, 0), vbase::Fmt(point.offered_rps, 0),
                  vbase::Fmt(point.completed_rps, 0), vbase::Fmt(point.mean_latency_us, 0),
                  vbase::Fmt(point.p99_latency_us, 0), std::to_string(point.cold_starts)});
  }
  return table.Render() + "overall: " + std::to_string(sim.total_requests) +
         " requests, mean " + vbase::Fmt(sim.latency_us.mean, 0) + " us, p99 " +
         vbase::Fmt(sim.latency_us.p99, 0) + " us, " + std::to_string(sim.total_cold_starts) +
         " cold starts\n";
}

}  // namespace

int main() {
  benchutil::Header(
      "Figure 15: serverless platform under bursty load (virtines vs containers)",
      "the virtine platform sustains bursts with low latency; the container platform "
      "suffers cold-start spikes when bursts exceed the warm pool");

  vbase::Rng rng(11);
  std::vector<uint8_t> payload(512);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }

  // --- Vespid: the trace on the executor in virtual time ---------------------
  vbase::WallTimer timer;
  const vnet::GovernedReplay replay = ReplayOnFreshRuntime(payload);
  const double wall_s = static_cast<double>(timer.ElapsedNanos()) / 1e9;
  const vnet::TenantOutcome& vespid = replay.tenants[0];
  std::printf("\n--- Vespid (virtines), replayed: %d executor lanes, %llu cold start(s) ---\n",
              kLanes, static_cast<unsigned long long>(vespid.cold_starts));
  std::printf("%s", Timeline(replay.sim).c_str());

  // --- Containers: the calibrated analytic baseline -------------------------
  // ~500 ms cold start (docker create + Node/V8 init; optimized literature
  // systems reach <20 ms, vanilla OpenWhisk does not), ~30 ms per warm
  // invocation (container round trip), and a warm pool that shrinks after a
  // few idle seconds — so each burst forces scale-out.
  vnet::ExecutorModel container_model{"OpenWhisk-style containers", 30000.0, 500000.0, 16,
                                      3.0};
  const vnet::SimResult container = vnet::SimulateBurstyLoad(kPattern, container_model, kSeed);
  std::printf("\n--- %s (modeled: warm %.0f us, cold +%.0f us, %d instances) ---\n",
              container_model.name.c_str(), container_model.warm_service_us,
              container_model.cold_extra_us, container_model.max_instances);
  std::printf("%s", Timeline(container).c_str());

  std::printf("\nVespid rows come from %llu real virtine invocations submitted at their trace\n"
              "times to the wasp::Executor in virtual time (replay wall time %.2f s); the\n"
              "container rows are the calibrated model documented in DESIGN.md S2.  Both\n"
              "halves share the trace (seed %llu), so buckets compare one to one.\n",
              static_cast<unsigned long long>(vespid.offered), wall_s,
              static_cast<unsigned long long>(kSeed));

  // --- Gates ------------------------------------------------------------------
  int failures = 0;
  const size_t arrivals = vnet::GenerateArrivalTrace(kPattern, kSeed).size();
  std::printf("\nClaim check: %llu of %zu arrivals served, %llu faulted (gate: all, none)\n",
              static_cast<unsigned long long>(vespid.completed), arrivals,
              static_cast<unsigned long long>(vespid.faulted));
  if (vespid.completed != arrivals || vespid.faulted != 0) {
    std::printf("FAIL: the Vespid replay did not serve every arrival fault-free\n");
    ++failures;
  }
  const vnet::GovernedReplay again = ReplayOnFreshRuntime(payload);
  const bool identical = Timeline(again.sim) == Timeline(replay.sim);
  std::printf("Claim check: a second replay on a fresh runtime prints an identical Vespid "
              "timeline -> %s\n",
              identical ? "identical" : "DIFFERENT");
  if (!identical) {
    std::printf("FAIL: the Vespid timeline moved between two replays\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
