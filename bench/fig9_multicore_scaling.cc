// Figure 9 (this reproduction's addition): multicore invocation scaling.
//
// The paper measures single-lane provisioning latency (Figure 8); serving a
// serverless burst (Figure 15) is a *throughput* problem.  This benchmark
// sweeps invocation throughput across 1/2/4/8/16 executor worker threads for
// three configurations:
//
//   * pooled-sync      — Wasp+C   (shells cleaned inline on release)
//   * pooled-async     — Wasp+CA  (cleaner crew off the critical path)
//   * snapshot-restore — Wasp+CA plus the snapshot fast path
//
// Throughput is reported in the repo's deterministic currency: modeled
// cycles at the 2.69 GHz reference clock.  Each point's batch runs twice,
// on two runtimes warmed alike.  The executor in virtual time
// (Executor::RunVirtual, every invocation submitted at t = 0) schedules it
// over the point's lanes, and its busiest lane's modeled cycles are the
// makespan: machine-independent, and identical from run to run.  A threaded
// executor with as many workers runs it again under real thread contention
// — the lock-free pool, the cleaner crew, and the shared snapshot store — and
// supplies the acquire-path columns and the wall time.
//
// The sweep also reports the acquire path itself: per-point acquire p50/p99
// (wall ns, from each invocation's measured acquire_ns) and the fraction of
// acquires served lock-free (a pop of a tagged Treiber stack, from
// PoolStats deltas).  The gates are the lock-free pool's own claims: >= 95%
// of steady-state acquires lock-free, and acquire p99 flat (<= 2x the 1-lane
// value, with an absolute floor so scheduler noise on small hosts cannot
// fail an otherwise-flat curve).
//
//   ./fig9_multicore_scaling                 # full sweep
//   ./fig9_multicore_scaling --quick         # CI smoke (fewer invocations)
//   ./fig9_multicore_scaling --json out.json # also write machine-readable results
#include <algorithm>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/stats.h"
#include "src/vrt/env.h"
#include "src/vrt/samples.h"
#include "src/wasp/executor.h"
#include "src/wasp/runtime.h"
#include "src/wasp/vfunc.h"

namespace {

constexpr int kThreadSweep[] = {1, 2, 4, 8, 16};
constexpr int kFibArg = 12;
// Flat-p99 gate: p99 at 16 lanes must stay under max(2 x p99 at 1 lane,
// this floor).  The floor absorbs scheduler preemption spikes on hosts with
// fewer cores than lanes (CI runs this on 1 core); it is still an order of
// magnitude below what a contended pool mutex would produce.
constexpr double kAcquireP99FloorNs = 50'000.0;

int64_t HostFib(int n) { return n < 2 ? n : HostFib(n - 1) + HostFib(n - 2); }

struct SweepPoint {
  int threads = 0;
  uint64_t makespan_cycles = 0;
  double throughput_kinv_s = 0;  // invocations per modeled second / 1000
  double speedup = 1.0;          // vs the 1-thread point of the same config
  uint64_t wall_ns = 0;
  double acquire_p50_ns = 0;     // per-invocation shell-acquire wall latency
  double acquire_p99_ns = 0;
  double lockfree_hit_rate = 0;  // free-list hits / acquires, this point
  uint64_t slow_path_acquires = 0;  // acquires that took the sweep mutex, this point
};

struct ConfigResult {
  std::string name;
  std::vector<SweepPoint> points;
};

ConfigResult RunConfig(const std::string& name, wasp::CleanMode mode, bool use_snapshot,
                       const visa::Image& image, int invocations) {
  wasp::RuntimeOptions options;
  options.clean_mode = mode;

  wasp::VirtineSpec spec;
  spec.image = &image;
  spec.word_bytes = 8;
  if (use_snapshot) {
    spec.use_snapshot = true;
    spec.key = "fig9-" + name;
  }
  wasp::ArgPacker packer(spec.word_bytes);
  packer.AddWord(static_cast<uint64_t>(kFibArg));
  spec.args_page = packer.Finish();

  // Warm state once so the sweep measures the steady-state serving path.
  // One shell per invocation makes a pool miss impossible even if the
  // cleaner crew is starved by a loaded host for a whole batch — a single
  // miss would charge vm_create (~4 invocations' worth of modeled cycles)
  // to one lane and turn the deterministic makespan into a flaky gate.
  // For the snapshot config, a single sequential run seeds the snapshot and
  // parks its shell under the snapshot's generation, where the first keyed
  // acquire of the sweep finds it.
  auto warm = [&](wasp::Runtime& runtime) {
    runtime.pool().Prewarm(runtime.MakeVmConfig(spec.mem_size), invocations);
    if (use_snapshot) {
      auto seed = runtime.Invoke(spec);
      VB_CHECK(seed.status.ok(), seed.status.ToString());
      VB_CHECK(seed.stats.took_snapshot, "snapshot seeding failed");
    }
    runtime.pool().DrainCleaner();
  };
  wasp::Runtime threaded(options);
  wasp::Runtime virtual_time(options);
  warm(threaded);
  warm(virtual_time);

  ConfigResult result;
  result.name = name;
  const int64_t expected = HostFib(kFibArg);
  auto check = [expected](const wasp::RunOutcome& outcome) {
    VB_CHECK(outcome.status.ok(), outcome.status.ToString());
    VB_CHECK(static_cast<int64_t>(outcome.result_word) == expected,
             "wrong fib result under concurrency");
  };
  for (const int threads : kThreadSweep) {
    wasp::ExecutorOptions executor_options;
    executor_options.workers = threads;
    SweepPoint point;
    point.threads = threads;

    // The makespan: the batch scheduled by the executor in virtual time.
    // Every invocation arrives at t = 0, so each lane is busy until the
    // queue drains and its summed cycles are its last completion.
    std::vector<wasp::Executor::Arrival> arrivals(static_cast<size_t>(invocations));
    for (wasp::Executor::Arrival& arrival : arrivals) {
      arrival.spec = spec;
    }
    const wasp::Executor::VirtualRun run =
        wasp::Executor::RunVirtual(&virtual_time, executor_options, std::move(arrivals));
    std::vector<uint64_t> lane_cycles(static_cast<size_t>(threads), 0);
    for (const wasp::Executor::Served& served : run.served) {
      check(served.outcome);
      lane_cycles[served.lane] += served.outcome.stats.total_cycles;
    }
    point.makespan_cycles = *std::max_element(lane_cycles.begin(), lane_cycles.end());
    const double makespan_s = vbase::CyclesToMicros(point.makespan_cycles) / 1e6;
    point.throughput_kinv_s = static_cast<double>(invocations) / makespan_s / 1e3;
    point.speedup = result.points.empty()
                        ? 1.0
                        : point.throughput_kinv_s / result.points[0].throughput_kinv_s;

    // The acquire path: the same batch on `threads` worker threads.
    const wasp::PoolStats before = threaded.pool().stats();
    std::vector<double> acquire_ns;
    acquire_ns.reserve(static_cast<size_t>(invocations));
    {
      wasp::Executor executor(&threaded, executor_options);
      vbase::WallTimer timer;
      std::vector<std::future<wasp::RunOutcome>> futures;
      futures.reserve(static_cast<size_t>(invocations));
      for (int i = 0; i < invocations; ++i) {
        // Unbounded, with no quota or breaker: the policy admits every job.
        VB_CHECK(executor.TrySubmit(spec, &futures.emplace_back()),
                 "the threaded pass's executor refused a job");
      }
      for (std::future<wasp::RunOutcome>& future : futures) {
        const wasp::RunOutcome outcome = future.get();
        check(outcome);
        acquire_ns.push_back(static_cast<double>(outcome.stats.acquire_ns));
      }
      point.wall_ns = timer.ElapsedNanos();
    }
    const wasp::PoolStats after = threaded.pool().stats();
    // Restock every free list before the next lane count so each point
    // starts from the same warm pool.
    threaded.pool().DrainCleaner();
    for (wasp::Runtime* runtime : {&threaded, &virtual_time}) {
      VB_CHECK(runtime->pool().stats().fresh_creates == 0,
               "pool miss during the sweep: makespan would include vm_create");
    }
    point.acquire_p50_ns = vbase::Quantile(acquire_ns, 0.50);
    point.acquire_p99_ns = vbase::Quantile(acquire_ns, 0.99);
    // Acquire-path tier accounting for *this* sweep point, from the pool's
    // monotone counters.  Every acquire lands in exactly one tier, so the
    // lock-free fraction is free-list hits / acquires.
    const uint64_t point_acquires = after.acquires - before.acquires;
    const uint64_t point_lockfree = after.freelist_hits - before.freelist_hits;
    point.slow_path_acquires = after.slow_path_acquires - before.slow_path_acquires;
    point.lockfree_hit_rate = point_acquires == 0
                                  ? 1.0
                                  : static_cast<double>(point_lockfree) /
                                        static_cast<double>(point_acquires);
    result.points.push_back(point);
  }
  return result;
}

void WriteJson(const std::string& path, const std::vector<ConfigResult>& configs,
               int invocations) {
  FILE* f = std::fopen(path.c_str(), "w");
  VB_CHECK(f != nullptr, "cannot open " << path);
  std::fprintf(f, "{\n  \"invocations_per_point\": %d,\n  \"configs\": {\n", invocations);
  for (size_t c = 0; c < configs.size(); ++c) {
    std::fprintf(f, "    \"%s\": [\n", configs[c].name.c_str());
    for (size_t p = 0; p < configs[c].points.size(); ++p) {
      const SweepPoint& pt = configs[c].points[p];
      std::fprintf(f,
                   "      {\"threads\": %d, \"makespan_cycles\": %llu, "
                   "\"throughput_kinv_per_modeled_s\": %.2f, \"speedup_vs_1\": %.2f, "
                   "\"wall_ns\": %llu, \"acquire_p50_ns\": %.0f, \"acquire_p99_ns\": %.0f, "
                   "\"lockfree_hit_rate\": %.4f, \"slow_path_acquires\": %llu}%s\n",
                   pt.threads, static_cast<unsigned long long>(pt.makespan_cycles),
                   pt.throughput_kinv_s, pt.speedup,
                   static_cast<unsigned long long>(pt.wall_ns), pt.acquire_p50_ns,
                   pt.acquire_p99_ns, pt.lockfree_hit_rate,
                   static_cast<unsigned long long>(pt.slow_path_acquires),
                   p + 1 < configs[c].points.size() ? "," : "");
    }
    std::fprintf(f, "    ]%s\n", c + 1 < configs.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const int invocations = quick ? 16 : 96;

  benchutil::Header(
      "Figure 9 (reproduction extra): invocation throughput vs executor worker threads",
      "the lock-free pool + cleaner crew + executor keep invocation lanes independent: "
      "8-lane pooled-async throughput reaches >= 4x the single lane");

  auto image = vrt::BuildImage(vrt::Env::kLong64, vrt::FibSource());
  VB_CHECK(image.ok(), image.status().ToString());

  std::vector<ConfigResult> configs;
  configs.push_back(RunConfig("pooled-sync", wasp::CleanMode::kSync, false, *image,
                              invocations));
  configs.push_back(RunConfig("pooled-async", wasp::CleanMode::kAsync, false, *image,
                              invocations));
  configs.push_back(RunConfig("snapshot-restore", wasp::CleanMode::kAsync, true, *image,
                              invocations));

  vbase::Table table({"config", "threads", "makespan kcycles", "kinv / modeled s",
                      "speedup vs 1", "acq p50 ns", "acq p99 ns", "lock-free %",
                      "wall ms"});
  for (const ConfigResult& config : configs) {
    for (const SweepPoint& point : config.points) {
      table.AddRow({config.name, std::to_string(point.threads),
                    vbase::Fmt(static_cast<double>(point.makespan_cycles) / 1e3, 1),
                    vbase::Fmt(point.throughput_kinv_s, 1), vbase::Fmt(point.speedup, 2),
                    vbase::Fmt(point.acquire_p50_ns, 0), vbase::Fmt(point.acquire_p99_ns, 0),
                    vbase::Fmt(point.lockfree_hit_rate * 100.0, 1),
                    vbase::Fmt(static_cast<double>(point.wall_ns) / 1e6, 2)});
    }
  }
  table.Print();

  // Gates.  Throughput: the PR 4 claim (8-lane pooled-async >= 4x one
  // lane).  Acquire path: the PR 7 claims, checked on the pooled-async
  // config — >= 95% of steady-state acquires lock-free at *every* lane
  // count, and p99 flat from 1 to 16 lanes.
  const ConfigResult& async_cfg = configs[1];
  const SweepPoint& eight = async_cfg.points[3];
  const SweepPoint& one = async_cfg.points.front();
  const SweepPoint& sixteen = async_cfg.points.back();
  double min_hit_rate = 1.0;
  for (const SweepPoint& point : async_cfg.points) {
    min_hit_rate = std::min(min_hit_rate, point.lockfree_hit_rate);
  }
  const double p99_bound = std::max(2.0 * one.acquire_p99_ns, kAcquireP99FloorNs);
  const bool speedup_ok = eight.speedup >= 4.0;
  const bool lockfree_ok = min_hit_rate >= 0.95;
  const bool p99_ok = sixteen.acquire_p99_ns <= p99_bound;
  std::printf("\n%d invocations per point; modeled makespan = busiest lane of the executor "
              "in virtual time.\n",
              invocations);
  std::printf("Claim check: pooled-async at 8 threads >= 4x the 1-thread baseline -> "
              "measured %.2fx (%s)\n",
              eight.speedup, speedup_ok ? "PASS" : "FAIL");
  std::printf("Claim check: >= 95%% of acquires lock-free at every lane count -> "
              "min %.1f%% (%s)\n",
              min_hit_rate * 100.0, lockfree_ok ? "PASS" : "FAIL");
  std::printf("Claim check: acquire p99 flat 1 -> 16 lanes (<= max(2 x %.0f ns, %.0f ns)) "
              "-> %.0f ns (%s)\n",
              one.acquire_p99_ns, kAcquireP99FloorNs, sixteen.acquire_p99_ns,
              p99_ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    WriteJson(json_path, configs, invocations);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return speedup_ok && lockfree_ok && p99_ok ? 0 : 1;
}
