#include "src/vnet/serverless.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <thread>
#include <tuple>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/vcc/vcc.h"
#include "src/vjs/vjs.h"
#include "src/vrt/vlibc.h"
#include "src/wasp/executor.h"

namespace vnet {

Vespid::Vespid(wasp::Runtime* runtime) : runtime_(runtime) {}

vbase::Status Vespid::Register(const std::string& name, const std::string& microjs_source) {
  auto bytecode = vjs::CompileScript(microjs_source);
  if (!bytecode.ok()) {
    return bytecode.status();
  }
  auto image = vcc::CompileProgram(
      vrt::VlibcSource() + vjs::EngineSource(*bytecode, /*teardown=*/false), "main",
      vrt::Env::kLong64);
  if (!image.ok()) {
    return image.status();
  }
  functions_.push_back(Fn{name, std::move(*image)});
  return vbase::Status::Ok();
}

const Vespid::Fn* Vespid::FindFunction(const std::string& name) const {
  for (const Fn& f : functions_) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

namespace {

wasp::VirtineSpec MakeVespidSpec(const std::string& name, const visa::Image* image,
                                 const std::vector<uint8_t>* payload) {
  wasp::VirtineSpec spec;
  spec.image = image;
  spec.key = "vespid-" + name;
  spec.mem_size = 2ULL << 20;
  spec.policy = wasp::kPolicyManaged;
  spec.use_snapshot = true;
  spec.crt_snapshot = false;  // the engine snapshots itself after init
  spec.input = payload;
  return spec;
}

Vespid::Invocation MakeInvocation(wasp::RunOutcome&& outcome) {
  Vespid::Invocation inv;
  inv.output = std::move(outcome.output);
  inv.modeled_cycles = outcome.stats.total_cycles;
  inv.wall_ns = outcome.stats.total_ns;
  inv.cold = !outcome.stats.restored_snapshot;
  inv.affine = outcome.stats.affine_restore;
  inv.restored_bytes = outcome.stats.restored_bytes;
  return inv;
}

// One served request on the virtual timeline, however its completion time
// was produced (analytic model or measured replay).
struct ServedEvent {
  double arrival_us;
  double done_us;
  bool cold;
};

// Folds served events (in arrival order) into the Figure 15 timeline: 1 s
// buckets with offered/completed rates, per-arrival-bucket latency stats,
// and cold-start counts.  Shared by the simulator and the replay so the two
// halves of the figure can never drift in bucketing rules.
SimResult AssembleSimResult(const std::vector<ServedEvent>& events) {
  SimResult result;
  std::vector<double> latencies;
  latencies.reserve(events.size());
  std::map<int64_t, SimPoint> buckets;
  std::map<int64_t, std::vector<double>> bucket_lats;
  for (const ServedEvent& ev : events) {
    const double latency = ev.done_us - ev.arrival_us;
    latencies.push_back(latency);
    const int64_t bucket = static_cast<int64_t>(ev.arrival_us / 1e6);
    SimPoint& point = buckets[bucket];
    point.t_s = static_cast<double>(bucket);
    point.offered_rps += 1;
    point.mean_latency_us += latency;  // sum; normalized below
    if (ev.cold) {
      ++point.cold_starts;
      ++result.total_cold_starts;
    }
    const int64_t done_bucket = static_cast<int64_t>(ev.done_us / 1e6);
    buckets[done_bucket].t_s = static_cast<double>(done_bucket);
    buckets[done_bucket].completed_rps += 1;
    ++result.total_requests;
    bucket_lats[bucket].push_back(latency);
  }
  for (auto& [bucket, point] : buckets) {
    if (point.offered_rps > 0) {
      point.mean_latency_us /= point.offered_rps;
    }
    auto it = bucket_lats.find(bucket);
    if (it != bucket_lats.end()) {
      point.p99_latency_us = vbase::Quantile(it->second, 0.99);
    }
    result.timeline.push_back(point);
  }
  result.latency_us = vbase::Summarize(latencies);
  return result;
}

}  // namespace

vbase::Result<Vespid::Invocation> Vespid::Invoke(const std::string& name,
                                                 const std::vector<uint8_t>& payload) {
  const Fn* fn = FindFunction(name);
  if (fn == nullptr) {
    return vbase::NotFound("no such function: " + name);
  }
  vbase::WallTimer timer;
  wasp::VirtineSpec spec = MakeVespidSpec(fn->name, &fn->image, &payload);
  wasp::RunOutcome outcome = runtime_->Invoke(spec);
  if (!outcome.status.ok()) {
    return outcome.status;
  }
  Invocation inv = MakeInvocation(std::move(outcome));
  inv.wall_ns = timer.ElapsedNanos();
  return inv;
}

vbase::Result<Vespid::ReplayResult> Vespid::ReplayBurstyLoad(
    const std::string& name, const std::vector<LoadPhase>& phases,
    const std::vector<uint8_t>& payload, const ReplayOptions& options) {
  const Fn* fn = FindFunction(name);
  if (fn == nullptr) {
    return vbase::NotFound("no such function: " + name);
  }
  const std::vector<double> arrivals = GenerateArrivalTrace(phases, options.seed);
  const int lanes = std::max(options.concurrency, 1);

  // --- Measure: one real invocation per trace arrival -----------------------
  // Every request goes through the executor (bounded worker pool, keyed
  // snapshot affinity), so pool contention, snapshot restores, and the cold
  // first touch are the real platform's, not a model's.  Dispatch is open
  // loop: all requests are submitted up front, in arrival order.
  vbase::WallTimer timer;
  ReplayResult replay;
  std::vector<double> service_us;
  std::vector<bool> cold;
  {
    wasp::ExecutorOptions executor_options;
    executor_options.workers = lanes;
    wasp::Executor executor(runtime_, executor_options);
    std::vector<std::future<wasp::RunOutcome>> futures;
    futures.reserve(arrivals.size());
    const auto pace_origin = std::chrono::steady_clock::now();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (options.pace_wall_clock) {
        // Soak mode: dispatch each arrival at its trace offset on the real
        // clock instead of submitting the whole trace up front.
        std::this_thread::sleep_until(
            pace_origin + std::chrono::microseconds(static_cast<int64_t>(arrivals[i])));
      }
      futures.push_back(executor.Submit(MakeVespidSpec(fn->name, &fn->image, &payload)));
    }
    service_us.reserve(futures.size());
    cold.reserve(futures.size());
    double warm_sum = 0;
    double cold_sum = 0;
    uint64_t warm_count = 0;
    for (std::future<wasp::RunOutcome>& f : futures) {
      wasp::RunOutcome outcome = f.get();
      if (outcome.fault != wasp::FaultKind::kNone) {
        // One invocation died (chaos or a real guest fault); the platform
        // did not.  It still occupied a lane for its measured service, so it
        // replays as load — but a fault-shortened run must not skew the
        // warm/cold service means.
        ++replay.faulted_invocations;
        service_us.push_back(vbase::CyclesToMicros(outcome.stats.total_cycles));
        cold.push_back(!outcome.stats.restored_snapshot);
        continue;
      }
      if (!outcome.status.ok()) {
        return outcome.status;
      }
      const double us = vbase::CyclesToMicros(outcome.stats.total_cycles);
      const bool was_cold = !outcome.stats.restored_snapshot;
      service_us.push_back(us);
      cold.push_back(was_cold);
      if (was_cold) {
        ++replay.cold_invocations;
        cold_sum += us;
      } else {
        ++warm_count;
        warm_sum += us;
      }
    }
    replay.measured_warm_us = warm_count > 0 ? warm_sum / static_cast<double>(warm_count) : 0;
    replay.measured_cold_us =
        replay.cold_invocations > 0 ? cold_sum / static_cast<double>(replay.cold_invocations)
                                    : 0;
  }
  replay.wall_ns = timer.ElapsedNanos();

  // --- Assemble: measured services on the trace's virtual timeline ----------
  // `lanes` serving lanes in virtual time, FIFO in arrival order: request i
  // starts at max(arrival, earliest lane free) and occupies its lane for its
  // *measured* service time (a cold invocation's measured cost already
  // carries the boot-instead-of-restore extra).  The lane discipline is the
  // shared LaneSchedule (fig13's closed loop uses the same one); bucketing
  // is shared with SimulateBurstyLoad via AssembleSimResult.
  LaneSchedule schedule(lanes);
  std::vector<ServedEvent> events;
  events.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    events.push_back(
        ServedEvent{arrivals[i], schedule.Place(arrivals[i], service_us[i]), cold[i]});
  }
  replay.sim = AssembleSimResult(events);
  return replay;
}

vbase::Result<MeasuredTrace> Vespid::MeasureMultiTenant(const std::vector<TenantSpec>& tenants,
                                                        int concurrency, uint64_t seed) {
  if (tenants.empty()) {
    return vbase::InvalidArgument("MeasureMultiTenant needs at least one tenant");
  }
  // Tenant names become GovernTrace's admission keys, so they must differ.
  std::set<std::string> names;
  for (const TenantSpec& tenant : tenants) {
    if (!names.insert(tenant.name).second) {
      return vbase::InvalidArgument("MeasureMultiTenant: duplicate tenant " + tenant.name);
    }
  }
  MeasuredTrace trace;
  std::vector<const Fn*> fns;
  fns.reserve(tenants.size());
  for (const TenantSpec& tenant : tenants) {
    const Fn* fn = FindFunction(tenant.name);
    if (fn == nullptr) {
      return vbase::NotFound("no such function: " + tenant.name);
    }
    fns.push_back(fn);
    trace.names.push_back(tenant.name);
    trace.classes.push_back(tenant.klass);
  }

  // Merge the tenants' arrival traces (per-tenant seed: each tenant's
  // jitter is independent, and the merged order is deterministic — ties
  // break on tenant index via the pair comparison).
  std::vector<std::pair<double, int>> merged;
  for (size_t i = 0; i < tenants.size(); ++i) {
    for (double at : GenerateArrivalTrace(tenants[i].phases, seed + i)) {
      merged.emplace_back(at, static_cast<int>(i));
    }
  }
  std::sort(merged.begin(), merged.end());
  trace.arrivals_us.reserve(merged.size());
  trace.tenant.reserve(merged.size());
  for (const auto& [at, idx] : merged) {
    trace.arrivals_us.push_back(at);
    trace.tenant.push_back(idx);
  }

  // One real invocation per merged arrival, in arrival order: the mixed
  // snapshot keys contend for pool shells and affine generations exactly as
  // the production mix would, so each request's measured modeled service
  // carries real cross-tenant restore effects (affine repair vs COW map).
  vbase::WallTimer timer;
  {
    wasp::ExecutorOptions executor_options;
    executor_options.workers = std::max(concurrency, 1);
    wasp::Executor executor(runtime_, executor_options);
    std::vector<std::future<wasp::RunOutcome>> futures;
    futures.reserve(merged.size());
    for (const auto& [at, idx] : merged) {
      const size_t t = static_cast<size_t>(idx);
      futures.push_back(executor.Submit(
          MakeVespidSpec(fns[t]->name, &fns[t]->image, &tenants[t].payload),
          tenants[t].klass));
    }
    trace.service_us.reserve(futures.size());
    trace.cold.reserve(futures.size());
    trace.faulted.reserve(futures.size());
    for (std::future<wasp::RunOutcome>& f : futures) {
      wasp::RunOutcome outcome = f.get();
      // A faulted invocation is trace data, not a measuring failure: it
      // consumed a lane and real service before its shell was quarantined,
      // so it replays as load with the faulted flag set.  Only a clean
      // host-side error (no fault classified) aborts the measuring run.
      if (outcome.fault == wasp::FaultKind::kNone && !outcome.status.ok()) {
        return outcome.status;
      }
      trace.service_us.push_back(vbase::CyclesToMicros(outcome.stats.total_cycles));
      trace.cold.push_back(!outcome.stats.restored_snapshot);
      trace.faulted.push_back(outcome.fault != wasp::FaultKind::kNone);
    }
  }
  trace.wall_ns = timer.ElapsedNanos();
  return trace;
}

GovernedReplay GovernTrace(const MeasuredTrace& trace, const GovernanceOptions& options) {
  // MeasuredTrace is a public struct that tests and benches build by hand, so
  // check its shape once instead of reading past a short vector.  Names are
  // the policy's keys: same-named tenants would share a quota and a breaker.
  const size_t n = trace.arrivals_us.size();
  VB_CHECK(trace.tenant.size() == n && trace.service_us.size() == n && trace.cold.size() == n,
           "MeasuredTrace: arrivals_us, tenant, service_us and cold differ in length");
  VB_CHECK(trace.faulted.empty() || trace.faulted.size() == n,
           "MeasuredTrace: faulted must be empty or one flag per arrival");
  VB_CHECK(trace.classes.size() == trace.names.size(),
           "MeasuredTrace: classes and names differ in length");
  for (int t : trace.tenant) {
    VB_CHECK(t >= 0 && static_cast<size_t>(t) < trace.names.size(),
             "MeasuredTrace: tenant index " << t << " out of range");
  }
  const std::set<std::string> distinct(trace.names.begin(), trace.names.end());
  VB_CHECK(distinct.size() == trace.names.size() && distinct.count("") == 0,
           "MeasuredTrace: tenant names must be non-empty and distinct");

  const int lanes = std::max(options.lanes, 1);
  GovernedReplay replay;
  replay.tenants.resize(trace.names.size());
  for (size_t t = 0; t < trace.names.size(); ++t) {
    replay.tenants[t].name = trace.names[t];
  }

  // The executor's admission policy stepped over virtual time: each arrival
  // is admitted or shed by it, lanes drain the two class queues in the
  // order it picks, and each virtual completion feeds it back.  Everything
  // is integer/double arithmetic over the measured services, so a given
  // trace always governs identically.
  wasp::AdmissionPolicy policy(options);
  std::vector<double> lane_free(static_cast<size_t>(lanes), 0.0);
  std::deque<size_t> queues[2];  // by KeyClass, request indices in arrival order
  // (done_us, tenant, faulted, probe) — faulted/probe ride along so each
  // virtual completion can feed the policy.
  using Completion = std::tuple<double, size_t, bool, bool>;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<Completion>>
      completions;
  std::vector<double> start_us(n, -1.0);  // -1 = shed
  std::vector<double> done_us(n, -1.0);
  std::vector<char> is_probe(n, 0);
  auto faulted_at = [&](size_t i) { return !trace.faulted.empty() && trace.faulted[i]; };

  auto advance_completions = [&](double now) {
    while (!completions.empty() && std::get<0>(completions.top()) <= now) {
      const auto [done, t, faulted, probe] = completions.top();
      (void)done;
      policy.OnComplete(trace.names[t], faulted, probe);
      completions.pop();
    }
  };
  auto head = [&](size_t cls) {
    return queues[cls].empty() ? std::nullopt : std::optional<uint64_t>(queues[cls].front());
  };
  // Dispatches queued requests onto lanes that free up strictly before
  // `horizon` (infinity for the final drain).
  auto dispatch_until = [&](double horizon) {
    while (!queues[0].empty() || !queues[1].empty()) {
      const size_t lane = static_cast<size_t>(
          std::min_element(lane_free.begin(), lane_free.end()) - lane_free.begin());
      if (lane_free[lane] >= horizon) {
        break;
      }
      const size_t cls = static_cast<size_t>(policy.PickNext(head(0), head(1)));
      const size_t idx = queues[cls].front();
      queues[cls].pop_front();
      const double start = std::max(lane_free[lane], trace.arrivals_us[idx]);
      start_us[idx] = start;
      done_us[idx] = start + trace.service_us[idx];
      lane_free[lane] = done_us[idx];
      completions.emplace(done_us[idx], static_cast<size_t>(trace.tenant[idx]), faulted_at(idx),
                          is_probe[idx] != 0);
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const double now = trace.arrivals_us[i];
    const size_t t = static_cast<size_t>(trace.tenant[i]);
    dispatch_until(now);
    advance_completions(now);
    TenantOutcome& tenant = replay.tenants[t];
    ++tenant.offered;
    bool probe = false;
    switch (policy.Admit(trace.names[t], queues[0].size() + queues[1].size(), &probe)) {
      case wasp::Admission::kAccepted:
        queues[static_cast<size_t>(trace.classes[t])].push_back(i);
        policy.OnEnqueue(trace.names[t]);
        is_probe[i] = probe ? 1 : 0;
        break;
      case wasp::Admission::kCircuitOpen:
        ++tenant.shed_breaker;
        break;
      case wasp::Admission::kQuotaExceeded:
        ++tenant.shed_quota;
        break;
      default:
        ++tenant.shed_overload;
        break;
    }
  }
  dispatch_until(std::numeric_limits<double>::infinity());

  // Per-tenant aggregation + the merged Figure-15-currency timeline.  A
  // faulted arrival held its lane for its measured service (the load is
  // real), but it is a casualty, not a completion: it counts per tenant as
  // faulted and stays out of the wait/latency distributions — so a fault
  // storm on one key shows up as that tenant's fault_rate while the
  // co-tenants' percentiles measure only what they actually experienced.
  std::vector<ServedEvent> events;
  events.reserve(n);
  std::vector<std::vector<double>> waits(trace.names.size());
  double last_done = 0;
  uint64_t total_completed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (start_us[i] < 0) {
      continue;  // shed
    }
    const size_t t = static_cast<size_t>(trace.tenant[i]);
    TenantOutcome& tenant = replay.tenants[t];
    if (faulted_at(i)) {
      ++tenant.faulted;
      last_done = std::max(last_done, done_us[i]);  // the lane was occupied
      continue;
    }
    ++tenant.completed;
    ++total_completed;
    if (trace.cold[i]) {
      ++tenant.cold_starts;
    }
    const double wait = start_us[i] - trace.arrivals_us[i];
    waits[t].push_back(wait);
    tenant.mean_queue_wait_us += wait;
    tenant.mean_latency_us += done_us[i] - trace.arrivals_us[i];
    last_done = std::max(last_done, done_us[i]);
    events.push_back(ServedEvent{trace.arrivals_us[i], done_us[i], trace.cold[i]});
  }
  double fairness_num = 0;
  double fairness_den = 0;
  double active_tenants = 0;  // tenants with offered load; idle ones don't dilute
  for (size_t t = 0; t < replay.tenants.size(); ++t) {
    TenantOutcome& tenant = replay.tenants[t];
    tenant.recovery = policy.Recovery(tenant.name);
    tenant.breaker_opens = tenant.recovery.opens;
    if (tenant.completed > 0) {
      tenant.mean_queue_wait_us /= static_cast<double>(tenant.completed);
      tenant.mean_latency_us /= static_cast<double>(tenant.completed);
      tenant.p99_queue_wait_us = vbase::Quantile(waits[t], 0.99);
    }
    if (tenant.offered > 0) {
      tenant.shed_rate = static_cast<double>(tenant.shed_quota + tenant.shed_overload +
                                             tenant.shed_breaker) /
                         static_cast<double>(tenant.offered);
      tenant.fault_rate =
          static_cast<double>(tenant.faulted) / static_cast<double>(tenant.offered);
      const double admitted_fraction =
          static_cast<double>(tenant.completed) / static_cast<double>(tenant.offered);
      fairness_num += admitted_fraction;
      fairness_den += admitted_fraction * admitted_fraction;
      active_tenants += 1;
    }
  }
  replay.fairness_index =
      fairness_den > 0 ? (fairness_num * fairness_num) / (active_tenants * fairness_den)
                       : 0;
  // First arrival to last completion, as documented — a trace slice that
  // starts late must not count its idle prefix against throughput.
  const double origin_us = n > 0 ? trace.arrivals_us.front() : 0;
  replay.makespan_s = total_completed > 0 ? (last_done - origin_us) / 1e6 : 0;
  replay.aggregate_rps =
      replay.makespan_s > 0 ? static_cast<double>(total_completed) / replay.makespan_s : 0;
  replay.sim = AssembleSimResult(events);
  return replay;
}

SimResult SimulateBurstyLoad(const std::vector<LoadPhase>& phases, const ExecutorModel& model,
                             uint64_t seed) {
  const std::vector<double> arrivals_us = GenerateArrivalTrace(phases, seed);

  // Instance state: busy-until time and last-used time per instance.
  struct Instance {
    double busy_until_us = 0;
    double last_used_us = 0;
  };
  std::vector<Instance> instances;
  std::vector<ServedEvent> events;
  events.reserve(arrivals_us.size());

  for (const double arrival : arrivals_us) {
    // Reclaim idle instances (container platforms tear warm instances down).
    instances.erase(std::remove_if(instances.begin(), instances.end(),
                                   [&](const Instance& inst) {
                                     return inst.busy_until_us < arrival &&
                                            arrival - inst.last_used_us >
                                                model.idle_timeout_s * 1e6;
                                   }),
                    instances.end());

    // Pick the warm instance that frees up soonest; spawn cold if allowed.
    double start_us;
    bool cold = false;
    Instance* chosen = nullptr;
    for (Instance& inst : instances) {
      if (chosen == nullptr || inst.busy_until_us < chosen->busy_until_us) {
        chosen = &inst;
      }
    }
    const bool can_spawn = static_cast<int>(instances.size()) < model.max_instances;
    if (chosen == nullptr ||
        (chosen->busy_until_us > arrival && can_spawn)) {
      instances.push_back(Instance{});
      chosen = &instances.back();
      cold = true;
      start_us = arrival;
    } else {
      start_us = std::max(arrival, chosen->busy_until_us);
    }
    const double service = model.warm_service_us + (cold ? model.cold_extra_us : 0);
    const double done = start_us + service;
    chosen->busy_until_us = done;
    chosen->last_used_us = done;
    events.push_back(ServedEvent{arrival, done, cold});
  }
  return AssembleSimResult(events);
}

}  // namespace vnet
