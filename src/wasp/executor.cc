#include "src/wasp/executor.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <utility>

#include "src/base/clock.h"
#include "src/base/log.h"

namespace wasp {
namespace {

// Keyed dequeue hint: a lane that just ran key K takes a queued job with the
// same key first.  The pool hands K's parked shell to whichever lane asks,
// so the hint finds no shell the pool would miss; it keeps key switches
// rare.  That counts most in virtual time: RunVirtual runs one job at a
// time, and the pool's slow path reclaims another generation's parked shell
// before it creates one, so a sweep can run every job on a single shell, and
// each key switch costs a reclaim and a COW map instead of a delta repair.
// fig16's tiered phase (3 keys, 2 lanes, --quick) makes 843 COW maps in
// 11,556 admitted jobs with the scan and 6,260 in 10,335 without it, and
// reads 47,733 aggregate rps against 42,635.  The scan is bounded and
// fairness-capped: after a few consecutive out-of-order picks the lane must
// take the queue head, so no job can starve behind a stream of matching
// keys.  The scan stays within the class the policy picked, so affinity can
// never invert the latency-vs-batch weighting.
constexpr size_t kAffinityScan = 8;
constexpr int kMaxConsecutiveSkips = 4;

// Folds a retried job's first attempt into its second: the modeled cost
// (cycles, exits, instructions) is the sum of both attempts; what describes
// one attempt's path (the restore flags and bytes, the wall-clock phases)
// stays the second attempt's.
void AddAttempt(InvokeStats* stats, const InvokeStats& first) {
  stats->guest_cycles += first.guest_cycles;
  stats->host_cycles += first.host_cycles;
  stats->total_cycles += first.total_cycles;
  stats->io_exits += first.io_exits;
  stats->exit_cycles += first.exit_cycles;
  stats->insns += first.insns;
}

}  // namespace

Executor::Executor(Runtime* runtime, ExecutorOptions options, bool start_workers)
    : runtime_(runtime), options_(std::move(options)), policy_(options_) {
  VB_CHECK(runtime_ != nullptr, "Executor requires a runtime");
  const int n = std::max(options_.workers, 1);
  options_.workers = n;
  if (!start_workers) {
    return;
  }
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  cv_space_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

Admission Executor::Enqueue(Job job, std::future<RunOutcome>* future) {
  std::future<RunOutcome> resolved = job.promise.get_future();
  Admission admission = Admission::kAccepted;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Every submission faces the policy: breaker, quota, global bound.  A
    // blocking executor parks on the bound below instead of shedding, so it
    // shows the policy no queue.
    if (!stop_) {
      admission = policy_.Admit(job.key, options_.block_when_full ? 0 : TotalQueuedLocked(),
                                &job.probe);
      switch (admission) {
        case Admission::kAccepted:
          break;
        case Admission::kCircuitOpen:
          ++stats_.breaker_rejected;
          return admission;  // job (and its promise) dropped
        case Admission::kQuotaExceeded:
          ++stats_.quota_rejected;
          return admission;
        default:
          ++stats_.rejected;
          return admission;  // caller sheds load
      }
    }
    if (!stop_ && options_.max_queue_depth > 0) {
      cv_space_.wait(lock, [this] {
        return stop_ || TotalQueuedLocked() < options_.max_queue_depth;
      });
      // Re-check the quota after a blocking park: sibling submitters of the
      // same key passed the entry check while this one waited for global
      // space, so enqueueing blindly here would overshoot the cap.
      if (!stop_ && !policy_.UnderQuota(job.key)) {
        ++stats_.quota_rejected;
        policy_.Withdraw(job.key, job.probe);
        // This reject consumed a dequeue's notify_one without taking the
        // freed slot; pass the wakeup on or another parked submitter
        // could sleep forever beside an open slot.
        cv_space_.notify_one();
        return Admission::kQuotaExceeded;
      }
    }
    if (stop_) {
      // Teardown raced the submission (blocking admission makes long parks
      // inside Enqueue routine): fail it recoverably instead of aborting.
      ++stats_.rejected;
      policy_.Withdraw(job.key, job.probe);
      admission = Admission::kStopped;
    } else {
      job.seq = next_seq_++;
      policy_.OnEnqueue(job.key);
      queues_[static_cast<size_t>(job.klass)].push_back(std::move(job));
      ++stats_.submitted;
      stats_.peak_queue_depth =
          std::max<uint64_t>(stats_.peak_queue_depth, TotalQueuedLocked());
    }
  }
  if (admission == Admission::kStopped) {
    RunOutcome outcome;
    outcome.status = vbase::Aborted("executor stopped during submit");
    job.promise.set_value(std::move(outcome));  // the future resolves with the error
  } else {
    cv_.notify_one();
  }
  if (future != nullptr) {
    *future = std::move(resolved);
  }
  return admission;
}

bool Executor::TrySubmit(VirtineSpec spec, std::future<RunOutcome>* future, KeyClass klass,
                         Admission* admission) {
  Job job;
  job.key = spec.use_snapshot ? spec.key : std::string();
  job.klass = klass;
  job.spec = std::move(spec);
  const Admission result = Enqueue(std::move(job), future);
  if (admission != nullptr) {
    *admission = result;
  }
  return result == Admission::kAccepted;
}

bool Executor::TrySubmitTask(Task task, std::future<RunOutcome>* future,
                             std::string affinity_key, KeyClass klass,
                             Admission* admission) {
  Job job;
  job.key = std::move(affinity_key);
  job.klass = klass;
  job.work = std::move(task);
  const Admission result = Enqueue(std::move(job), future);
  if (admission != nullptr) {
    *admission = result;
  }
  return result == Admission::kAccepted;
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecutorStats out = stats_;
  out.breaker_opens = policy_.breaker_opens();
  out.queued = TotalQueuedLocked();
  out.in_flight = in_flight_;
  // Debug-build audit of the conservation law at *every* snapshot, not just
  // test quiesce points.  The retry path keeps a retried job in `in_flight`
  // across both attempts, so no observation may catch a job outside all four
  // buckets.  (assert, not VB_CHECK: VB_CHECK aborts in release builds too,
  // and a stats snapshot must stay cheap there.)
  assert(out.submitted == out.completed + out.faulted + out.queued + out.in_flight);
  return out;
}

size_t Executor::KeyLoad(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_.Load(key);
}

KeyRecoverySnapshot Executor::KeyRecoveryState(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_.Recovery(key);
}

Executor::Job Executor::DequeueLocked(Lane& lane) {
  auto head = [](const std::deque<Job>& q) {
    return q.empty() ? std::nullopt : std::optional<uint64_t>(q.front().seq);
  };
  const size_t cls = static_cast<size_t>(policy_.PickNext(head(queues_[0]), head(queues_[1])));
  std::deque<Job>& queue = queues_[cls];
  size_t pick = 0;
  if (!lane.last_key.empty() && lane.skips < kMaxConsecutiveSkips) {
    const size_t scan = std::min(queue.size(), kAffinityScan);
    for (size_t i = 0; i < scan; ++i) {
      if (!queue[i].key.empty() && queue[i].key == lane.last_key) {
        pick = i;
        break;
      }
    }
  }
  lane.skips = pick == 0 ? 0 : lane.skips + 1;
  Job job = std::move(queue[pick]);
  queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick));
  lane.last_key = job.key;
  ++in_flight_;
  if (cls == 0) {
    ++stats_.dequeued_latency;
  } else {
    ++stats_.dequeued_batch;
  }
  return job;
}

void Executor::Settle(Job& job, RunOutcome outcome) {
  // Settle ALL accounting — completed/faulted, the recovery ledger, and the
  // key-quota slot — before resolving the future.  A caller that sees the
  // future ready may immediately resubmit on the same key; its slot must
  // already be free (a fault must never wedge a key's quota, not even for
  // the resolve-to-release window).
  const bool faulted = outcome.fault != FaultKind::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (faulted) {
      ++stats_.faulted;
    } else {
      ++stats_.completed;
      if (outcome.retried) {
        ++stats_.retry_successes;
      }
    }
    // The final attempt's outcome resolves the key's probe (if this job was
    // one), feeds the fault-rate EWMA, and frees the quota slot.
    policy_.OnComplete(job.key, faulted, job.probe);
    --in_flight_;
  }
  job.promise.set_value(std::move(outcome));
}

void Executor::WorkerLoop() {
  Lane lane;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || TotalQueuedLocked() > 0; });
      if (TotalQueuedLocked() == 0) {
        return;  // stop requested and nothing left to drain
      }
      job = DequeueLocked(lane);
    }
    cv_space_.notify_one();
    RunOutcome outcome = RunJob(job);
    Settle(job, std::move(outcome));
  }
}

RunOutcome Executor::RunJob(Job& job) {
  RunOutcome outcome = job.work ? job.work() : runtime_->Invoke(job.spec);
  if (outcome.fault == FaultKind::kNone || job.work ||
      !IsRecoverableFault(outcome.fault) || !options_.recovery.IsIdempotent(job.key)) {
    return outcome;
  }
  // Retry-once: the fault kinds above guarantee the guest never observably
  // ran, and the key is declared side-effect free, so a second attempt is
  // safe.  The job stays in_flight and keeps its key-quota slot across both
  // attempts — `submitted` counted it once and exactly one of
  // completed/faulted will count its end, so the conservation law holds at
  // every observation in between.  The first attempt still feeds the EWMA:
  // a retry-masked storm must trip the breaker just like a visible one.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.retries;
    policy_.OnRetry(job.key);
  }
  const FaultKind first = outcome.fault;
  const InvokeStats first_stats = outcome.stats;
  VirtineSpec retry_spec = job.spec;
  // A fresh, non-affine shell: the first attempt's shell is already
  // quarantined, and an affine sibling could share whatever poisoned state
  // killed it (a bad snapshot delta, a dying lane).
  retry_spec.fresh_shell = true;
  if (workers_.empty()) {
    // RunVirtual never races the cleaner crew: the quarantined shell is
    // scrubbed before the retry acquires.
    runtime_->pool().DrainCleaner();
  }
  outcome = runtime_->Invoke(retry_spec);
  outcome.retried = true;
  outcome.first_fault = first;
  // The job held its lane through both attempts, so it reports both costs.
  AddAttempt(&outcome.stats, first_stats);
  return outcome;
}

Executor::VirtualRun Executor::RunVirtual(Runtime* runtime, ExecutorOptions options,
                                          std::vector<Arrival> arrivals, size_t clients) {
  options.block_when_full = false;  // a virtual submitter cannot park
  Executor executor(runtime, std::move(options), /*start_workers=*/false);
  const size_t n = static_cast<size_t>(executor.options_.workers);
  // The arrivals that keep their trace times; an open loop keeps them all.
  const size_t timed = clients == 0 ? arrivals.size() : std::min(clients, arrivals.size());

  // A virtual lane: its affinity memory, the time it frees (or freed), and
  // the job it holds until then, already run, waiting to settle.
  struct VirtualLane {
    Lane lane;
    double free_us = 0;
    std::optional<Job> job;
    RunOutcome outcome;
  };
  std::vector<VirtualLane> lanes(n);
  VirtualRun run{std::vector<Served>(arrivals.size()), {}, executor.policy_};
  std::vector<std::future<RunOutcome>> futures(arrivals.size());
  std::vector<size_t> arrival_of_seq;  // job seq -> arrival (a fresh executor counts from 0)
  // Released arrivals not yet submitted, earliest first, lower index on a tie.
  std::set<std::pair<double, size_t>> pending;
  for (size_t i = 0; i < timed; ++i) {
    VB_CHECK(i == 0 || arrivals[i].at_us >= arrivals[i - 1].at_us,
             "RunVirtual: arrivals must be in time order");
    pending.emplace(arrivals[i].at_us, i);
  }
  // Arrival i has settled, or been shed and waited out a completion, at
  // `now`: its client sends the next.
  auto release_next = [&](size_t i, double now) {
    if (clients > 0 && i + clients < arrivals.size()) {
      pending.emplace(now, i + clients);
    }
  };
  // Shed arrivals whose clients wait for the next job to settle.
  std::vector<size_t> shed_waiting;

  // The busy (or idle) lane that frees (or freed) first, lowest index on a
  // tie; n if there is none.
  auto first_lane = [&](bool busy) {
    size_t first = n;
    for (size_t l = 0; l < n; ++l) {
      if (lanes[l].job.has_value() == busy &&
          (first == n || lanes[l].free_us < lanes[first].free_us)) {
        first = l;
      }
    }
    return first;
  };
  // Lane `l`, free at `now`, takes the next queued job, if any, and runs it.
  auto dispatch = [&](size_t l, double now) {
    VirtualLane& lane = lanes[l];
    {
      std::lock_guard<std::mutex> lock(executor.mu_);
      if (executor.TotalQueuedLocked() == 0) {
        return;
      }
      lane.job = executor.DequeueLocked(lane.lane);
    }
    lane.outcome = executor.RunJob(*lane.job);
    runtime->pool().DrainCleaner();  // the next acquire sees a settled pool
    Served& served = run.served[arrival_of_seq[lane.job->seq]];
    served.lane = static_cast<uint32_t>(l);
    served.start_us = now;
    served.done_us = now + vbase::CyclesToMicros(lane.outcome.stats.total_cycles);
    lane.free_us = served.done_us;
  };

  while (!pending.empty() || first_lane(true) != n) {
    const size_t done = first_lane(true);
    if (done != n && (pending.empty() || lanes[done].free_us <= pending.begin()->first)) {
      VirtualLane& lane = lanes[done];
      const size_t i = arrival_of_seq[lane.job->seq];
      executor.Settle(*lane.job, std::move(lane.outcome));
      lane.job.reset();
      run.served[i].outcome = futures[i].get();
      release_next(i, lane.free_us);
      for (const size_t shed : shed_waiting) {
        release_next(shed, lane.free_us);
      }
      shed_waiting.clear();
      dispatch(done, lane.free_us);
      continue;
    }
    const auto [now, next] = *pending.begin();
    pending.erase(pending.begin());
    Arrival& arrival = arrivals[next];
    Served& served = run.served[next];
    served.arrival_us = now;
    if (arrival.task) {
      executor.TrySubmitTask(std::move(arrival.task), &futures[next], std::move(arrival.key),
                             arrival.klass, &served.admission);
    } else {
      executor.TrySubmit(std::move(arrival.spec), &futures[next], arrival.klass,
                         &served.admission);
    }
    if (served.admission != Admission::kAccepted) {
      if (first_lane(true) != n) {
        shed_waiting.push_back(next);
      } else {
        release_next(next, now);
      }
      continue;
    }
    arrival_of_seq.push_back(next);
    const size_t idle = first_lane(false);
    if (idle != n) {
      dispatch(idle, now);
    }
  }
  run.stats = executor.stats();
  run.policy = executor.policy_;
  return run;
}

}  // namespace wasp
