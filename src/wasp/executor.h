// wasp::Executor — the multicore invocation driver.
//
// The paper's serving case studies (the Figure 13 HTTP server, the Figure 15
// Vespid burst pattern) live or die on sustaining *bursts* of concurrent
// invocations; a single-lane Invoke() cannot express that.  The executor
// adds concurrent entry points on top of Runtime::Invoke, each subject to
// the admission policy (see ExecutorOptions below):
//
//   * TrySubmit(spec, &future) — enqueue one invocation on a fixed worker
//     pool and get a std::future<RunOutcome> back, and
//   * TrySubmitTask(fn, &future) — enqueue an arbitrary serving task on
//     the same queue and workers, under the same admission policy (the
//     ConcurrentHttpServer dispatches whole HTTP connections this way, so
//     admission control and lane accounting cover native and virtine
//     handlers alike).
//
// Bounded admission makes burst overload a first-class, testable behavior
// instead of an unbounded queue: with max_queue_depth set, a full queue
// either blocks the submitter (block_when_full, closed-loop clients) or
// rejects the job so the caller can shed load (an HTTP 503, an open-loop
// generator dropping requests).  ExecutorStats counts accepts, rejections,
// completions, and the peak queue depth so tests can assert the policy.
//
// Key-scoped governance sits on top: a job's affinity key is also the unit
// the executor accounts and polices.  The rules — per-key quotas (a 429
// upstream, distinct from a global-full 503), weighted latency/batch
// dequeue, the per-key fault-rate EWMA and circuit breaker — are
// wasp::AdmissionPolicy's (admission.h), and every job meets them.  The
// executor calls it under its lock and keeps only what scheduling needs:
// the class queues, the block_when_full park, the affinity scan,
// retry-once, and ExecutorStats.  Three rules:
//
//   * A block_when_full waiter whose key filled while it was parked for
//     global space is quota-rejected at wake instead of overshooting the cap
//     (it hands back any probe it held and passes the wakeup on).
//   * A job's quota slot is released before its future resolves, so a caller
//     that resubmits on the same key finds the slot free.
//   * A recoverable fault (kWorkerDeath / kPoisonedSnapshot — the guest
//     never observably ran) on a key declared idempotent is retried exactly
//     once on a fresh, non-affine shell while the job stays in flight
//     (counted once in `submitted`, quota slot held); the first attempt
//     still feeds the EWMA, so a retry-masked storm trips the breaker too.
//     The job's outcome carries the second attempt's status, output, fault
//     and restore path, and the modeled cost of both attempts summed
//     (cycles, exits, instructions): the retry held its lane for both runs.
//
// One executor, two clocks.  A lane runs one step pair: the dequeue step
// (the policy's class pick, then the lane's affinity scan) and, once the job
// has run, the settle step (completion counters, the policy's EWMA and quota
// release, the future).  Worker threads loop over the pair on the wall clock.
// RunVirtual drives the same pair on the calling thread in virtual time: it
// submits each arrival through TrySubmit/TrySubmitTask at its trace time (an
// open loop) or when its client's previous request is done (a closed loop),
// runs each dequeued job on the earliest-free of `workers` virtual lanes,
// and settles the job once its modeled cycles have passed, so every lane
// sweep in the repository (figs 9, 13, 15, 16 and 17) gets the real
// scheduler on a timeline that repeats exactly.  Its one approximation: a
// job's shell is back in the pool once its dispatch returns, so a job that
// starts later on another lane can take that shell before the first job's
// virtual completion.  A job runs to completion when it is dispatched, so it
// must not wait on another job: a task reading a channel finds its request
// already written.
//
// Invocations are independent by construction (each owns its shell, its
// hypercall frame, and its fd table), so the only shared state a worker
// touches is the Pool (lock-free stacks in front of one slow-path mutex) and
// the read-mostly SnapshotStore — both designed to scale with the worker
// count.
//
// Lifetime: specs hold non-owning pointers (image, input, channel); the
// caller keeps those alive until the future resolves / RunVirtual returns.
// The destructor drains the queue — every accepted job runs to completion
// and resolves its future — before joining the workers.
#ifndef SRC_WASP_EXECUTOR_H_
#define SRC_WASP_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/wasp/admission.h"
#include "src/wasp/runtime.h"

namespace wasp {

// Executor settings: the admission policy's (AdmissionOptions) plus the two
// only threads need.
struct ExecutorOptions : AdmissionOptions {
  int workers = 2;
  // Full-queue policy for TrySubmit / TrySubmitTask: block until a slot
  // frees (never reject — closed-loop semantics) or refuse the job so the
  // caller sheds load (open-loop semantics).  The per-key quota and the
  // breaker are hard under either policy.
  bool block_when_full = true;
};

// Monotone admission/progress counters, plus two gauges snapshotted under
// the same lock so accounting invariants are checkable at any observation
// point:
//   submitted == completed + faulted + queued + in_flight
// A faulted completion still releases its key-quota slot (queued +
// in-flight), so a fault storm on one key can never wedge that key's quota.
struct ExecutorStats {
  uint64_t submitted = 0;         // jobs accepted into the queue
  uint64_t rejected = 0;          // jobs refused: global queue full or shutdown
  uint64_t quota_rejected = 0;    // jobs refused: per-key quota (never enqueued)
  uint64_t breaker_rejected = 0;  // jobs refused: key's circuit breaker open
  uint64_t completed = 0;         // jobs run to a fault-free completion
  uint64_t faulted = 0;           // jobs whose invocation died with a FaultKind
  uint64_t retries = 0;           // retry attempts launched (recoverable faults)
  uint64_t retry_successes = 0;   // retried jobs that completed fault-free
  uint64_t breaker_opens = 0;     // breaker transitions into the open state
  uint64_t peak_queue_depth = 0;  // high-water mark of the queue (both classes)
  uint64_t dequeued_latency = 0;  // jobs dequeued from the latency class
  uint64_t dequeued_batch = 0;    // jobs dequeued from the batch class
  uint64_t queued = 0;            // gauge: jobs waiting right now
  uint64_t in_flight = 0;         // gauge: jobs running right now
};

class Executor {
 public:
  // An arbitrary serving task run on an executor worker.  The returned
  // RunOutcome resolves the job's future (tasks that track their results
  // elsewhere may return a default outcome).
  using Task = std::function<RunOutcome()>;

  Executor(Runtime* runtime, ExecutorOptions options)
      : Executor(runtime, std::move(options), /*start_workers=*/true) {}
  ~Executor();  // drains the queue (all accepted futures resolve), then joins

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Enqueues one invocation; the future resolves with its RunOutcome.
  // Returns false — and does not enqueue — when the job's key's breaker is
  // open, when the key is at its quota, when the queue is at
  // max_queue_depth and the policy is reject, or when the submission races
  // executor shutdown (the future then resolves with an Aborted outcome);
  // otherwise (including blocking until space in block_when_full mode)
  // stores the outcome future in `*future` and returns true.  `admission`
  // (optional) receives the classified decision, so callers can
  // distinguish per-key shedding (429) from global overload (503).
  bool TrySubmit(VirtineSpec spec, std::future<RunOutcome>* future,
                 KeyClass klass = KeyClass::kLatency, Admission* admission = nullptr);

  // Task variant of TrySubmit.  `affinity_key` feeds the workers'
  // keyed-dequeue affinity scan and the per-key quota accounting (empty =
  // no affinity, no quota).
  bool TrySubmitTask(Task task, std::future<RunOutcome>* future,
                     std::string affinity_key = {}, KeyClass klass = KeyClass::kLatency,
                     Admission* admission = nullptr);

  size_t workers() const { return workers_.size(); }
  ExecutorStats stats() const;
  // Jobs in the system (queued + in flight) under `key` right now.
  size_t KeyLoad(const std::string& key) const;
  // Recovery view of `key`: fault-rate EWMA and breaker position.  Unlike
  // the key's load, recovery state persists after the key's jobs drain — a
  // storm's evidence must outlive the storm.
  KeyRecoverySnapshot KeyRecoveryState(const std::string& key) const;
  const ExecutorOptions& options() const { return options_; }

  // One arrival of a virtual-time run: an invocation of `spec` (submitted
  // through TrySubmit), or, when `task` is set, a serving task submitted
  // through TrySubmitTask under `key`.
  struct Arrival {
    double at_us = 0;
    KeyClass klass = KeyClass::kLatency;
    VirtineSpec spec;
    Task task;
    std::string key;
  };
  // What became of one arrival.  It was submitted at arrival_us.  An
  // admitted arrival ran on `lane` from start_us and held it until done_us,
  // start_us plus its outcome's modeled cycles; a shed one never ran and
  // keeps the rest zero.
  struct Served {
    Admission admission = Admission::kAccepted;
    double arrival_us = 0;
    uint32_t lane = 0;
    double start_us = 0;
    double done_us = 0;
    RunOutcome outcome;
  };
  struct VirtualRun {
    std::vector<Served> served;  // one per arrival, in arrival order
    ExecutorStats stats;         // after the last job settled
    AdmissionPolicy policy;      // its ledger after the last job settled
  };

  // The virtual clock (see the file comment) over `arrivals`; returns once
  // every admitted job has settled.  With `clients` = 0 the loop is open:
  // each arrival arrives at its at_us, ascending.  With C > 0 it is closed,
  // C clients each sending its next request when its last one is done:
  // arrival i < C arrives at its at_us, and arrival i >= C at the instant
  // arrival i - C settles (its at_us is not read), so a client's latency is
  // done_us - arrival_us.  A shed arrival's client waits for the next job to
  // settle, or sends at once when no lane is busy.  Released arrivals are
  // submitted earliest first, the lower index on a tie.  A completion runs
  // before an arrival at the same instant, and an arrival that finds lanes
  // idle goes to the one idle longest (lowest index on a tie).  A virtual
  // submitter cannot park, so RunVirtual always sheds at the bound, as
  // block_when_full = false does.  The cleaner crew is drained after every
  // job, so a run on a fresh runtime repeats exactly in either clean mode.
  static VirtualRun RunVirtual(Runtime* runtime, ExecutorOptions options,
                               std::vector<Arrival> arrivals, size_t clients = 0);

 private:
  struct Job {
    std::string key;  // snapshot-affinity hint + quota accounting unit
    KeyClass klass = KeyClass::kLatency;
    uint64_t seq = 0;  // submission order (cross-class FIFO when ungoverned)
    Task work;         // the serving task (empty for invocation jobs)
    // Invocation jobs (TrySubmit) carry their spec so a recoverable
    // fault can be retried once on a fresh shell.  Generic tasks never carry
    // one — their side effects are opaque, so they are never retried.
    VirtineSpec spec;
    bool probe = false;      // this job is its key's half-open breaker probe
    std::promise<RunOutcome> promise;
  };

  // A lane's affinity-scan memory: the key it last ran and how many
  // consecutive out-of-order picks it has made.
  struct Lane {
    std::string last_key;
    int skips = 0;
  };

  // `start_workers` = false builds RunVirtual's thread-less executor.
  Executor(Runtime* runtime, ExecutorOptions options, bool start_workers);

  // Shared enqueue path: the breaker, the quota and the configured
  // full-queue policy, then the queue.
  Admission Enqueue(Job job, std::future<RunOutcome>* future);
  // The dequeue step (mu_ held, a job queued): the policy's class pick, then
  // `lane`'s affinity scan within that class.  The job counts in flight.
  Job DequeueLocked(Lane& lane);
  // Runs a job's work — the stored task, or an invocation of its spec — and
  // applies the retry-once policy for recoverable faults on idempotent keys.
  RunOutcome RunJob(Job& job);
  // The settle step: completion counters, the policy's EWMA and quota slot,
  // then the job's future.
  void Settle(Job& job, RunOutcome outcome);
  void WorkerLoop();

  size_t TotalQueuedLocked() const { return queues_[0].size() + queues_[1].size(); }

  Runtime* runtime_;
  ExecutorOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        // queue became non-empty / stopping
  std::condition_variable cv_space_;  // queue slot freed
  std::deque<Job> queues_[2];         // indexed by KeyClass
  uint64_t next_seq_ = 0;
  size_t in_flight_ = 0;
  AdmissionPolicy policy_;  // per-key load, EWMA, breaker; class-pick credit
  ExecutorStats stats_;     // breaker_opens is read from policy_
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wasp

#endif  // SRC_WASP_EXECUTOR_H_
