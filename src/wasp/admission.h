// wasp::AdmissionPolicy — the admission policy of the one serving scheduler,
// the executor (executor.h), on both of its clocks: worker threads on the
// wall clock, and Executor::RunVirtual in virtual time, which GovernTrace
// (vnet/serverless.h) uses so governance disciplines repeat exactly.  The
// rules live only here:
//
//   * Admission order: a request meets its key's circuit breaker
//     (the cheapest shed), then its key's quota (jobs queued plus running),
//     then the global queue bound.  A probe the breaker reserved is handed
//     back on every later reject, so the breaker never waits on a probe that
//     never ran.
//   * Class pick: latency jobs dequeue first, but one batch job is taken per
//     `batch_weight` dequeues while both classes wait, so neither starves.
//   * Fault recovery: every ended attempt feeds the key's fault-rate EWMA;
//     the breaker opens when it reaches the threshold, sheds a counted
//     number of requests, then admits one half-open probe whose outcome
//     closes (EWMA reset) or re-opens it.  Counts, never clocks, drive it.
//
// The policy owns per-key load, the EWMA and breaker ledger, and the class
// pick's credit.  It has no clock, no lock and no threads: the executor
// calls it under its mutex and keeps the queues, lanes and time.  The empty
// key is unaccounted: it faces only the global bound, and its completions
// feed nothing.
#ifndef SRC_WASP_ADMISSION_H_
#define SRC_WASP_ADMISSION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/wasp/fault.h"

namespace wasp {

// Scheduling class of a submitted job.
enum class KeyClass {
  kLatency = 0,  // interactive / latency-sensitive (the default)
  kBatch = 1,    // throughput-oriented background work
};

// Why a submission was (or was not) accepted.
enum class Admission {
  kAccepted,       // admitted; the caller queues it
  kQueueFull,      // global max_queue_depth reached (503 upstream)
  kQuotaExceeded,  // the job's key is at its per-key quota (429)
  kCircuitOpen,    // the job's key's circuit breaker is open (fast 429)
  kStopped,        // the submission raced executor shutdown
};

// The admission settings, declared once.  ExecutorOptions and
// ConcurrentServerOptions inherit them.
struct AdmissionOptions {
  // Maximum queued (not yet running) jobs; 0 = unbounded.
  size_t max_queue_depth = 0;
  // Per-key cap on jobs in the system (queued + running); 0 = unlimited.
  // Hard: a request over it is shed immediately, never parked.
  size_t key_quota = 0;
  // Tiered quotas: a listed key uses its override (0 = explicitly
  // unlimited); unlisted keys fall back to key_quota.  Three entries
  // (premium/standard/free) make fig16's three-tier discipline.
  std::map<std::string, size_t> key_quota_overrides = {};
  // Weighted dequeue: while both classes wait, one batch job per
  // `batch_weight` dequeues.  <= 0 disables the classes: strict FIFO by
  // submission order (the ungoverned baseline).
  int batch_weight = 4;
  // Retry-once eligibility and the per-key circuit breaker (fault.h).
  RecoveryOptions recovery = {};

  // Effective quota for `key` (0 = unlimited) after override resolution.
  size_t QuotaFor(const std::string& key) const {
    auto it = key_quota_overrides.find(key);
    return it != key_quota_overrides.end() ? it->second : key_quota;
  }
  // batch_weight with its floor: a weight of 1 would pick batch on every
  // contended dequeue (priority inversion), so positive weights start at 2.
  int BatchWeight() const { return batch_weight > 0 ? std::max(batch_weight, 2) : batch_weight; }
};

// Recovery view of one key.  A key that never ended an attempt reads as
// all-zero / closed.
struct KeyRecoverySnapshot {
  double fault_rate = 0.0;                     // EWMA over attempts (retries included)
  uint64_t samples = 0;                        // attempts observed
  BreakerState state = BreakerState::kClosed;  // breaker position
  uint64_t opens = 0;                          // times this key's breaker opened
};

class AdmissionPolicy {
 public:
  explicit AdmissionPolicy(AdmissionOptions options) : options_(std::move(options)) {}

  // Admission of one request on `key` while `queued` jobs wait for
  // a lane: breaker, quota, global bound.  A caller that parks full
  // submitters instead of shedding them passes 0 and waits for space
  // itself.  On kAccepted, `*probe` tells whether the request holds its
  // key's half-open probe; the caller follows with OnEnqueue or Withdraw.
  Admission Admit(const std::string& key, size_t queued, bool* probe);
  // True when `key` is below its quota (a parked request re-checks at wake).
  bool UnderQuota(const std::string& key) const;
  // An admitted request was dropped before it queued: hands back its probe.
  void Withdraw(const std::string& key, bool probe);
  // An admitted request on `key` entered the queue: it counts toward the
  // key's load until OnComplete.
  void OnEnqueue(const std::string& key);

  // The class the next dequeue serves, given the submission order of each
  // class queue's head (nullopt = that queue is empty; one must be set).
  KeyClass PickNext(std::optional<uint64_t> latency_head, std::optional<uint64_t> batch_head);

  // A job on `key` ended its final attempt and left the system.  The
  // outcome feeds the EWMA and drives the breaker; a resolved `probe`
  // closes the breaker (EWMA reset: re-tripping needs fresh evidence) when
  // clean and re-opens it when faulted.
  void OnComplete(const std::string& key, bool faulted, bool probe);
  // A retried job's faulted first attempt: feeds the EWMA and may trip the
  // breaker, so a retry-masked storm counts; the job stays in the system.
  void OnRetry(const std::string& key);

  size_t Load(const std::string& key) const;  // jobs queued + running
  KeyRecoverySnapshot Recovery(const std::string& key) const;
  uint64_t breaker_opens() const { return breaker_opens_; }  // over all keys

 private:
  // Per-key ledger.  Entries persist at zero load: the EWMA and breaker
  // position are evidence, not a gauge.
  struct KeyState {
    size_t load = 0;
    KeyRecoverySnapshot recovery;
    uint64_t sheds = 0;            // requests shed since the breaker last opened
    bool probe_in_flight = false;  // a half-open probe is queued or running
  };

  bool BreakerAdmits(KeyState& key, bool* probe);
  void Record(KeyState& key, bool faulted, bool probe);
  void Open(KeyState& key);

  AdmissionOptions options_;
  std::map<std::string, KeyState> keys_;
  int batch_credit_ = 0;  // latency dequeues since the last forced batch pick
  uint64_t breaker_opens_ = 0;
};

}  // namespace wasp

#endif  // SRC_WASP_ADMISSION_H_
