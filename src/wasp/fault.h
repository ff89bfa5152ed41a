// Fault taxonomy and deterministic fault injection for the invocation path.
//
// The paper's core claim is isolation: a virtine that dies — guest trap,
// illegal hypercall, poisoned snapshot, runaway loop, worker death — must
// cost exactly one invocation.  This header gives that claim structure:
//
// * `FaultKind` classifies every way an invocation can die, replacing the
//   stringly `Internal("guest fault: ...")` path so callers (executor
//   accounting, the HTTP front end, GovernTrace) can branch on the kind
//   while the human-readable message stays in the Status for logs.
// * `FaultPlan` / `FaultInjector` inject faults deterministically: a rule
//   fires either at an exact global invocation index or with a seeded
//   per-invocation probability, optionally scoped to one virtine key.  Two
//   runs with the same plan, seed, and submission order inject the same
//   faults, so chaos benchmarks (fig17) and regression tests replay.
#ifndef SRC_WASP_FAULT_H_
#define SRC_WASP_FAULT_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace wasp {

// Why an invocation died.  kNone means the invocation completed (possibly
// with a non-OK host-side status, e.g. image load failure — those are host
// errors, not guest faults, and do not quarantine the shell).
enum class FaultKind : uint8_t {
  kNone = 0,
  kGuestTrap,         // CPU-level fault: illegal instruction, bad access, #BP
  kPolicyDenied,      // hypercall outside the virtine's policy mask
  kIllegalHypercall,  // hypercall port with no registered handler
  kHypercallError,    // a handler failed mid-flight (bad guest pointer, I/O)
  kOversizedReply,    // guest reply exceeded the I/O length ceiling
  kPoisonedSnapshot,  // snapshot checksum mismatch detected on restore
  kRunaway,           // instruction budget exhausted
  kWorkerDeath,       // the invocation's lane died mid-invocation
};
inline constexpr int kNumFaultKinds = 9;

// Stable short name ("guest-trap", "runaway", ...) used as the HTTP 500
// reason phrase and in bench/test output.
const char* FaultKindName(FaultKind kind);

// One injection rule.  Exactly one trigger applies: if `at_invocation` is
// set (!= kNever) the rule fires on that global invocation index; otherwise
// it fires per-invocation with `probability`.  `key` scopes the rule to one
// virtine key ("" = any key).
struct FaultRule {
  static constexpr uint64_t kNever = UINT64_MAX;

  FaultKind kind = FaultKind::kNone;
  std::string key;                    // "" = any key
  uint64_t at_invocation = kNever;    // exact global invocation index
  double probability = 0.0;           // used when at_invocation == kNever
};

// A seedable, declarative fault schedule handed to RuntimeOptions.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  // Convenience builders.
  static FaultRule At(FaultKind kind, uint64_t invocation, std::string key = "");
  static FaultRule Probability(FaultKind kind, double p, std::string key = "");
};

// True for the fault kinds where the guest never observably ran: the shell
// died before the invocation had any externally visible effect (worker death
// pre-dispatch, a snapshot that failed its checksum before restore).  Only
// these are safe to retry even for idempotent keys — a kGuestTrap may have
// fired halfway through the guest's own side effects.
inline bool IsRecoverableFault(FaultKind kind) {
  return kind == FaultKind::kWorkerDeath || kind == FaultKind::kPoisonedSnapshot;
}

// Per-key circuit breaker position.  kClosed admits everything; kOpen sheds
// everything (fast-429 upstream); kHalfOpen admits a single probe and sheds
// the rest until the probe resolves.
enum class BreakerState : uint8_t {
  kClosed = 0,
  kOpen,
  kHalfOpen,
};

// Recovery settings: the `recovery` field of AdmissionOptions (admission.h).
// AdmissionPolicy runs the EWMA and breaker, the executor applies retry-once
// on both of its clocks, and the HTTP front end reads retry_after_s.  All breaker transitions are driven by
// counts (attempts observed, requests shed), never wall-clock time, so a
// fixed submission order reproduces the same open/half-open/close sequence.
struct RecoveryOptions {
  // Keys whose handlers are declared side-effect free.  Only these are
  // eligible for the automatic retry-once on a recoverable fault.
  std::set<std::string> idempotent_keys;

  // Per-key fault-rate EWMA: rate' = alpha * faulted + (1 - alpha) * rate,
  // fed once per *attempt* (a retried invocation contributes both attempts,
  // so a retry-masked storm still trips the breaker).
  double breaker_alpha = 0.2;

  // Master switch for the breaker.  Retry-once is governed solely by
  // `idempotent_keys`; the two mechanisms compose but do not require each
  // other.
  bool breaker_enabled = false;

  // Closed -> open when the EWMA reaches the threshold after at least
  // `breaker_min_samples` attempts have been observed for the key.
  double breaker_open_threshold = 0.5;
  uint64_t breaker_min_samples = 8;

  // Open -> half-open after this many requests for the key have been shed.
  // A count, not a clock: under load it behaves like a cooldown proportional
  // to the key's arrival rate, and under a deterministic replay it is exact.
  uint64_t breaker_open_sheds = 16;

  // Seconds advertised in the Retry-After header on a breaker-shed 429.
  int retry_after_s = 1;

  bool IsIdempotent(const std::string& key) const {
    return idempotent_keys.count(key) != 0;
  }
};

struct FaultInjectorStats {
  uint64_t invocations = 0;  // invocations that consulted the injector
  uint64_t armed = 0;        // invocations where a rule fired
  uint64_t injected[kNumFaultKinds] = {};  // faults actually delivered, by kind
};

// Thread-safe: Arm() is called concurrently from every invocation lane.
// Determinism under concurrency: the trigger for a probabilistic rule is a
// pure function of (seed, invocation index, rule index), so a fixed
// submission order reproduces the same injection set regardless of lane
// interleaving.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Consults the plan for the next invocation (key = the virtine's key) and
  // returns the fault to inject, or kNone.  First matching rule wins.
  FaultKind Arm(const std::string& key);

  // Records that an armed fault was actually delivered.
  void RecordInjected(FaultKind kind);

  FaultInjectorStats stats() const;

 private:
  FaultPlan plan_;
  std::atomic<uint64_t> next_invocation_{0};
  std::atomic<uint64_t> armed_{0};
  std::atomic<uint64_t> injected_[kNumFaultKinds] = {};
};

}  // namespace wasp

#endif  // SRC_WASP_FAULT_H_
