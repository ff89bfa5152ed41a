#include "src/wasp/admission.h"

#include "src/base/log.h"

namespace wasp {

// Returns false to shed; on an admit, sets *probe when this request is the
// key's half-open probe.
bool AdmissionPolicy::BreakerAdmits(KeyState& key, bool* probe) {
  BreakerState& state = key.recovery.state;
  if (state == BreakerState::kClosed) {
    return true;
  }
  // Count-based cooldown: an open breaker sheds breaker_open_sheds requests
  // before the next one becomes the probe.  Counting requests instead of
  // wall time keeps replays deterministic and makes the cooldown
  // proportional to the key's own arrival rate.
  if (state == BreakerState::kOpen && key.sheds < options_.recovery.breaker_open_sheds) {
    ++key.sheds;
    return false;
  }
  if (key.probe_in_flight) {
    return false;  // half-open: one probe at a time, everything else sheds
  }
  state = BreakerState::kHalfOpen;
  key.probe_in_flight = true;
  *probe = true;
  return true;
}

Admission AdmissionPolicy::Admit(const std::string& key, size_t queued, bool* probe) {
  *probe = false;
  // Breaker first: an open breaker is the cheapest possible shed.  A key
  // with no ledger yet has no evidence and is closed by definition.
  auto it = key.empty() ? keys_.end() : keys_.find(key);
  if (options_.recovery.breaker_enabled && it != keys_.end() &&
      !BreakerAdmits(it->second, probe)) {
    return Admission::kCircuitOpen;
  }
  // Quota before the global bound: the per-key signal (429, back off) beats
  // the global one (503, the server is full).
  Admission verdict = Admission::kAccepted;
  if (!UnderQuota(key)) {
    verdict = Admission::kQuotaExceeded;
  } else if (options_.max_queue_depth > 0 && queued >= options_.max_queue_depth) {
    verdict = Admission::kQueueFull;
  }
  if (verdict != Admission::kAccepted) {
    Withdraw(key, *probe);
    *probe = false;
  }
  return verdict;
}

bool AdmissionPolicy::UnderQuota(const std::string& key) const {
  const size_t quota = key.empty() ? 0 : options_.QuotaFor(key);
  return quota == 0 || Load(key) < quota;
}

void AdmissionPolicy::Withdraw(const std::string& key, bool probe) {
  // Without this hand-back the breaker would wait forever on a probe that
  // never ran.
  if (!probe) {
    return;
  }
  auto it = keys_.find(key);
  if (it != keys_.end()) {
    it->second.probe_in_flight = false;
  }
}

void AdmissionPolicy::OnEnqueue(const std::string& key) {
  if (!key.empty()) {
    ++keys_[key].load;
  }
}

KeyClass AdmissionPolicy::PickNext(std::optional<uint64_t> latency_head,
                                   std::optional<uint64_t> batch_head) {
  if (!latency_head || !batch_head) {
    return latency_head ? KeyClass::kLatency : KeyClass::kBatch;
  }
  const int weight = options_.BatchWeight();
  if (weight <= 0) {
    // Ungoverned: strict FIFO across classes by submission order.
    return *latency_head < *batch_head ? KeyClass::kLatency : KeyClass::kBatch;
  }
  // Weighted priority: latency first, but one batch job per `weight`
  // contended dequeues, so batch cannot starve.
  if (batch_credit_ >= weight - 1) {
    batch_credit_ = 0;
    return KeyClass::kBatch;
  }
  ++batch_credit_;
  return KeyClass::kLatency;
}

void AdmissionPolicy::Open(KeyState& key) {
  key.recovery.state = BreakerState::kOpen;
  key.sheds = 0;
  ++key.recovery.opens;
  ++breaker_opens_;
}

void AdmissionPolicy::Record(KeyState& key, bool faulted, bool probe) {
  const RecoveryOptions& ro = options_.recovery;
  KeyRecoverySnapshot& r = key.recovery;
  r.fault_rate =
      ro.breaker_alpha * (faulted ? 1.0 : 0.0) + (1.0 - ro.breaker_alpha) * r.fault_rate;
  ++r.samples;
  if (!ro.breaker_enabled) {
    return;  // EWMA tracking is unconditional; the state machine is opt-in
  }
  if (probe) {
    key.probe_in_flight = false;
    if (faulted) {
      Open(key);
    } else {
      // Clean probe: close and forget.  The EWMA resets so re-tripping needs
      // fresh consecutive evidence, not the tail of the old storm.
      r.state = BreakerState::kClosed;
      r.fault_rate = 0.0;
    }
    return;
  }
  if (r.state == BreakerState::kClosed && r.samples >= ro.breaker_min_samples &&
      r.fault_rate >= ro.breaker_open_threshold) {
    Open(key);
  }
}

void AdmissionPolicy::OnRetry(const std::string& key) {
  if (!key.empty()) {
    Record(keys_[key], /*faulted=*/true, /*probe=*/false);
  }
}

void AdmissionPolicy::OnComplete(const std::string& key, bool faulted, bool probe) {
  if (key.empty()) {
    return;
  }
  KeyState& state = keys_[key];
  VB_CHECK(state.load > 0, "AdmissionPolicy::OnComplete without OnEnqueue for " << key);
  Record(state, faulted, probe);
  --state.load;
}

size_t AdmissionPolicy::Load(const std::string& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? 0 : it->second.load;
}

KeyRecoverySnapshot AdmissionPolicy::Recovery(const std::string& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? KeyRecoverySnapshot{} : it->second.recovery;
}

}  // namespace wasp
