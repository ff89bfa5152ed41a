#include "src/wasp/fault.h"

namespace wasp {
namespace {

// splitmix64: the standard 64-bit finalizer.  Good enough to turn
// (seed, invocation, rule) into an independent uniform draw, and — unlike a
// shared PRNG stream — stateless, so concurrent lanes stay deterministic.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform draw in [0, 1) from the rule's coordinates.
double Draw(uint64_t seed, uint64_t invocation, uint64_t rule) {
  const uint64_t h = Mix64(seed ^ Mix64(invocation ^ Mix64(rule + 1)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kGuestTrap:
      return "guest-trap";
    case FaultKind::kPolicyDenied:
      return "policy-denied";
    case FaultKind::kIllegalHypercall:
      return "illegal-hypercall";
    case FaultKind::kHypercallError:
      return "hypercall-error";
    case FaultKind::kOversizedReply:
      return "oversized-reply";
    case FaultKind::kPoisonedSnapshot:
      return "poisoned-snapshot";
    case FaultKind::kRunaway:
      return "runaway";
    case FaultKind::kWorkerDeath:
      return "worker-death";
  }
  return "unknown";
}

FaultRule FaultPlan::At(FaultKind kind, uint64_t invocation, std::string key) {
  FaultRule rule;
  rule.kind = kind;
  rule.key = std::move(key);
  rule.at_invocation = invocation;
  return rule;
}

FaultRule FaultPlan::Probability(FaultKind kind, double p, std::string key) {
  FaultRule rule;
  rule.kind = kind;
  rule.key = std::move(key);
  rule.probability = p;
  return rule;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

FaultKind FaultInjector::Arm(const std::string& key) {
  const uint64_t invocation = next_invocation_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.kind == FaultKind::kNone) continue;
    if (!rule.key.empty() && rule.key != key) continue;
    const bool fires =
        rule.at_invocation != FaultRule::kNever
            ? invocation == rule.at_invocation
            : rule.probability > 0.0 && Draw(plan_.seed, invocation, i) < rule.probability;
    if (fires) {
      armed_.fetch_add(1, std::memory_order_relaxed);
      return rule.kind;
    }
  }
  return FaultKind::kNone;
}

void FaultInjector::RecordInjected(FaultKind kind) {
  injected_[static_cast<size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
}

FaultInjectorStats FaultInjector::stats() const {
  FaultInjectorStats s;
  s.invocations = next_invocation_.load(std::memory_order_relaxed);
  s.armed = armed_.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumFaultKinds; ++i) {
    s.injected[i] = injected_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace wasp
