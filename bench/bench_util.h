// Shared helpers for the table/figure reproduction binaries.
//
// Every binary prints (a) a header identifying the paper artifact it
// regenerates, (b) a table whose rows mirror the paper's, and (c) where the
// paper states a quantitative claim, the measured counterpart.  Latencies
// appear in two currencies: modeled cycles at the 2.69 GHz reference clock
// (deterministic, machine-independent) and measured wall time of the real
// host work.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/log.h"
#include "src/base/stats.h"
#include "src/base/table.h"
#include "src/wasp/pool.h"

namespace benchutil {

inline void Header(const std::string& artifact, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline std::string Cycles(double cycles) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", cycles);
  return buf;
}

inline std::string Us(double cycles) { return vbase::Fmt(vbase::CyclesToMicros(
    static_cast<uint64_t>(cycles)), 1); }

// Asserts the residency conservation invariant on a quiescent pool: the
// per-generation rows sum to the affine_resident_bytes gauge, and so does
// the gauge's shared + private split.  Returns the gauge.
inline uint64_t CheckedResident(const wasp::Pool& pool, int* failures) {
  const wasp::AffineAccounting acct = pool.affine_accounting();
  const wasp::PoolStats stats = pool.stats();
  const uint64_t split = stats.affine_shared_bytes + stats.affine_private_bytes;
  if (stats.affine_resident_bytes != acct.resident_bytes || split != acct.resident_bytes) {
    std::printf("FAIL: residency conservation violated (gauge %llu, shared + private %llu, "
                "rows %llu)\n",
                static_cast<unsigned long long>(stats.affine_resident_bytes),
                static_cast<unsigned long long>(split),
                static_cast<unsigned long long>(acct.resident_bytes));
    ++*failures;
  }
  return stats.affine_resident_bytes;
}

}  // namespace benchutil

#endif  // BENCH_BENCH_UTIL_H_
