#!/usr/bin/env bash
# Tier-1 gate: configure + build + ctest in one command.
#
#   ./ci.sh             # normal mode (warnings allowed) + the perfbench modeled-metric
#                       # gate, fig9/12/13/14/15/16/17/sec64 smokes and the quickstart,
#                       # HTTP server, JS UDF and AES pipeline examples
#   STRICT=1 ./ci.sh    # -Werror: any warning fails the build
#   TSAN=1 ./ci.sh      # ThreadSanitizer build; runs the threaded wasp/net tests
#   ASAN=1 ./ci.sh      # Address+UBSanitizer build; runs the snapshot/memory tests
#   SOAK=1 ./ci.sh      # default lane + the full fig17 chaos/soak run (longer)
#   BUILD_DIR=out ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

WERROR=OFF
if [[ "${STRICT:-0}" == "1" ]]; then
  WERROR=ON
fi

# Counts the gtest cases a binary would run (indented lines of --gtest_list_tests
# are cases; unindented ones are suites), so the per-lane summary makes a shrunk
# lane visible in the log.
count_gtests() {
  "$1" --gtest_list_tests 2>/dev/null | grep -c '^  ' || true
}

if [[ "${TSAN:-0}" == "1" ]]; then
  # ThreadSanitizer gate for the concurrent invocation engine (lock-free
  # shell fast path: lane caches + tagged Treiber stacks, cleaner crew,
  # executor, governance layer, the admission differential of the
  # executor's worker threads against Executor::RunVirtual).
  # test_wasp_concurrency carries the stress suite — the mixed-op
  # conservation stress and the Treiber-stack ABA/conservation regressions
  # run under TSan here.  Separate build dir: TSan objects don't mix.
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  TSAN_TESTS=(test_wasp test_wasp_concurrency test_snapshot_engine test_governance
              test_net test_http_server_concurrency test_fault_injection test_recovery
              test_listener test_admission)
  cmake -B "$BUILD_DIR" -S . -DVIRTINES_WERROR="$WERROR" \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TSAN_TESTS[@]}"
  total=0
  for t in "${TSAN_TESTS[@]}"; do
    (cd "$BUILD_DIR" && "./$t")
    total=$((total + $(count_gtests "$BUILD_DIR/$t")))
  done
  echo "[ci] tsan lane: ${#TSAN_TESTS[@]} binaries, ${total} gtest cases"
  exit 0
fi

if [[ "${ASAN:-0}" == "1" ]]; then
  # Address+UBSan gate for the memory-heavy paths: COW extent buffers and
  # the epoch bitmaps that track privatized pages, snapshot
  # capture/re-capture/restore (COW map and delta repair), pool
  # residency accounting — and the compiler: vcc's parser, register
  # allocator and code generator, the vrt runtime library, and the codegen
  # differential oracle — and the HTTP guests driven directly through
  # HandleConnection (pipelining, bodies, streamed files, exit counts) and
  # through the executor-backed server's SubmitConnection (shedding, faults,
  # drain-on-destruction) — and the admission policy (differential and
  # property tests) — and both
  # managed guests (microjs engine, AES) through Invoke, whose restores write
  # each call's input into guest memory before the first vmrun — and the
  # microjs engine's oracle, whose scripts EngineSource decodes on the host
  # (malformed ones included, in test_aes_js) before the engine runs them.
  # _GLIBCXX_ASSERTIONS makes an out-of-range std::vector/std::string index
  # abort at its own line, even when the read stays inside the allocation
  # where ASan cannot see it.
  # Separate build dir: sanitizer objects don't mix.
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  ASAN_TESTS=(test_snapshot_engine test_wasp test_wasp_concurrency test_governance
              test_cpu test_isa test_fault_injection test_recovery test_listener
              test_net test_http_server_concurrency test_vcc test_vcc_deep test_vcc_oracle
              test_vrt test_admission test_aes_js test_vjs_oracle)
  cmake -B "$BUILD_DIR" -S . -DVIRTINES_WERROR="$WERROR" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${ASAN_TESTS[@]}"
  total=0
  for t in "${ASAN_TESTS[@]}"; do
    (cd "$BUILD_DIR" && "./$t")
    total=$((total + $(count_gtests "$BUILD_DIR/$t")))
  done
  echo "[ci] asan lane: ${#ASAN_TESTS[@]} binaries, ${total} gtest cases"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . -DVIRTINES_WERROR="$WERROR"
cmake --build "$BUILD_DIR" -j"$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")
# Modeled-metric gate: perfbench's three workloads, 1 s each on a fixed seed,
# untraced and traced; fails (non-zero) if a run is incorrect or fails an op,
# if modeled cycles, exits, guest instructions, restored KB or host cycles
# per op, or the HTTP server's exits per request, differ from
# tools/modeled_expected.json (old -> new is printed), or
# if fn_b64's untraced peak RSS exceeds 10 MB (guest memory resident only
# where touched; the other wall metrics are printed, not gated).  The
# measured values land in
# $BUILD_DIR/modeled_measured.json: a change that moves a number on purpose
# copies that file over the expected one.
CARGO_TARGET_DIR="$BUILD_DIR" python3 tools/check_modeled.py > "$BUILD_DIR/modeled_measured.json"
# Multicore throughput + lock-free acquire smoke, swept to 16 lanes (the
# makespan from the executor in virtual time, the acquire path from a
# threaded executor): fails (non-zero) if pooled-async scaling drops below
# the 4x-at-8-threads floor,
# if fewer than 95% of steady-state acquires are served lock-free (lane
# cache + Treiber free-list), or if acquire p99 at 16 lanes grows past
# max(2x the 1-lane p99, the scheduler-noise floor) — the lock-free fast
# path cannot silently regress back onto the shard mutex.
(cd "$BUILD_DIR" && ./fig9_multicore_scaling --quick)
# Delta-restore + COW-density smoke: fails (non-zero) if affine warm snapshot
# restore cost ever scales with image size again (16 MB vs 64 KB image at a
# fixed working set must stay under 1.5x), or if 64 parked COW shells of one
# 16 MB generation ever cost 2x the 1-shell resident baseline (shared extents
# must keep fleet residency O(image + working sets)).
(cd "$BUILD_DIR" && ./fig12_image_size --quick)
# Concurrent-serving smoke: a small 2-lane run of the executor-backed HTTP
# server in all three modes, then a real-socket sweep through the epoll
# listener; fails (non-zero) on any wrong response, admission-counter
# mismatch, or if HTTP keep-alive stops paying (a snapshot-mode request at
# 8 requests/connection must cost fewer modeled cycles than one at
# connection-per-request; wall socket RPS is printed, not gated).  Each
# sweep starts from settled lanes and runs every snapshot-mode point twice;
# the run fails unless both agree exactly on modeled cycles and exits per
# request, so the gate's two readings repeat run to run.
(cd "$BUILD_DIR" && ./fig13_http_server --quick)
# Seven-interaction smoke: the HTTP example serves three requests through
# Figure 13's single-shot guest in all three modes; fails (non-zero) if any
# serve returns an error.
(cd "$BUILD_DIR" && ./example_http_server)
# Managed-runtime smoke: the microjs engine (running the script EngineSource
# decoded on the host into [op, operand] word pairs, with its state in
# registers) base64-encodes a 384 B payload in all four fig14 variants, with
# and without teardown; fails (non-zero) if any output differs from
# HostBase64, if a variant's warm exit count varies between calls, or if the
# engine reports no native baseline.
(cd "$BUILD_DIR" && ./fig14_js_virtines)
# Serverless UDF example: Vespid registers the base64 microjs function and
# invokes it cold and twice warm; fails (non-zero) if any output differs from
# HostBase64.
(cd "$BUILD_DIR" && ./example_js_udf)
# Restore-path examples: quickstart calls fib(10) cold (boot + snapshot), then
# fib(20) and fib(25) from the snapshot, and the AES pipeline encrypts cold
# and then from a snapshot restore; each fails (non-zero) if a result differs
# from the host's (fib, vaes::EncryptCbc).
(cd "$BUILD_DIR" && ./example_quickstart)
(cd "$BUILD_DIR" && ./example_aes_pipeline)
# Table-indexing smoke: the AES guest, whose S-box and round-key lookups are
# the heaviest array indexing any vcc-compiled guest does, CBC-encrypts five
# sizes from 16 B to 16 KB in a snapshotted virtine; fails (non-zero) if any
# ciphertext differs from the host's vaes::EncryptCbc or if the warm exit
# count varies between sizes.
(cd "$BUILD_DIR" && ./sec64_aes_throughput)
# Serverless smoke: the fig15 bursty trace through Vespid on the executor in
# virtual time; fails (non-zero) unless every trace arrival is served
# without a fault and a second replay on a fresh runtime prints an
# identical Vespid timeline.
(cd "$BUILD_DIR" && ./fig15_serverless)
# Governance smoke: the fig16 gates on a shortened trace, each discipline
# on a fresh runtime through the executor in virtual time — per-key quota
# bounds the interactive key's p99 queue wait within 2x of isolation at
# <10% aggregate RPS cost, COW extents keep 64 keys warm (>10x the
# full-copy capacity) under the same budget with zero evictions through a
# recapture/retire loop, and three-tier key_quota_overrides order admission
# monotonically (premium > standard > free) under one identical flood.
(cd "$BUILD_DIR" && ./fig16_multitenant --quick)
# Chaos smoke: fig17's containment/storm/soak/recovery gates on shortened
# runs — every injected FaultKind classifies and quarantines (no faulted
# shell is ever re-acquired affine, the quarantine ledger balances), a fault
# storm on one key keeps the co-tenant's p99 within 2x of fault-free (storm
# and control on fresh runtimes through the executor in virtual time, at a
# load that queues the co-tenant in the control), a
# paced soak through a threaded executor leaves zero gauge drift and zero
# resident bytes after retirement, and the phase-4 recovery run gates the
# circuit breaker's goodput at >= 1.5x the breaker-off run under the same
# 33% storm (with retry-exactly-once accounting conserved at every
# observation).
(cd "$BUILD_DIR" && ./fig17_chaos --quick)
# SOAK=1: the full chaos + wall-clock soak run (minutes, not seconds) —
# same gates, more rounds, real pacing — plus a wall-clock-paced keep-alive
# soak of the socket front end in every serve mode.
if [[ "${SOAK:-0}" == "1" ]]; then
  (cd "$BUILD_DIR" && ./fig17_chaos --soak)
  (cd "$BUILD_DIR" && ./fig13_http_server --soak)
fi
# Per-lane coverage summary: the ctest suite count plus per-binary gtest
# case totals, so a lane silently losing tests shows up in the log.
suites=$(cd "$BUILD_DIR" && ctest -N | tail -n1 | tr -dc '0-9')
cases=0
for t in "$BUILD_DIR"/test_*; do
  [[ -x "$t" ]] || continue
  cases=$((cases + $(count_gtests "$t")))
done
echo "[ci] default lane: ${suites} ctest suites, ${cases} gtest cases, modeled gate," \
     "8 bench smokes, 4 examples"
