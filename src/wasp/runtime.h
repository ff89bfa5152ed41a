// wasp::Runtime — the embeddable virtine hypervisor (the paper's Wasp).
//
// A host program (the "virtine client") links against this library and
// invokes individual functions in isolated virtual-machine contexts.  The
// runtime owns:
//   * a shell Pool (cached VM contexts, optionally cleaned asynchronously),
//   * a SnapshotStore (post-boot/post-init images keyed per virtine),
//   * the canned hypercall handlers (console, POSIX-like file I/O and
//     readfile against a sandboxed HostEnv, send/recv/send_recv against a
//     ByteChannel, snapshot, get_data/return_data and the folds
//     snapshot_get_data/snapshot_recv/return_exit/send_exit), which see only host
//     copies of their arguments (one marshal step moves their guest
//     bytes), and
//   * the default-deny policy enforcement: a hypercall whose policy bit is
//     clear terminates the virtine.
//
// The per-invocation flow matches Figure 6/7 of the paper: acquire a shell
// (pool hit or fresh create), either load the image and boot it or restore a
// snapshot (COW-map it onto a clean shell, or repair a snapshot-affine shell
// that already maps it), marshal arguments into the argument page, complete
// the input call a restored snapshot was captured inside of, run until exit
// while interposing on every hypercall, harvest results, release the shell
// for cleaning and reuse.
#ifndef SRC_WASP_RUNTIME_H_
#define SRC_WASP_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/wasp/abi.h"
#include "src/wasp/channel.h"
#include "src/wasp/fault.h"
#include "src/wasp/host_env.h"
#include "src/wasp/pool.h"
#include "src/wasp/snapshot.h"
#include "src/vkvm/vkvm.h"

namespace wasp {

// Per-invocation measurements.
struct InvokeStats {
  uint64_t guest_cycles = 0;   // modeled cycles executed in the guest
  uint64_t host_cycles = 0;    // modeled host-side charges (create/vmrun/memcpy)
  uint64_t total_cycles = 0;   // guest + host
  uint64_t io_exits = 0;       // hypercall exits taken
  // Guest cycles the vCPU charged for VM exits and re-entries (port-I/O
  // exit and entry, hlt): what a de-isolated run of the same guest work
  // would not pay.
  uint64_t exit_cycles = 0;
  uint64_t insns = 0;          // guest instructions retired
  bool from_pool = false;      // shell came from the pool
  bool restored_snapshot = false;
  // A restore takes exactly one of two paths.  affine_restore: it ran on a
  // snapshot-affine shell and repaired only the pages the previous tenant
  // dirtied (delta restore) instead of the whole image.
  bool affine_restore = false;
  // mapped_cow: it mapped the snapshot's shared COW extent buffer onto a
  // clean shell instead of copying it: the shell reads the image through the
  // shared buffer and privatizes pages on write, so it is charged
  // O(extents) to restore and O(working set) to stay parked.
  bool mapped_cow = false;
  // Bytes the restore copied or zeroed: the dirty delta for an affine
  // restore, zero for a COW map.
  uint64_t restored_bytes = 0;
  bool took_snapshot = false;
  uint64_t acquire_ns = 0;     // wall: shell acquisition
  uint64_t load_ns = 0;        // wall: image load or snapshot restore
  uint64_t run_ns = 0;         // wall: vCPU execution + hypercall handling
  uint64_t total_ns = 0;       // wall: whole Invoke()
};

// The result of one virtine invocation.
struct RunOutcome {
  vbase::Status status;          // non-OK on fault, denial, or handler error
  // Structured classification of why the invocation died (kNone = it
  // completed; the status may still be non-OK for host-side errors like a
  // failed image load, which do not quarantine the shell).  The status
  // message keeps the human-readable detail for logs.
  FaultKind fault = FaultKind::kNone;
  bool denied = false;           // a hypercall was denied by policy
  uint64_t exit_code = 0;        // from exit, return_exit or send_exit (0 for plain hlt)
  uint64_t result_word = 0;      // argument-page word 0 (the return value)
  std::string console;           // bytes written via the console hypercall
  std::vector<uint8_t> output;   // bytes returned via return_data/return_exit/send_exit
  std::vector<uint8_t> fd_writes;  // bytes written via the write hypercall
  // Set by the executor's recovery layer: this outcome is the second attempt
  // of a retried job, and `first_fault` is what killed the first attempt.
  bool retried = false;
  FaultKind first_fault = FaultKind::kNone;
  InvokeStats stats;
};

class Runtime;
struct HostCall;

// Context handed to hypercall handlers.
struct HypercallFrame {
  vkvm::Vm& vm;
  Runtime& runtime;
  const struct VirtineSpec& spec;
  RunOutcome& outcome;
  // Hypercall arguments are registers r1..r3.
  uint64_t arg(int i) const { return vm.cpu().reg(1 + i); }
  // The register that receives the current call's result: r0 for `out`,
  // the operand of `in`.
  uint8_t result_reg = 0;
  // Set by handlers to finish the invocation after this hypercall.
  bool request_exit = false;
  // Once-only bookkeeping (Section 6.5: "snapshot and get_data cannot be
  // called more than once").
  bool snapshot_taken = false;
  bool data_fetched = false;
  // Generation of the snapshot this invocation left resident in the shell
  // (set when this run's snapshot hypercall captured and published one, and
  // the shell adopted its extent buffer as its COW base); the release path
  // parks the shell snapshot-affine under it.
  uint64_t resident_generation = 0;
  // Structured fault classification set by handlers (e.g. an oversized
  // reply); folded into the outcome when the dispatch fails.
  FaultKind fault = FaultKind::kNone;
  // Chaos injection: the next reply (wasp::IsReply: return_data's,
  // return_exit's or send_exit's output bytes) is treated as exceeding the
  // I/O ceiling regardless of its actual length.
  bool inject_oversized_reply = false;
  // The sandboxed filesystem the file hypercalls read (the spec's override
  // or the runtime's own), and the per-invocation fd table over it.
  HostEnv* env;
  FdTable fds;

  HypercallFrame(vkvm::Vm& v, Runtime& r, const struct VirtineSpec& s, RunOutcome& o,
                 HostEnv* e)
      : vm(v), runtime(r), spec(s), outcome(o), env(e), fds(e) {}
};

// A client-provided hypercall handler: returns the value placed in r0, or an
// error status that terminates the virtine.
using HypercallHandler = std::function<vbase::Result<int64_t>(HypercallFrame&)>;

// Everything needed to run one virtine.
struct VirtineSpec {
  // The guest binary.  Must outlive the invocation.
  const visa::Image* image = nullptr;
  // Identity for snapshot caching; virtines sharing a key share snapshots.
  std::string key;
  uint64_t mem_size = 1ULL << 20;
  // Word size (bytes) of the environment's final execution mode; governs the
  // argument-page slot layout (8 for long64, 4 for prot32, 2 for real16).
  int word_bytes = 8;
  // Hypercall policy bits (default-deny; kHcExit is always permitted).
  HypercallMask policy = kPolicyDenyAll;
  // Use the snapshotting fast path (take on first run, restore afterwards).
  bool use_snapshot = false;
  // Whether the CRT issues the snapshot hypercall right after boot (the
  // language-extension default).  Guests that pick their own snapshot point
  // — e.g. the microjs engine snapshots after engine init, Section 6.5 —
  // set this false and call the hypercall themselves.
  bool crt_snapshot = true;
  // Pre-marshalled argument page, written at guest physical 0 (see abi.h).
  std::vector<uint8_t> args_page;
  // Input payload served by get_data (or snapshot_get_data, including the
  // pending one a restore completes).
  const std::vector<uint8_t>* input = nullptr;
  // Guest-side channel endpoint for send/recv (not owned).
  ByteChannel::Endpoint* channel = nullptr;
  // Host filesystem sandbox override (defaults to the runtime's).
  HostEnv* env = nullptr;
  // Client-defined hypercall handlers, keyed by port; these take precedence
  // over canned handlers but are still subject to the policy mask.
  std::map<uint16_t, HypercallHandler> handlers;
  // Watchdog: maximum guest instructions per invocation.
  uint64_t max_insns = 2'000'000'000;
  // Force a fresh, non-affine shell for this invocation: never reuse a
  // parked snapshot-affine sibling, COW-map the snapshot onto a clean shell
  // instead.  Set by the executor's retry path — the faulted attempt's shell
  // is quarantined, and an affine sibling could share whatever state killed
  // it — and usable by callers that want a known-cold invocation.
  bool fresh_shell = false;
};

struct RuntimeOptions {
  CleanMode clean_mode = CleanMode::kSync;
  vkvm::VmConfig vm_defaults;
  // Resident-byte budget for the pool's parked snapshot-affine shells
  // (generation-LRU eviction when exceeded); 0 = unlimited.
  uint64_t affine_budget_bytes = 0;
  // Deterministic fault injection (chaos testing): rules fire at exact
  // invocation indices or with seeded probabilities.  Empty = no injection
  // (zero cost on the invoke path).
  FaultPlan fault_plan;
  // Verify the snapshot checksum on every restore; a mismatch classifies as
  // kPoisonedSnapshot and quarantines the shell.  Off by default: snapshots
  // are immutable in-process, so this guards against bugs, not physics.
  bool verify_restores = false;
};

// What Runtime::RecaptureSnapshot did.
struct RecaptureOutcome {
  enum class Status {
    kRecaptured,   // the drifted view was published under a new generation
    kNoSnapshot,   // the key has no snapshot to re-capture
    kNoWarmShell,  // nothing parked under the generation: no drift to fold
    kNoDrift,      // a warm shell existed but wrote nothing since restore
  };
  Status status = Status::kNoSnapshot;
  uint64_t old_generation = 0;
  uint64_t new_generation = 0;
  uint64_t delta_bytes = 0;  // drift folded in: the shell's epoch-dirty bytes
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs one virtine to completion (synchronous, like a function call).
  // Thread-safe: concurrent Invokes share only the sharded pool and the
  // read-mostly snapshot store.
  RunOutcome Invoke(const VirtineSpec& spec);

  // Retires `key`'s snapshot: drops it from the store and eagerly reclaims
  // every pool shell parked under its generation (cleaner crew in async
  // mode).  The next snapshot-enabled invocation of the key re-captures —
  // the re-snapshot lifecycle for long-lived services whose warm state
  // drifts (e.g. after JIT warm-up).
  void RetireSnapshot(const std::string& key);

  // Re-snapshots `key`'s warmed service: steals one shell parked under the
  // current generation, captures its view — the parent's pages plus its
  // post-restore drift (epoch-dirty pages) — as one flat snapshot
  // (CaptureOver), publishes it under a fresh generation, retires the old
  // one, and re-parks the shell under the new one.  Long-lived services
  // whose warm state accretes (JIT caches, memo tables) fold the drift in
  // without re-running their initialization.  Only sound when runs leave
  // memory valid to resume from the original snapshot point (the re-capture
  // keeps the parent's CPU state).
  RecaptureOutcome RecaptureSnapshot(const std::string& key);

  Pool& pool() { return pool_; }
  SnapshotStore& snapshots() { return snapshots_; }
  HostEnv& env() { return env_; }
  const RuntimeOptions& options() const { return options_; }
  // Null when no fault plan is configured.
  FaultInjector* fault_injector() { return injector_.get(); }

  // Builds a VmConfig for `mem_size` from the runtime defaults.
  vkvm::VmConfig MakeVmConfig(uint64_t mem_size) const;

 private:
  // Lays `snap` into the shell and begins its delta epoch.  Two paths:
  // `affine` repairs only the epoch-dirty pages of a shell that already maps
  // the snapshot (charged per byte repaired); otherwise the clean shell
  // *maps* the shared COW extent buffer (charged per extent mapped).
  void RestoreSnapshot(vkvm::Vm& vm, const Snapshot& snap, bool affine,
                       InvokeStats* stats);
  // The snapshot half of snapshot/snapshot_get_data/snapshot_recv: once per
  // invocation; when the spec snapshots and its key has none, captures the
  // VM's state (dirty pages + CPU + `pending`), charges the copy and
  // publishes it.
  vbase::Status SnapshotOnce(HypercallFrame& frame, PendingCall pending);
  // Serves one call on `port`, at a guest exit or as a restore's pending
  // call: policy check, Dispatch, result into frame.result_reg.  False when
  // it was denied or failed; the outcome then holds the classified fault.
  bool Serve(uint16_t port, HypercallFrame& frame);
  // Runs a client handler on the raw frame, or marshals a canned call by its
  // row's signature (abi.h) around Handle; returns the result register's
  // value or an error.
  vbase::Result<int64_t> Dispatch(uint16_t port, HypercallFrame& frame);
  // The canned handler for `port`: a function of the host values in `call`
  // that never touches guest memory.
  vbase::Result<int64_t> Handle(uint16_t port, HypercallFrame& frame, HostCall& call);

  RuntimeOptions options_;
  Pool pool_;
  SnapshotStore snapshots_;
  HostEnv env_;
  // Non-null iff options_.fault_plan has rules.
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace wasp

#endif  // SRC_WASP_RUNTIME_H_
