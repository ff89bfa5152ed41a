#include "src/wasp/runtime.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "src/base/clock.h"
#include "src/base/log.h"

namespace wasp {
namespace {

// "send_recv (34)" for a port in the hypercall table, "port 40" otherwise.
std::string PortLabel(uint16_t port) {
  const char* name = HypercallName(port);
  return name != nullptr ? std::string(name) + " (" + std::to_string(port) + ")"
                         : "port " + std::to_string(port);
}

PoolOptions MakePoolOptions(const RuntimeOptions& options) {
  PoolOptions pool;
  pool.mode = options.clean_mode;
  pool.affine_budget_bytes = options.affine_budget_bytes;
  return pool;
}

}  // namespace

// One canned call as host values.  The marshal step fills the arguments the
// row's signature names; the handler sets `out` to the bytes it produced, a
// view of host state that outlives the call or of `staging`.
struct HostCall {
  uint64_t word = 0;             // Arg::kWord
  std::string path;              // Arg::kPath
  std::vector<uint8_t> in;       // Arg::kIn: the buffer's bytes
  std::vector<uint8_t> reply;    // Arg::kIn that IsReply names: the output's bytes
  uint64_t cap = 0;              // Arg::kOut: the buffer's cap, clamped to kMaxIoLen
  std::span<const uint8_t> out;  // copied to the kOut buffer or kOutWord
  std::vector<uint8_t> staging;
};

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)), pool_(MakePoolOptions(options_)) {
  if (!options_.fault_plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan);
  }
}

Runtime::~Runtime() = default;

void Runtime::RetireSnapshot(const std::string& key) {
  SnapshotRef old = snapshots_.Take(key);
  if (old != nullptr) {
    pool_.RetireGeneration(old->generation);
  }
}

RecaptureOutcome Runtime::RecaptureSnapshot(const std::string& key) {
  RecaptureOutcome out;
  SnapshotRef parent = snapshots_.Find(key);
  if (parent == nullptr) {
    out.status = RecaptureOutcome::Status::kNoSnapshot;
    return out;
  }
  out.old_generation = parent->generation;
  // A warm shell parked under the current generation is the drift we fold:
  // its memory == parent view + epoch-dirty pages.
  std::unique_ptr<vkvm::Vm> vm = pool_.StealParkedAffine(parent->generation);
  if (vm == nullptr) {
    out.status = RecaptureOutcome::Status::kNoWarmShell;
    out.new_generation = parent->generation;
    return out;
  }
  const uint64_t drift_pages = vm->memory().CountEpochDirtyPages();
  if (drift_pages == 0) {
    // Nothing written since the last restore: the parent still describes
    // the service exactly.  Re-park untouched.
    pool_.ReleaseAffine(std::move(vm), parent->generation);
    out.status = RecaptureOutcome::Status::kNoDrift;
    out.new_generation = parent->generation;
    return out;
  }
  SnapshotRef next = CaptureOver(vm->memory(), *parent);
  out.delta_bytes = drift_pages << vhw::kPageBits;
  out.new_generation = next->generation;
  // Publish the new snapshot, then retire the old generation: any shells
  // still parked under it are reclaimed.
  snapshots_.Put(key, next);
  pool_.RetireGeneration(parent->generation);
  // The stolen shell's memory *is* the new snapshot's view: re-base its COW
  // tracking on the new buffer (no copies, a fresh epoch) and park it warm
  // under the new generation, ready for an affine hit.
  vm->memory().AdoptCowBase(next->extent);
  pool_.ReleaseAffine(std::move(vm), next->generation);
  out.status = RecaptureOutcome::Status::kRecaptured;
  return out;
}

vkvm::VmConfig Runtime::MakeVmConfig(uint64_t mem_size) const {
  vkvm::VmConfig cfg = options_.vm_defaults;
  cfg.mem_size = mem_size;
  return cfg;
}

void Runtime::RestoreSnapshot(vkvm::Vm& vm, const Snapshot& snap, bool affine,
                              InvokeStats* stats) {
  // Lay the snapshot into the shell.  An affine shell already maps the
  // snapshot and only repairs the pages the previous tenant dirtied, so
  // warm restore cost follows the working set, not the image.  A clean
  // shell *maps* the shared COW extent buffer — charged per extent, not per
  // byte — and privatizes pages on write.  Either way memory then equals
  // the snapshot exactly and a fresh epoch has begun, whose dirty set is
  // the next delta restore's work list.  `snap` is immutable and
  // reference-held by the caller, so both paths run without any
  // SnapshotStore lock: concurrent restores of the same key proceed in
  // parallel.
  uint64_t copied = 0;
  if (affine) {
    copied = RestoreDeltaInto(snap, &vm.memory());
    vm.AddHostCycles(static_cast<uint64_t>(
        static_cast<double>(copied) / vm.config().host_costs.memcpy_bytes_per_cycle));
  } else {
    MapCowInto(snap, &vm.memory());
    vm.AddHostCycles(snap.extent->extents.size() * vm.config().host_costs.cow_map_extent);
    stats->mapped_cow = true;
  }
  vm.cpu().RestoreArch(snap.cpu);
  stats->restored_snapshot = true;
  stats->affine_restore = affine;
  stats->restored_bytes = copied;
}

vbase::Status Runtime::SnapshotOnce(HypercallFrame& frame, PendingCall pending) {
  if (frame.snapshot_taken) {
    return vbase::PermissionDenied("snapshot hypercall may only be called once");
  }
  frame.snapshot_taken = true;
  if (frame.spec.use_snapshot && !frame.spec.key.empty() &&
      snapshots_.Find(frame.spec.key) == nullptr) {
    vkvm::Vm& vm = frame.vm;
    SnapshotRef snap = CaptureSnapshot(vm.memory(), vm.cpu().state(), pending);
    // Taking the snapshot is itself a copy; charge it (the paper's Figure 11
    // snapshot bars "include the overhead for taking the initial snapshot").
    vm.AddHostCycles(static_cast<uint64_t>(
        static_cast<double>(snap->byte_size()) /
        vm.config().host_costs.memcpy_bytes_per_cycle));
    // Concurrent cold runs race this publish; only the winner's shell parks
    // snapshot-affine.  A loser's shell holds its *own* capture, not the
    // winner's, so it must go back through the cleaning path — and under a
    // generation the store never published, it would sit stranded in the
    // affine lists until reclaimed.
    SnapshotRef winner = snapshots_.PutIfAbsent(frame.spec.key, snap);
    if (winner == snap) {
      frame.resident_generation = snap->generation;
      frame.outcome.stats.took_snapshot = true;
      // The shell's memory *is* the captured view: adopt the published
      // extent buffer as its COW base (no copies) and begin its epoch, so
      // the rest of this run is tracked as the delta, privatizes on write,
      // and the park charges the working set, not the image.
      vm.memory().AdoptCowBase(snap->extent);
    }
  }
  return vbase::Status::Ok();
}

bool Runtime::Serve(uint16_t port, HypercallFrame& frame) {
  RunOutcome& outcome = frame.outcome;
  // Default-deny: the call needs every policy bit RequiredPolicy names (abi.h).
  const HypercallMask need = RequiredPolicy(port, frame.arg(2));
  if ((frame.spec.policy & need) != need) {
    outcome.denied = true;
    outcome.fault = FaultKind::kPolicyDenied;
    outcome.status = vbase::PermissionDenied(
        "hypercall " + PortLabel(port) + " denied by policy; virtine terminated");
    return false;
  }
  auto result = Dispatch(port, frame);
  if (!result.ok()) {
    // Structured classification: a handler that tagged the frame wins;
    // otherwise an unknown port is an illegal hypercall and anything else is
    // a handler failure.  The message stays for logs.
    if (frame.fault != FaultKind::kNone) {
      outcome.fault = frame.fault;
    } else if (result.status().code() == vbase::Code::kUnimplemented) {
      outcome.fault = FaultKind::kIllegalHypercall;
    } else {
      outcome.fault = FaultKind::kHypercallError;
    }
    outcome.status = result.status();
    return false;
  }
  frame.vm.cpu().set_reg(frame.result_reg, static_cast<uint64_t>(*result));
  return true;
}

vbase::Result<int64_t> Runtime::Dispatch(uint16_t port, HypercallFrame& frame) {
  // Client-defined handlers take precedence (they are what the paper calls
  // the virtine client's hypercall handlers) but obey the same policy mask.
  if (auto it = frame.spec.handlers.find(port); it != frame.spec.handlers.end()) {
    return it->second(frame);
  }
  const HypercallInfo* hc = FindHypercall(port);
  if (hc == nullptr) {
    return vbase::Unimplemented("no handler for hypercall port " + std::to_string(port));
  }
  if ((hc->needs & kPolicyStream) != 0 && frame.spec.channel == nullptr) {
    return vbase::FailedPrecondition(std::string(hc->name) + ": no channel attached");
  }
  // --- The marshal step, the only code that touches guest memory for a
  // canned call: paths and in-buffers are copied in, in argument order,
  // before the handler runs, and only the bytes it produced are copied out
  // after it, so a call walks the guest pages it moves bytes through, in order.
  vkvm::Vm& vm = frame.vm;
  uint64_t words[2 * kMaxArgs] = {frame.arg(0), frame.arg(1), frame.arg(2)};
  if (hc->message) {
    const uint64_t w = static_cast<uint64_t>(vm.cpu().WordSize());
    uint8_t raw[sizeof(words)] = {};
    uint64_t len = 0;  // the message: every argument's words
    for (const Arg arg : hc->args) {
      len += w * static_cast<uint64_t>(ArgWords(arg));
    }
    VB_RETURN_IF_ERROR(vm.ReadVirt(words[0], raw, len));
    for (uint64_t i = 0; i < 2 * kMaxArgs; ++i) {
      words[i] = 0;
      std::memcpy(&words[i], raw + i * w, w);
    }
  }
  HostCall call;
  uint64_t out_va = 0;
  const uint64_t* word = words;
  for (int i = 0; i < kMaxArgs; ++i) {
    switch (hc->args[i]) {
      case Arg::kNone:
        break;
      case Arg::kWord:
        call.word = *word++;
        break;
      case Arg::kPath: {
        auto path = vm.ReadCString(*word++, kMaxPathLen);
        if (!path.ok()) {
          return path.status();
        }
        call.path = std::move(*path);
        break;
      }
      case Arg::kIn: {
        const uint64_t va = *word++;
        const uint64_t len = *word++;
        // An over-limit reply is its own fault kind, and the chaos
        // injection's oversized reply is one whatever its length.
        const bool reply = IsReply(*hc, i);
        const bool injected = reply && std::exchange(frame.inject_oversized_reply, false);
        if (len > kMaxIoLen || injected) {
          frame.fault = reply ? FaultKind::kOversizedReply : frame.fault;
          if (injected && injector_ != nullptr) {
            injector_->RecordInjected(FaultKind::kOversizedReply);
          }
          return vbase::InvalidArgument(std::string(hc->name) + ": " + std::to_string(len) +
                                        " bytes exceed kMaxIoLen" +
                                        (injected ? " (injected oversized reply)" : ""));
        }
        std::vector<uint8_t>& bytes = reply ? call.reply : call.in;
        bytes.resize(len);
        VB_RETURN_IF_ERROR(vm.ReadVirt(va, bytes.data(), len));
        break;
      }
      case Arg::kOut:
        out_va = *word++;
        call.cap = std::min(*word++, kMaxIoLen);
        break;
      case Arg::kOutWord:
        out_va = *word++;
        break;
    }
  }
  auto result = Handle(port, frame, call);
  if (result.ok()) {
    VB_RETURN_IF_ERROR(vm.WriteVirt(out_va, call.out.data(), call.out.size()));
  }
  return result;
}

vbase::Result<int64_t> Runtime::Handle(uint16_t port, HypercallFrame& frame, HostCall& call) {
  RunOutcome& outcome = frame.outcome;
  // A snapshot fold captures first, then serves its input call: the
  // snapshot must not hold this run's input, and the epoch the capture
  // begins must track its copy-out.  Every restore completes that call.
  if (port == kHcSnapshotGetData || port == kHcSnapshotRecv) {
    port = port == kHcSnapshotGetData ? kHcGetData : kHcRecv;
    VB_RETURN_IF_ERROR(SnapshotOnce(frame, PendingCall{port, frame.result_reg}));
  }
  switch (port) {
    case kHcSendExit:  // send (a peer that stopped reading does not fail it), then return_exit
      frame.spec.channel->Write(call.in.data(), call.in.size());
      [[fallthrough]];
    case kHcReturnData:
    case kHcReturnExit:
      outcome.output.insert(outcome.output.end(), call.reply.begin(), call.reply.end());
      if (port == kHcReturnData) {
        return 0;
      }
      [[fallthrough]];
    case kHcExit:
      outcome.exit_code = call.word;
      frame.request_exit = true;
      return 0;

    case kHcConsole:  // -> len
      outcome.console.append(call.in.begin(), call.in.end());
      return static_cast<int64_t>(call.in.size());

    case kHcSnapshot:
      VB_RETURN_IF_ERROR(SnapshotOnce(frame, PendingCall{}));
      return 0;

    case kHcGetData:  // -> n: the input's first n <= cap bytes, once per invocation
      if (frame.data_fetched) {
        return vbase::PermissionDenied("get_data hypercall may only be called once");
      }
      frame.data_fetched = true;
      if (frame.spec.input != nullptr) {
        call.out = std::span<const uint8_t>(*frame.spec.input)
                       .first(std::min<uint64_t>(call.cap, frame.spec.input->size()));
      }
      return static_cast<int64_t>(call.out.size());

    case kHcOpen: {  // -> fd | -1
      auto fd = frame.fds.Open(call.path);
      return fd.ok() ? *fd : -1;
    }
    case kHcRead: {  // -> n (0 at EOF) | -1
      auto bytes = frame.fds.Read(static_cast<int64_t>(call.word), call.cap);
      if (!bytes.ok()) {
        return -1;
      }
      call.out = *bytes;
      return static_cast<int64_t>(call.out.size());
    }
    case kHcWrite: {  // -> len | -1
      auto n = frame.fds.Write(static_cast<int64_t>(call.word), call.in.data(), call.in.size());
      return n.ok() ? *n : -1;
    }
    case kHcClose:  // -> 0 | -1
      return frame.fds.Close(static_cast<int64_t>(call.word)).ok() ? 0 : -1;

    case kHcStat: {  // -> 0 and the size as a guest word | -1 if absent or it does not fit
      const int w = frame.vm.cpu().WordSize();
      auto size = frame.env->ReadPrefix(call.path, 0, &call.staging);
      if (!size.ok() || *size >= 1ULL << (8 * w - 1)) {
        return -1;
      }
      const auto* bytes = reinterpret_cast<const uint8_t*>(&*size);
      call.staging.assign(bytes, bytes + w);
      call.out = call.staging;
      return 0;
    }
    case kHcReadFile: {
      // -> the file's size | -1, and its first min(cap, size) bytes: stat +
      // open + read + close in one locked read, so both come from one version.
      auto size = frame.env->ReadPrefix(call.path, call.cap, &call.staging);
      if (!size.ok()) {
        return -1;
      }
      call.out = call.staging;
      return static_cast<int64_t>(*size);
    }

    case kHcSend:  // -> len | -1 if the peer closed
      return frame.spec.channel->Write(call.in.data(), call.in.size())
                 ? static_cast<int64_t>(call.in.size())
                 : -1;
    case kHcSendRecv:  // -> recv's n | -1 if the send failed
      if (!call.in.empty() && !frame.spec.channel->Write(call.in.data(), call.in.size())) {
        return -1;
      }
      [[fallthrough]];
    case kHcRecv:  // -> n (0 at EOF), blocking until some bytes arrive
      frame.spec.channel->ReadInto(&call.staging, call.cap);
      call.out = call.staging;
      return static_cast<int64_t>(call.out.size());

    default:
      return vbase::Unimplemented("no handler for hypercall " + PortLabel(port));
  }
}

RunOutcome Runtime::Invoke(const VirtineSpec& spec) {
  RunOutcome outcome;
  vbase::WallTimer total_timer;
  VB_CHECK(spec.image != nullptr, "VirtineSpec.image must be set");

  // Consult the fault plan once per invocation; kNone on the (default)
  // no-plan path costs one branch.
  const FaultKind armed =
      injector_ != nullptr ? injector_->Arm(spec.key) : FaultKind::kNone;

  // Resolve the snapshot first: it decides the load path.
  SnapshotRef snap;
  if (spec.use_snapshot && !spec.key.empty()) {
    snap = snapshots_.Find(spec.key);
  }

  // --- Acquire a shell (Figure 6: pooled reuse or fresh create).  With a
  // snapshot in hand, the keyed path prefers a shell that already holds it
  // resident (the pool's snapshot-affine lists). --------------------------
  vbase::WallTimer acquire_timer;
  bool from_pool = false;
  bool affine = false;
  std::unique_ptr<vkvm::Vm> vm;
  if (snap != nullptr && !spec.fresh_shell) {
    vm = pool_.AcquireAffine(MakeVmConfig(spec.mem_size), snap->generation, &affine,
                             &from_pool);
  } else {
    // fresh_shell (the executor's retry path) lands here deliberately: a
    // retried invocation must never inherit a parked affine sibling of the
    // shell that just faulted — it COW-maps the snapshot onto a clean shell.
    vm = pool_.Acquire(MakeVmConfig(spec.mem_size), &from_pool);
  }
  outcome.stats.from_pool = from_pool;
  outcome.stats.acquire_ns = acquire_timer.ElapsedNanos();

  // --- Load state: snapshot restore or image boot ------------------------
  vbase::WallTimer load_timer;
  if (snap != nullptr && snap->mem_size <= vm->memory().size()) {
    // Integrity gate: an injected poison (chaos) or a genuine checksum
    // mismatch (verify_restores) means the shell may hold a half-laid image
    // — quarantine it rather than reason about how far the restore got.
    const bool poisoned = armed == FaultKind::kPoisonedSnapshot ||
                          (options_.verify_restores && !VerifySnapshot(*snap));
    if (poisoned) {
      if (armed == FaultKind::kPoisonedSnapshot) {
        injector_->RecordInjected(FaultKind::kPoisonedSnapshot);
      }
      outcome.fault = FaultKind::kPoisonedSnapshot;
      outcome.status = vbase::Internal("poisoned snapshot: checksum mismatch restoring key '" +
                                       spec.key + "'");
      pool_.Quarantine(std::move(vm));
      outcome.stats.load_ns = load_timer.ElapsedNanos();
      outcome.stats.total_ns = total_timer.ElapsedNanos();
      return outcome;
    }
    RestoreSnapshot(*vm, *snap, affine, &outcome.stats);
  } else {
    if (affine) {
      // The affine shell matched by generation but the snapshot cannot be
      // laid into it (mem_size mismatch); scrub it back to a clean shell
      // before taking the boot path.
      vm->memory().ZeroDirtyPages();
      vm->ResetVcpu(kImageLoadAddr);
      vm->ResetAccounting();
      affine = false;
    }
    snap = nullptr;
    const visa::Image& image = *spec.image;
    vbase::Status st = vm->LoadBlob(image.load_addr, image.bytes.data(), image.bytes.size());
    if (!st.ok()) {
      outcome.status = std::move(st);
      pool_.Release(std::move(vm));
      return outcome;
    }
    vm->AddHostCycles(static_cast<uint64_t>(
        static_cast<double>(image.bytes.size()) /
        vm->config().host_costs.memcpy_bytes_per_cycle));
    // Boot info: memory size + flags.
    uint64_t boot_info[2] = {vm->memory().size(), 0};
    if (spec.use_snapshot && spec.crt_snapshot && !spec.key.empty()) {
      boot_info[1] |= kBootFlagSnapshot;
    }
    st = vm->memory().Write(kBootInfoAddr, boot_info, sizeof(boot_info));
    VB_CHECK(st.ok(), "boot info write failed");
    vm->ResetVcpu(image.entry);
    vm->cpu().set_reg(visa::kSp, kRealModeStackTop);
  }

  // --- Marshal arguments (after restore: snapshots resume before the CRT
  // reads the argument page, so fresh arguments land correctly) -----------
  if (!spec.args_page.empty()) {
    VB_CHECK(spec.args_page.size() <= kArgPageSize, "argument page too large");
    vbase::Status st = vm->memory().Write(kArgPageAddr, spec.args_page.data(),
                                          spec.args_page.size());
    VB_CHECK(st.ok(), "argument page write failed");
  }
  outcome.stats.load_ns = load_timer.ElapsedNanos();

  // --- Run until completion, interposing on every hypercall --------------
  vbase::WallTimer run_timer;
  HostEnv* env = spec.env != nullptr ? spec.env : &env_;
  HypercallFrame frame(*vm, *this, spec, outcome, env);
  // Injection delivery.  A guest trap is armed on the vCPU (delivered by the
  // next Run(), after any snapshot restore so RestoreArch cannot clear it);
  // an oversized reply flips the frame flag the next reply consumes; the
  // hypercall-shaped kinds fire at the first I/O exit below.
  FaultKind pending_io_fault = FaultKind::kNone;
  switch (armed) {
    case FaultKind::kGuestTrap:
      vm->InjectGuestFault("injected guest trap (chaos)");
      injector_->RecordInjected(FaultKind::kGuestTrap);
      break;
    case FaultKind::kOversizedReply:
      frame.inject_oversized_reply = true;
      break;
    case FaultKind::kWorkerDeath:
    case FaultKind::kIllegalHypercall:
    case FaultKind::kPolicyDenied:
      pending_io_fault = armed;
      break;
    default:
      break;
  }
  // A snapshot captured inside snapshot_get_data or snapshot_recv resumes
  // with its get_data or recv pending: complete it for this invocation (this
  // spec's policy and input or channel, the restored registers' buffer)
  // before the first vmrun.  Both halves of the call are then spent, as in
  // the cold run.  A failure skips the run loop and ends the invocation as
  // it would at that call's exit.
  if (snap != nullptr && snap->pending.port != 0) {
    frame.snapshot_taken = true;
    frame.result_reg = snap->pending.result_reg;
    Serve(snap->pending.port, frame);
  }
  while (outcome.status.ok()) {
    const uint64_t used = vm->cpu().insns_retired();
    if (used >= spec.max_insns) {
      outcome.fault = FaultKind::kRunaway;
      outcome.status = vbase::Aborted("instruction budget exhausted (runaway virtine)");
      break;
    }
    vkvm::RunResult run = vm->Run(spec.max_insns - used);
    if (pending_io_fault != FaultKind::kNone &&
        (run.reason == vkvm::ExitReason::kIo || run.reason == vkvm::ExitReason::kHlt)) {
      // The invocation dies at its first exit boundary, mid-flight: its
      // first hypercall, or the final hlt for guests that never take one.
      const FaultKind inject = pending_io_fault;
      pending_io_fault = FaultKind::kNone;
      injector_->RecordInjected(inject);
      outcome.fault = inject;
      if (inject == FaultKind::kWorkerDeath) {
        outcome.status = vbase::Aborted("worker death injected mid-invocation");
      } else if (inject == FaultKind::kIllegalHypercall) {
        outcome.status =
            vbase::Unimplemented("illegal hypercall injected at " + PortLabel(run.port));
      } else {
        outcome.denied = true;
        outcome.status = vbase::PermissionDenied("hypercall " + PortLabel(run.port) +
                                                 " denied by injected policy");
      }
      break;
    }
    if (run.reason == vkvm::ExitReason::kHlt) {
      break;
    }
    if (run.reason == vkvm::ExitReason::kIo) {
      // The result goes to r0 for `out`, or to the destination register of
      // `in`.
      frame.result_reg = run.io_is_in ? run.io_reg : 0;
      if (!Serve(run.port, frame) || frame.request_exit) {
        break;
      }
      continue;
    }
    if (run.reason == vkvm::ExitReason::kInsnLimit) {
      outcome.fault = FaultKind::kRunaway;
      outcome.status = vbase::Aborted("instruction budget exhausted (runaway virtine)");
      break;
    }
    if (run.reason == vkvm::ExitReason::kBrk) {
      outcome.fault = FaultKind::kGuestTrap;
      outcome.status = vbase::Aborted("guest breakpoint");
      break;
    }
    outcome.fault = FaultKind::kGuestTrap;
    outcome.status = vbase::Internal("guest fault: " + run.fault);
    break;
  }
  outcome.stats.run_ns = run_timer.ElapsedNanos();

  // --- Harvest results -----------------------------------------------------
  if (outcome.status.ok() && spec.word_bytes > 0) {
    uint64_t word = 0;
    vbase::Status st = vm->memory().Read(kArgPageAddr, &word,
                                         static_cast<uint64_t>(spec.word_bytes));
    if (st.ok()) {
      outcome.result_word = word;
    }
  }
  outcome.fd_writes = frame.fds.TakeWrites();
  outcome.stats.guest_cycles = vm->cpu().cycles();
  outcome.stats.host_cycles = vm->host_cycles();
  outcome.stats.total_cycles = vm->total_cycles();
  outcome.stats.io_exits = vm->cpu().io_exits();
  outcome.stats.exit_cycles = vm->cpu().exit_cycles();
  outcome.stats.insns = vm->cpu().insns_retired();

  // --- Release the shell: a faulted invocation quarantines it (never parked
  // affine, never pushed to the lock-free free stack — only a cleaner-crew
  // scrub readmits it).  A clean snapshot-backed run parks it snapshot-affine
  // (no zeroing; the epoch bitmap records the delta for the next restore),
  // anything else goes back through the cleaning path. --------------------
  if (outcome.fault != FaultKind::kNone) {
    pool_.Quarantine(std::move(vm));
    outcome.stats.total_ns = total_timer.ElapsedNanos();
    return outcome;
  }
  // The park's generation is the snapshot the shell maps as its COW base:
  // the one this run captured and published, else the one it restored.
  uint64_t park_generation = frame.resident_generation;
  if (park_generation == 0 && outcome.stats.restored_snapshot) {
    park_generation = snap->generation;
  }
  if (outcome.status.ok() && park_generation != 0) {
    pool_.ReleaseAffine(std::move(vm), park_generation);
  } else {
    pool_.Release(std::move(vm));
  }
  outcome.stats.total_ns = total_timer.ElapsedNanos();
  return outcome;
}

}  // namespace wasp
