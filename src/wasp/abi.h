// The Wasp hypercall ABI and guest memory-layout contract.
//
// Hypercalls are port I/O, as in the paper ("delegation to the client is
// achieved with hypercalls using virtual I/O ports").  A guest issues
// `out PORT, r0`; arguments travel in registers r1..r3 and the result is
// written back into r0 before the vCPU is re-entered.  Hypercalls are
// designed as *high-level hypervisor services* (mirroring POSIX calls)
// rather than low-level device emulation, so each service costs exactly one
// exit.  That makes the exit count a design choice: readfile and send_recv
// fold a request's common sequences (stat+open+read+close, send then recv)
// into one exit each.  A call that needs more than three arguments takes a
// pointer to a message of guest words instead.
//
// kHypercalls below lists every call once: its port, its name and the
// policy bits it needs.  Guests, RequiredPolicy and diagnostics read it, and
// Runtime::Dispatch has one handler case per row.
//
// Virtines run default-deny: a call whose bits are not all in the policy
// terminates the virtine (Section 2: virtines exist in a default-deny
// environment).  Exit needs no bit — the only externally observable behavior
// Wasp provides by default is the ability to exit — and neither does
// snapshot, which is hypervisor-internal and once-only.  Folded calls never
// widen the policy: snapshot_get_data needs the get_data bit, and
// return_exit needs the return_data bit when it carries bytes (len > 0) and
// nothing otherwise.  Their own ports' bits are never consulted.
//
// A function virtine's warm call is one VM entry and one VM exit.
// snapshot_get_data takes the snapshot *inside* the input call, so every
// restore resumes with that call pending: the runtime writes the new
// invocation's input and sets the result register before the first vmrun.
// return_exit (return_data then exit) hands the output back in the exit.
#ifndef SRC_WASP_ABI_H_
#define SRC_WASP_ABI_H_

#include <cstdint>

namespace wasp {

// --- Hypercall ports: kHypercalls' keys, all < 64 (one policy-mask bit each) ---
inline constexpr uint16_t kHcExit = 1;
inline constexpr uint16_t kHcConsole = 2;
inline constexpr uint16_t kHcSnapshot = 3;
inline constexpr uint16_t kHcGetData = 4;
inline constexpr uint16_t kHcReturnData = 5;
inline constexpr uint16_t kHcSnapshotGetData = 6;
inline constexpr uint16_t kHcReturnExit = 7;
inline constexpr uint16_t kHcOpen = 16;
inline constexpr uint16_t kHcRead = 17;
inline constexpr uint16_t kHcWrite = 18;
inline constexpr uint16_t kHcClose = 19;
inline constexpr uint16_t kHcStat = 20;
inline constexpr uint16_t kHcReadFile = 21;
inline constexpr uint16_t kHcSend = 32;
inline constexpr uint16_t kHcRecv = 33;
inline constexpr uint16_t kHcSendRecv = 34;

inline constexpr int kMaxHypercall = 64;

using HypercallMask = uint64_t;

inline constexpr HypercallMask MaskOf(uint16_t port) { return 1ULL << port; }

// --- The hypercall table: one row per port, in port order, each commented
// with its register shape.  `needs` is the policy bits the call requires.
struct HypercallInfo {
  uint16_t port;
  const char* name;
  HypercallMask needs;
};
inline constexpr HypercallInfo kHypercalls[] = {
    {kHcExit, "exit", 0},                                   // r1 = exit code
    {kHcConsole, "console", MaskOf(kHcConsole)},            // r1 = buf va, r2 = len
    {kHcSnapshot, "snapshot", 0},                           // take a snapshot (once only)
    // r1 = dst va, r2 = cap -> r0 = len (once only)
    {kHcGetData, "get_data", MaskOf(kHcGetData)},
    {kHcReturnData, "return_data", MaskOf(kHcReturnData)},  // r1 = src va, r2 = len
    // snapshot() then get_data() in one exit, with get_data's registers.
    {kHcSnapshotGetData, "snapshot_get_data", MaskOf(kHcGetData)},
    // r1 = exit code, r2 = src va, r3 = len
    {kHcReturnExit, "return_exit", MaskOf(kHcReturnData)},
    {kHcOpen, "open", MaskOf(kHcOpen)},     // r1 = path va -> r0 = fd | -1
    {kHcRead, "read", MaskOf(kHcRead)},     // r1 = fd, r2 = buf va, r3 = len -> r0 = n | -1
    {kHcWrite, "write", MaskOf(kHcWrite)},  // r1 = fd, r2 = buf va, r3 = len -> r0 = n | -1
    {kHcClose, "close", MaskOf(kHcClose)},  // r1 = fd -> r0 = 0 | -1
    // r1 = path va, r2 = statbuf va -> r0 = 0 | -1.  Writes the file size as
    // one guest word of the vCPU's current width; -1 if it does not fit.
    {kHcStat, "stat", MaskOf(kHcStat)},
    // r1 = path va, r2 = buf va, r3 = cap -> r0 = file size | -1: stat+open+read+close
    // of min(cap, size) bytes in one locked read, so both come from one version.
    {kHcReadFile, "readfile", MaskOf(kHcReadFile)},
    {kHcSend, "send", MaskOf(kHcSend)},  // r1 = buf va, r2 = len -> r0 = n | -1
    {kHcRecv, "recv", MaskOf(kHcRecv)},  // r1 = buf va, r2 = cap -> r0 = n (0 on EOF)
    // r1 = message va -> r0 = n received (0 on EOF) | -1 if the send failed.  The
    // message is four guest words [out va, out len, in va, in cap]: send, then
    // receive, in one exit (the reply-and-wait shape of seL4's ReplyRecv).
    {kHcSendRecv, "send_recv", MaskOf(kHcSendRecv)},
};

// The row for `port`, or nullptr when the table has none.
inline constexpr const HypercallInfo* FindHypercall(uint16_t port) {
  for (const HypercallInfo& hc : kHypercalls) {
    if (hc.port == port) {
      return &hc;
    }
  }
  return nullptr;
}

// The name of the call on `port`, or nullptr when the table has none.
inline constexpr const char* HypercallName(uint16_t port) {
  const HypercallInfo* hc = FindHypercall(port);
  return hc != nullptr ? hc->name : nullptr;
}

// The policy bits a call on `port` needs: its row's, or none for a
// return_exit whose `out_len` (r3) is 0.  A port below kMaxHypercall without
// a row needs its own bit (client handlers use such ports); ports past the
// mask need none: they reach dispatch and fail as illegal hypercalls.
inline constexpr HypercallMask RequiredPolicy(uint16_t port, uint64_t out_len) {
  if (port == kHcReturnExit && out_len == 0) {
    return 0;
  }
  if (const HypercallInfo* hc = FindHypercall(port); hc != nullptr) {
    return hc->needs;
  }
  return port < kMaxHypercall ? MaskOf(port) : 0;
}

// --- Policy masks -----------------------------------------------------------
// `virtine` keyword semantics: deny everything (exit is implicitly allowed).
inline constexpr HypercallMask kPolicyDenyAll = 0;
// `virtine_permissive` keyword semantics: allow everything.
inline constexpr HypercallMask kPolicyAllowAll = ~0ULL;
// The canned POSIX-like file I/O set, plus readfile (read-only, like
// stat+open+read+close together).
inline constexpr HypercallMask kPolicyFileIo = MaskOf(kHcOpen) | MaskOf(kHcRead) |
                                               MaskOf(kHcWrite) | MaskOf(kHcClose) |
                                               MaskOf(kHcStat) | MaskOf(kHcReadFile);
// The canned stream set (send/recv proxied to a host byte channel, and
// send_recv, which is one send followed by one recv).
inline constexpr HypercallMask kPolicyStream =
    MaskOf(kHcSend) | MaskOf(kHcRecv) | MaskOf(kHcSendRecv);
// The managed-runtime set used by the JavaScript and AES case studies
// (Sections 6.4, 6.5): snapshot + get_data + return_data only.  It also
// admits the folded snapshot_get_data and return_exit, which need nothing
// beyond these bits.
inline constexpr HypercallMask kPolicyManaged =
    MaskOf(kHcSnapshot) | MaskOf(kHcGetData) | MaskOf(kHcReturnData);

// --- Guest physical layout ---------------------------------------------------
// [0x000 ..]        argument/result page (see below)
// [0x500 ..]        boot info written by the host before entry
// [0x1000..0x3fff]  page tables built by the long-mode boot stub
// [0x7000]          initial real-mode stack top (set by the host)
// [0x8000 ..]       image load address
// [top of memory]   stack in protected/long mode (from boot info mem_size)
inline constexpr uint64_t kArgPageAddr = 0x0;
inline constexpr uint64_t kBootInfoAddr = 0x500;
inline constexpr uint64_t kRealModeStackTop = 0x7000;
inline constexpr uint64_t kImageLoadAddr = 0x8000;

// Boot info block (all fields u64, written by the host):
//   +0  mem_size   (guest memory size; protected/long stubs set sp from it)
//   +8  flags      (bit 0: issue the snapshot hypercall after runtime init)
inline constexpr uint64_t kBootFlagSnapshot = 1ULL << 0;

// Argument page layout (word-sized slots; the word size is the natural width
// of the environment's final execution mode):
//   word 0: return value   (written by the guest CRT before hlt)
//   word 1: argc
//   word 2..2+argc-1: argument words
//   byte offset kArgBufOffset..: marshalled buffer contents
inline constexpr uint64_t kArgBufOffset = 0x200;
inline constexpr uint64_t kArgPageSize = 0x500;  // must stay below boot info

}  // namespace wasp

#endif  // SRC_WASP_ABI_H_
