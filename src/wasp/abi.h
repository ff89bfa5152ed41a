// The Wasp hypercall ABI and guest memory-layout contract.
//
// Hypercalls are port I/O, as in the paper ("delegation to the client is
// achieved with hypercalls using virtual I/O ports").  A guest issues
// `out PORT, r0`; arguments travel in registers from r1 and the result is
// written back into r0 before the vCPU is re-entered.  Hypercalls are
// designed as *high-level hypervisor services* (mirroring POSIX calls)
// rather than low-level device emulation, so each service costs exactly one
// exit.  That makes the exit count a design choice, and six calls fold a
// common sequence into one exit: readfile (stat+open+read+close), send_recv
// (send then recv), snapshot_get_data and snapshot_recv (snapshot then the
// input call), return_exit (return_data then exit) and send_exit (send then
// return_exit).  A call that needs more than three argument words takes a
// pointer to a message of guest words instead.
//
// kHypercalls below lists every call once: its port, its name, the policy
// bits it needs and its argument signature.  Guests, RequiredPolicy and
// diagnostics read it, and the runtime's marshal step moves every guest
// byte a call reads or writes by its signature.
//
// Virtines run default-deny: a call whose bits are not all in the policy
// terminates the virtine (Section 2: virtines exist in a default-deny
// environment).  Exit needs no bit — the only externally observable behavior
// Wasp provides by default is the ability to exit — and neither does
// snapshot, which is hypervisor-internal and once-only.  The folds of a
// snapshot or an exit never widen the policy: snapshot_get_data needs the
// get_data bit, snapshot_recv the recv bit, return_exit the return_data
// bit when it carries bytes (len > 0) and nothing otherwise, and send_exit
// the send bit and the return_data bit.  Their own ports' bits are never
// consulted.
//
// A function virtine's warm call is one VM entry and one VM exit.
// snapshot_get_data takes the snapshot *inside* the input call, so every
// restore resumes with that call pending: the runtime writes the new
// invocation's input and sets the result register before the first vmrun.
// snapshot_recv does the same for a stream guest's first receive: a warm
// connection's first request is delivered before the first vmrun.
// return_exit (return_data then exit) hands the output back in the exit,
// and send_exit also carries a stream guest's last response: it sends it,
// then returns the output and exits, whether or not the peer still reads.
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
inline constexpr uint16_t kHcSnapshotRecv = 8;
inline constexpr uint16_t kHcSendExit = 9;
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

// --- The ABI's limits on guest-supplied lengths: a hostile guest cannot make
// the host allocate or copy unbounded memory.
inline constexpr uint64_t kMaxIoLen = 1ULL << 24;  // 16 MB: an in-buffer's len, an out-buffer's cap
inline constexpr uint64_t kMaxPathLen = 4096;      // a path's bytes, its NUL included

// --- Argument shapes.  A signature's arguments consume the call's words in
// order from r1 or, for a `message` row, from a message of guest words (the
// vCPU's width) at r1.  A guest buffer is touched only where bytes move: an
// in-buffer over its len, an out-buffer over the bytes the call produced.
inline constexpr int kMaxArgs = 3;  // a signature's arguments, kNone-padded

enum class Arg : uint8_t {
  kNone,     // pads a signature of fewer than kMaxArgs arguments
  kWord,     // one word, handed to the call as is
  kPath,     // one word: the va of a NUL-terminated string, at most kMaxPathLen bytes
  kIn,       // two words (va, len): len bytes the call reads; len > kMaxIoLen is rejected
  kOut,      // two words (va, cap): up to cap bytes the call writes; cap is clamped to kMaxIoLen
  kOutWord,  // one word: the va of one guest word the call writes
};

inline constexpr int ArgWords(Arg arg) {
  return arg == Arg::kIn || arg == Arg::kOut ? 2 : arg == Arg::kNone ? 0 : 1;
}

// --- The hypercall table: one row per port, in port order.  `needs` is the
// policy bits the call requires, `args` its signature.
struct HypercallInfo {
  uint16_t port;
  const char* name;
  HypercallMask needs;
  Arg args[kMaxArgs];
  bool message = false;
};
inline constexpr HypercallInfo kHypercalls[] = {
    {kHcExit, "exit", 0, {Arg::kWord}},
    {kHcConsole, "console", MaskOf(kHcConsole), {Arg::kIn}},
    {kHcSnapshot, "snapshot", 0, {}},  // once only
    {kHcGetData, "get_data", MaskOf(kHcGetData), {Arg::kOut}},  // once only
    {kHcReturnData, "return_data", MaskOf(kHcReturnData), {Arg::kIn}},
    // snapshot() then get_data() in one exit, with get_data's signature.
    {kHcSnapshotGetData, "snapshot_get_data", MaskOf(kHcGetData), {Arg::kOut}},
    // return_data() then exit(), the word being the exit code.
    {kHcReturnExit, "return_exit", MaskOf(kHcReturnData), {Arg::kWord, Arg::kIn}},
    // snapshot() then recv() in one exit, with recv's signature.
    {kHcSnapshotRecv, "snapshot_recv", MaskOf(kHcRecv), {Arg::kOut}},
    // send(out) then return_exit(code, data) in one exit, from a five-word
    // message [out, out_len, data, data_len, code].
    {kHcSendExit, "send_exit", MaskOf(kHcSend) | MaskOf(kHcReturnData),
     {Arg::kIn, Arg::kIn, Arg::kWord}, true},
    {kHcOpen, "open", MaskOf(kHcOpen), {Arg::kPath}},
    {kHcRead, "read", MaskOf(kHcRead), {Arg::kWord, Arg::kOut}},
    {kHcWrite, "write", MaskOf(kHcWrite), {Arg::kWord, Arg::kIn}},
    {kHcClose, "close", MaskOf(kHcClose), {Arg::kWord}},
    {kHcStat, "stat", MaskOf(kHcStat), {Arg::kPath, Arg::kOutWord}},
    {kHcReadFile, "readfile", MaskOf(kHcReadFile), {Arg::kPath, Arg::kOut}},
    {kHcSend, "send", MaskOf(kHcSend), {Arg::kIn}},
    {kHcRecv, "recv", MaskOf(kHcRecv), {Arg::kOut}},
    // send() then recv() in one exit (seL4's ReplyRecv shape), from a four-word message.
    {kHcSendRecv, "send_recv", MaskOf(kHcSendRecv), {Arg::kIn, Arg::kOut}, true},
};

// True when argument `i` of `hc` is the call's reply, the bytes it returns as
// the virtine's output: the last in-buffer of a row that needs the
// return_data bit.  An over-limit reply is its own fault kind.
inline constexpr bool IsReply(const HypercallInfo& hc, int i) {
  if ((hc.needs & MaskOf(kHcReturnData)) == 0 || hc.args[i] != Arg::kIn) {
    return false;
  }
  for (int j = i + 1; j < kMaxArgs; ++j) {
    if (hc.args[j] == Arg::kIn) {
      return false;
    }
  }
  return true;
}

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
// send_recv, which is one send followed by one recv).  It also admits the
// folded snapshot_recv, which needs only the recv bit; send_exit also needs
// the return_data bit, as return_exit does.
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
//   +8  flags      (bit 0: the CRT issues the snapshot hypercall after
//                   runtime init; a guest that picks its own snapshot point
//                   reads it to skip its own once-only capture)
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
