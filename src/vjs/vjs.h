// microjs — the managed-language runtime case study (Section 6.5).
//
// The paper embeds the Duktape JavaScript engine in a virtine and runs a
// base64-encoding function with exactly three hypercalls (snapshot,
// get_data, return_data).  Here they are folded into two,
// snapshot_get_data and return_exit, so a warm call enters the VM once and
// exits once.  This module reproduces that structure with
// "microjs": a JavaScript-like scripting language compiled host-side to a
// compact stack bytecode, interpreted by an engine written in the vcc
// dialect that runs *inside* the virtine.
//
// CompileScript emits the one program form the engine executes, a run of
// [op, operand] int64 word pairs, and checks its limits (kEngineStackWords,
// kMaxScriptNesting, 256 variables):
//
//   - PUSH's i32 literal and LOAD/STORE's slot are the operand word, and a
//     jump's operand is the word index of the pair it lands on, so a jump
//     reaches anywhere in the script;
//   - each builtin (input_len, input, out, b64) is an op of its own;
//   - a binary op whose right operand is a literal is that op's
//     literal-operand form, so `x + 3` or `r == 1` is one dispatch.
//
// EngineSource embeds the pairs as `int CODE[]` after checking them, so the
// engine never runs past what the script says and the host never reads past
// its input.  The engine mirrors a managed runtime's lifecycle:
//
//   engine_init()  — carves one page-aligned arena whose first page holds
//                    the top of the operand stack (which grows down into
//                    the pages below), the variable slots right above it,
//                    and the start of the I/O region: the input, then the
//                    output right after the input's bytes.  Then builds an
//                    object heap (hundreds of allocations, Duktape-context
//                    analogue);
//   run            — inlined into main: takes the input with
//                    snapshot_get_data (the snapshot point), executes CODE
//                    over it and leaves with an inline return_exit carrying
//                    the output.  Its working state (pc, the cached stack
//                    top and stack pointer, the variable and I/O bases, the
//                    input length, the output count) lives in registers and
//                    it calls no function, so a warm call writes neither an
//                    engine global nor the call stack: with a shallow stack
//                    and a few hundred bytes of I/O it writes one page, the
//                    one page the next call's delta restore repairs.  Each
//                    op is dispatched by one `switch` that vcc compiles to a
//                    jump table, as a C compiler does for Duktape's opcode
//                    switch;
//   teardown()     — walks and releases the object heap (skippable: the
//                    paper's "NT" no-teardown optimization, safe because the
//                    hypervisor wipes the shell after every invocation).
//
// The guest exits with the in-guest cycle count for init+run+teardown
// (measured with rdtsc) as its exit code, which serves as the "native
// engine" baseline: the same work with zero virtualization overhead.
#ifndef SRC_VJS_VJS_H_
#define SRC_VJS_VJS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace vjs {

// The engine's operand stack, in 8-byte words (the engine runs in long64).
// EngineSource allocates exactly this; CompileScript rejects a script that
// would need a deeper stack.
inline constexpr int kEngineStackWords = 1024;

// The engine's I/O capacities.  A call receives at most kEngineInputBytes of
// its input (snapshot_get_data's cap; the rest is not delivered), and out()
// drops every byte past the first kEngineOutputBytes of a call's output, so
// no script writes past the engine's output region.  input(i) reads 0 for
// any i outside [0, input_len()).
inline constexpr int kEngineInputBytes = 65536;
inline constexpr int kEngineOutputBytes = 98304;

// The deepest nesting of statements and expressions (one level per
// recursive Statement, Expression or Unary parse) CompileScript accepts, so
// a tenant's script cannot exhaust the host's stack: at the cap a parse
// uses under 6 MB of stack even in an AddressSanitizer build.  Each operand
// left pending on the stack holds one Expression level, so filling
// kEngineStackWords takes about 1,230 levels; the cap sits above that, and
// the stack check above still decides.
inline constexpr int kMaxScriptNesting = 2048;

// Compiles microjs source to the engine's [op, operand] word pairs,
// returned as their bytes (8 per word, in host order).
//
// Language: `var x = e;`, assignment, `while (e) { ... }`,
// `if (e) {...} else {...}`, expression statements; integer expressions
// with C precedence; builtins: input_len(), input(i), out(c), b64(i).  A
// `var` is visible from the end of its declaration to the end of its block
// (a braceless if or while body is a block), so every read follows a store
// of the same call.  A literal wraps to i32; one past 64 bits is an error.
// A script may name 256 variables; jumps have no range limit.
vbase::Result<std::vector<uint8_t>> CompileScript(const std::string& source);

// Renders the guest engine program (vcc dialect, concatenate after vlibc)
// with `script`, CompileScript's word pairs, embedded as data.  Any bytes
// are accepted: only whole 16-byte pairs are read, a pair whose op has no
// arm, whose jump target is odd, negative or past the script's last word,
// or whose slot is outside [0, 256) becomes the bad-op word, and a closing
// bad-op pair follows; the run stops there with the output written so far.
// `teardown` selects whether the engine frees its object heap before
// exiting (the NT variants skip it).
std::string EngineSource(const std::vector<uint8_t>& script, bool teardown);

// The paper's UDF: base64-encode the input buffer.
const char* Base64ScriptSource();

// Host reference base64 (for validating engine output).
std::string HostBase64(const std::vector<uint8_t>& data);

}  // namespace vjs

#endif  // SRC_VJS_VJS_H_
