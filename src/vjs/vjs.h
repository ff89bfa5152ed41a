// microjs — the managed-language runtime case study (Section 6.5).
//
// The paper embeds the Duktape JavaScript engine in a virtine and runs a
// base64-encoding function with exactly three hypercalls (snapshot,
// get_data, return_data).  Here they are folded into two,
// snapshot_get_data and return_exit, so a warm call enters the VM once and
// exits once.  This module reproduces that structure with
// "microjs": a JavaScript-like scripting language compiled host-side to a
// compact stack bytecode, interpreted by an engine written in the vcc
// dialect that runs *inside* the virtine.  The engine deliberately mirrors
// a managed runtime's lifecycle:
//
//   engine_init()  — allocates the value stack, an object heap (hundreds of
//                    allocations, Duktape-context analogue), and builtin
//                    tables;
//   run(script)    — interprets the script bytecode over the input fetched
//                    with snapshot_get_data (the snapshot point), each
//                    bytecode dispatched by one `switch (op)` that vcc
//                    compiles to a jump table, as a C compiler does for
//                    Duktape's opcode switch;
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

// The deepest nesting of statements and expressions (one level per
// recursive Statement, Expression or Unary parse) CompileScript accepts, so
// a tenant's script cannot exhaust the host's stack: at the cap a parse
// uses under 6 MB of stack even in an AddressSanitizer build.  Each operand
// left pending on the stack holds one Expression level, so filling
// kEngineStackWords takes about 1,230 levels; the cap sits above that, and
// the stack check above still decides.
inline constexpr int kMaxScriptNesting = 2048;

// Compiles microjs source to engine bytecode.
//
// Language: `var x = e;`, assignment, `while (e) { ... }`,
// `if (e) {...} else {...}`, expression statements; integer expressions
// with C precedence; builtins: input_len(), input(i), out(c), b64(i).
vbase::Result<std::vector<uint8_t>> CompileScript(const std::string& source);

// Renders the guest engine program (vcc dialect, concatenate after vlibc)
// with `script` embedded as data.  `teardown` selects whether the engine
// frees its object heap before exiting (the NT variants skip it).
std::string EngineSource(const std::vector<uint8_t>& script, bool teardown);

// The paper's UDF: base64-encode the input buffer.
const char* Base64ScriptSource();

// Host reference base64 (for validating engine output).
std::string HostBase64(const std::vector<uint8_t>& data);

}  // namespace vjs

#endif  // SRC_VJS_VJS_H_
