// vcc — the virtine C compiler.
//
// This is the reproduction's substitute for the paper's clang wrapper +
// LLVM pass (Section 5.3): a from-scratch compiler for a C dialect that
//
//   1. detects functions annotated with the `virtine`, `virtine_permissive`,
//      or `virtine_config(mask)` keywords,
//   2. builds the program call graph and cuts it at each annotated function
//      (only the reachable subset of functions and globals is packaged, so
//      virtine images stay small),
//   3. generates VBC code, links it against the selected execution
//      environment's boot stub + CRT (vrt), and
//   4. derives the host-side invocation stub: argument counts, the policy
//      mask implied by the annotation, and (via the CLI driver) a generated
//      C++ header embedding the image.
//
// Language: a word-oriented C subset.  `int` is the natural machine word of
// the target environment (64-bit in long64, 32-bit in prot32, 16-bit in
// real16); `char` is an unsigned byte; pointers and arrays are supported
// with C semantics; no structs, floats, or function pointers.  `switch`
// follows C: the scrutinee is evaluated once, arms fall through, `break`
// leaves the switch, and case labels are constant expressions written as
// direct children of the switch body.  A dense case set (at least 4 cases
// spanning at most 3 values per case) compiles to a jump table dispatched
// by `jmp rN`, any other to a compare chain; the reference generator always
// emits the chain.  Hypercalls are reachable through the
// `__hc0..__hc3(port, ...)` builtins plus `__rdtsc()`.  vlibc (src/vrt/vlibc.h) layers string/memory/malloc/printf
// helpers and POSIX-style wrappers on top of the builtins.
#ifndef SRC_VCC_VCC_H_
#define SRC_VCC_VCC_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/vrt/env.h"
#include "src/wasp/abi.h"

namespace vcc {

// How a function was annotated in source.
enum class Annotation {
  kNone,
  kVirtine,            // `virtine` keyword: default-deny policy
  kVirtinePermissive,  // `virtine_permissive`: allow-all policy
  kVirtineConfig,      // `virtine_config(mask)`: explicit policy bits
};

// One compiled virtine: a bootable image for a single annotated function
// plus everything the host stub needs to invoke it.
struct CompiledVirtine {
  std::string name;            // the annotated function
  visa::Image image;           // boot stub + CRT + reachable code/data
  wasp::HypercallMask policy;  // from the annotation
  vrt::Env env;                // execution environment
  int num_args = 0;            // scalar/pointer parameter count
  std::string asm_text;        // generated assembly (debugging/tests)
};

// Compiles every `virtine`-annotated function in `source` into its own
// image targeting `env`.  Fails if the source has no annotated functions.
vbase::Result<std::vector<CompiledVirtine>> CompileVirtines(const std::string& source,
                                                            vrt::Env env = vrt::Env::kLong64);

// Compiles a whole program (entry point `entry`, default "main") to assembly
// with a `virtine_main` alias; for guest programs used as complete images
// (e.g. the microjs engine) rather than cut-out virtine functions.
vbase::Result<std::string> CompileToAsm(const std::string& source,
                                        const std::string& entry = "main",
                                        vrt::Env env = vrt::Env::kLong64);

// CompileToAsm + vrt::BuildImage in one step.
vbase::Result<visa::Image> CompileProgram(const std::string& source,
                                          const std::string& entry = "main",
                                          vrt::Env env = vrt::Env::kLong64);

// Renders a generated C++ header that embeds `virtines` (image bytes +
// typed wasp::VirtineFunc factories); what the CLI driver writes next to
// your build, mirroring the paper's compiler-generated invocation stubs.
std::string EmitCppHeader(const std::vector<CompiledVirtine>& virtines,
                          const std::string& guard);

}  // namespace vcc

#endif  // SRC_VCC_VCC_H_
