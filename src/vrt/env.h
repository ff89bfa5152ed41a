// Virtine execution environments (Section 5.4, Figure 10).
//
// The paper ships two default environments: (A) the full environment used
// by the C language extensions — boot to long mode, init the C runtime,
// optionally snapshot, then run the workload — and (B) a raw environment
// where the client supplies the whole binary.  This reproduction provides
// three staged environments (one per processor mode, so Figure 3's
// mode-latency experiment can run the same workload in each) plus the raw
// builder:
//
//   kReal16  — no mode transitions at all; cheapest bring-up, 16-bit words.
//   kProt32  — GDT + CR0.PE + far jump; no paging (the paper's echo server
//              environment, Figure 4).
//   kLong64  — full bring-up: GDT, protected mode, identity-mapped page
//              tables (512 x 2 MB), PAE/LME/PG, long mode.  The default for
//              compiler-generated virtines.
//
// Every staged environment ends in a shared CRT that optionally issues the
// snapshot hypercall (boot-info flag), unmarshals arguments from the
// argument page onto the stack, calls `virtine_main`, stores the result in
// argument-page word 0, and halts.
#ifndef SRC_VRT_ENV_H_
#define SRC_VRT_ENV_H_

#include <string>

#include "src/base/status.h"
#include "src/isa/image.h"
#include "src/isa/isa.h"

namespace vrt {

enum class Env {
  kReal16,
  kProt32,
  kLong64,
};

const char* EnvName(Env env);

// The processor mode the environment's workload runs in.
visa::Mode FinalMode(Env env);

// Natural word size (bytes) of the environment's final mode; also the
// argument-page slot size (see wasp/abi.h).
int WordBytes(Env env);

// Builds a complete bootable virtine image: boot stub for `env` + CRT +
// `user_source` (VBC assembly that must define `virtine_main`).
vbase::Result<visa::Image> BuildImage(Env env, const std::string& user_source);

// Builds a raw image (environment B): `source` is assembled as-is at the
// load address with no boot stub or CRT; execution starts in real mode at
// the `start` label.
vbase::Result<visa::Image> BuildRawImage(const std::string& source);

// The assembly prelude (`.equ` constants: WORD, BOOTINFO, and HC_<NAME> for
// each row of wasp::kHypercalls) shared by all generated guest code; exposed
// for the compiler backend.
std::string AsmPrelude(Env env);

}  // namespace vrt

#endif  // SRC_VRT_ENV_H_
