#include "src/vrt/env.h"

#include <sstream>

#include "src/isa/assembler.h"
#include "src/wasp/abi.h"

namespace vrt {
namespace {

// GDT blobs + descriptors shared by the protected/long stubs.  The entries
// mirror real x86 flat code/data descriptors; the machine checks only that a
// GDT was loaded, but keeping authentic bytes preserves the image layout a
// real boot stub would carry.
constexpr char kGdtData[] = R"asm(
.align 8
gdt32:
  .quad 0
  .quad 0x00cf9a000000ffff    ; flat 32-bit code
  .quad 0x00cf92000000ffff    ; flat data
gdt32_end:
gdt_desc32:
  .word gdt32_end-gdt32-1
  .quad gdt32
gdt64:
  .quad 0
  .quad 0x00af9a000000ffff    ; flat 64-bit code
  .quad 0x00cf92000000ffff    ; flat data
gdt64_end:
gdt_desc64:
  .word gdt64_end-gdt64-1
  .quad gdt64
)asm";

// Shared CRT: optional snapshot point, argument unmarshalling, call, result
// store, halt.  Uses only word-sized operations so the same code runs in
// any final mode.  Register convention shared with vcc output: r0 holds the
// result, r1-r3 are scratch and hypercall arguments, r4-r13 are
// callee-saved (and allocatable by vcc), r14 is fp and r15 is sp.  The CRT
// uses r8-r11 only before `call virtine_main` and after it returns, so it
// saves nothing.
constexpr char kCrt[] = R"asm(
crt_begin:
  mov r8, BOOTINFO
  ld64 r9, [r8+8]             ; boot flags
  and r9, 1                   ; bit 0: snapshot requested
  je crt_nosnap
  mov r0, 0
  out HC_SNAPSHOT, r0         ; --- snapshot point: restores resume here ---
crt_nosnap:
  mov r8, 0
  ldw r9, [r8+WORD]           ; argc
crt_argloop:
  cmp r9, 0
  je crt_argdone
  sub r9, 1
  mov r10, r9
  mov r11, WORD
  mul r10, r11
  add r10, WORD+WORD
  ldw r11, [r10+0]            ; arg[r9]
  push r11                    ; pushed right-to-left
  jmp crt_argloop
crt_argdone:
  call virtine_main
  mov r8, 0
  stw [r8+0], r0              ; return value -> argument-page word 0
  hlt
)asm";

std::string Real16Stub() {
  return R"asm(
start:
  jmp crt_begin
)asm";
}

std::string Prot32Stub() {
  return std::string(R"asm(
start:
  mov r0, gdt_desc32
  lgdt r0
  mov r1, 1                   ; CR0.PE
  wrcr 0, r1
  ljmp prot32, pm_entry
)asm") + kGdtData + R"asm(
pm_entry:
  mov r8, BOOTINFO
  ld64 sp, [r8+0]             ; stack top = guest memory size
  jmp crt_begin
)asm";
}

std::string Long64Stub() {
  return std::string(R"asm(
start:
  mov r0, gdt_desc32
  lgdt r0                     ; Table 1: "Load 32-bit GDT"
  mov r1, 1
  wrcr 0, r1                  ; Table 1: "Protected transition"
  ljmp prot32, pm_entry       ; Table 1: "Jump to 32-bit"
)asm") + kGdtData + R"asm(
pm_entry:
  mov r0, gdt_desc64
  lgdt r0                     ; Table 1: "Long transition (lgdt)"
  ; Identity-map the first 1 GB with 2 MB pages: PML4 @ 0x1000,
  ; PDPT @ 0x2000, PD @ 0x3000 (512 entries).  These are real page-table
  ; stores the machine walks later; Table 1's "Paging identity mapping"
  ; emerges from this loop plus EPT construction at CR0.PG.
  mov r2, 0x1000
  mov r3, 0x2003              ; PDPT | present | write
  st64 [r2+0], r3
  mov r2, 0x2000
  mov r3, 0x3003              ; PD | present | write
  st64 [r2+0], r3
  mov r2, 0x3000
  mov r4, 0
  mov r5, 0x83                ; present | write | 2 MB page
pd_loop:
  st64 [r2+0], r5
  add r2, 8
  add r5, 0x200000
  add r4, 1
  cmp r4, 512
  jl pd_loop
  mov r1, 0x20                ; CR4.PAE
  wrcr 4, r1
  mov r1, 0x100               ; EFER.LME
  wrcr 8, r1
  mov r1, 0x1000              ; CR3 -> PML4
  wrcr 3, r1
  mov r1, 0x80000001          ; CR0.PG | CR0.PE
  wrcr 0, r1
  ljmp long64, lm_entry       ; Table 1: "Jump to 64-bit"
lm_entry:
  mov r8, BOOTINFO
  ld64 sp, [r8+0]
  jmp crt_begin
)asm";
}

}  // namespace

const char* EnvName(Env env) {
  switch (env) {
    case Env::kReal16:
      return "real16";
    case Env::kProt32:
      return "prot32";
    case Env::kLong64:
      return "long64";
  }
  return "?";
}

visa::Mode FinalMode(Env env) {
  switch (env) {
    case Env::kReal16:
      return visa::Mode::kReal16;
    case Env::kProt32:
      return visa::Mode::kProt32;
    case Env::kLong64:
      return visa::Mode::kLong64;
  }
  return visa::Mode::kLong64;
}

int WordBytes(Env env) { return visa::WordBytes(FinalMode(env)); }

std::string AsmPrelude(Env env) {
  std::ostringstream os;
  os << ".org 0x" << std::hex << wasp::kImageLoadAddr << std::dec << "\n";
  os << ".equ WORD, " << WordBytes(env) << "\n";
  os << ".equ BOOTINFO, " << wasp::kBootInfoAddr << "\n";
  os << ".equ HC_EXIT, " << wasp::kHcExit << "\n";
  os << ".equ HC_CONSOLE, " << wasp::kHcConsole << "\n";
  os << ".equ HC_SNAPSHOT, " << wasp::kHcSnapshot << "\n";
  os << ".equ HC_GET_DATA, " << wasp::kHcGetData << "\n";
  os << ".equ HC_RETURN_DATA, " << wasp::kHcReturnData << "\n";
  os << ".equ HC_OPEN, " << wasp::kHcOpen << "\n";
  os << ".equ HC_READ, " << wasp::kHcRead << "\n";
  os << ".equ HC_WRITE, " << wasp::kHcWrite << "\n";
  os << ".equ HC_CLOSE, " << wasp::kHcClose << "\n";
  os << ".equ HC_STAT, " << wasp::kHcStat << "\n";
  os << ".equ HC_SEND, " << wasp::kHcSend << "\n";
  os << ".equ HC_RECV, " << wasp::kHcRecv << "\n";
  return os.str();
}

vbase::Result<visa::Image> BuildImage(Env env, const std::string& user_source) {
  std::string source = AsmPrelude(env);
  switch (env) {
    case Env::kReal16:
      source += Real16Stub();
      break;
    case Env::kProt32:
      source += Prot32Stub();
      break;
    case Env::kLong64:
      source += Long64Stub();
      break;
  }
  source += kCrt;
  source += user_source;
  return visa::Assemble(source);
}

vbase::Result<visa::Image> BuildRawImage(const std::string& source) {
  return visa::Assemble(AsmPrelude(Env::kLong64) + source);
}

}  // namespace vrt
