// Two-pass assembler for VBC assembly text.
//
// Syntax overview (one statement per line, `;` or `#` start comments):
//
//   .org 0x8000            ; load/link base (default 0x8000)
//   .equ PORT_EXIT, 0xff   ; symbolic constant
//   start:                 ; label definition
//     mov r0, 42           ; register <- immediate (or label address)
//     mov r1, r0           ; register <- register
//     ldw r2, [r1+8]       ; word-sized load (mode-dependent width)
//     st8 [r1-1], r2       ; fixed-width store
//     add r0, r1
//     cmp r0, 10
//     jl  loop             ; conditional jumps: je jne jl jle jg jge jb jbe ja jae
//     call fib             ; direct call (relative); `call r3` is indirect
//     out 0x10, r0         ; hypercall: port out
//     ljmp prot32, pm_entry
//     hlt
//   data:
//     .quad 1, 2, 3
//     .asciz "hello"
//     .space 64
//     .align 8
//
// Immediate expressions support `number`, `'c'`, `label`, and `a+b` / `a-b`
// folding over those terms.  A label may be used before its definition
// except in the operands pass 1 fixes: `.space`, `.align`, `.org` and
// `.equ` may name only symbols defined above them.  A symbol (label or
// `.equ` name) is defined once.
#ifndef SRC_ISA_ASSEMBLER_H_
#define SRC_ISA_ASSEMBLER_H_

#include <string>

#include "src/base/status.h"
#include "src/isa/image.h"

namespace visa {

// Assembles VBC source text into an Image.  The image's entry point is the
// `start` label when present, otherwise the load base.
vbase::Result<Image> Assemble(const std::string& source);

}  // namespace visa

#endif  // SRC_ISA_ASSEMBLER_H_
