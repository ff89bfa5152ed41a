// Linear-sweep disassembler for VBC images (debugging and round-trip tests).
#ifndef SRC_ISA_DISASSEMBLER_H_
#define SRC_ISA_DISASSEMBLER_H_

#include <string>

#include "src/isa/image.h"

namespace visa {

// Disassembles `count` instructions starting at `addr` (defaults: entry, all
// decodable instructions).  Stops at the first undecodable byte (data).  Each
// line is "%08x:  insn", and the instructions reassemble to the same bytes
// at the same load address.
std::string Disassemble(const Image& image, uint64_t addr = 0, int count = -1);

}  // namespace visa

#endif  // SRC_ISA_DISASSEMBLER_H_
