#include "src/isa/disassembler.h"

#include <cstdio>
#include <sstream>

#include "src/isa/isa.h"

namespace visa {

std::string Disassemble(const Image& image, uint64_t addr, int count) {
  if (addr == 0) {
    addr = image.entry;
  }
  std::ostringstream os;
  int emitted = 0;
  while (count < 0 || emitted < count) {
    if (addr < image.load_addr || addr >= image.load_addr + image.bytes.size()) {
      break;
    }
    const uint64_t off = addr - image.load_addr;
    int size = 0;
    auto insn = Decode(image.bytes.data(), image.bytes.size(), off, &size);
    if (!insn.ok()) {
      break;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%08llx:  ", static_cast<unsigned long long>(addr));
    os << buf << ToString(*insn, addr) << "\n";
    addr += static_cast<uint64_t>(size);
    ++emitted;
  }
  return os.str();
}

}  // namespace visa
