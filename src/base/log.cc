#include "src/base/log.h"

#include <cstdio>
#include <cstdlib>

namespace vbase {

void CheckFailed(const char* file, int line, const char* expr, const std::string& msg) {
  std::fprintf(stderr, "[CHECK FAILED %s:%d] %s %s\n", file, line, expr, msg.c_str());
  std::abort();
}

}  // namespace vbase
