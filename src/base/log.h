// CHECK-style assertions for programmer errors.
#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <sstream>
#include <string>

namespace vbase {

// Aborts the process after printing; used by VB_CHECK on failure.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& msg);

}  // namespace vbase

// Hard invariant check: aborts with a message when `cond` is false.  Used for
// programmer errors only; recoverable failures return vbase::Status instead.
#define VB_CHECK(cond, msg)                                   \
  do {                                                        \
    if (!(cond)) {                                            \
      std::ostringstream vb_os__;                             \
      vb_os__ << msg; /* NOLINT */                            \
      ::vbase::CheckFailed(__FILE__, __LINE__, #cond, vb_os__.str()); \
    }                                                         \
  } while (0)

#endif  // SRC_BASE_LOG_H_
