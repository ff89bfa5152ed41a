// Lightweight error handling for the virtines codebase.
//
// Systems code in this repository does not throw exceptions on expected
// failure paths; fallible operations return `vbase::Status` or
// `vbase::Result<T>` (an expected-like value-or-status union).  This mirrors
// the style used by OS codebases (Fuchsia's zx_status_t, absl::Status).
#ifndef SRC_BASE_STATUS_H_
#define SRC_BASE_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace vbase {

// Error categories.  Kept deliberately small; detail goes in the message.
enum class Code : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kPermissionDenied,
  kUnimplemented,
  kInternal,
  kAborted,
};

// Returns a stable human-readable name for an error code.
const char* CodeName(Code code);

// A status: either OK or an error code plus a message.
class Status {
 public:
  // Constructs an OK status.
  Status() = default;
  Status(Code code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Code code_ = Code::kOk;
  std::string message_;
};

// Convenience constructors, e.g. `return vbase::InvalidArgument("bad reg");`.
Status InvalidArgument(std::string msg);
Status NotFound(std::string msg);
Status OutOfRange(std::string msg);
Status FailedPrecondition(std::string msg);
Status PermissionDenied(std::string msg);
Status Unimplemented(std::string msg);
Status Internal(std::string msg);
Status Aborted(std::string msg);

// Value-or-Status.  `Result<T>` holds either a `T` or a non-OK `Status`.
template <typename T>
class Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : var_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Status status) : var_(std::move(status)) {}   // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(var_); }

  // Requires ok().
  T& value() & { return std::get<T>(var_); }
  const T& value() const& { return std::get<T>(var_); }
  T&& value() && { return std::get<T>(std::move(var_)); }

  // Requires !ok() for a meaningful code; returns OK status when ok().
  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(var_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> var_;
};

}  // namespace vbase

// Propagates errors: evaluates `expr` (a Status); returns it from the current
// function if not OK.
#define VB_RETURN_IF_ERROR(expr)          \
  do {                                    \
    ::vbase::Status vb_status__ = (expr); \
    if (!vb_status__.ok()) {              \
      return vb_status__;                 \
    }                                     \
  } while (0)

#endif  // SRC_BASE_STATUS_H_
