#include "src/base/status.h"

namespace vbase {

const char* CodeName(Code code) {
  switch (code) {
    case Code::kOk:
      return "OK";
    case Code::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case Code::kNotFound:
      return "NOT_FOUND";
    case Code::kOutOfRange:
      return "OUT_OF_RANGE";
    case Code::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case Code::kPermissionDenied:
      return "PERMISSION_DENIED";
    case Code::kUnimplemented:
      return "UNIMPLEMENTED";
    case Code::kInternal:
      return "INTERNAL";
    case Code::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status InvalidArgument(std::string msg) { return Status(Code::kInvalidArgument, std::move(msg)); }
Status NotFound(std::string msg) { return Status(Code::kNotFound, std::move(msg)); }
Status OutOfRange(std::string msg) { return Status(Code::kOutOfRange, std::move(msg)); }
Status FailedPrecondition(std::string msg) {
  return Status(Code::kFailedPrecondition, std::move(msg));
}
Status PermissionDenied(std::string msg) { return Status(Code::kPermissionDenied, std::move(msg)); }
Status Unimplemented(std::string msg) { return Status(Code::kUnimplemented, std::move(msg)); }
Status Internal(std::string msg) { return Status(Code::kInternal, std::move(msg)); }
Status Aborted(std::string msg) { return Status(Code::kAborted, std::move(msg)); }

}  // namespace vbase
