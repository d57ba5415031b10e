#ifndef COSR_COMMON_STATUS_H_
#define COSR_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace cosr {

/// Error category for recoverable failures (RocksDB-style). Programming
/// errors and violated internal invariants abort via COSR_CHECK instead.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kInternal,
};

/// Lightweight success-or-error result. Cheap to copy in the OK case.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Returns the enum name for a code, e.g. "NotFound".
const char* StatusCodeName(StatusCode code);

}  // namespace cosr

/// Propagates a non-OK Status to the caller.
#define COSR_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::cosr::Status _cosr_status = (expr);       \
    if (!_cosr_status.ok()) return _cosr_status; \
  } while (0)

#endif  // COSR_COMMON_STATUS_H_
