// Status: lightweight error propagation in the style of RocksDB/Abseil.
// Library code never throws; every fallible operation returns a Status or a
// StatusOr<T> (see util/statusor.h).

#ifndef SSDB_UTIL_STATUS_H_
#define SSDB_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace ssdb {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kCorruption = 4,
  kIOError = 5,
  kFailedPrecondition = 6,
  kOutOfRange = 7,
  kUnimplemented = 8,
  kInternal = 9,
  // A backend is known-unreachable (health monitor says down, or a dial
  // failed); retrying later may succeed. DESIGN.md §11.
  kUnavailable = 10,
  // A value request was stamped with a skeleton version the server's
  // document is no longer at; the client re-fetches its skeleton and
  // reruns once. DESIGN.md §12.
  kStaleVersion = 11,
};

// Human-readable name of a status code ("OK", "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

class Status {
 public:
  // Default construction yields OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status StaleVersion(std::string msg) {
    return Status(StatusCode::kStaleVersion, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsStaleVersion() const { return code_ == StatusCode::kStaleVersion; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

// Propagates a non-OK status to the caller.
#define SSDB_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::ssdb::Status _ssdb_status = (expr);           \
    if (!_ssdb_status.ok()) return _ssdb_status;    \
  } while (0)

// Evaluates a StatusOr expression, assigning the value or returning the error.
#define SSDB_ASSIGN_OR_RETURN(lhs, expr)            \
  SSDB_ASSIGN_OR_RETURN_IMPL_(                      \
      SSDB_STATUS_CONCAT_(_ssdb_statusor, __LINE__), lhs, expr)

#define SSDB_ASSIGN_OR_RETURN_IMPL_(var, lhs, expr) \
  auto var = (expr);                                \
  if (!var.ok()) return var.status();               \
  lhs = std::move(var).value();

#define SSDB_STATUS_CONCAT_(a, b) SSDB_STATUS_CONCAT_IMPL_(a, b)
#define SSDB_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace ssdb

#endif  // SSDB_UTIL_STATUS_H_
