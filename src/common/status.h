// Canonical status codes and a lightweight Status/Result error-propagation type.
//
// rpcscope does not throw exceptions across API boundaries; fallible operations
// return Status (for void results) or Result<T>. The code set mirrors the
// canonical codes used by Stubby/gRPC, which the paper's error taxonomy
// (Fig. 23) is expressed in.
#ifndef RPCSCOPE_SRC_COMMON_STATUS_H_
#define RPCSCOPE_SRC_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace rpcscope {

// Canonical RPC status codes (subset ordering matches gRPC's numeric codes so
// that logs are familiar to RPC practitioners).
enum class StatusCode : int32_t {
  kOk = 0,
  kCancelled = 1,
  kUnknown = 2,
  kInvalidArgument = 3,
  kDeadlineExceeded = 4,
  kNotFound = 5,
  kAlreadyExists = 6,
  kPermissionDenied = 7,
  kResourceExhausted = 8,
  kFailedPrecondition = 9,
  kAborted = 10,
  kOutOfRange = 11,
  kUnimplemented = 12,
  kInternal = 13,
  kUnavailable = 14,
  kDataLoss = 15,
  kUnauthenticated = 16,
};

// Human-readable name for a code, e.g. "NOT_FOUND".
std::string_view StatusCodeName(StatusCode code);

// A status: a code plus an optional diagnostic message. Cheap to copy when OK.
//
// The class itself is [[nodiscard]]: any call site that receives a Status by
// value and drops it on the floor is a compile error (-Werror=unused-result).
// Intentional drops must write `(void)DoThing();` — grep-able and reviewable.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "OK" or "NOT_FOUND: no such entity".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Convenience constructors matching the canonical codes used in this codebase.
Status CancelledError(std::string message);
Status InvalidArgumentError(std::string message);
Status DeadlineExceededError(std::string message);
Status NotFoundError(std::string message);
Status ResourceExhaustedError(std::string message);
Status FailedPreconditionError(std::string message);
Status InternalError(std::string message);
Status UnavailableError(std::string message);
Status UnimplementedError(std::string message);
Status DataLossError(std::string message);

// Result<T>: either a value or a non-OK Status. [[nodiscard]] for the same
// reason as Status: discarding one silently discards a possible error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : data_(std::move(value)) {}
  Result(Status status) : data_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOkStatus;
    if (ok()) {
      return kOkStatus;
    }
    return std::get<Status>(data_);
  }

  // Precondition: ok().
  T& value() & { return std::get<T>(data_); }
  const T& value() const& { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> data_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_COMMON_STATUS_H_
