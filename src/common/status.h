// Status / StatusOr<T>: recoverable-error returns for the public API.
//
// The library historically signalled misuse by throwing hwp3d::Error.
// Public entry points (serving, checkpoint I/O, model compilation)
// instead return a Status — callers decide whether a missing checkpoint
// or a full request queue is fatal, without try/catch at every call
// site. Internal invariants keep using HWP_CHECK/HWP_DCHECK.
//
//   Status s = nn::LoadCheckpoint(path, model);
//   if (!s.ok()) { HWP_LOG(Error) << s.ToString(); return s; }
//
//   StatusOr<InferenceResult> r = server.Submit(clip);
//   if (r.ok()) Use(r->label);
#pragma once

#include <new>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.h"

namespace hwp3d {

// Subset of the canonical google/absl status space that this library
// actually produces; keep values stable — they appear in logs/JSON.
enum class StatusCode : int {
  kOk = 0,
  kCancelled = 1,
  kInvalidArgument = 3,
  kDeadlineExceeded = 4,
  kNotFound = 5,
  kResourceExhausted = 8,
  kFailedPrecondition = 9,
  kUnavailable = 14,
  kDataLoss = 15,
  kInternal = 13,
};

std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "RESOURCE_EXHAUSTED: queue full (capacity 64)" / "OK".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status CancelledError(std::string msg) {
  return {StatusCode::kCancelled, std::move(msg)};
}
inline Status InvalidArgumentError(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status DeadlineExceededError(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
inline Status NotFoundError(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status ResourceExhaustedError(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status FailedPreconditionError(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status UnavailableError(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status DataLossError(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status InternalError(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}

// Either a value or a non-OK Status. Accessing value() on an error
// throws hwp3d::Error (programming mistake, same contract as HWP_CHECK).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    HWP_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }
  StatusOr(T value) : has_value_(true) {  // NOLINT
    new (&value_) T(std::move(value));
  }

  StatusOr(StatusOr&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : status_(std::move(other.status_)), has_value_(other.has_value_) {
    if (has_value_) new (&value_) T(std::move(other.value_));
  }
  StatusOr& operator=(StatusOr&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      Destroy();
      status_ = std::move(other.status_);
      has_value_ = other.has_value_;
      if (has_value_) new (&value_) T(std::move(other.value_));
    }
    return *this;
  }
  StatusOr(const StatusOr& other)
      : status_(other.status_), has_value_(other.has_value_) {
    if (has_value_) new (&value_) T(other.value_);
  }
  StatusOr& operator=(const StatusOr& other) {
    if (this != &other) *this = StatusOr(other);
    return *this;
  }
  ~StatusOr() { Destroy(); }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  T& value() & {
    CheckHasValue();
    return value_;
  }
  const T& value() const& {
    CheckHasValue();
    return value_;
  }
  T&& value() && {
    CheckHasValue();
    return std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckHasValue() const {
    HWP_CHECK_MSG(has_value_,
                  "StatusOr::value() on error: " << status_.ToString());
  }
  void Destroy() {
    if (has_value_) value_.~T();
    has_value_ = false;
  }

  Status status_;
  bool has_value_ = false;
  union {
    T value_;
  };
};

}  // namespace hwp3d

// Propagates a non-OK Status to the caller.
#define HWP_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::hwp3d::Status hwp_status_ = (expr);          \
    if (!hwp_status_.ok()) return hwp_status_;     \
  } while (0)
