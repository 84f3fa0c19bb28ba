/**
 * @file
 * Structured, non-aborting error handling.
 *
 * fatal() is the right response to a broken configuration at startup,
 * but long sweeps and trace replay need fail-soft behaviour: a bad
 * input is reported to the caller, who decides whether to retry, skip
 * or salvage. Result<T> carries either a value or an Error (code +
 * human-readable message) without exceptions on the success path.
 */

#ifndef BVF_COMMON_RESULT_HH
#define BVF_COMMON_RESULT_HH

#include <string>
#include <utility>
#include <variant>

#include "common/logging.hh"

namespace bvf
{

/** Broad failure categories for structured error handling. */
enum class ErrorCode
{
    Io,          //!< underlying stream/file failure
    Corrupt,     //!< data failed an integrity check (magic, CRC, kind)
    Truncated,   //!< stream ended mid-structure
    Unsupported, //!< valid but unhandled (e.g. future format version)
    InvalidArgument, //!< caller passed something unusable
    Failed,      //!< operation ran and did not succeed
    Timeout,     //!< cancelled by a watchdog deadline
    Overloaded,  //!< no capacity now; retry later (not a data error)
};

/** Display name, e.g. "corrupt". */
inline std::string
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Io:
        return "io";
      case ErrorCode::Corrupt:
        return "corrupt";
      case ErrorCode::Truncated:
        return "truncated";
      case ErrorCode::Unsupported:
        return "unsupported";
      case ErrorCode::InvalidArgument:
        return "invalid-argument";
      case ErrorCode::Failed:
        return "failed";
      case ErrorCode::Timeout:
        return "timeout";
      case ErrorCode::Overloaded:
        return "overloaded";
    }
    return "?";
}

/** One structured error: category plus diagnostic message. */
struct Error
{
    ErrorCode code = ErrorCode::Failed;
    std::string message;

    /** "[corrupt] batch 3 CRC mismatch" */
    std::string
    describe() const
    {
        // Appended in steps: GCC 12 misreads an inlined `"[" + string`
        // chain as an overlapping memcpy (-Wrestrict).
        std::string out = "[";
        out += errorCodeName(code);
        out += "] ";
        out += message;
        return out;
    }
};

/**
 * Either a T or an Error. Construct from either; query ok() before
 * value()/error(). Accessing the wrong side is a programming error and
 * panics.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : state_(std::move(value)) {}
    Result(Error error) : state_(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 std::get<Error>(state_).describe().c_str());
        return std::get<T>(state_);
    }

    T &
    value()
    {
        panic_if(!ok(), "Result::value() on error: %s",
                 std::get<Error>(state_).describe().c_str());
        return std::get<T>(state_);
    }

    const Error &
    error() const
    {
        panic_if(ok(), "Result::error() on success");
        return std::get<Error>(state_);
    }

    /** The value, or @p fallback when this holds an error. */
    T
    valueOr(T fallback) const
    {
        return ok() ? std::get<T>(state_) : std::move(fallback);
    }

  private:
    std::variant<T, Error> state_;
};

/** Result with no payload: success, or an Error. */
template <>
class Result<void>
{
  public:
    Result() = default;
    Result(Error error) : error_(std::move(error)), failed_(true) {}

    bool ok() const { return !failed_; }
    explicit operator bool() const { return ok(); }

    const Error &
    error() const
    {
        panic_if(ok(), "Result::error() on success");
        return error_;
    }

  private:
    Error error_;
    bool failed_ = false;
};

} // namespace bvf

#endif // BVF_COMMON_RESULT_HH
