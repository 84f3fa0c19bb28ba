/**
 * @file
 * Status and error reporting in the gem5 spirit.
 *
 * panic()  -- internal invariant broken; aborts.
 * fatal()  -- user/configuration error; exits with status 1.
 * warn()   -- functionality approximated; execution continues.
 * inform() -- plain status message.
 * debug()  -- chatty diagnostics (journal writes, retry decisions).
 *
 * Output is gated by a global LogLevel: Quiet suppresses everything
 * non-fatal, Warn (the default) prints warnings only, Info adds status
 * messages, Debug adds diagnostics. fatal()/panic() always print.
 *
 * All gated output funnels through one mutex-guarded sink, so lines
 * from concurrent pool workers or daemon connections never interleave
 * mid-line; the level flag itself is atomic. panic() bypasses the lock
 * (it must make progress even from a thread that died holding it).
 */

#ifndef BVF_COMMON_LOGGING_HH
#define BVF_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace bvf
{

/** Global verbosity threshold, in increasing chattiness. */
enum class LogLevel
{
    Quiet, //!< fatal/panic only
    Warn,  //!< + warn() (default)
    Info,  //!< + inform()
    Debug, //!< + debug()
};

/** Set/query the global log level. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Display name, e.g. "info". */
std::string logLevelName(LogLevel level);

/**
 * Parse a CLI spelling ("quiet", "warn", "info", "debug") into a level.
 * @return false when @p name is not a known level (@p out untouched)
 */
bool parseLogLevel(const std::string &name, LogLevel &out);

/** Thrown instead of exiting when a ScopedFatalTrap is active. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * While alive on this thread, fatal() throws FatalError instead of
 * terminating the process. Lets drivers isolate one bad configuration
 * (a malformed app spec, an unusable option combination) from a long
 * sweep instead of losing the whole run. panic() -- a broken internal
 * invariant -- still aborts regardless.
 */
class ScopedFatalTrap
{
  public:
    ScopedFatalTrap();
    ~ScopedFatalTrap();

    ScopedFatalTrap(const ScopedFatalTrap &) = delete;
    ScopedFatalTrap &operator=(const ScopedFatalTrap &) = delete;

    /** Is a trap active on this thread? */
    static bool active();
};

/**
 * Sink receiving every gated log line (newline included) together with
 * the level that produced it. Calls are serialized by the sink mutex.
 */
using LogSinkFn = void (*)(LogLevel level, const std::string &line);

/**
 * Replace the default stderr/stdout sink, e.g. to capture output in a
 * test or forward it to a daemon's log. nullptr restores the default.
 * @return the previous override (nullptr when none was set)
 */
LogSinkFn setLogSink(LogSinkFn sink);

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace bvf

#define panic(...) \
    ::bvf::panicImpl(__FILE__, __LINE__, ::bvf::strFormat(__VA_ARGS__))
#define fatal(...) \
    ::bvf::fatalImpl(__FILE__, __LINE__, ::bvf::strFormat(__VA_ARGS__))
#define warn(...) ::bvf::warnImpl(::bvf::strFormat(__VA_ARGS__))
#define inform(...) ::bvf::informImpl(::bvf::strFormat(__VA_ARGS__))
#define debug(...) ::bvf::debugImpl(::bvf::strFormat(__VA_ARGS__))

/** panic() unless @p cond holds; used for internal invariants. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            panic(__VA_ARGS__);                                           \
    } while (0)

/** fatal() unless configuration condition holds. */
#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            fatal(__VA_ARGS__);                                           \
    } while (0)

#endif // BVF_COMMON_LOGGING_HH
