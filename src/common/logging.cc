/**
 * @file
 * Logging implementation.
 */

#include "common/logging.hh"

#include <atomic>
#include <cstdarg>
#include <mutex>
#include <vector>

namespace bvf
{

namespace
{
std::atomic<LogLevel> levelFlag{LogLevel::Warn};
thread_local int fatalTrapDepth = 0;

/**
 * One mutex for every gated line keeps concurrent warn()/inform()/
 * debug() calls from interleaving mid-line. Function-local so the lock
 * outlives any static-destruction-order games.
 */
std::mutex &
sinkMutex()
{
    static std::mutex mutex;
    return mutex;
}

LogSinkFn sinkOverride = nullptr; //!< guarded by sinkMutex()

/** Serialize one finished line to the override or default stream. */
void
emitLine(LogLevel level, std::FILE *stream, const std::string &line)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    if (sinkOverride) {
        sinkOverride(level, line);
        return;
    }
    std::fputs(line.c_str(), stream);
    std::fflush(stream);
}
} // namespace

ScopedFatalTrap::ScopedFatalTrap()
{
    ++fatalTrapDepth;
}

ScopedFatalTrap::~ScopedFatalTrap()
{
    --fatalTrapDepth;
}

bool
ScopedFatalTrap::active()
{
    return fatalTrapDepth > 0;
}

void
setLogLevel(LogLevel level)
{
    levelFlag.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return levelFlag.load(std::memory_order_relaxed);
}

LogSinkFn
setLogSink(LogSinkFn sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex());
    LogSinkFn previous = sinkOverride;
    sinkOverride = sink;
    return previous;
}

std::string
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Quiet:
        return "quiet";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Info:
        return "info";
      case LogLevel::Debug:
        return "debug";
    }
    return "?";
}

bool
parseLogLevel(const std::string &name, LogLevel &out)
{
    for (const auto level : {LogLevel::Quiet, LogLevel::Warn,
                             LogLevel::Info, LogLevel::Debug}) {
        if (name == logLevelName(level)) {
            out = level;
            return true;
        }
    }
    return false;
}

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return "<format error>";
    }
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedFatalTrap::active())
        throw FatalError(strFormat("%s (%s:%d)", msg.c_str(), file, line));
    emitLine(LogLevel::Quiet, stderr,
             strFormat("fatal: %s (%s:%d)\n", msg.c_str(), file, line));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        emitLine(LogLevel::Warn, stderr, strFormat("warn: %s\n", msg.c_str()));
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Info) {
        emitLine(LogLevel::Info, stdout,
                 strFormat("info: %s\n", msg.c_str()));
    }
}

void
debugImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Debug) {
        emitLine(LogLevel::Debug, stderr,
                 strFormat("debug: %s\n", msg.c_str()));
    }
}

} // namespace bvf
