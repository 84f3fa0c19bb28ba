/**
 * @file
 * Tests for the log-level machinery: parsing CLI spellings, the
 * level-name round trip, the legacy verbose shims that older call
 * sites still use, and the mutex-guarded sink that keeps concurrent
 * workers from interleaving lines.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace bvf
{
namespace
{

/** Restores the global level so tests cannot leak verbosity. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(logLevel()) {}
    ~LevelGuard() { setLogLevel(saved_); }

  private:
    LogLevel saved_;
};

TEST(Logging, DefaultLevelIsWarn)
{
    // The suite never raises the level except under a guard, so the
    // process-wide default must still be visible here.
    EXPECT_EQ(logLevel(), LogLevel::Warn);
}

TEST(Logging, SetAndQueryRoundTrips)
{
    LevelGuard guard;
    for (const auto level : {LogLevel::Quiet, LogLevel::Warn,
                             LogLevel::Info, LogLevel::Debug}) {
        setLogLevel(level);
        EXPECT_EQ(logLevel(), level);
    }
}

TEST(Logging, NamesRoundTripThroughParse)
{
    for (const auto level : {LogLevel::Quiet, LogLevel::Warn,
                             LogLevel::Info, LogLevel::Debug}) {
        LogLevel parsed = LogLevel::Quiet;
        ASSERT_TRUE(parseLogLevel(logLevelName(level), parsed))
            << logLevelName(level);
        EXPECT_EQ(parsed, level);
    }
}

TEST(Logging, ParseRejectsUnknownSpellings)
{
    LogLevel out = LogLevel::Debug;
    EXPECT_FALSE(parseLogLevel("", out));
    EXPECT_FALSE(parseLogLevel("loud", out));
    EXPECT_FALSE(parseLogLevel("WARN", out)); // spellings are exact
    EXPECT_FALSE(parseLogLevel("warn ", out));
    // A failed parse must leave the output untouched.
    EXPECT_EQ(out, LogLevel::Debug);
}

/** Captured lines for the sink tests (LogSinkFn is a plain pointer). */
std::mutex capturedMutex;
std::vector<std::pair<LogLevel, std::string>> captured;

void
captureSink(LogLevel level, const std::string &line)
{
    std::lock_guard<std::mutex> lock(capturedMutex);
    captured.emplace_back(level, line);
}

/** Swaps in captureSink, restoring the previous sink on scope exit. */
class SinkGuard
{
  public:
    SinkGuard() : previous_(setLogSink(captureSink))
    {
        std::lock_guard<std::mutex> lock(capturedMutex);
        captured.clear();
    }
    ~SinkGuard() { setLogSink(previous_); }

  private:
    LogSinkFn previous_;
};

TEST(Logging, SinkOverrideReceivesWholeTaggedLines)
{
    LevelGuard level;
    setLogLevel(LogLevel::Debug);
    {
        SinkGuard sink;
        warn("watch out %d", 7);
        inform("hello %s", "world");
        debug("gory detail");
        std::lock_guard<std::mutex> lock(capturedMutex);
        ASSERT_EQ(captured.size(), 3u);
        EXPECT_EQ(captured[0].first, LogLevel::Warn);
        EXPECT_EQ(captured[0].second, "warn: watch out 7\n");
        EXPECT_EQ(captured[1].first, LogLevel::Info);
        EXPECT_EQ(captured[1].second, "info: hello world\n");
        EXPECT_EQ(captured[2].first, LogLevel::Debug);
        EXPECT_EQ(captured[2].second, "debug: gory detail\n");
    }
    // Restored: the override no longer sees lines.
    warn("back on stderr");
    std::lock_guard<std::mutex> lock(capturedMutex);
    EXPECT_EQ(captured.size(), 3u);
}

TEST(Logging, SinkStillRespectsTheLevelGate)
{
    LevelGuard level;
    setLogLevel(LogLevel::Warn);
    SinkGuard sink;
    inform("suppressed");
    debug("also suppressed");
    warn("kept");
    std::lock_guard<std::mutex> lock(capturedMutex);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
}

TEST(Logging, ConcurrentWarnsArriveAsIntactLines)
{
    // The single guarded sink is what keeps parallel campaign workers
    // from interleaving fragments mid-line.
    LevelGuard level;
    setLogLevel(LogLevel::Warn);
    SinkGuard sink;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                warn("thread %d line %d", t, i);
        });
    }
    for (auto &t : threads)
        t.join();
    std::lock_guard<std::mutex> lock(capturedMutex);
    ASSERT_EQ(captured.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    for (const auto &[lvl, line] : captured) {
        EXPECT_EQ(lvl, LogLevel::Warn);
        // Every line is exactly one whole message: tag, text, newline.
        EXPECT_EQ(line.rfind("warn: thread ", 0), 0u) << line;
        EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    }
}

TEST(Logging, FatalTrapStillWorksAtQuiet)
{
    LevelGuard guard;
    setLogLevel(LogLevel::Quiet);
    bool thrown = false;
    try {
        ScopedFatalTrap trap;
        fatal("still must throw under Quiet");
    } catch (const FatalError &e) {
        thrown = true;
        EXPECT_NE(std::string(e.what()).find("still must throw"),
                  std::string::npos);
    }
    EXPECT_TRUE(thrown);
}

} // namespace
} // namespace bvf
