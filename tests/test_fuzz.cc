/**
 * @file
 * Fuzz-driver tests: every untrusted parser survives a bounded
 * deterministic mutation run, the checked-in regression corpus
 * replays clean, and the frame driver enforces the framing-error
 * taxonomy (the invariant whose violation once convicted innocent
 * jobs). CI runs the same drivers for far more iterations under
 * ASan/UBSan via bvf_simsweep; these keep the property wired into
 * plain ctest.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "server/protocol.hh"
#include "sim/fuzz.hh"

namespace bvf::sim
{
namespace
{

class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/bvf-fuzz-XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        dir_ = made ? made : "/tmp";
    }

    ~TempDir()
    {
        if (DIR *d = ::opendir(dir_.c_str())) {
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    ::unlink((dir_ + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(dir_.c_str());
    }

    const std::string &str() const { return dir_; }

  private:
    std::string dir_;
};

TEST(FuzzTargets, NamesRoundTrip)
{
    for (const FuzzTarget target : kAllFuzzTargets) {
        const std::string name = fuzzTargetName(target);
        auto back = fuzzTargetFromName(name);
        ASSERT_TRUE(back.ok()) << name;
        EXPECT_EQ(back.value(), target);
    }
    auto bogus = fuzzTargetFromName("bogus");
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.error().code, ErrorCode::InvalidArgument);
}

TEST(FuzzTargets, EveryTargetHasSeedInputs)
{
    for (const FuzzTarget target : kAllFuzzTargets)
        EXPECT_FALSE(corpusSeeds(target).empty());
}

TEST(Fuzz, BoundedRunHoldsEveryInvariant)
{
    TempDir dir;
    for (const FuzzTarget target : kAllFuzzTargets) {
        auto report = runFuzz(target, 7, 300, dir.str());
        ASSERT_TRUE(report.ok()) << fuzzTargetName(target);
        EXPECT_FALSE(report.value().failed)
            << fuzzTargetName(target) << ": " << report.value().what;
        EXPECT_EQ(report.value().iterations, 300u);
    }
}

TEST(Fuzz, RegressionCorpusReplaysClean)
{
    for (const FuzzTarget target : kAllFuzzTargets) {
        const std::string corpus =
            std::string(BVF_CORPUS_DIR) + "/" + fuzzTargetName(target);
        auto report = replayCorpusDir(target, corpus);
        ASSERT_TRUE(report.ok()) << fuzzTargetName(target);
        EXPECT_FALSE(report.value().failed)
            << fuzzTargetName(target) << ": " << report.value().what
            << " (" << report.value().failingPath << ")";
        // The corpus is checked in; an empty directory means the build
        // is replaying the wrong path.
        EXPECT_GT(report.value().iterations, 0u)
            << fuzzTargetName(target);
    }
}

/**
 * Regression (scenario seed 126): an oversized length field must fail
 * inside the framing taxonomy. checkFuzzInput enforces that for every
 * frame input; this pins the exact shape that slipped through.
 */
TEST(Fuzz, OversizedLengthStaysInsideTheFramingTaxonomy)
{
    server::Ping ping;
    ping.nonce = 7;
    std::string frame =
        server::encodeFrame(server::MsgType::PingRequest, ping.encode());
    frame[8] ^= 0x01;
    frame[11] ^= 0x01;

    auto checked = checkFuzzInput(FuzzTarget::Frame, frame);
    EXPECT_TRUE(checked.ok()) << checked.error().message;

    std::size_t consumed = 0;
    auto parsed = server::parseFrame(frame, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

} // namespace
} // namespace bvf::sim
