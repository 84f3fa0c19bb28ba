/**
 * @file
 * Tests for trace capture/replay: offline parsing must reproduce online
 * accounting exactly (the paper's dump-then-parse methodology), and a
 * damaged dump must fail as a structured error -- or salvage exactly
 * its valid prefix -- rather than kill the process.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hh"
#include "core/accountant.hh"
#include "core/experiment.hh"
#include "core/trace.hh"
#include "gpu/gpu.hh"
#include "workload/kernel_builder.hh"

namespace bvf::core
{
namespace
{

using coder::Scenario;
using coder::UnitId;
using sram::AccessType;

std::map<UnitId, std::uint64_t>
caps()
{
    std::map<UnitId, std::uint64_t> m;
    for (const auto unit : coder::allUnits()) {
        if (unit != UnitId::Noc)
            m[unit] = 1 << 20;
    }
    return m;
}

/** Counts events so salvage tests can verify the exact valid prefix. */
class CountingSink : public sram::AccessSink
{
  public:
    void
    onAccess(UnitId, AccessType, std::span<const Word>, std::uint32_t,
             std::uint64_t) override
    {
        ++events;
    }

    void
    onFetch(UnitId, AccessType, std::span<const Word64>,
            std::uint64_t) override
    {
        ++events;
    }

    void
    onNocPacket(int, std::span<const Word>, bool, std::uint64_t) override
    {
        ++events;
    }

    std::uint64_t events = 0;
};

/** A v2 trace of @p n single-word access records. */
std::string
makeTrace(std::uint64_t n)
{
    std::stringstream buffer;
    TraceWriter writer(buffer);
    const std::vector<Word> block = {0x12345678u};
    for (std::uint64_t i = 0; i < n; ++i)
        writer.onAccess(UnitId::L1D, AccessType::Read, block, 0x1, i);
    EXPECT_TRUE(writer.finish().ok());
    return buffer.str();
}

TEST(Trace, RoundTripSingleRecords)
{
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        const std::vector<Word> block = {1u, 2u, 3u};
        writer.onAccess(UnitId::L1D, AccessType::Read, block, 0x7, 42);
        const std::vector<Word64> instrs = {0xdeadbeefcafef00dull};
        writer.onFetch(UnitId::L1I, AccessType::Write, instrs, 43);
        const std::vector<Word> payload(8, 0xffu);
        writer.onNocPacket(300, payload, true, 44);
        EXPECT_EQ(writer.records(), 3u);
    }

    EnergyAccountant acc(caps());
    const auto replayed = replayTrace(buffer, acc);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 3u);
    EXPECT_TRUE(replayed.value().sawFooter);
    EXPECT_FALSE(replayed.value().salvaged);
    EXPECT_EQ(acc.unitAccount(UnitId::L1D)
                  .stats(Scenario::Baseline)
                  .reads.accesses,
              1u);
    EXPECT_EQ(acc.unitAccount(UnitId::L1I)
                  .stats(Scenario::Baseline)
                  .writes.accesses,
              1u);
    EXPECT_EQ(acc.noc(Scenario::Baseline).flits, 1u);
}

TEST(Trace, OfflineReplayEqualsOnlineAccounting)
{
    const auto &spec = workload::findApp("KMN");
    const auto capacities = caps();

    // Online: account while simulating, and dump the trace via a tee.
    EnergyAccountant online(capacities);
    std::stringstream buffer;
    TraceWriter writer(buffer);
    TeeSink tee(online, writer);
    {
        gpu::GpuConfig config = gpu::baselineConfig();
        gpu::Gpu machine(config, workload::buildProgram(spec), tee);
        const auto stats = machine.run();
        online.finalize(stats.cycles);
    }
    const auto finished = writer.finish();
    ASSERT_TRUE(finished.ok());
    ASSERT_GT(finished.value(), 1000u);

    // Offline: replay the dump into a fresh accountant.
    EnergyAccountant offline(capacities);
    const auto replayed = replayTrace(buffer, offline);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, finished.value());
    EXPECT_TRUE(replayed.value().sawFooter);
    EXPECT_GE(replayed.value().batches, 1u);

    for (const auto unit : coder::allUnits()) {
        if (unit == UnitId::Noc)
            continue;
        for (const auto s : coder::allScenarios) {
            const auto &a = online.unitAccount(unit).stats(s);
            const auto &b = offline.unitAccount(unit).stats(s);
            EXPECT_EQ(a.reads.ones, b.reads.ones)
                << coder::unitName(unit);
            EXPECT_EQ(a.reads.zeros, b.reads.zeros);
            EXPECT_EQ(a.writes.ones, b.writes.ones);
            EXPECT_EQ(a.writes.accesses, b.writes.accesses);
        }
    }
    for (const auto s : coder::allScenarios) {
        EXPECT_EQ(online.noc(s).toggles, offline.noc(s).toggles);
        EXPECT_EQ(online.noc(s).flits, offline.noc(s).flits);
        EXPECT_EQ(online.noc(s).payloadOnes, offline.noc(s).payloadOnes);
    }
}

TEST(Trace, GarbageIsAStructuredError)
{
    std::stringstream buffer("not a trace at all");
    sram::NullSink sink;
    const auto replayed = replayTrace(buffer, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Corrupt);
    EXPECT_NE(replayed.error().message.find("not a BVF trace"),
              std::string::npos);
}

TEST(Trace, EmptyTraceReplaysZeroRecords)
{
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        (void)writer;
    }
    sram::NullSink sink;
    const auto replayed = replayTrace(buffer, sink);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 0u);
    EXPECT_TRUE(replayed.value().sawFooter);
}

TEST(Trace, TruncatedFooterIsDetected)
{
    const std::string full = makeTrace(100);
    std::stringstream cut(full.substr(0, full.size() - 5));
    sram::NullSink sink;
    const auto replayed = replayTrace(cut, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Truncated);
}

TEST(Trace, TruncationMidBatchSalvagesExactPrefix)
{
    // Enough records to flush several 64KiB batches.
    const std::string full = makeTrace(5000);
    std::stringstream cut(full.substr(0, full.size() * 7 / 10));

    CountingSink counter;
    const auto replayed =
        replayTrace(cut, counter, ReplayOptions{.salvage = true});
    ASSERT_TRUE(replayed.ok());
    const auto &summary = replayed.value();
    EXPECT_TRUE(summary.salvaged);
    EXPECT_FALSE(summary.warning.empty());
    EXPECT_FALSE(summary.sawFooter);
    // The valid prefix -- whole verified batches -- was replayed...
    EXPECT_GT(summary.records, 0u);
    EXPECT_LT(summary.records, 5000u);
    // ...and the sink saw exactly those records, nothing more.
    EXPECT_EQ(counter.events, summary.records);

    // Without salvage the same stream is a structured error.
    std::stringstream cut2(full.substr(0, full.size() * 7 / 10));
    sram::NullSink sink;
    const auto strict = replayTrace(cut2, sink);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(Trace, HeaderOnlyFileIsTruncatedButSalvageable)
{
    // A dump killed right after the 8-byte stream header: no batches,
    // no footer. Strict replay calls that truncation; salvage keeps the
    // (empty) valid prefix without inventing records.
    std::string bytes = "BVFT";
    const std::uint32_t v2 = 2;
    bytes.append(reinterpret_cast<const char *>(&v2), sizeof(v2));

    std::stringstream strictIn(bytes);
    sram::NullSink sink;
    const auto strict = replayTrace(strictIn, sink);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
    EXPECT_NE(strict.error().message.find("without footer"),
              std::string::npos);

    std::stringstream salvageIn(bytes);
    CountingSink counter;
    const auto salvaged =
        replayTrace(salvageIn, counter, ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvaged.ok());
    EXPECT_TRUE(salvaged.value().salvaged);
    EXPECT_FALSE(salvaged.value().sawFooter);
    EXPECT_EQ(salvaged.value().records, 0u);
    EXPECT_EQ(counter.events, 0u);
}

TEST(Trace, HandBuiltZeroRecordFooterReplaysCleanly)
{
    // Header followed directly by a footer claiming zero records: the
    // smallest complete v2 stream, built by hand so the writer cannot
    // paper over format drift.
    std::string bytes = "BVFT";
    const std::uint32_t v2 = 2;
    bytes.append(reinterpret_cast<const char *>(&v2), sizeof(v2));
    bytes += "BVFE";
    const std::uint64_t total = 0;
    bytes.append(reinterpret_cast<const char *>(&total), sizeof(total));
    const std::uint32_t crc = crc32(&total, sizeof(total));
    bytes.append(reinterpret_cast<const char *>(&crc), sizeof(crc));

    std::stringstream in(bytes);
    CountingSink counter;
    const auto replayed = replayTrace(in, counter);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed.value().records, 0u);
    EXPECT_EQ(replayed.value().batches, 0u);
    EXPECT_TRUE(replayed.value().sawFooter);
    EXPECT_FALSE(replayed.value().salvaged);
    EXPECT_EQ(counter.events, 0u);
}

TEST(Trace, TruncationExactlyAtBatchBoundarySalvagesWholeBatch)
{
    // Enough records for several batches; read the first batch header
    // to find the exact end of batch 0, then cut precisely there. The
    // salvage must keep exactly that batch's records -- no partial
    // batch, no footer confusion.
    const std::string full = makeTrace(5000);
    std::uint32_t batchBytes = 0, batchRecords = 0;
    std::memcpy(&batchBytes, full.data() + 8 + 4, sizeof(batchBytes));
    std::memcpy(&batchRecords, full.data() + 8 + 8,
                sizeof(batchRecords));
    ASSERT_GT(batchRecords, 0u);
    ASSERT_LT(batchRecords, 5000u); // really multiple batches
    const std::size_t boundary = 8 + 16 + batchBytes;
    ASSERT_LT(boundary, full.size());

    std::stringstream cut(full.substr(0, boundary));
    CountingSink counter;
    const auto salvaged =
        replayTrace(cut, counter, ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvaged.ok());
    EXPECT_TRUE(salvaged.value().salvaged);
    EXPECT_FALSE(salvaged.value().sawFooter);
    EXPECT_EQ(salvaged.value().batches, 1u);
    EXPECT_EQ(salvaged.value().records, batchRecords);
    EXPECT_EQ(counter.events, batchRecords);

    // Strict replay of the same prefix is a truncation error.
    std::stringstream cut2(full.substr(0, boundary));
    sram::NullSink sink;
    const auto strict = replayTrace(cut2, sink);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Truncated);
}

TEST(Trace, CorruptPayloadByteNeverReachesTheSink)
{
    std::string bytes = makeTrace(50);
    // Flip one byte inside the first batch payload (after the 8-byte
    // stream header and 16-byte batch header).
    bytes[8 + 16 + 40] ^= 0x20;

    std::stringstream damaged(bytes);
    CountingSink counter;
    const auto strict = replayTrace(damaged, counter);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::Corrupt);
    // CRC verification rejected the batch before dispatch.
    EXPECT_EQ(counter.events, 0u);

    std::stringstream damaged2(bytes);
    CountingSink counter2;
    const auto salvage =
        replayTrace(damaged2, counter2, ReplayOptions{.salvage = true});
    ASSERT_TRUE(salvage.ok());
    EXPECT_TRUE(salvage.value().salvaged);
    EXPECT_EQ(salvage.value().records, 0u);
    EXPECT_EQ(counter2.events, 0u);
}

TEST(Trace, CorruptBatchHeaderIsDetected)
{
    std::string bytes = makeTrace(50);
    bytes[9] = 'X'; // damage the "BTCH" marker
    std::stringstream damaged(bytes);
    sram::NullSink sink;
    const auto replayed = replayTrace(damaged, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Corrupt);
}

TEST(Trace, UnsupportedVersionIsReported)
{
    std::string bytes = makeTrace(1);
    bytes[4] = 99; // version field
    std::stringstream damaged(bytes);
    sram::NullSink sink;
    const auto replayed = replayTrace(damaged, sink);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Unsupported);
}

TEST(Trace, WriterLatchesStreamFailure)
{
    std::ofstream out("/nonexistent-dir/trace.bin", std::ios::binary);
    ASSERT_FALSE(out);
    TraceWriter writer(out);
    const std::vector<Word> block = {1u};
    writer.onAccess(UnitId::L1D, AccessType::Read, block, 0x1, 0);
    EXPECT_FALSE(writer.ok());
    const auto finished = writer.finish();
    ASSERT_FALSE(finished.ok());
    EXPECT_EQ(finished.error().code, ErrorCode::Io);
}

TEST(Trace, LegacyV1StreamIsUnsupported)
{
    // Version 1 (bare records, no batches, checksums or footer) has no
    // writer and no replay path left: its header is refused before any
    // record can reach the sink.
    std::string bytes = "BVFT";
    const std::uint32_t version = 1;
    bytes.append(reinterpret_cast<const char *>(&version), 4);
    std::string record(24, '\0');
    record[0] = 1; // access
    bytes += record;

    std::stringstream in(bytes);
    CountingSink counter;
    const auto replayed = replayTrace(in, counter);
    ASSERT_FALSE(replayed.ok());
    EXPECT_EQ(replayed.error().code, ErrorCode::Unsupported);
    EXPECT_EQ(replayed.error().message, "unsupported trace version 1");
    EXPECT_EQ(counter.events, 0u);
}

TEST(Trace, TeeDeliversToBothSinks)
{
    EnergyAccountant a(caps()), b(caps());
    TeeSink tee(a, b);
    const std::vector<Word> block = {0xffffffffu};
    tee.onAccess(UnitId::Reg, AccessType::Write, block, 0x1, 5);
    EXPECT_EQ(
        a.unitAccount(UnitId::Reg).stats(Scenario::Baseline).writes.ones,
        32u);
    EXPECT_EQ(
        b.unitAccount(UnitId::Reg).stats(Scenario::Baseline).writes.ones,
        32u);
}

TEST(Trace, RecordHeaderReservedBytesAreZero)
{
    // Enough records of all three kinds to fill several batches.
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        for (std::uint32_t i = 0; i < 3000; ++i) {
            const std::vector<Word> block(1 + i % 5, ~i);
            const std::vector<Word64> instrs(1 + i % 3, 0x0123456789abcdefull);
            writer.onAccess(UnitId::L1D, AccessType::Read, block, ~0u, i);
            writer.onFetch(UnitId::L1I, AccessType::Read, instrs, i);
            writer.onNocPacket(0x1ff, block, true, i);
        }
        ASSERT_TRUE(writer.finish().ok());
    }
    const std::string bytes = buffer.str();
    const auto u32At = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };

    // "BVFT" u32 version, then batches until the "BVFE" footer.
    std::size_t at = 8;
    std::uint64_t records = 0;
    int batches = 0;
    while (bytes.compare(at, 4, "BTCH") == 0) {
        const std::size_t end = at + 16 + u32At(at + 4);
        ++batches;
        for (at += 16; at < end; ++records) {
            const auto kind = static_cast<std::uint8_t>(bytes[at]);
            const std::size_t wordBytes = kind == 2 ? 8 : 4;
            for (std::size_t i = 20; i < 24; ++i)
                ASSERT_EQ(bytes[at + i], 0) << "record " << records;
            at += 24 + u32At(at + 16) * wordBytes;
        }
        ASSERT_EQ(at, end);
    }
    EXPECT_EQ(bytes.compare(at, 4, "BVFE"), 0);
    EXPECT_EQ(records, 9000u);
    EXPECT_GT(batches, 1);
}

} // namespace
} // namespace bvf::core
