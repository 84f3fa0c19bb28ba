/**
 * @file
 * Unit tests for the SM <-> L2 crossbar.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "noc/crossbar.hh"

namespace bvf::noc
{
namespace
{

/** Sink that records packet-level reports. */
class RecordingSink : public sram::AccessSink
{
  public:
    struct Record
    {
        int channel;
        std::vector<Word> payload;
        bool instr;
    };

    void
    onAccess(coder::UnitId, sram::AccessType, std::span<const Word>,
             std::uint32_t, std::uint64_t) override
    {}

    void
    onFetch(coder::UnitId, sram::AccessType, std::span<const Word64>,
            std::uint64_t) override
    {}

    void
    onNocPacket(int channel, std::span<const Word> payload, bool instr,
                std::uint64_t) override
    {
        records.push_back(Record{channel,
                                 {payload.begin(), payload.end()},
                                 instr});
    }

    std::vector<Record> records;
};

Packet
makeRead(int sm, int bank, std::uint32_t addr)
{
    Packet pkt;
    pkt.type = PacketType::ReadRequest;
    pkt.srcSm = sm;
    pkt.dstBank = bank;
    pkt.address = addr;
    return pkt;
}

/** A packet of @p flits flits: one header flit, the rest payload. */
Packet
makeFlits(int sm, int bank, std::uint32_t addr, int flits)
{
    Packet pkt = makeRead(sm, bank, addr);
    if (flits > 1) {
        pkt.type = PacketType::WriteRequest;
        pkt.payload.assign(
            static_cast<std::size_t>((flits - 1) * flitWords), addr);
    }
    return pkt;
}

/**
 * What a crossbar did, cycle by cycle: each delivery as
 * "CYCLE:smSM-bBANK@ADDR", in delivery order, and the flits each cycle
 * moved.
 */
struct Timeline
{
    std::vector<std::string> deliveries;
    std::vector<std::uint64_t> flits;
};

/** Step @p xbar through cycles 1..@p cycles; it must then be idle. */
Timeline
runCycles(Crossbar &xbar, int cycles)
{
    Timeline timeline;
    std::uint64_t now = 0;
    const auto record = [&timeline, &now](const Packet &p) {
        std::string entry = std::to_string(now);
        entry += ":sm";
        entry += std::to_string(p.srcSm);
        entry += "-b";
        entry += std::to_string(p.dstBank);
        entry += "@";
        entry += std::to_string(p.address);
        timeline.deliveries.push_back(std::move(entry));
    };
    xbar.setRequestHandler(record);
    xbar.setReplyHandler(record);
    for (now = 1; now <= static_cast<std::uint64_t>(cycles); ++now) {
        const std::uint64_t before = xbar.stats().flits;
        xbar.step(now);
        timeline.flits.push_back(xbar.stats().flits - before);
    }
    EXPECT_FALSE(xbar.busy());
    return timeline;
}

using Strings = std::vector<std::string>;
using Counts = std::vector<std::uint64_t>;

TEST(Crossbar, DeliversRequestToBankHandler)
{
    RecordingSink sink;
    Crossbar xbar(2, 2, sink);
    std::vector<Packet> delivered;
    xbar.setRequestHandler(
        [&delivered](const Packet &p) { delivered.push_back(p); });
    xbar.setReplyHandler([](const Packet &) {});

    xbar.injectRequest(makeRead(0, 1, 0x100));
    EXPECT_TRUE(xbar.busy());
    xbar.step(1);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].dstBank, 1);
    EXPECT_EQ(delivered[0].address, 0x100u);
    EXPECT_FALSE(xbar.busy());
}

TEST(Crossbar, MultiFlitPacketTakesMultipleCycles)
{
    RecordingSink sink;
    Crossbar xbar(1, 1, sink);
    int delivered = 0;
    xbar.setRequestHandler([&delivered](const Packet &) { ++delivered; });
    xbar.setReplyHandler([](const Packet &) {});

    Packet pkt = makeRead(0, 0, 0);
    pkt.type = PacketType::WriteRequest;
    pkt.payload.assign(32, 7u); // header + 4 payload flits
    xbar.injectRequest(std::move(pkt));

    for (int c = 1; c <= 4; ++c) {
        xbar.step(static_cast<std::uint64_t>(c));
        EXPECT_EQ(delivered, 0) << "cycle " << c;
    }
    xbar.step(5);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(xbar.stats().flits, 5u);
}

TEST(Crossbar, PayloadReportedOncePerPacket)
{
    RecordingSink sink;
    Crossbar xbar(1, 1, sink);
    xbar.setRequestHandler([](const Packet &) {});
    xbar.setReplyHandler([](const Packet &) {});

    Packet pkt = makeRead(0, 0, 0);
    pkt.type = PacketType::WriteRequest;
    pkt.payload = {1u, 2u, 3u};
    xbar.injectRequest(std::move(pkt));
    for (int c = 1; c <= 3; ++c)
        xbar.step(static_cast<std::uint64_t>(c));
    ASSERT_EQ(sink.records.size(), 1u);
    EXPECT_EQ(sink.records[0].payload, (std::vector<Word>{1u, 2u, 3u}));
    EXPECT_FALSE(sink.records[0].instr);
}

TEST(Crossbar, HeaderOnlyPacketsNotReported)
{
    RecordingSink sink;
    Crossbar xbar(1, 1, sink);
    xbar.setRequestHandler([](const Packet &) {});
    xbar.setReplyHandler([](const Packet &) {});
    xbar.injectRequest(makeRead(0, 0, 4));
    xbar.step(1);
    EXPECT_TRUE(sink.records.empty());
    EXPECT_EQ(xbar.stats().flits, 1u);
}

TEST(Crossbar, RoundRobinArbitrationIsFair)
{
    RecordingSink sink;
    Crossbar xbar(4, 1, sink);
    std::vector<int> order;
    xbar.setRequestHandler(
        [&order](const Packet &p) { order.push_back(p.srcSm); });
    xbar.setReplyHandler([](const Packet &) {});

    for (int sm = 0; sm < 4; ++sm)
        xbar.injectRequest(makeRead(sm, 0, 0));
    for (int c = 1; c <= 4; ++c)
        xbar.step(static_cast<std::uint64_t>(c));
    ASSERT_EQ(order.size(), 4u);
    std::set<int> sms(order.begin(), order.end());
    EXPECT_EQ(sms.size(), 4u); // every SM served exactly once
}

TEST(Crossbar, IndependentDestinationsProgressInParallel)
{
    RecordingSink sink;
    Crossbar xbar(2, 2, sink);
    int delivered = 0;
    xbar.setRequestHandler([&delivered](const Packet &) { ++delivered; });
    xbar.setReplyHandler([](const Packet &) {});

    xbar.injectRequest(makeRead(0, 0, 0));
    xbar.injectRequest(makeRead(1, 1, 0));
    xbar.step(1);
    EXPECT_EQ(delivered, 2); // distinct ports, one cycle
}

TEST(Crossbar, RepliesUseReplyNetwork)
{
    RecordingSink sink;
    Crossbar xbar(2, 2, sink);
    std::vector<Packet> replies;
    xbar.setRequestHandler([](const Packet &) {});
    xbar.setReplyHandler(
        [&replies](const Packet &p) { replies.push_back(p); });

    Packet reply;
    reply.type = PacketType::ReadReply;
    reply.srcSm = 1;
    reply.dstBank = 0;
    reply.payload.assign(8, 0x55u);
    xbar.injectReply(std::move(reply));
    xbar.step(1);
    xbar.step(2);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].srcSm, 1);
    // Reply channel ids are disjoint from request channel ids.
    ASSERT_EQ(sink.records.size(), 1u);
    EXPECT_GE(sink.records[0].channel, 2 * 2);
}

TEST(Crossbar, ChannelIdsStableAndDisjoint)
{
    RecordingSink sink;
    Crossbar xbar(3, 5, sink);
    std::set<int> ids;
    for (int sm = 0; sm < 3; ++sm) {
        for (int bank = 0; bank < 5; ++bank) {
            EXPECT_TRUE(ids.insert(xbar.requestChannel(sm, bank)).second);
            EXPECT_TRUE(ids.insert(xbar.replyChannel(bank, sm)).second);
        }
    }
    EXPECT_EQ(static_cast<int>(ids.size()), xbar.numChannels());
}

TEST(Crossbar, LatencyAccounted)
{
    RecordingSink sink;
    Crossbar xbar(1, 1, sink);
    xbar.setRequestHandler([](const Packet &) {});
    xbar.setReplyHandler([](const Packet &) {});
    Packet pkt = makeRead(0, 0, 0);
    pkt.issueCycle = 1;
    xbar.injectRequest(std::move(pkt));
    xbar.step(5);
    EXPECT_EQ(xbar.stats().totalLatency, 4u);
    EXPECT_EQ(xbar.stats().packets, 1u);
}

// --- Arbitration order pins ---------------------------------------------
//
// Per-channel flit order sets the NoC toggle counts, so these pin the
// exact per-cycle order of hand-built contention cases.

TEST(CrossbarOrder, RoundRobinInterleavesFlitsAndWraps)
{
    // Sources 1-3 contend for bank 0. The pointer moves past the winner
    // on every flit, so multi-flit packets interleave, and it wraps
    // from source 3 back to source 0 (idle) and on to source 1.
    RecordingSink sink;
    Crossbar xbar(4, 1, sink);
    xbar.injectRequest(makeFlits(1, 0, 10, 2));
    xbar.injectRequest(makeFlits(1, 0, 11, 1));
    xbar.injectRequest(makeFlits(2, 0, 20, 3));
    xbar.injectRequest(makeFlits(3, 0, 30, 1));
    const Timeline t = runCycles(xbar, 7);
    EXPECT_EQ(t.deliveries, (Strings{"3:sm3-b0@30", "4:sm1-b0@10",
                                     "6:sm1-b0@11", "7:sm2-b0@20"}));
    EXPECT_EQ(t.flits, (Counts{1, 1, 1, 1, 1, 1, 1}));
    EXPECT_EQ(xbar.stats().flits, 7u);
}

TEST(CrossbarOrder, PointerIsPerDestinationPort)
{
    // SM 0 wins bank 0 and then, with its next head, bank 1 in cycle 1.
    // Each port keeps its own pointer: bank 0's moves on to SM 2, while
    // bank 1's moves past SM 1 after its first flit, so SM 2's packet
    // slips in between SM 1's two flits.
    RecordingSink sink;
    Crossbar xbar(3, 2, sink);
    xbar.injectRequest(makeFlits(0, 0, 1, 1));
    xbar.injectRequest(makeFlits(0, 1, 5, 1));
    xbar.injectRequest(makeFlits(1, 1, 3, 2));
    xbar.injectRequest(makeFlits(2, 0, 2, 1));
    xbar.injectRequest(makeFlits(2, 1, 4, 1));
    const Timeline t = runCycles(xbar, 4);
    EXPECT_EQ(t.deliveries,
              (Strings{"1:sm0-b0@1", "1:sm0-b1@5", "2:sm2-b0@2",
                       "3:sm2-b1@4", "4:sm1-b1@3"}));
    EXPECT_EQ(t.flits, (Counts{2, 2, 1, 1}));
    EXPECT_EQ(xbar.stats().flits, 6u);
}

TEST(CrossbarOrder, NextHeadForHigherPortMovesSameCycle)
{
    // SM 0's second packet targets bank 2, which is arbitrated after
    // bank 0 in the same cycle, so it moves at once and wins bank 2
    // ahead of SM 1 (bank 2's pointer is still at SM 0).
    RecordingSink sink;
    Crossbar xbar(2, 3, sink);
    xbar.injectRequest(makeFlits(0, 0, 1, 1));
    xbar.injectRequest(makeFlits(0, 2, 2, 1));
    xbar.injectRequest(makeFlits(1, 2, 3, 1));
    const Timeline t = runCycles(xbar, 2);
    EXPECT_EQ(t.deliveries,
              (Strings{"1:sm0-b0@1", "1:sm0-b2@2", "2:sm1-b2@3"}));
    EXPECT_EQ(t.flits, (Counts{2, 1}));
}

TEST(CrossbarOrder, NextHeadForLowerPortWaitsACycle)
{
    // On the reply network: bank 0's second packet targets SM 0, which
    // was arbitrated before SM 2 this cycle, so it moves the next one.
    RecordingSink sink;
    Crossbar xbar(3, 1, sink);
    xbar.injectReply(makeFlits(2, 0, 1, 2));
    xbar.injectReply(makeFlits(0, 0, 2, 1));
    const Timeline t = runCycles(xbar, 3);
    EXPECT_EQ(t.deliveries, (Strings{"2:sm2-b0@1", "3:sm0-b0@2"}));
    EXPECT_EQ(t.flits, (Counts{1, 1, 1}));
    EXPECT_EQ(xbar.stats().packets, 2u);
}

TEST(CrossbarOrder, RefusesMoreThan64PortsASide)
{
    // A port's contenders are one 64-bit mask.
    RecordingSink sink;
    EXPECT_EXIT(Crossbar(65, 1, sink), ::testing::ExitedWithCode(1),
                "at most 64 ports per side");
    EXPECT_EXIT(Crossbar(1, 65, sink), ::testing::ExitedWithCode(1),
                "at most 64 ports per side");

    // 64 sources: the pointer wraps from source 63 to source 0.
    Crossbar xbar(64, 1, sink);
    xbar.injectRequest(makeFlits(63, 0, 1, 2));
    xbar.injectRequest(makeFlits(0, 0, 2, 1));
    const Timeline t = runCycles(xbar, 3);
    EXPECT_EQ(t.deliveries, (Strings{"1:sm0-b0@2", "3:sm63-b0@1"}));
    EXPECT_EQ(t.flits, (Counts{1, 1, 1}));
}

} // namespace
} // namespace bvf::noc
