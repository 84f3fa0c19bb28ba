/**
 * @file
 * Wire-protocol tests: frame round-trips, the framing error taxonomy
 * (truncation at every prefix, corrupted magic/CRC/flags, oversized
 * length, version mismatch), message encode/decode round-trips with
 * strict trailing-byte rejection, and a randomized fuzz round-trip.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/verifier.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "server/protocol.hh"

namespace bvf::server
{
namespace
{

Frame
mustParse(const std::string &bytes)
{
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    EXPECT_TRUE(parsed.ok())
        << (parsed.ok() ? std::string() : parsed.error().describe());
    EXPECT_EQ(consumed, bytes.size());
    return parsed.ok() ? parsed.value() : Frame{};
}

TEST(Framing, RoundTripsAnEmptyAndANonEmptyPayload)
{
    for (const std::string &payload : {std::string(), std::string("hello")}) {
        const std::string bytes =
            encodeFrame(MsgType::PingRequest, payload);
        EXPECT_EQ(bytes.size(), kHeaderBytes + payload.size());
        const Frame frame = mustParse(bytes);
        EXPECT_EQ(frame.type, MsgType::PingRequest);
        EXPECT_EQ(frame.payload, payload);
    }
}

TEST(Framing, TruncationAtEveryPrefixAsksForMoreBytes)
{
    const std::string bytes =
        encodeFrame(MsgType::EvalCoderRequest, "some payload bytes");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::size_t consumed = 0;
        auto parsed = parseFrame(bytes.substr(0, len), consumed);
        ASSERT_FALSE(parsed.ok()) << len;
        EXPECT_EQ(parsed.error().code, ErrorCode::Truncated) << len;
    }
    mustParse(bytes);
}

TEST(Framing, BadMagicIsCorrupt)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[0] = 'X';
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, WrongVersionIsUnsupported)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[4] = static_cast<char>(kProtocolVersion + 1);
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Unsupported);
}

TEST(Framing, NonZeroFlagsAreCorrupt)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[6] = 1;
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, UnknownTypeIsCorrupt)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    bytes[5] = 0x42; // not a MsgType
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, OversizedLengthIsRejectedWithoutBuffering)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "x");
    const std::uint32_t huge = kMaxPayload + 1;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    // Not Truncated: a 4 GB length field must fail fast, not make the
    // reader wait for 4 GB that will never come.  Corrupt rather than
    // InvalidArgument so the fleet coordinator treats it as transport
    // damage instead of an application verdict.
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, CorruptedPayloadFailsTheCrc)
{
    std::string bytes = encodeFrame(MsgType::PingRequest, "payload!");
    bytes[kHeaderBytes] ^= 0x01;
    std::size_t consumed = 0;
    auto parsed = parseFrame(bytes, consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::Corrupt);
}

TEST(Framing, ParsesTheFirstOfTwoConcatenatedFrames)
{
    const std::string first = encodeFrame(MsgType::PingRequest, "one");
    const std::string second =
        encodeFrame(MsgType::EvalCoderRequest, "two");
    std::size_t consumed = 0;
    auto parsed = parseFrame(first + second, consumed);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(consumed, first.size());
    EXPECT_EQ(parsed.value().payload, "one");
}

TEST(Messages, PingRoundTrip)
{
    Ping ping;
    ping.nonce = 0x0123456789abcdefull;
    const auto decoded = Ping::decode(ping.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().nonce, ping.nonce);
}

TEST(Messages, EvalCoderRoundTrip)
{
    EvalCoderRequest req;
    req.coder = CoderKind::Vs;
    req.arch = 2;
    req.vsPivot = 17;
    req.isaMask = 0xdeadbeefcafef00dull;
    req.words = {0ull, ~0ull, 0x0123456789abcdefull};
    const auto decoded = EvalCoderRequest::decode(req.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().coder, req.coder);
    EXPECT_EQ(decoded.value().vsPivot, req.vsPivot);
    EXPECT_EQ(decoded.value().isaMask, req.isaMask);
    EXPECT_EQ(decoded.value().words, req.words);
}

TEST(Messages, WordCountOutrunningThePayloadIsTruncatedNotAllocated)
{
    // A hostile payload claims ~131k words but carries none. The
    // decoder must check the claim against the bytes actually present
    // *before* sizing its vector -- a megabyte allocation driven by a
    // 4-byte lie is an amplification primitive.
    EvalCoderRequest req;
    req.coder = CoderKind::Nv;
    std::string bytes = req.encode(); // zero words: count is the tail
    const std::uint32_t lie = 131000;
    std::memcpy(&bytes[bytes.size() - sizeof(lie)], &lie, sizeof(lie));
    const auto decoded = EvalCoderRequest::decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Truncated);
}

TEST(Messages, ResponseWordCountIsCheckedBeforeAllocatingToo)
{
    EvalCoderResponse resp;
    resp.totalBits = 64;
    std::string bytes = resp.encode(); // empty vector: count is the tail
    const std::uint32_t lie = 131000;
    std::memcpy(&bytes[bytes.size() - sizeof(lie)], &lie, sizeof(lie));
    const auto decoded = EvalCoderResponse::decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Truncated);
}

TEST(Messages, DoublesSurviveBitExactly)
{
    ChipEnergyResponse resp;
    resp.cycles = 7;
    resp.instructions = 11;
    resp.chipEnergy = {1.0 / 3.0, 2.625e-6, -0.0, 1e300, 5.5e-324};
    resp.bvfUnitsEnergy = {0.1, 0.2, 0.3, 0.4, 0.5};
    const auto decoded = ChipEnergyResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok());
    for (std::size_t i = 0; i < kScenarioSlots; ++i) {
        EXPECT_EQ(std::memcmp(&decoded.value().chipEnergy[i],
                              &resp.chipEnergy[i], sizeof(double)),
                  0)
            << i;
    }
}

TEST(Messages, TrailingBytesAreRejected)
{
    Ping ping;
    ping.nonce = 5;
    const auto decoded = Ping::decode(ping.encode() + "extra");
    ASSERT_FALSE(decoded.ok());
}

TEST(Messages, DecodeValidatesRanges)
{
    // An out-of-range scheduler index must not decode.
    BitDensityRequest req;
    req.query.abbr = "KMN";
    req.query.sched = 9;
    EXPECT_FALSE(BitDensityRequest::decode(req.encode()).ok());

    ChipEnergyRequest energy;
    energy.query.abbr = "KMN";
    energy.cell = 200;
    EXPECT_FALSE(ChipEnergyRequest::decode(energy.encode()).ok());

    StaticQueryRequest stat;
    stat.query.abbr = ""; // empty abbreviation
    EXPECT_FALSE(StaticQueryRequest::decode(stat.encode()).ok());
}

TEST(Messages, StaticAdviceRoundTrip)
{
    StaticAdviceRequest req;
    req.query.abbr = "KMN";
    req.query.arch = 2;
    const auto decodedReq = StaticAdviceRequest::decode(req.encode());
    ASSERT_TRUE(decodedReq.ok());
    EXPECT_EQ(decodedReq.value().query.abbr, "KMN");
    EXPECT_EQ(decodedReq.value().query.arch, 2);

    StaticAdviceResponse resp;
    resp.bestPivot = 21;
    resp.provenSlack = 0.125;
    resp.affineSources = 46;
    resp.totalSources = 104;
    for (std::size_t p = 0; p < 32; ++p) {
        resp.pivotBounds[p] = {0.01 * static_cast<double>(p),
                               0.5 + 0.01 * static_cast<double>(p), 1};
        resp.pivotScores[p] = 1.0 / (1.0 + static_cast<double>(p));
    }
    resp.defaultMask = 0x4818000000070201ull;
    resp.specializedMask = 0x4818000000070203ull;
    resp.defaultDensity = {0.70, 0.98, 1};
    resp.specializedDensity = {0.72, 0.99, 1};
    resp.bestScenario = 4;
    resp.unitPicks.push_back({0, 2, 1, {0.1, 0.2, 1}, {0.3, 0.4, 1}});
    resp.unitPicks.push_back({8, 1, 0, {0.5, 0.6, 1}, {0.0, 1.0, 0}});

    const auto decoded = StaticAdviceResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok());
    const StaticAdviceResponse &r = decoded.value();
    EXPECT_EQ(r.bestPivot, resp.bestPivot);
    EXPECT_EQ(r.provenSlack, resp.provenSlack);
    EXPECT_EQ(r.affineSources, resp.affineSources);
    EXPECT_EQ(r.totalSources, resp.totalSources);
    for (std::size_t p = 0; p < 32; ++p) {
        EXPECT_EQ(r.pivotBounds[p].lo, resp.pivotBounds[p].lo);
        EXPECT_EQ(r.pivotBounds[p].hi, resp.pivotBounds[p].hi);
        EXPECT_EQ(r.pivotBounds[p].any, resp.pivotBounds[p].any);
        EXPECT_EQ(r.pivotScores[p], resp.pivotScores[p]);
    }
    EXPECT_EQ(r.defaultMask, resp.defaultMask);
    EXPECT_EQ(r.specializedMask, resp.specializedMask);
    EXPECT_EQ(r.bestScenario, resp.bestScenario);
    ASSERT_EQ(r.unitPicks.size(), 2u);
    EXPECT_EQ(r.unitPicks[1].unit, 8);
    EXPECT_EQ(r.unitPicks[1].pick, 1);
    EXPECT_EQ(r.unitPicks[1].proven, 0);
    EXPECT_EQ(r.unitPicks[1].vs.any, 0);

    // An out-of-range pivot lane must not decode.
    resp.bestPivot = 32;
    EXPECT_FALSE(StaticAdviceResponse::decode(resp.encode()).ok());
    // Neither must an invalid query.
    req.query.abbr = "";
    EXPECT_FALSE(StaticAdviceRequest::decode(req.encode()).ok());
}

TEST(Messages, WireErrorRoundTrip)
{
    WireError err;
    err.code = static_cast<std::uint8_t>(ErrorCode::Timeout);
    err.message = "watchdog fired";
    const auto decoded = WireError::decode(err.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().code, err.code);
    EXPECT_EQ(decoded.value().message, err.message);
}

/** Every message type in the message table, each once. */
std::vector<MsgType>
tableTypes()
{
    std::vector<MsgType> types;
    for (const MessageKind &kind : kMessageKinds) {
        if (kind.request != kind.response)
            types.push_back(kind.request);
        types.push_back(kind.response);
    }
    return types;
}

TEST(Fuzz, RandomFramesRoundTripAndRandomBytesNeverCrash)
{
    Rng rng(0xb5f00d);
    const std::vector<MsgType> types = tableTypes();
    for (std::size_t round = 0; round < 34 * types.size(); ++round) {
        // Round-trip a random payload under each type in turn.
        std::string payload;
        const auto len =
            static_cast<std::size_t>(rng.nextRange(0, 300));
        for (std::size_t i = 0; i < len; ++i)
            payload += static_cast<char>(rng.nextRange(0, 255));
        const MsgType type = types[round % types.size()];
        const std::string bytes = encodeFrame(type, payload);
        std::size_t consumed = 0;
        auto parsed = parseFrame(bytes, consumed);
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value().type, type);
        EXPECT_EQ(parsed.value().payload, payload);

        // Corrupt one random byte: must fail cleanly, never crash.
        std::string mangled = bytes;
        const auto at =
            static_cast<std::size_t>(rng.nextBounded(mangled.size()));
        mangled[at] = static_cast<char>(
            mangled[at] ^ static_cast<char>(rng.nextRange(1, 255)));
        std::size_t mangledConsumed = 0;
        auto reparsed = parseFrame(mangled, mangledConsumed);
        if (reparsed.ok()) {
            // Only a flip inside the payload that still matches the
            // CRC could pass -- impossible for a single-byte flip --
            // so the only acceptable success is a flip that did not
            // change decoding-relevant bytes... which cannot happen
            // either. Any success here is a real framing hole.
            ADD_FAILURE() << "single-byte corruption at " << at
                          << " went undetected";
        }

        // Pure noise: never crash, never succeed spuriously (the
        // magic makes a random 16-byte prefix astronomically
        // unlikely).
        std::string noise;
        const auto noiseLen =
            static_cast<std::size_t>(rng.nextRange(0, 64));
        for (std::size_t i = 0; i < noiseLen; ++i)
            noise += static_cast<char>(rng.nextRange(0, 255));
        std::size_t noiseConsumed = 0;
        (void)parseFrame(noise, noiseConsumed);
    }
}

TEST(Messages, SubmitKernelRoundTrip)
{
    SubmitKernelRequest req;
    req.bytecode = std::string("BVFK-ish blob \x00\xff\x7f with NULs", 27);
    const auto decoded = SubmitKernelRequest::decode(req.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().bytecode, req.bytecode);
}

TEST(Messages, EmptySubmittedBytecodeIsInvalid)
{
    SubmitKernelRequest req;
    const auto decoded = SubmitKernelRequest::decode(req.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);
}

TEST(Messages, SubmitKernelOptimizeFlagRoundTrips)
{
    // Default requests must stay byte-identical to the pre-flag wire
    // format: the optimize byte is a trailing option, not a new field
    // every old peer would choke on.
    SubmitKernelRequest plain;
    plain.bytecode = "blob";
    SubmitKernelRequest flagged;
    flagged.bytecode = "blob";
    flagged.optimize = 1;
    EXPECT_EQ(plain.encode().size() + 1, flagged.encode().size());

    const auto decodedPlain = SubmitKernelRequest::decode(plain.encode());
    ASSERT_TRUE(decodedPlain.ok());
    EXPECT_EQ(decodedPlain.value().optimize, 0);

    const auto decodedFlag =
        SubmitKernelRequest::decode(flagged.encode());
    ASSERT_TRUE(decodedFlag.ok()) << decodedFlag.error().message;
    EXPECT_EQ(decodedFlag.value().optimize, 1);

    // A non-boolean flag byte is corrupt, not silently truthy.
    std::string bent = flagged.encode();
    bent.back() = 2;
    EXPECT_FALSE(SubmitKernelRequest::decode(bent).ok());
}

TEST(Messages, SubmitKernelResponseOptimizeTailRoundTrips)
{
    SubmitKernelResponse resp;
    resp.admitted = 1;
    resp.digest = "k824ee515-5957c";
    resp.tripBound = 12;
    resp.optimizeRequested = 1;
    resp.optimized = 1;
    resp.optimizedDigest = "k11223344-40";
    auto decoded = SubmitKernelResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().optimizeRequested, 1);
    EXPECT_EQ(decoded.value().optimized, 1);
    EXPECT_EQ(decoded.value().optimizedDigest, resp.optimizedDigest);

    // Fallback: requested but not optimized, digest must stay empty.
    SubmitKernelResponse fallback;
    fallback.admitted = 1;
    fallback.digest = "k824ee515-5957c";
    fallback.tripBound = 12;
    fallback.optimizeRequested = 1;
    auto decodedFb = SubmitKernelResponse::decode(fallback.encode());
    ASSERT_TRUE(decodedFb.ok()) << decodedFb.error().message;
    EXPECT_EQ(decodedFb.value().optimizeRequested, 1);
    EXPECT_EQ(decodedFb.value().optimized, 0);
    EXPECT_TRUE(decodedFb.value().optimizedDigest.empty());

    // Without the request flag the tail is absent from the wire and
    // decodes to all-defaults -- old responses still parse.
    SubmitKernelResponse plain;
    plain.admitted = 1;
    plain.digest = "k824ee515-5957c";
    plain.tripBound = 12;
    auto decodedPlain = SubmitKernelResponse::decode(plain.encode());
    ASSERT_TRUE(decodedPlain.ok());
    EXPECT_EQ(decodedPlain.value().optimizeRequested, 0);
    EXPECT_EQ(decodedPlain.value().optimized, 0);

    // Inconsistent tails are corrupt: an optimized claim without a
    // digest, and a fallback carrying one.
    SubmitKernelResponse noDigest = resp;
    noDigest.optimizedDigest.clear();
    EXPECT_FALSE(SubmitKernelResponse::decode(noDigest.encode()).ok());
    SubmitKernelResponse fbDigest = fallback;
    fbDigest.optimizedDigest = "k11223344-40";
    EXPECT_FALSE(SubmitKernelResponse::decode(fbDigest.encode()).ok());
}

TEST(Messages, SubmitKernelResponseRoundTripsBothOutcomes)
{
    SubmitKernelResponse admitted;
    admitted.admitted = 1;
    admitted.digest = "k824ee515-5957c";
    admitted.tripBound = 233;
    admitted.globalLo = 0x10000;
    admitted.globalHi = 0x74ffc;
    auto decodedA = SubmitKernelResponse::decode(admitted.encode());
    ASSERT_TRUE(decodedA.ok()) << decodedA.error().message;
    EXPECT_EQ(decodedA.value().digest, admitted.digest);
    EXPECT_EQ(decodedA.value().tripBound, admitted.tripBound);
    EXPECT_EQ(decodedA.value().globalLo, admitted.globalLo);
    EXPECT_EQ(decodedA.value().globalHi, admitted.globalHi);

    SubmitKernelResponse rejected;
    rejected.admitted = 0;
    rejected.rejections.push_back({8, 12, "not provably terminating"});
    rejected.rejections.push_back({4, 30, "R7 read before any write"});
    auto decodedR = SubmitKernelResponse::decode(rejected.encode());
    ASSERT_TRUE(decodedR.ok()) << decodedR.error().message;
    ASSERT_EQ(decodedR.value().rejections.size(), 2u);
    EXPECT_EQ(decodedR.value().rejections[0].reason, 8);
    EXPECT_EQ(decodedR.value().rejections[0].pc, 12u);
    EXPECT_EQ(decodedR.value().rejections[1].message,
              "R7 read before any write");
}

TEST(Messages, AdmittedResponseCarryingRejectionsIsCorrupt)
{
    SubmitKernelResponse resp;
    resp.admitted = 1;
    resp.digest = "k0-0";
    resp.rejections.push_back({0, 0, "contradiction"});
    const auto decoded = SubmitKernelResponse::decode(resp.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Corrupt);
}

TEST(Messages, RejectionReasonOutsideTheEnumIsRejected)
{
    SubmitKernelResponse resp;
    resp.rejections.push_back({200, 0, "reason from the future"});
    const auto decoded = SubmitKernelResponse::decode(resp.encode());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);
}

TEST(Messages, RejectionCountOutrunningThePayloadIsNotAllocated)
{
    SubmitKernelResponse resp;
    std::string bytes = resp.encode();
    // The rejection count is the trailing u32; claim 200 entries
    // (inside the cap) with zero record bytes behind them.
    bytes[bytes.size() - 4] = static_cast<char>(200);
    const auto decoded = SubmitKernelResponse::decode(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::Truncated);

    // Beyond the cap is structurally corrupt, also without allocating.
    bytes[bytes.size() - 1] = static_cast<char>(0x80);
    const auto capped = SubmitKernelResponse::decode(bytes);
    ASSERT_FALSE(capped.ok());
    EXPECT_EQ(capped.error().code, ErrorCode::Corrupt);
}

TEST(Messages, EvalSubmittedRoundTrip)
{
    EvalSubmittedRequest req;
    req.digest = "k824ee515-5957c";
    req.arch = 2;
    req.sched = 1;
    req.vsPivot = 19;
    req.dynamicIsa = 1;
    req.node = 1;
    req.pstate = 2;
    req.cell = 4;
    req.ecc = 1;
    req.cellsBitline = 256;
    const auto decoded = EvalSubmittedRequest::decode(req.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().digest, req.digest);
    EXPECT_EQ(decoded.value().arch, req.arch);
    EXPECT_EQ(decoded.value().sched, req.sched);
    EXPECT_EQ(decoded.value().vsPivot, req.vsPivot);
    EXPECT_EQ(decoded.value().dynamicIsa, req.dynamicIsa);
    EXPECT_EQ(decoded.value().node, req.node);
    EXPECT_EQ(decoded.value().pstate, req.pstate);
    EXPECT_EQ(decoded.value().cell, req.cell);
    EXPECT_EQ(decoded.value().ecc, req.ecc);
    EXPECT_EQ(decoded.value().cellsBitline, req.cellsBitline);
}

TEST(Messages, EvalSubmittedValidatesEveryEnumIndex)
{
    EvalSubmittedRequest good;
    good.digest = "k0-0";
    for (auto mutate : {+[](EvalSubmittedRequest &r) { r.digest = ""; },
                        +[](EvalSubmittedRequest &r) { r.arch = 4; },
                        +[](EvalSubmittedRequest &r) { r.sched = 3; },
                        +[](EvalSubmittedRequest &r) { r.vsPivot = 32; },
                        +[](EvalSubmittedRequest &r) { r.cell = 5; },
                        +[](EvalSubmittedRequest &r) { r.node = 2; },
                        +[](EvalSubmittedRequest &r) { r.pstate = 3; },
                        +[](EvalSubmittedRequest &r) {
                            r.cellsBitline = 0;
                        }}) {
        EvalSubmittedRequest req = good;
        mutate(req);
        EXPECT_FALSE(EvalSubmittedRequest::decode(req.encode()).ok());
    }
    EXPECT_TRUE(EvalSubmittedRequest::decode(good.encode()).ok());
}

TEST(Messages, PricingFieldsValidateAlikeOnBothPricedRequests)
{
    // ChipEnergy and EvalSubmitted carry the same five pricing fields
    // and must accept and refuse exactly the same values: the range
    // every front end's --cells-bitline accepts, and 0/1 for ECC.
    ChipEnergyRequest energy;
    energy.query.abbr = "KMN";
    EvalSubmittedRequest eval;
    eval.digest = "k0-0";
    const auto bothDecode = [&](auto mutate) {
        ChipEnergyRequest e = energy;
        EvalSubmittedRequest s = eval;
        mutate(e);
        mutate(s);
        const bool energyOk = ChipEnergyRequest::decode(e.encode()).ok();
        EXPECT_EQ(energyOk, EvalSubmittedRequest::decode(s.encode()).ok());
        return energyOk;
    };
    EXPECT_TRUE(bothDecode([](auto &r) { r.cellsBitline = 2000; }));
    EXPECT_TRUE(bothDecode([](auto &r) {
        r.cellsBitline = core::Pricing::maxCellsPerBitline;
    }));
    EXPECT_FALSE(bothDecode([](auto &r) {
        r.cellsBitline = core::Pricing::maxCellsPerBitline + 1;
    }));
    EXPECT_FALSE(bothDecode([](auto &r) { r.cellsBitline = 0; }));
    EXPECT_TRUE(bothDecode([](auto &r) { r.ecc = 1; }));
    EXPECT_FALSE(bothDecode([](auto &r) { r.ecc = 2; }));
}

TEST(Messages, EveryConfigSpellingSurvivesBothPricedRequests)
{
    // Each spelling of each knob goes config -> wire -> decode ->
    // config unchanged, on both requests that carry all nine knobs.
    std::vector<core::EvalConfig> configs;
    auto each = [&](const auto &table, auto set) {
        for (const auto &spelling : table) {
            core::EvalConfig c;
            set(c, spelling.value);
            configs.push_back(c);
        }
    };
    each(core::kArchSpellings, [](auto &c, auto v) { c.arch = v; });
    each(core::kSchedSpellings, [](auto &c, auto v) { c.sched = v; });
    each(core::kNodeSpellings, [](auto &c, auto v) { c.node = v; });
    each(core::kPStateSpellings, [](auto &c, auto v) { c.pstate = v(); });
    each(core::kCellSpellings, [](auto &c, auto v) { c.cell = v; });
    core::EvalConfig odd;
    odd.pivot = core::EvalConfig::maxPivot;
    odd.dynamicIsa = true;
    odd.ecc = true;
    odd.cellsBitline = core::Pricing::maxCellsPerBitline;
    configs.push_back(odd);

    const auto same = [](const core::EvalConfig &a,
                         const core::EvalConfig &b) {
        return a.arch == b.arch && a.sched == b.sched
               && a.pivot == b.pivot && a.dynamicIsa == b.dynamicIsa
               && a.node == b.node && a.pstate.name == b.pstate.name
               && a.cell == b.cell && a.ecc == b.ecc
               && a.cellsBitline == b.cellsBitline;
    };
    for (const core::EvalConfig &c : configs) {
        ChipEnergyRequest energy;
        energy.query.abbr = "KMN";
        setEvalConfig(energy, c);
        const auto e = ChipEnergyRequest::decode(energy.encode());
        ASSERT_TRUE(e.ok()) << e.error().message;
        EXPECT_TRUE(same(evalConfigOf(e.value()), c));

        EvalSubmittedRequest eval;
        eval.digest = "k0-0";
        setEvalConfig(eval, c);
        const auto s = EvalSubmittedRequest::decode(eval.encode());
        ASSERT_TRUE(s.ok()) << s.error().message;
        EXPECT_TRUE(same(evalConfigOf(s.value()), c));
    }
}

TEST(Messages, DynamicIsaFlagIsZeroOrOneOnEveryRequest)
{
    AppQuery query;
    query.abbr = "KMN";
    query.dynamicIsa = 2;
    BitDensityRequest density;
    density.query = query;
    EXPECT_FALSE(BitDensityRequest::decode(density.encode()).ok());
    ChipEnergyRequest energy;
    energy.query = query;
    EXPECT_FALSE(ChipEnergyRequest::decode(energy.encode()).ok());
    StaticQueryRequest stat;
    stat.query = query;
    EXPECT_FALSE(StaticQueryRequest::decode(stat.encode()).ok());
    StaticAdviceRequest advice;
    advice.query = query;
    EXPECT_FALSE(StaticAdviceRequest::decode(advice.encode()).ok());
    EvalSubmittedRequest eval;
    eval.digest = "k0-0";
    eval.dynamicIsa = 2;
    EXPECT_FALSE(EvalSubmittedRequest::decode(eval.encode()).ok());

    density.query.dynamicIsa = 1;
    EXPECT_TRUE(BitDensityRequest::decode(density.encode()).ok());
}

TEST(Messages, EvalSubmittedResponseRoundTrip)
{
    EvalSubmittedResponse resp;
    resp.cycles = 16552;
    resp.instructions = 37280;
    resp.maxWarpIssue = 233;
    resp.checkedAccesses = 204800;
    for (std::size_t i = 0; i < kScenarioSlots; ++i) {
        resp.chipEnergy[i] = 1.5 * static_cast<double>(i);
        resp.bvfUnitsEnergy[i] = 0.25 * static_cast<double>(i);
    }
    const auto decoded = EvalSubmittedResponse::decode(resp.encode());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().cycles, resp.cycles);
    EXPECT_EQ(decoded.value().instructions, resp.instructions);
    EXPECT_EQ(decoded.value().maxWarpIssue, resp.maxWarpIssue);
    EXPECT_EQ(decoded.value().checkedAccesses, resp.checkedAccesses);
    EXPECT_EQ(decoded.value().chipEnergy, resp.chipEnergy);
    EXPECT_EQ(decoded.value().bvfUnitsEnergy, resp.bvfUnitsEnergy);
}

TEST(Messages, NewMessageTypesHaveStableNamesAndAreKnown)
{
    for (const MsgType type :
         {MsgType::SubmitKernelRequest, MsgType::SubmitKernelResponse,
          MsgType::EvalSubmittedRequest,
          MsgType::EvalSubmittedResponse}) {
        EXPECT_TRUE(msgTypeKnown(static_cast<std::uint8_t>(type)));
        EXPECT_EQ(msgTypeName(type).find("unknown"), std::string::npos);
    }
}

// --- Pinned wire behaviour ------------------------------------------------
//
// Seeded random messages of every type, each encoded and then decoded
// whole, at every prefix, with every byte flipped and with one byte
// appended. Each message type pins a CRC of the encoded bytes and a CRC
// of every decode outcome (the re-encoded value, or the error code and
// message), so any change to a layout, a range check, the order of the
// checks or an error text moves a pin.

/** Seeded field values: mostly in range, sometimes (1 in 8) not. */
class Draw
{
  public:
    explicit Draw(std::uint64_t seed) : rng_(seed) {}

    /** An index below @p n, or now and then any byte. */
    std::uint8_t
    index(std::size_t n)
    {
        if (rng_.nextBounded(8) == 0)
            return static_cast<std::uint8_t>(rng_.nextBounded(256));
        return static_cast<std::uint8_t>(rng_.nextBounded(n));
    }

    std::uint8_t
    byte()
    {
        return static_cast<std::uint8_t>(rng_.nextBounded(256));
    }

    std::uint32_t u32() { return rng_.nextU32(); }
    std::uint64_t u64() { return rng_.nextU64(); }
    double real() { return std::bit_cast<double>(rng_.nextU64()); }
    std::size_t upTo(std::size_t n) { return rng_.nextBounded(n + 1); }

    std::uint32_t
    bitline()
    {
        if (rng_.nextBounded(8) == 0)
            return rng_.nextU32();
        return static_cast<std::uint32_t>(
            1 + rng_.nextBounded(core::Pricing::maxCellsPerBitline));
    }

    std::string
    text(std::size_t maxLen)
    {
        std::string s(upTo(maxLen), ' ');
        for (char &c : s)
            c = static_cast<char>('A' + rng_.nextBounded(26));
        return s;
    }

    StaticQueryResponse::Bound
    bound()
    {
        return {real(), real(), index(2)};
    }

    template <std::size_t N>
    void
    fill(std::array<double, N> &values)
    {
        for (double &v : values)
            v = real();
    }

  private:
    Rng rng_;
};

AppQuery
drawQuery(Draw &d)
{
    AppQuery q;
    q.abbr = d.text(4);
    q.arch = d.index(core::kArchSpellings.size());
    q.sched = d.index(core::kSchedSpellings.size());
    q.vsPivot = d.index(core::EvalConfig::maxPivot + 1);
    q.dynamicIsa = d.index(2);
    return q;
}

template <typename Request>
void
drawPricing(Draw &d, Request &r)
{
    r.node = d.index(core::kNodeSpellings.size());
    r.pstate = d.index(core::kPStateSpellings.size());
    r.cell = d.index(core::kCellSpellings.size());
    r.ecc = d.index(2);
    r.cellsBitline = d.bitline();
}

Ping
drawPing(Draw &d)
{
    Ping p;
    p.nonce = d.u64();
    return p;
}

EvalCoderRequest
drawEvalCoderRequest(Draw &d)
{
    EvalCoderRequest r;
    r.coder = static_cast<CoderKind>(d.index(4));
    r.arch = d.index(core::kArchSpellings.size());
    r.vsPivot = d.index(core::EvalConfig::maxPivot + 1);
    r.isaMask = d.u64();
    r.words.resize(d.upTo(4));
    for (std::uint64_t &w : r.words)
        w = d.u64();
    return r;
}

EvalCoderResponse
drawEvalCoderResponse(Draw &d)
{
    EvalCoderResponse r;
    r.totalBits = d.u64();
    r.onesBefore = d.u64();
    r.onesAfter = d.u64();
    r.encoded.resize(d.upTo(4));
    for (std::uint64_t &w : r.encoded)
        w = d.u64();
    return r;
}

BitDensityRequest
drawBitDensityRequest(Draw &d)
{
    BitDensityRequest r;
    r.query = drawQuery(d);
    return r;
}

BitDensityResponse
drawBitDensityResponse(Draw &d)
{
    BitDensityResponse r;
    r.cycles = d.u64();
    r.instructions = d.u64();
    r.units.resize(d.upTo(3));
    for (BitDensityResponse::Unit &u : r.units) {
        u.unit = d.byte();
        d.fill(u.density);
    }
    d.fill(r.nocDensity);
    return r;
}

ChipEnergyRequest
drawChipEnergyRequest(Draw &d)
{
    ChipEnergyRequest r;
    r.query = drawQuery(d);
    drawPricing(d, r);
    return r;
}

ChipEnergyResponse
drawChipEnergyResponse(Draw &d)
{
    ChipEnergyResponse r;
    r.cycles = d.u64();
    r.instructions = d.u64();
    d.fill(r.chipEnergy);
    d.fill(r.bvfUnitsEnergy);
    return r;
}

StaticQueryRequest
drawStaticQueryRequest(Draw &d)
{
    StaticQueryRequest r;
    r.query = drawQuery(d);
    return r;
}

StaticQueryResponse
drawStaticQueryResponse(Draw &d)
{
    StaticQueryResponse r;
    r.bestStatic = d.byte();
    r.units.resize(d.upTo(3));
    for (StaticQueryResponse::Unit &u : r.units) {
        u.unit = d.byte();
        for (auto &b : u.bounds)
            b = d.bound();
    }
    for (auto &b : r.noc)
        b = d.bound();
    return r;
}

StaticAdviceRequest
drawStaticAdviceRequest(Draw &d)
{
    StaticAdviceRequest r;
    r.query = drawQuery(d);
    return r;
}

StaticAdviceResponse
drawStaticAdviceResponse(Draw &d)
{
    StaticAdviceResponse r;
    r.bestPivot = d.index(32);
    r.provenSlack = d.real();
    r.affineSources = d.u32();
    r.totalSources = d.u32();
    for (auto &b : r.pivotBounds)
        b = d.bound();
    d.fill(r.pivotScores);
    r.defaultMask = d.u64();
    r.specializedMask = d.u64();
    r.defaultDensity = d.bound();
    r.specializedDensity = d.bound();
    r.bestScenario = d.byte();
    r.unitPicks.resize(d.upTo(3));
    for (StaticAdviceResponse::UnitPick &u : r.unitPicks) {
        u.unit = d.byte();
        u.pick = d.byte();
        u.proven = d.index(2);
        u.nv = d.bound();
        u.vs = d.bound();
    }
    return r;
}

SubmitKernelRequest
drawSubmitKernelRequest(Draw &d)
{
    SubmitKernelRequest r;
    r.bytecode = d.text(12);
    r.optimize = d.index(2);
    return r;
}

SubmitKernelResponse
drawSubmitKernelResponse(Draw &d)
{
    SubmitKernelResponse r;
    r.admitted = d.index(2);
    r.digest = d.text(10);
    r.tripBound = d.u64();
    r.globalLo = d.u32();
    r.globalHi = d.u32();
    r.rejections.resize(d.upTo(2));
    for (SubmitKernelResponse::WireRejection &rej : r.rejections) {
        rej.reason = d.index(analysis::kNumRejectReasons);
        rej.pc = d.u32();
        rej.message = d.text(12);
    }
    r.optimizeRequested = d.index(2);
    r.optimized = d.index(2);
    r.optimizedDigest = d.text(6);
    return r;
}

EvalSubmittedRequest
drawEvalSubmittedRequest(Draw &d)
{
    EvalSubmittedRequest r;
    r.digest = d.text(10);
    r.arch = d.index(core::kArchSpellings.size());
    r.sched = d.index(core::kSchedSpellings.size());
    r.vsPivot = d.index(core::EvalConfig::maxPivot + 1);
    r.dynamicIsa = d.index(2);
    drawPricing(d, r);
    return r;
}

EvalSubmittedResponse
drawEvalSubmittedResponse(Draw &d)
{
    EvalSubmittedResponse r;
    r.cycles = d.u64();
    r.instructions = d.u64();
    r.maxWarpIssue = d.u64();
    r.checkedAccesses = d.u64();
    d.fill(r.chipEnergy);
    d.fill(r.bvfUnitsEnergy);
    return r;
}

WireError
drawWireError(Draw &d)
{
    WireError e;
    e.code = d.byte();
    e.message = d.text(20);
    return e;
}

/** CRC of the encoded bytes and CRC of every decode outcome. */
struct WirePin
{
    std::uint32_t encoded = 0;
    std::uint32_t outcomes = 0;
};

template <typename Msg>
WirePin
pinMessages(MsgType type, Msg (*draw)(Draw &))
{
    Draw d(0x5eed0000u + static_cast<std::uint8_t>(type));
    Crc32 encoded, outcomes;
    const auto record = [&](std::string_view payload) {
        const auto decoded = Msg::decode(payload);
        const std::string outcome =
            decoded.ok() ? "ok " + decoded.value().encode()
                         : strFormat("err %d %s",
                                     static_cast<int>(decoded.error().code),
                                     decoded.error().message.c_str());
        outcomes.update(outcome.data(), outcome.size());
        outcomes.update("\n", 1);
    };
    for (int i = 0; i < 16; ++i) {
        const std::string bytes = draw(d).encode();
        encoded.update(bytes.data(), bytes.size());
        record(bytes);
        for (std::size_t len = 0; len < bytes.size(); ++len)
            record(std::string_view(bytes).substr(0, len));
        for (std::size_t at = 0; at < bytes.size(); ++at) {
            std::string flipped = bytes;
            flipped[at] = static_cast<char>(flipped[at] ^ (1 + d.byte() % 255));
            record(flipped);
        }
        record(bytes + static_cast<char>(d.byte()));
    }
    return {encoded.value(), outcomes.value()};
}

TEST(WirePins, EveryMessageTypeEncodesAndDecodesAsPinned)
{
    struct Row
    {
        MsgType type;
        WirePin got;
        WirePin pinned;
    };
    using T = MsgType;
    const Row rows[] = {
        {T::PingRequest, pinMessages(T::PingRequest, drawPing),
         {0x6c7f5b35u, 0x6e6b2a78u}},
        {T::EvalCoderRequest,
         pinMessages(T::EvalCoderRequest, drawEvalCoderRequest),
         {0xd1d62714u, 0x5bcb30a4u}},
        {T::BitDensityRequest,
         pinMessages(T::BitDensityRequest, drawBitDensityRequest),
         {0x67fe1bafu, 0xe0d3f8a9u}},
        {T::ChipEnergyRequest,
         pinMessages(T::ChipEnergyRequest, drawChipEnergyRequest),
         {0x3815ed23u, 0x1605ca02u}},
        {T::StaticQueryRequest,
         pinMessages(T::StaticQueryRequest, drawStaticQueryRequest),
         {0x72f4f52eu, 0xc3620724u}},
        {T::StaticAdviceRequest,
         pinMessages(T::StaticAdviceRequest, drawStaticAdviceRequest),
         {0xe1913ba4u, 0x5f531cddu}},
        {T::SubmitKernelRequest,
         pinMessages(T::SubmitKernelRequest, drawSubmitKernelRequest),
         {0x6d36517fu, 0xbe61ba15u}},
        {T::EvalSubmittedRequest,
         pinMessages(T::EvalSubmittedRequest, drawEvalSubmittedRequest),
         {0xa298ddcbu, 0x90d8c0a6u}},
        {T::PingResponse, pinMessages(T::PingResponse, drawPing),
         {0xcf349482u, 0x8e5829bfu}},
        {T::EvalCoderResponse,
         pinMessages(T::EvalCoderResponse, drawEvalCoderResponse),
         {0x9a461902u, 0x34545e7du}},
        {T::BitDensityResponse,
         pinMessages(T::BitDensityResponse, drawBitDensityResponse),
         {0x33fb0ea6u, 0xb92a8149u}},
        {T::ChipEnergyResponse,
         pinMessages(T::ChipEnergyResponse, drawChipEnergyResponse),
         {0x9215ad90u, 0x1f54c0f6u}},
        {T::StaticQueryResponse,
         pinMessages(T::StaticQueryResponse, drawStaticQueryResponse),
         {0xd371f2bbu, 0x63836f5fu}},
        {T::StaticAdviceResponse,
         pinMessages(T::StaticAdviceResponse, drawStaticAdviceResponse),
         {0x50feac0fu, 0x2bb071a0u}},
        {T::SubmitKernelResponse,
         pinMessages(T::SubmitKernelResponse, drawSubmitKernelResponse),
         {0xc47f9ee4u, 0x1f631122u}},
        {T::EvalSubmittedResponse,
         pinMessages(T::EvalSubmittedResponse, drawEvalSubmittedResponse),
         {0xdd0de14cu, 0xf389f6e3u}},
        {T::ErrorResponse, pinMessages(T::ErrorResponse, drawWireError),
         {0xd3dca914u, 0xc3cf3af8u}},
    };
    // A message added to the table needs its pin here.
    ASSERT_EQ(std::size(rows), tableTypes().size());
    for (const Row &row : rows) {
        EXPECT_EQ(row.got.encoded, row.pinned.encoded)
            << msgTypeName(row.type);
        EXPECT_EQ(row.got.outcomes, row.pinned.outcomes)
            << msgTypeName(row.type);
    }
}

TEST(WirePins, TypeNamesAndKnownTypesArePinned)
{
    Crc32 crc;
    for (int raw = 0; raw < 256; ++raw) {
        const auto b = static_cast<std::uint8_t>(raw);
        const std::string line =
            msgTypeKnown(b)
                ? strFormat("%02x %s\n", raw,
                            msgTypeName(static_cast<MsgType>(b)).c_str())
                : strFormat("%02x -\n", raw);
        crc.update(line.data(), line.size());
    }
    EXPECT_EQ(crc.value(), 0xfab4b495u);
}

} // namespace
} // namespace bvf::server
