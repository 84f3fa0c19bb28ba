/**
 * @file
 * Fuzz driver implementation.
 */

#include "sim/fuzz.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/equiv.hh"
#include "analysis/optimizer.hh"
#include "analysis/verifier.hh"
#include "campaign/journal.hh"
#include "coder/isa_coder.hh"
#include "coder/nv_coder.hh"
#include "coder/vs_coder.hh"
#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/trace.hh"
#include "fault/secded.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "rtl/eval.hh"
#include "rtl/gen.hh"
#include "rtl/verilog.hh"
#include "server/http.hh"
#include "server/protocol.hh"
#include "sram/access_sink.hh"

namespace bvf::sim
{

namespace fs = std::filesystem;

namespace
{

/** Config digest every journal fuzz input is framed under. */
constexpr std::uint32_t kFuzzDigest = 0x42f0f0f0u;

std::string
fail(const char *what)
{
    return what;
}

// --- Mutation engine --------------------------------------------------

std::string
mutate(std::string bytes, Rng &rng)
{
    const int edits = 1 + static_cast<int>(rng.nextBounded(4));
    for (int e = 0; e < edits; ++e) {
        switch (rng.nextBounded(6)) {
          case 0: // bit flip
            if (!bytes.empty()) {
                const std::size_t at = rng.nextBounded(bytes.size());
                bytes[at] = static_cast<char>(
                    static_cast<unsigned char>(bytes[at])
                    ^ static_cast<unsigned char>(
                        1u << rng.nextBounded(8)));
            }
            break;
          case 1: // byte smash
            if (!bytes.empty()) {
                bytes[rng.nextBounded(bytes.size())] =
                    static_cast<char>(rng.nextBounded(256));
            }
            break;
          case 2: // insert
            bytes.insert(bytes.begin()
                             + static_cast<std::ptrdiff_t>(
                                 rng.nextBounded(bytes.size() + 1)),
                         static_cast<char>(rng.nextBounded(256)));
            break;
          case 3: // erase
            if (!bytes.empty())
                bytes.erase(rng.nextBounded(bytes.size()), 1);
            break;
          case 4: // truncate
            if (!bytes.empty())
                bytes.resize(rng.nextBounded(bytes.size()));
            break;
          default: { // append junk
            const std::size_t n = 1 + rng.nextBounded(16);
            for (std::size_t i = 0; i < n; ++i)
                bytes.push_back(static_cast<char>(rng.nextBounded(256)));
            break;
          }
        }
    }
    return bytes;
}

// --- Per-target seed corpora and invariant checks ---------------------

campaign::AppResult
sampleResult(const std::string &name, const std::string &abbr,
             bool quarantined)
{
    campaign::AppResult r;
    r.name = name;
    r.abbr = abbr;
    if (quarantined) {
        r.status = campaign::AppStatus::Quarantined;
        r.attempts = 2;
        r.error = Error{ErrorCode::Failed, "fuzz: seeded failure"};
        return r;
    }
    r.status = campaign::AppStatus::Completed;
    r.attempts = 1;
    r.cycles = 12345;
    r.instructions = 67890;
    for (std::size_t i = 0; i < r.chipEnergy.size(); ++i) {
        r.chipEnergy[i] = 1e-3 / static_cast<double>(i + 1);
        r.bvfUnitsEnergy[i] = 1e-4 / static_cast<double>(i + 1);
    }
    return r;
}

std::string
goodJournalBytes()
{
    std::vector<campaign::AppResult> results;
    results.push_back(sampleResult("alpha", "AAA", false));
    results.push_back(sampleResult("beta", "BBB", true));
    return campaign::serializeJournal(kFuzzDigest, results);
}

std::string
goodTraceBytes()
{
    std::ostringstream out;
    core::TraceWriter writer(out);
    const std::array<Word, 4> block = {0x1u, 0xffffffffu, 0x0u,
                                       0xdeadbeefu};
    const std::array<Word64, 2> instrs = {0x123456789abcdef0ull,
                                          0x0fedcba987654321ull};
    writer.onAccess(coder::UnitId::Reg, sram::AccessType::Write, block,
                    0xfu, 10);
    writer.onAccess(coder::UnitId::Sme, sram::AccessType::Read, block,
                    0x3u, 11);
    writer.onFetch(coder::UnitId::Reg, sram::AccessType::Read, instrs,
                   12);
    writer.onNocPacket(1, block, false, 13);
    (void)writer.finish();
    return out.str();
}

Result<void>
checkFrame(const std::string &bytes)
{
    std::string_view rest = bytes;
    for (int i = 0; i < 1000 && !rest.empty(); ++i) {
        std::size_t consumed = 0;
        auto parsed = server::parseFrame(rest, consumed);
        if (!parsed.ok()) {
            // Truncated = feed more; anything else kills the stream.
            // Either way the error must stay inside the framing
            // taxonomy: the fleet coordinator retries framing damage on
            // another worker but records any other code as an
            // application verdict, so a mutated frame that fails with
            // e.g. InvalidArgument would convict the job it hit.
            const ErrorCode code = parsed.error().code;
            if (code != ErrorCode::Corrupt && code != ErrorCode::Truncated
                && code != ErrorCode::Unsupported) {
                return Error{ErrorCode::Failed,
                             fail("parseFrame error escaped the framing "
                                  "taxonomy")};
            }
            return {};
        }
        if (consumed == 0 || consumed > rest.size()) {
            return Error{ErrorCode::Failed,
                         fail("parseFrame consumed out of bounds")};
        }
        if (parsed.value().payload.size() > server::kMaxPayload) {
            return Error{ErrorCode::Failed,
                         fail("parseFrame exceeded kMaxPayload")};
        }
        rest.remove_prefix(consumed);
    }
    return {};
}

Result<void>
checkHttp(const std::string &bytes)
{
    const server::HttpScanResult scan = server::scanHttpHead(bytes);
    switch (scan.state) {
      case server::HttpScan::NeedMore:
      case server::HttpScan::NotHttp:
      case server::HttpScan::RequestLineTooLong:
      case server::HttpScan::HeadTooLong:
        return {};
      case server::HttpScan::Complete:
        break;
      default:
        return Error{ErrorCode::Failed,
                     fail("scanHttpHead returned a bogus state")};
    }
    if (scan.headBytes == 0 || scan.headBytes > bytes.size()
        || scan.headBytes > server::kMaxHttpHead) {
        return Error{ErrorCode::Failed,
                     fail("scanHttpHead headBytes out of bounds")};
    }
    // A complete head must stay complete (and identical) when scanned
    // alone: the scanner is stateless and prefix-stable.
    const auto again =
        server::scanHttpHead(bytes.substr(0, scan.headBytes));
    if (again.state != server::HttpScan::Complete
        || again.headBytes != scan.headBytes) {
        return Error{ErrorCode::Failed,
                     fail("scanHttpHead is not prefix-stable")};
    }
    return {};
}

Result<void>
checkTrace(const std::string &bytes)
{
    sram::NullSink sink;
    std::istringstream strictIn(bytes);
    auto strict = core::replayTrace(strictIn, sink, {});
    std::istringstream salvageIn(bytes);
    auto salvage =
        core::replayTrace(salvageIn, sink, core::ReplayOptions{true});
    if (strict.ok()) {
        if (!salvage.ok()) {
            return Error{
                ErrorCode::Failed,
                fail("salvage failed where strict replay succeeded")};
        }
        if (salvage.value().records != strict.value().records) {
            return Error{
                ErrorCode::Failed,
                fail("salvage record count diverged from strict")};
        }
    }
    if (salvage.ok()) {
        // Salvage must be deterministic: same bytes, same summary.
        std::istringstream againIn(bytes);
        auto again =
            core::replayTrace(againIn, sink, core::ReplayOptions{true});
        if (!again.ok()
            || again.value().records != salvage.value().records
            || again.value().batches != salvage.value().batches
            || again.value().salvaged != salvage.value().salvaged) {
            return Error{ErrorCode::Failed,
                         fail("trace salvage is nondeterministic")};
        }
    }
    return {};
}

Result<void>
checkJournal(const std::string &bytes)
{
    auto parsed = campaign::parseJournal(bytes, kFuzzDigest);
    if (!parsed.ok())
        return {}; // structured refusal is a correct outcome
    if (parsed.value().results.size() > bytes.size()) {
        // Every record costs at least its framing bytes; more results
        // than input bytes means a count ran away.
        return Error{ErrorCode::Failed,
                     fail("parseJournal produced impossible count")};
    }
    if (parsed.value().salvaged && parsed.value().warning.empty()) {
        return Error{ErrorCode::Failed,
                     fail("silent salvage: damage not described")};
    }
    // What was accepted must round-trip cleanly: serialize the
    // accepted records and reparse -- bit-identical, no salvage.
    const std::string again =
        campaign::serializeJournal(kFuzzDigest, parsed.value().results);
    auto reparsed = campaign::parseJournal(again, kFuzzDigest);
    if (!reparsed.ok() || reparsed.value().salvaged
        || reparsed.value().results.size()
               != parsed.value().results.size()) {
        return Error{ErrorCode::Failed,
                     fail("accepted journal does not round-trip")};
    }
    if (campaign::serializeJournal(kFuzzDigest,
                                   reparsed.value().results)
        != again) {
        return Error{ErrorCode::Failed,
                     fail("journal round-trip is not bit-stable")};
    }
    return {};
}

/**
 * Small, terminating kernel text used to seed both kernel targets.
 * Shared-memory only, so it stays admissible without a data image.
 */
const char *const kSeedAsm = ".kernel fuzz-seed\n"
                             ".launch 2 64\n"
                             ".shared 256\n"
                             "\n"
                             "    S2R R1, SR_TIDX\n"
                             "    MOV R2, #0\n"
                             "    SHL R3, R1, #2\n"
                             "    AND R3, R3, #252\n"
                             "L4:\n"
                             "    STS [R3 + 0], R2\n"
                             "    LDS R4, [R3 + 0]\n"
                             "    IADD R2, R2, #1\n"
                             "    SETP.LT P1, R2, #4\n"
                             "    @P1 BRA L4, join=L9\n"
                             "L9:\n"
                             "    EXIT\n";

/** Verifier budget for fuzz totality checks: small but non-trivial. */
analysis::VerifyOptions
fuzzVerifyOptions()
{
    analysis::VerifyOptions opts;
    opts.stepBudget = 1u << 14;
    return opts;
}

Result<void>
checkBytecode(const std::string &bytes)
{
    auto decoded = isa::decodeProgram(bytes);
    if (!decoded.ok())
        return {}; // structured refusal is a correct outcome
    // Strict decoding admits only canonical encodings, so acceptance
    // must re-encode byte-identically -- otherwise two distinct wire
    // forms alias one program and content digests stop being stable.
    if (isa::encodeProgram(decoded.value()) != bytes) {
        return Error{ErrorCode::Failed,
                     fail("accepted bytecode does not re-encode "
                          "byte-identically")};
    }
    // The admission verifier must be total over everything the decoder
    // accepts: any verdict is fine, crashing or fatal()ing is not.
    (void)analysis::verifyProgram(decoded.value(), fuzzVerifyOptions());
    return {};
}

Result<void>
checkOpt(const std::string &bytes)
{
    auto decoded = isa::decodeProgram(bytes);
    if (!decoded.ok())
        return {}; // structured refusal is a correct outcome
    analysis::OptimizeOptions opts;
    opts.verify = fuzzVerifyOptions();
    opts.equiv.seeds = 2;
    opts.equiv.maxSteps = 1u << 14;
    const analysis::OptimizeResult res =
        analysis::optimizeProgram(decoded.value(), opts);
    if (!res.accepted) {
        // Fallback contract: the caller gets the input program back,
        // byte for byte, whatever went wrong inside the pipeline.
        if (isa::encodeProgram(res.program) != bytes) {
            return Error{ErrorCode::Failed,
                         fail("optimizer fallback is not "
                              "byte-identical to the input")};
        }
        return {};
    }
    // Accepted: the optimizer claims validated equivalence and
    // re-admission. Check both against oracles outside the pipeline.
    if (!res.originalAdmitted) {
        return Error{ErrorCode::Failed,
                     fail("optimizer accepted a rewrite without "
                          "admitting the original")};
    }
    const std::string optBytes = isa::encodeProgram(res.program);
    auto reDecoded = isa::decodeProgram(optBytes);
    if (!reDecoded.ok()
        || isa::encodeProgram(reDecoded.value()) != optBytes) {
        return Error{ErrorCode::Failed,
                     fail("optimized program is not canonical "
                          "bytecode")};
    }
    if (!analysis::verifyProgram(res.program, fuzzVerifyOptions())
             .admitted) {
        return Error{ErrorCode::Failed,
                     fail("accepted optimized program does not "
                          "re-admit")};
    }
    // Differential oracle independent of the validator's own layer 2:
    // the reference interpreter must observe identical stores and
    // final memory on both programs (compared only when both finish
    // inside the budget, so a budget cliff cannot fake a divergence).
    const analysis::RefObservation before =
        analysis::runReference(decoded.value(), 1u << 14);
    const analysis::RefObservation after =
        analysis::runReference(res.program, 1u << 14);
    if (before.finished && after.finished && !(before == after)) {
        return Error{ErrorCode::Failed,
                     fail("validator passed a behaviorally different "
                          "program")};
    }
    return {};
}

Result<void>
checkAsm(const std::string &text)
{
    auto parsed = isa::parseAsm(text);
    if (!parsed.ok())
        return {}; // structured refusal is a correct outcome
    // parseAsm(renderAsm(p)) == p for every program parseAsm produces;
    // compare through the bytecode encoder, which is injective on
    // canonical programs.
    const std::string rendered = isa::renderAsm(parsed.value());
    auto again = isa::parseAsm(rendered);
    if (!again.ok()) {
        return Error{ErrorCode::Failed,
                     fail("rendered assembly does not reparse")};
    }
    if (isa::encodeProgram(again.value())
        != isa::encodeProgram(parsed.value())) {
        return Error{ErrorCode::Failed,
                     fail("assembly round trip changed the program")};
    }
    (void)analysis::verifyProgram(parsed.value(), fuzzVerifyOptions());
    return {};
}

Result<void>
checkRtl(const std::string &text)
{
    auto parsed = rtl::parseVerilog(text);
    if (!parsed.ok()) {
        // Untrusted Verilog must come back as a structured Corrupt
        // refusal; any other code means a cap or validation failure
        // leaked out under the wrong taxonomy.
        if (parsed.error().code != ErrorCode::Corrupt) {
            return Error{ErrorCode::Failed,
                         fail("parseVerilog refusal escaped the "
                              "Corrupt taxonomy")};
        }
        return {};
    }
    // Whatever the parser accepts must canonicalize to a fixed point:
    // emit, reparse, re-emit -- byte-identical both times.
    const std::string first = rtl::emitVerilog(parsed.value());
    auto again = rtl::parseVerilog(first);
    if (!again.ok()) {
        return Error{ErrorCode::Failed,
                     fail("emitted Verilog does not reparse")};
    }
    if (rtl::emitVerilog(again.value()) != first) {
        return Error{ErrorCode::Failed,
                     fail("Verilog canonical form is not a fixed "
                          "point")};
    }
    // The evaluator must either take the module or refuse a
    // combinational cycle with a structured error.
    auto ev = rtl::Evaluator::build(parsed.value());
    if (!ev.ok() && ev.error().code != ErrorCode::Corrupt
        && ev.error().code != ErrorCode::InvalidArgument) {
        return Error{ErrorCode::Failed,
                     fail("Evaluator::build refusal escaped the "
                          "error taxonomy")};
    }
    return {};
}

/** Little-endian word reader over the fuzz input, zero-padded. */
template <typename T>
T
rtlVecWord(const std::string &bytes, std::size_t at)
{
    T w = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        if (at + i < bytes.size()) {
            w |= static_cast<T>(
                     static_cast<unsigned char>(bytes[at + i]))
                 << (8 * i);
        }
    }
    return w;
}

/** Drive @p ev's input bits from @p value starting at @p flatBase. */
void
rtlVecDrive(rtl::Evaluator &ev, int flatBase, Word64 value, int bits)
{
    for (int b = 0; b < bits; ++b) {
        ev.setInput(flatBase + b,
                    (value >> b) & 1u ? ~0ull : 0ull);
    }
}

/** Read @p bits output bits (lane 0) starting at @p flatBase. */
Word64
rtlVecCollect(const rtl::Evaluator &ev, int flatBase, int bits)
{
    Word64 value = 0;
    for (int b = 0; b < bits; ++b)
        value |= (ev.output(flatBase + b) & 1u) << b;
    return value;
}

Result<void>
checkRtlVec(const std::string &bytes)
{
    if (bytes.empty())
        return {};
    // Byte 0 selects the netlist; the rest are input lanes. Every
    // input is in-domain for every coder, so the only correct outcome
    // is bit-for-bit agreement with the C++ model -- twice, because
    // re-evaluation must be deterministic.
    const unsigned sel =
        static_cast<unsigned char>(bytes[0]) % 5u;
    rtl::Module m = [&] {
        switch (sel) {
          case 0:
            return rtl::nvCoderNetlist();
          case 1:
            return rtl::vsCoderNetlist(
                4, static_cast<int>(rtlVecWord<Word>(bytes, 1) % 4u));
          case 2:
            return rtl::isaCoderNetlist(rtlVecWord<Word64>(bytes, 1));
          case 3:
            return rtl::secdedEncoderNetlist();
          default:
            return rtl::secdedDecoderNetlist();
        }
    }();
    auto built = rtl::Evaluator::build(m);
    if (!built.ok()) {
        return Error{ErrorCode::Failed,
                     fail("generated netlist failed to build")};
    }
    rtl::Evaluator &ev = built.value();

    // The payload starts after the selector (and the netlist
    // parameter, where one was consumed).
    const std::size_t at = sel == 1 ? 5 : sel == 2 ? 9 : 1;
    std::string expect;
    switch (sel) {
      case 0: {
        const Word w = rtlVecWord<Word>(bytes, at);
        rtlVecDrive(ev, 0, w, 32);
        expect = strFormat("%08x", coder::NvCoder().encode(w));
        break;
      }
      case 1: {
        const int pivot =
            static_cast<int>(rtlVecWord<Word>(bytes, 1) % 4u);
        std::array<Word, 4> block{};
        for (int i = 0; i < 4; ++i) {
            block[static_cast<std::size_t>(i)] =
                rtlVecWord<Word>(bytes,
                                 at + static_cast<std::size_t>(i) * 4);
            rtlVecDrive(ev, i * 32,
                        block[static_cast<std::size_t>(i)], 32);
        }
        coder::VsCoder(pivot).encode(block);
        for (const Word w : block)
            expect += strFormat("%08x", w);
        break;
      }
      case 2: {
        const Word64 mask = rtlVecWord<Word64>(bytes, 1);
        const Word64 instr = rtlVecWord<Word64>(bytes, at);
        rtlVecDrive(ev, 0, instr, 64);
        expect = strFormat("%016llx",
                           static_cast<unsigned long long>(
                               coder::IsaCoder(mask).encode(instr)));
        break;
      }
      case 3: {
        const Word64 data = rtlVecWord<Word64>(bytes, at);
        rtlVecDrive(ev, 0, data, 64);
        expect = strFormat("%02x", fault::secdedEncode(data));
        break;
      }
      default: {
        const Word64 data = rtlVecWord<Word64>(bytes, at);
        const auto check =
            static_cast<std::uint8_t>(rtlVecWord<Word>(bytes, at + 8));
        rtlVecDrive(ev, 0, data, 64);
        rtlVecDrive(ev, 64, check, 8);
        const fault::SecdedDecoded dec =
            fault::secdedDecode(data, check);
        expect = strFormat(
            "%016llx %02x %d %d",
            static_cast<unsigned long long>(dec.data), dec.check,
            dec.status == fault::EccStatus::Corrected ? 1 : 0,
            dec.status == fault::EccStatus::Uncorrectable ? 1 : 0);
        break;
      }
    }

    std::string firstGot;
    for (int pass = 0; pass < 2; ++pass) {
        ev.eval();
        std::string got;
        switch (sel) {
          case 0:
            got = strFormat("%08x",
                            static_cast<Word>(rtlVecCollect(ev, 0, 32)));
            break;
          case 1:
            for (int i = 0; i < 4; ++i) {
                got += strFormat(
                    "%08x",
                    static_cast<Word>(rtlVecCollect(ev, i * 32, 32)));
            }
            break;
          case 2:
            got = strFormat("%016llx",
                            static_cast<unsigned long long>(
                                rtlVecCollect(ev, 0, 64)));
            break;
          case 3:
            got = strFormat(
                "%02x", static_cast<unsigned>(rtlVecCollect(ev, 0, 8)));
            break;
          default:
            got = strFormat(
                "%016llx %02x %d %d",
                static_cast<unsigned long long>(rtlVecCollect(ev, 0, 64)),
                static_cast<unsigned>(rtlVecCollect(ev, 64, 8)),
                static_cast<int>(ev.output(72) & 1u),
                static_cast<int>(ev.output(73) & 1u));
            break;
        }
        if (got != expect) {
            return Error{ErrorCode::Failed,
                         fail("netlist output diverged from the C++ "
                              "model")};
        }
        if (pass == 0)
            firstGot = got;
        else if (got != firstGot) {
            return Error{ErrorCode::Failed,
                         fail("netlist re-evaluation is "
                              "nondeterministic")};
        }
    }
    return {};
}

} // namespace

std::string
fuzzTargetName(FuzzTarget target)
{
    switch (target) {
      case FuzzTarget::Frame:
        return "frame";
      case FuzzTarget::Http:
        return "http";
      case FuzzTarget::Trace:
        return "trace";
      case FuzzTarget::Journal:
        return "journal";
      case FuzzTarget::Bytecode:
        return "bytecode";
      case FuzzTarget::Asm:
        return "asm";
      case FuzzTarget::Rtl:
        return "rtl";
      case FuzzTarget::RtlVec:
        return "rtlvec";
      case FuzzTarget::Opt:
        return "opt";
    }
    return "?";
}

Result<FuzzTarget>
fuzzTargetFromName(const std::string &name)
{
    for (const FuzzTarget t : kAllFuzzTargets) {
        if (fuzzTargetName(t) == name)
            return t;
    }
    return Error{ErrorCode::InvalidArgument,
                 strFormat("unknown fuzz target '%s' (want frame, "
                           "http, trace, journal, bytecode, "
                           "asm, rtl, rtlvec or opt)",
                           name.c_str())};
}

std::vector<std::string>
corpusSeeds(FuzzTarget target)
{
    using server::MsgType;
    std::vector<std::string> seeds;
    switch (target) {
      case FuzzTarget::Frame: {
        server::Ping ping;
        ping.nonce = 7;
        seeds.push_back(
            server::encodeFrame(MsgType::PingRequest, ping.encode()));
        server::ChipEnergyRequest energy;
        energy.query.abbr = "KMN";
        seeds.push_back(server::encodeFrame(MsgType::ChipEnergyRequest,
                                            energy.encode()));
        server::EvalCoderRequest eval;
        eval.coder = server::CoderKind::Nv;
        eval.words = {0x0102030405060708ull, 0xffffffffffffffffull};
        seeds.push_back(server::encodeFrame(MsgType::EvalCoderRequest,
                                            eval.encode()));
        server::WireError err;
        err.code = static_cast<std::uint8_t>(ErrorCode::Overloaded);
        err.message = "busy";
        seeds.push_back(
            server::encodeFrame(MsgType::ErrorResponse, err.encode()));
        // A batch: two frames back to back, like a real pipeline.
        seeds.push_back(seeds[0] + seeds[1]);
        // Regression: a single bit flip in the length field once made
        // parseFrame answer InvalidArgument, which the coordinator
        // recorded as an app verdict and quarantined the innocent job
        // (found by scenario seed 126).  Framing errors must stay in
        // the framing taxonomy.
        std::string torn = seeds[0];
        torn[8] ^= 0x01; // low byte of the little-endian length field
        torn[11] ^= 0x01; // high byte: length now far beyond the cap
        seeds.push_back(torn);
        break;
      }
      case FuzzTarget::Http:
        seeds.push_back("GET /metrics HTTP/1.0\r\n"
                        "Host: localhost\r\n"
                        "User-Agent: fuzz\r\n\r\n");
        seeds.push_back("GET / HTTP/1.1\n\n");
        seeds.push_back("GET /met"); // honest partial head
        break;
      case FuzzTarget::Trace:
        seeds.push_back(goodTraceBytes());
        break;
      case FuzzTarget::Journal:
        seeds.push_back(goodJournalBytes());
        break;
      case FuzzTarget::Bytecode:
      case FuzzTarget::Opt: {
        const auto seedProg = isa::parseAsm(kSeedAsm);
        fatal_if(!seedProg.ok(), "fuzz seed kernel does not assemble: %s",
                 seedProg.error().describe().c_str());
        seeds.push_back(isa::encodeProgram(seedProg.value()));
        // A one-instruction kernel: the smallest canonical encoding.
        const auto tiny = isa::parseAsm(".kernel tiny\n.launch 1 32\n"
                                        "    EXIT\n");
        fatal_if(!tiny.ok(), "tiny fuzz seed does not assemble");
        seeds.push_back(isa::encodeProgram(tiny.value()));
        if (target == FuzzTarget::Opt) {
            // A deliberately unoptimized kernel so mutations explore
            // the accept path too: foldable constants, a copy chain,
            // identity and power-of-two strength reductions, a dead
            // write and a provably-false guarded branch.
            const auto rich = isa::parseAsm(
                ".kernel opt-seed\n.launch 2 64\n.shared 256\n"
                "    S2R R1, SR_TIDX\n"
                "    MOV R2, #5\n"
                "    IADD R3, R2, #7\n"
                "    MOV R4, R1\n"
                "    SHL R5, R4, #0\n"
                "    IMUL R6, R5, #8\n"
                "    MOV R7, #9\n"
                "    SETP.LT P1, R2, #3\n"
                "    @P1 BRA skip, join=skip\n"
                "skip:\n"
                "    SHL R8, R1, #2\n"
                "    AND R8, R8, #252\n"
                "    STS [R8 + 0], R6\n"
                "    IADD R9, R3, #0\n"
                "    STS [R8 + 0], R9\n"
                "    EXIT\n");
            fatal_if(!rich.ok(), "opt fuzz seed does not assemble: %s",
                     rich.error().describe().c_str());
            seeds.push_back(isa::encodeProgram(rich.value()));
        }
        break;
      }
      case FuzzTarget::Asm: {
        seeds.push_back(kSeedAsm);
        seeds.push_back(".kernel tiny\n.launch 1 32\n    EXIT\n");
        // Guards, comments and a data directive: the grammar's corners.
        seeds.push_back(".kernel corners\n.launch 1 32\n.global 65536\n"
                        "# comment line\n"
                        ".data global 0 0x1 0x2\n"
                        "    MOV R1, #0 // trailing comment\n"
                        "    SETP.EQ P1, R1, #0\n"
                        "    @!P1 BRA end, join=end\n"
                        "end:\n"
                        "    EXIT\n");
        break;
      }
      case FuzzTarget::Rtl: {
        // Real emitted netlists: combinational coders of different
        // shapes, plus a hand-built sequential module so the DFF
        // grammar (always-block, reg declarations, clk synthesis)
        // gets mutated too.
        seeds.push_back(rtl::emitVerilog(rtl::nvCoderNetlist()));
        seeds.push_back(rtl::emitVerilog(rtl::vsCoderNetlist(4, 1)));
        seeds.push_back(rtl::emitVerilog(
            rtl::isaCoderNetlist(0x123456789abcdef0ull)));
        seeds.push_back(
            rtl::emitVerilog(rtl::secdedEncoderNetlist()));
        rtl::Module seq("fuzz_seq");
        const auto d = seq.addInput("d", 2);
        const rtl::NetId q0 = seq.mkDff(d[0]);
        const rtl::NetId q1 =
            seq.mkDff(seq.mkMux(d[1], q0, seq.mkConst(true)));
        const std::array<rtl::NetId, 2> qs = {q0, q1};
        seq.addOutput("q", qs);
        seeds.push_back(rtl::emitVerilog(seq));
        break;
      }
      case FuzzTarget::RtlVec: {
        // One seed per netlist selector, with non-trivial payloads.
        const auto packed = [](unsigned char sel,
                               std::initializer_list<unsigned char> tail) {
            std::string s(1, static_cast<char>(sel));
            for (const unsigned char b : tail)
                s.push_back(static_cast<char>(b));
            return s;
        };
        seeds.push_back(packed(0, {0xef, 0xbe, 0xad, 0xde}));
        seeds.push_back(packed(1, {2, 0, 0, 0, // pivot word
                                   1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                   12, 13, 14, 15, 16}));
        seeds.push_back(packed(2, {0x21, 0x43, 0x65, 0x87, 0xa9, 0xcb,
                                   0xed, 0x0f, // mask
                                   1, 0, 0, 0, 0, 0, 0, 0x80}));
        seeds.push_back(packed(3, {0xff, 0xff, 0, 0, 0, 0, 0, 0}));
        seeds.push_back(packed(4, {0xaa, 0x55, 0xaa, 0x55, 0, 0, 0, 0,
                                   0x5a})); // data + check bits
        break;
      }
    }
    return seeds;
}

Result<void>
checkFuzzInput(FuzzTarget target, const std::string &bytes)
{
    switch (target) {
      case FuzzTarget::Frame:
        return checkFrame(bytes);
      case FuzzTarget::Http:
        return checkHttp(bytes);
      case FuzzTarget::Trace:
        return checkTrace(bytes);
      case FuzzTarget::Journal:
        return checkJournal(bytes);
      case FuzzTarget::Bytecode:
        return checkBytecode(bytes);
      case FuzzTarget::Asm:
        return checkAsm(bytes);
      case FuzzTarget::Rtl:
        return checkRtl(bytes);
      case FuzzTarget::RtlVec:
        return checkRtlVec(bytes);
      case FuzzTarget::Opt:
        return checkOpt(bytes);
    }
    return Error{ErrorCode::InvalidArgument, "bad fuzz target"};
}

Result<FuzzReport>
runFuzz(FuzzTarget target, std::uint64_t seed, std::uint64_t iterations,
        const std::string &scratchDir)
{
    if (scratchDir.empty()) {
        return Error{ErrorCode::InvalidArgument,
                     "fuzzing needs a scratch directory"};
    }
    std::error_code ec;
    fs::create_directories(scratchDir, ec);

    const std::vector<std::string> seeds = corpusSeeds(target);
    Rng rng(seed ? seed : 1);
    FuzzReport report;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const std::string &base = seeds[rng.nextBounded(seeds.size())];
        const std::string input = mutate(base, rng);
        ++report.iterations;
        auto checked = checkFuzzInput(target, input);
        if (checked.ok())
            continue;
        report.failed = true;
        report.what = checked.error().message;
        report.failingPath = strFormat(
            "%s/failing-%s-seed%llu-iter%llu.bin", scratchDir.c_str(),
            fuzzTargetName(target).c_str(),
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(i));
        std::ofstream f(report.failingPath,
                        std::ios::binary | std::ios::trunc);
        f.write(input.data(),
                static_cast<std::streamsize>(input.size()));
        return report;
    }
    return report;
}

Result<FuzzReport>
replayCorpusDir(FuzzTarget target, const std::string &dir)
{
    FuzzReport report;
    if (!fs::is_directory(dir))
        return report; // no corpus yet: vacuous success
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file())
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        auto bytes = readFileBytes(path);
        if (!bytes.ok())
            return bytes.error();
        ++report.iterations;
        auto checked = checkFuzzInput(target, bytes.value());
        if (!checked.ok()) {
            report.failed = true;
            report.what = checked.error().message;
            report.failingPath = path;
            return report;
        }
    }
    return report;
}

} // namespace bvf::sim
