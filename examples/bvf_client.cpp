/**
 * @file
 * bvf_client: command-line client for the bvfd daemon.
 *
 * Speaks the CRC32-framed binary protocol (src/server/protocol.hh)
 * over TCP or a Unix socket and prints human-readable results. The
 * socket work is the server library's: SocketTransport dials and
 * moves the bytes, readFrame() reads each response
 * (src/server/transport.hh). A command names only its request struct;
 * the request type and the response struct to decode come from that
 * request's kMessageTable row. The ping command doubles as a
 * pipelining demo: all N requests are written back to back before the
 * first response is read, exercising the daemon's in-order batched
 * execution.
 *
 * Usage:
 *   bvf_client (--port N [--host H] | --unix PATH) COMMAND ...
 *
 * Commands:
 *   ping [N]                   N pipelined echo probes (default 1)
 *   eval-coder KIND HEX...     run a coder over raw 64-bit words;
 *                              KIND = identity|nv|vs|isa
 *   density APP                per-unit encoded bit-1 density
 *   energy APP                 per-scenario chip energy
 *   static APP                 static predictor bounds (no simulation)
 *   advise APP                 static coder advice: VS pivot ranking,
 *                              specialized ISA mask, unit picks
 *   submit FILE                submit an untrusted kernel (BVFK
 *                              bytecode, or assembly text which is
 *                              assembled client-side) for static
 *                              admission; --eval also simulates it
 *   eval DIGEST                simulate + price a previously admitted
 *                              kernel by its digest
 *   metrics                    scrape the /metrics exposition
 *
 * Options:
 *   --host H      TCP host, dotted quad or IPv4 name (default 127.0.0.1)
 *   --port N      TCP port of the daemon
 *   --unix PATH   connect over a Unix socket instead
 *   --arch --sched --pivot --dynamic-isa --node --pstate --cell --ecc
 *   --cells-bitline  the shared evaluation knobs, as in bvf_sim
 *   --mask HEX    explicit ISA mask for eval-coder isa
 *   --retries N      transport retries after the first attempt
 *                    (default 0; each reconnects from scratch)
 *   --backoff-ms N   first retry delay, doubled per retry (default 100)
 *   --deadline-ms N  per-response wait budget (default 0 = forever)
 *
 * Transport failures -- connection refused, daemon hung up, response
 * deadline expired, torn frame -- are retried; an ErrorResponse is the
 * daemon's answer and is never retried: it prints "bvf_client: daemon
 * refused the request: [CODE] MESSAGE" and exits 1.
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/verifier.hh"
#include "coder/bvf_space.hh"
#include "coder/scenario.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "core/eval_config.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "server/protocol.hh"
#include "server/transport.hh"

using namespace bvf;
using namespace bvf::server;

namespace
{

struct Options
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string unixPath;
    std::string command;
    std::vector<std::string> args;

    core::EvalConfig eval;
    std::uint64_t isaMask = 0;

    int retries = 0;      //!< transport retries after the first try
    int backoffMs = 100;  //!< first retry delay, doubled per retry
    int deadlineMs = 0;   //!< per-response wait budget; 0 = forever

    bool evalAfterSubmit = false; //!< submit --eval
};

/**
 * A failure of the pipe, not of the request: connect refused, daemon
 * hung up, deadline expired, torn frame. Retryable on a fresh
 * connection -- unlike an ErrorResponse, which is an answer.
 */
struct TransportError
{
    std::string what;
};

/** The daemon answered with an ErrorResponse: reported, never retried. */
struct Refusal
{
    std::string what;
};

std::uint64_t
parseHex64(const std::string &flag, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(value.c_str(), &end, 16);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        cli::dieUsage(strFormat(
            "invalid value '%s' for %s: expected a hex 64-bit word",
            value.c_str(), flag.c_str()));
    }
    return parsed;
}

Options
parse(int argc, char **argv)
{
    Options o;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (core::parseEvalFlag(args, arg, o.eval))
            continue;
        if (arg == "--host") {
            o.host = args.value(arg);
        } else if (arg == "--port") {
            o.port = cli::parseInteger(arg, args.value(arg), 1, 65535);
        } else if (arg == "--unix") {
            o.unixPath = args.value(arg);
        } else if (arg == "--mask") {
            o.isaMask = parseHex64(arg, args.value(arg));
        } else if (arg == "--eval") {
            o.evalAfterSubmit = true;
        } else if (arg == "--retries") {
            o.retries = cli::parseInteger(arg, args.value(arg), 0, 100);
        } else if (arg == "--backoff-ms") {
            o.backoffMs =
                cli::parseInteger(arg, args.value(arg), 0, 60000);
        } else if (arg == "--deadline-ms") {
            o.deadlineMs =
                cli::parseInteger(arg, args.value(arg), 0, 3600000);
        } else if (arg.rfind("--", 0) == 0) {
            cli::dieUsage("unknown option '" + arg + "'");
        } else if (o.command.empty()) {
            o.command = arg;
        } else {
            o.args.push_back(arg);
        }
    }
    if (o.command.empty()) {
        cli::dieUsage("no command (ping, eval-coder, density, energy, "
                      "static, advise, submit, eval, metrics)\n"
                      "usage: bvf_client (--port N [--host H] | --unix "
                      "PATH) [--retries N]\n"
                      "                  [--backoff-ms N] [--deadline-ms N] "
                      "[--mask HEX] [--eval]\n"
                      "                  "
                      + core::evalUsage("                  ")
                      + "\n                  COMMAND ...");
    }
    if (o.command == "submit" && o.args.size() != 1)
        cli::dieUsage("submit needs exactly one kernel file");
    if (o.command == "eval" && o.args.size() != 1)
        cli::dieUsage("eval needs exactly one kernel digest");
    if (o.evalAfterSubmit && o.command != "submit")
        cli::dieUsage("--eval only applies to the submit command");
    if (o.port == 0 && o.unixPath.empty())
        cli::dieUsage("--port N or --unix PATH is required");
    return o;
}

/** One connection to the daemon; every failure is a TransportError. */
class Connection
{
  public:
    explicit Connection(const Options &o) : o_(o)
    {
        auto dialed =
            o.unixPath.empty()
                ? SocketTransport::dialTcp(o.host, o.port, kBlock)
                : SocketTransport::dialUnix(o.unixPath, kBlock);
        if (dialed.ok()) {
            transport_ = std::move(dialed.value());
            return;
        }
        const Error &e = dialed.error();
        if (!o.unixPath.empty() || e.code == ErrorCode::InvalidArgument)
            throw TransportError{e.message};
        throw TransportError{
            strFormat("cannot connect to %s:%d", o.host.c_str(), o.port)};
    }

    void
    send(std::string_view bytes)
    {
        auto sent = transport_->send(bytes, kBlock);
        if (!sent.ok()) {
            throw TransportError{
                strFormat("write(): %s", sent.error().message.c_str())};
        }
    }

    /** The next response, waiting at most --deadline-ms when set. */
    Frame
    read()
    {
        auto got = readFrame(*transport_, buf_, Deadline(deadline()));
        if (got.ok())
            return std::move(got.value());
        const Error &e = got.error();
        if (e.code == ErrorCode::Timeout) {
            throw TransportError{
                strFormat("no response within %d ms", o_.deadlineMs)};
        }
        if (e.code == ErrorCode::Io)
            throw TransportError{e.message};
        throw TransportError{strFormat("protocol error from daemon: %s",
                                       e.describe().c_str())};
    }

    /** Everything the daemon sends until it closes the stream. */
    std::string
    readToEof()
    {
        std::string bytes;
        for (;;) {
            auto got = transport_->recv(deadline());
            if (!got.ok() && got.error().code == ErrorCode::Timeout) {
                throw TransportError{strFormat(
                    "no /metrics reply within %d ms", o_.deadlineMs)};
            }
            if (!got.ok() || got.value().empty())
                return bytes;
            bytes += got.value();
        }
    }

  private:
    /** Connect and write like the old blocking socket: no deadline. */
    static constexpr std::chrono::milliseconds kBlock{0};

    std::chrono::milliseconds
    deadline() const
    {
        return std::chrono::milliseconds{o_.deadlineMs};
    }

    const Options &o_;
    TransportPtr transport_;
    std::string buf_; //!< bytes read past the last response
};

/** Throw a Refusal when @p frame is an ErrorResponse. */
void
rejectError(const Frame &frame)
{
    if (frame.type != MsgType::ErrorResponse)
        return;
    const auto wire = WireError::decode(frame.payload);
    throw Refusal{
        wire.ok() ? strFormat("[%u] %s",
                              static_cast<unsigned>(wire.value().code),
                              wire.value().message.c_str())
                  : std::string("(undecodable error payload)")};
}

/**
 * Decode @p frame as the response kMessageTable pairs with @p Request.
 * An ErrorResponse, or a response of any other type, is fatal.
 */
template <typename Request>
auto
responseTo(const Frame &frame)
{
    constexpr const auto &row = requestRow<Request>();
    using Response = typename std::decay_t<decltype(row)>::Response;
    rejectError(frame);
    fatal_if(frame.type != row.response, "expected %s, got %s",
             msgTypeName(row.response).c_str(),
             msgTypeName(frame.type).c_str());
    auto resp = Response::decode(frame.payload);
    fatal_if(!resp.ok(), "bad %s: %s", msgTypeName(row.response).c_str(),
             resp.error().describe().c_str());
    return std::move(resp.value());
}

/** Encode @p req as the request type its table row names. */
template <typename Request>
std::string
requestBytes(const Request &req)
{
    return encodeFrame(requestRow<Request>().request, req.encode());
}

/** One round trip: send @p req, decode the response it is paired with. */
template <typename Request>
auto
call(Connection &c, const Request &req)
{
    c.send(requestBytes(req));
    return responseTo<Request>(c.read());
}

int
cmdPing(const Options &o, Connection &c)
{
    int count = 1;
    if (!o.args.empty())
        count = cli::parseInteger("ping count", o.args[0], 1, 100000);

    // Pipelining demo: the whole batch goes out before any read.
    std::string batch;
    for (int i = 0; i < count; ++i) {
        Ping ping;
        ping.nonce = 0x1000u + static_cast<std::uint64_t>(i);
        batch += requestBytes(ping);
    }
    c.send(batch);

    for (int i = 0; i < count; ++i) {
        const Ping pong = responseTo<Ping>(c.read());
        fatal_if(pong.nonce != 0x1000u + static_cast<std::uint64_t>(i),
                 "ping %d answered out of order (nonce %llu)", i,
                 static_cast<unsigned long long>(pong.nonce));
    }
    std::printf("%d ping(s) echoed in order\n", count);
    return 0;
}

int
cmdEvalCoder(const Options &o, Connection &c)
{
    if (o.args.size() < 2) {
        cli::dieUsage(
            "eval-coder needs a coder kind and at least one hex word");
    }
    EvalCoderRequest req;
    const std::string &kind = o.args[0];
    if (kind == "identity")
        req.coder = CoderKind::Identity;
    else if (kind == "nv")
        req.coder = CoderKind::Nv;
    else if (kind == "vs")
        req.coder = CoderKind::Vs;
    else if (kind == "isa")
        req.coder = CoderKind::Isa;
    else
        cli::badChoice("eval-coder", kind, "identity, nv, vs, isa");
    setEvalConfig(req, o.eval);
    req.isaMask = o.isaMask;
    for (std::size_t i = 1; i < o.args.size(); ++i)
        req.words.push_back(parseHex64("eval-coder word", o.args[i]));

    const EvalCoderResponse r = call(c, req);
    std::printf("coder %s: %llu bits, ones %llu -> %llu (density "
                "%.4f -> %.4f)\n",
                kind.c_str(),
                static_cast<unsigned long long>(r.totalBits),
                static_cast<unsigned long long>(r.onesBefore),
                static_cast<unsigned long long>(r.onesAfter),
                static_cast<double>(r.onesBefore)
                    / static_cast<double>(r.totalBits),
                static_cast<double>(r.onesAfter)
                    / static_cast<double>(r.totalBits));
    for (std::size_t i = 0; i < r.encoded.size(); ++i) {
        std::printf("  %016llx -> %016llx\n",
                    static_cast<unsigned long long>(req.words[i]),
                    static_cast<unsigned long long>(r.encoded[i]));
    }
    return 0;
}

AppQuery
queryFor(const Options &o)
{
    fatal_if(o.args.empty(), "%s needs an application abbreviation",
             o.command.c_str());
    AppQuery q;
    setEvalConfig(q, o.eval);
    q.abbr = o.args[0];
    return q;
}

int
cmdDensity(const Options &o, Connection &c)
{
    BitDensityRequest req;
    req.query = queryFor(o);
    const BitDensityResponse r = call(c, req);
    std::printf("%s: %llu cycles, %llu instructions\n",
                req.query.abbr.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    std::printf("%-10s", "unit");
    for (const auto s : coder::allScenarios)
        std::printf(" %10s", coder::scenarioName(s).c_str());
    std::printf("\n");
    for (const auto &u : r.units) {
        std::printf("%-10s",
                    coder::unitName(static_cast<coder::UnitId>(u.unit))
                        .c_str());
        for (const double d : u.density)
            std::printf(" %10.4f", d);
        std::printf("\n");
    }
    std::printf("%-10s", "NoC");
    for (const double d : r.nocDensity)
        std::printf(" %10.4f", d);
    std::printf("\n");
    return 0;
}

void
printEnergyTable(const std::array<double, kScenarioSlots> &chip,
                 const std::array<double, kScenarioSlots> &bvfUnits)
{
    const auto base = static_cast<std::size_t>(
        coder::scenarioIndex(coder::Scenario::Baseline));
    for (const auto s : coder::allScenarios) {
        const auto idx =
            static_cast<std::size_t>(coder::scenarioIndex(s));
        std::printf("  %-10s chip %10.3f uJ (%+6.2f%%)  bvf-units "
                    "%10.3f uJ\n",
                    coder::scenarioName(s).c_str(), chip[idx] * 1e6,
                    100.0 * (chip[idx] / chip[base] - 1.0),
                    bvfUnits[idx] * 1e6);
    }
}

int
cmdEnergy(const Options &o, Connection &c)
{
    ChipEnergyRequest req;
    setEvalConfig(req, o.eval);
    req.query = queryFor(o);
    const ChipEnergyResponse r = call(c, req);
    std::printf("%s: %llu cycles, %llu instructions\n",
                req.query.abbr.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    printEnergyTable(r.chipEnergy, r.bvfUnitsEnergy);
    return 0;
}

int
cmdStatic(const Options &o, Connection &c)
{
    StaticQueryRequest req;
    req.query = queryFor(o);
    const StaticQueryResponse r = call(c, req);
    auto printBounds = [](const std::string &name, const auto &bounds) {
        std::printf("%-10s", name.c_str());
        for (const auto &b : bounds) {
            if (b.any)
                std::printf(" [%5.3f,%5.3f]", b.lo, b.hi);
            else
                std::printf(" %13s", "idle");
        }
        std::printf("\n");
    };
    std::printf("%-10s", "unit");
    for (const auto s : coder::allScenarios)
        std::printf(" %13s", coder::scenarioName(s).c_str());
    std::printf("\n");
    for (const auto &u : r.units) {
        printBounds(
            coder::unitName(static_cast<coder::UnitId>(u.unit)),
            u.bounds);
    }
    printBounds("NoC", r.noc);
    std::printf("best static scenario: %s\n",
                coder::scenarioName(coder::allScenarios[r.bestStatic])
                    .c_str());
    return 0;
}

int
cmdAdvise(const Options &o, Connection &c)
{
    StaticAdviceRequest req;
    req.query = queryFor(o);
    const StaticAdviceResponse r = call(c, req);
    std::printf("%s: VS register pivot %u (proven slack %.4f, %u/%u "
                "lane-affine sources)\n",
                req.query.abbr.c_str(),
                static_cast<unsigned>(r.bestPivot), r.provenSlack,
                r.affineSources, r.totalSources);
    const auto &best = r.pivotBounds[r.bestPivot];
    if (best.any) {
        std::printf("  advised-pivot density [%.4f, %.4f], score %.4f\n",
                    best.lo, best.hi, r.pivotScores[r.bestPivot]);
    }
    std::printf("ISA mask: 0x%016llx%s\n",
                static_cast<unsigned long long>(r.specializedMask),
                r.specializedMask == r.defaultMask ? " (= Table 2)" : "");
    if (r.defaultDensity.any) {
        std::printf("  coded density [%.4f, %.4f] vs Table 2 "
                    "[%.4f, %.4f]\n",
                    r.specializedDensity.lo, r.specializedDensity.hi,
                    r.defaultDensity.lo, r.defaultDensity.hi);
    }
    for (const auto &u : r.unitPicks) {
        std::printf("  %-4s %s (%s)  NV [%.4f, %.4f]  VS [%.4f, %.4f]\n",
                    coder::unitName(static_cast<coder::UnitId>(u.unit))
                        .c_str(),
                    coder::scenarioName(coder::allScenarios[u.pick])
                        .c_str(),
                    u.proven ? "proven" : "heuristic", u.nv.lo, u.nv.hi,
                    u.vs.lo, u.vs.hi);
    }
    std::printf("best scenario under advised wiring: %s\n",
                coder::scenarioName(coder::allScenarios[r.bestScenario])
                    .c_str());
    return 0;
}

/**
 * Load the kernel to submit: a BVFK bytecode file is sent verbatim;
 * anything else is treated as assembly text and assembled client-side.
 */
std::string
loadKernelBytecode(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open kernel file '%s'", path.c_str());
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string bytes = raw.str();
    fatal_if(bytes.empty(), "kernel file '%s' is empty", path.c_str());
    if (bytes.size() >= 4 && bytes.compare(0, 4, "BVFK") == 0)
        return bytes;
    const auto parsed = isa::parseAsm(bytes);
    fatal_if(!parsed.ok(), "%s: %s", path.c_str(),
             parsed.error().describe().c_str());
    return isa::encodeProgram(parsed.value());
}

/** Send one EvalSubmitted request and print the result. */
int
evalByDigest(const Options &o, Connection &c, const std::string &digest)
{
    EvalSubmittedRequest req;
    setEvalConfig(req, o.eval);
    req.digest = digest;
    const EvalSubmittedResponse r = call(c, req);
    std::printf("%s: %llu cycles, %llu instructions\n", digest.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    std::printf("  contract: max warp issue %llu, %llu accesses "
                "checked\n",
                static_cast<unsigned long long>(r.maxWarpIssue),
                static_cast<unsigned long long>(r.checkedAccesses));
    printEnergyTable(r.chipEnergy, r.bvfUnitsEnergy);
    return 0;
}

int
cmdSubmit(const Options &o, Connection &c)
{
    SubmitKernelRequest req;
    req.bytecode = loadKernelBytecode(o.args[0]);
    const SubmitKernelResponse r = call(c, req);
    if (!r.admitted) {
        std::printf("rejected: %zu finding(s)\n", r.rejections.size());
        for (const auto &rej : r.rejections) {
            std::printf("  pc %u [%s] %s\n", rej.pc,
                        analysis::rejectReasonName(
                            static_cast<analysis::RejectReason>(
                                rej.reason))
                            .c_str(),
                        rej.message.c_str());
        }
        return 1;
    }
    std::printf("admitted %s\n", r.digest.c_str());
    std::printf("  certificate: warp trip bound %llu, global footprint "
                "[0x%08x, 0x%08x]\n",
                static_cast<unsigned long long>(r.tripBound), r.globalLo,
                r.globalHi);
    if (o.evalAfterSubmit)
        return evalByDigest(o, c, r.digest);
    return 0;
}

int
cmdEval(const Options &o, Connection &c)
{
    return evalByDigest(o, c, o.args[0]);
}

int
cmdMetrics(const Options &o, Connection &c)
{
    c.send("GET /metrics HTTP/1.0\r\n\r\n");
    const std::string reply = c.readToEof();
    if (reply.empty()) {
        throw TransportError{strFormat("no /metrics reply from %s:%d",
                                       o.host.c_str(), o.port)};
    }
    const auto bodyAt = reply.find("\r\n\r\n");
    std::fputs(bodyAt == std::string::npos
                   ? reply.c_str()
                   : reply.c_str() + bodyAt + 4,
               stdout);
    return 0;
}

using Command = int (*)(const Options &, Connection &);

/** Every command and the function that runs it on a connection. */
constexpr std::pair<std::string_view, Command> kCommands[] = {
    {"ping", cmdPing},     {"eval-coder", cmdEvalCoder},
    {"density", cmdDensity}, {"energy", cmdEnergy},
    {"static", cmdStatic}, {"advise", cmdAdvise},
    {"submit", cmdSubmit}, {"eval", cmdEval},
    {"metrics", cmdMetrics},
};

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("bvf_client", e);
    }

    Command command = nullptr;
    for (const auto &[name, run] : kCommands) {
        if (o.command == name)
            command = run;
    }
    if (!command) {
        std::fprintf(stderr,
                     "bvf_client: unknown command '%s' (ping, "
                     "eval-coder, density, energy, static, advise, "
                     "submit, eval, metrics)\n",
                     o.command.c_str());
        return cli::kExitUsage;
    }

    // Each attempt reconnects from scratch: a failed attempt's stream
    // position is unknowable, so resuming it could pair a stale
    // response with a fresh request.
    for (int attempt = 0;; ++attempt) {
        try {
            Connection connection(o);
            return command(o, connection);
        } catch (const Refusal &e) {
            std::fprintf(stderr,
                         "bvf_client: daemon refused the request: %s\n",
                         e.what.c_str());
            return 1;
        } catch (const TransportError &e) {
            if (attempt >= o.retries) {
                std::fprintf(
                    stderr, "bvf_client: %s (gave up after %d "
                            "attempt(s))\n",
                    e.what.c_str(), attempt + 1);
                return 1;
            }
            const long long delay =
                static_cast<long long>(o.backoffMs)
                << (attempt > 16 ? 16 : attempt);
            std::fprintf(stderr,
                         "bvf_client: %s; retrying in %lld ms "
                         "(attempt %d/%d)\n",
                         e.what.c_str(), delay, attempt + 2,
                         o.retries + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
    }
}
