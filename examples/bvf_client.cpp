/**
 * @file
 * bvf_client: command-line client for the bvfd daemon.
 *
 * Speaks the CRC32-framed binary protocol (src/server/protocol.hh)
 * over TCP or a Unix socket and prints human-readable results. The
 * ping command doubles as a pipelining demo: all N requests are
 * written back to back before the first response is read, exercising
 * the daemon's in-order batched execution.
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
 *   --host H      TCP host (default 127.0.0.1)
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
 * daemon's answer and is never retried.
 */

#include <arpa/inet.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <sstream>

#include "analysis/verifier.hh"
#include "coder/bvf_space.hh"
#include "coder/scenario.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "core/eval_config.hh"
#include "isa/asm.hh"
#include "isa/bytecode.hh"
#include "server/protocol.hh"

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

/** Connect per the options; throws TransportError on failure. */
int
connectTo(const Options &o)
{
    if (!o.unixPath.empty()) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        fatal_if(fd < 0, "socket(): %s", std::strerror(errno));
        sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        fatal_if(o.unixPath.size() >= sizeof(addr.sun_path),
                 "unix path '%s' is too long", o.unixPath.c_str());
        std::strncpy(addr.sun_path, o.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr))
            != 0) {
            const int err = errno;
            ::close(fd);
            throw TransportError{strFormat("connect(%s): %s",
                                           o.unixPath.c_str(),
                                           std::strerror(err))};
        }
        return fd;
    }

    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string portStr = strFormat("%d", o.port);
    const int rc = ::getaddrinfo(o.host.c_str(), portStr.c_str(), &hints,
                                 &res);
    if (rc != 0) {
        throw TransportError{strFormat("cannot resolve %s: %s",
                                       o.host.c_str(),
                                       ::gai_strerror(rc))};
    }
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        throw TransportError{strFormat("cannot connect to %s:%d",
                                       o.host.c_str(), o.port)};
    }
    return fd;
}

bool
writeAll(int fd, std::string_view bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + sent, bytes.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/** writeAll or throw TransportError. */
void
sendAll(int fd, std::string_view bytes)
{
    if (!writeAll(fd, bytes)) {
        throw TransportError{
            strFormat("write(): %s", std::strerror(errno))};
    }
}

/**
 * Read until one whole frame parses out of @p buf, waiting at most
 * deadlineMs (per response) when nonzero. Every failure mode here --
 * timeout, hangup, torn frame -- is a TransportError: the stream is
 * unusable and only a fresh connection can help.
 */
Frame
recvFrame(const Options &o, int fd, std::string &buf)
{
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        std::size_t consumed = 0;
        auto parsed = parseFrame(buf, consumed);
        if (parsed.ok()) {
            buf.erase(0, consumed);
            return std::move(parsed.value());
        }
        if (parsed.error().code != ErrorCode::Truncated) {
            throw TransportError{
                strFormat("protocol error from daemon: %s",
                          parsed.error().describe().c_str())};
        }
        if (o.deadlineMs > 0) {
            const auto spent =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const long long left = o.deadlineMs - spent;
            if (left <= 0)
                throw TransportError{strFormat(
                    "no response within %d ms", o.deadlineMs)};
            pollfd p = {fd, POLLIN, 0};
            const int rc =
                ::poll(&p, 1, static_cast<int>(left));
            if (rc < 0 && errno != EINTR) {
                throw TransportError{
                    strFormat("poll(): %s", std::strerror(errno))};
            }
            if (rc == 0)
                throw TransportError{strFormat(
                    "no response within %d ms", o.deadlineMs)};
            if (rc < 0)
                continue;
        }
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n == 0)
            throw TransportError{"daemon hung up mid-frame"};
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw TransportError{
                strFormat("read(): %s", std::strerror(errno))};
        }
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

/** Fail loudly when @p frame is an ErrorResponse. */
void
rejectError(const Frame &frame)
{
    if (frame.type != MsgType::ErrorResponse)
        return;
    const auto wire = WireError::decode(frame.payload);
    fatal_if(wire.ok(), "daemon refused the request: [%u] %s",
             static_cast<unsigned>(wire.value().code),
             wire.value().message.c_str());
    fatal("daemon refused the request (undecodable error payload)");
}

int
cmdPing(const Options &o, int fd)
{
    int count = 1;
    if (!o.args.empty())
        count = cli::parseInteger("ping count", o.args[0], 1, 100000);

    // Pipelining demo: the whole batch goes out before any read.
    std::string batch;
    for (int i = 0; i < count; ++i) {
        Ping ping;
        ping.nonce = 0x1000u + static_cast<std::uint64_t>(i);
        batch += encodeFrame(MsgType::PingRequest, ping.encode());
    }
    sendAll(fd, batch);

    std::string buf;
    for (int i = 0; i < count; ++i) {
        const Frame frame = recvFrame(o, fd, buf);
        rejectError(frame);
        fatal_if(frame.type != MsgType::PingResponse,
                 "expected ping-response, got %s",
                 msgTypeName(frame.type).c_str());
        const auto pong = Ping::decode(frame.payload);
        fatal_if(!pong.ok(), "bad ping-response: %s",
                 pong.error().describe().c_str());
        fatal_if(pong.value().nonce != 0x1000u + static_cast<std::uint64_t>(i),
                 "ping %d answered out of order (nonce %llu)", i,
                 static_cast<unsigned long long>(pong.value().nonce));
    }
    std::printf("%d ping(s) echoed in order\n", count);
    return 0;
}

int
cmdEvalCoder(const Options &o, int fd)
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

    sendAll(fd, encodeFrame(MsgType::EvalCoderRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = EvalCoderResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad eval-coder response: %s",
             resp.error().describe().c_str());
    const EvalCoderResponse &r = resp.value();
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
cmdDensity(const Options &o, int fd)
{
    BitDensityRequest req;
    req.query = queryFor(o);
    sendAll(fd, encodeFrame(MsgType::BitDensityRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = BitDensityResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad density response: %s",
             resp.error().describe().c_str());
    const BitDensityResponse &r = resp.value();
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
cmdEnergy(const Options &o, int fd)
{
    ChipEnergyRequest req;
    setEvalConfig(req, o.eval);
    req.query = queryFor(o);
    sendAll(fd, encodeFrame(MsgType::ChipEnergyRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = ChipEnergyResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad energy response: %s",
             resp.error().describe().c_str());
    const ChipEnergyResponse &r = resp.value();
    std::printf("%s: %llu cycles, %llu instructions\n",
                req.query.abbr.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions));
    printEnergyTable(r.chipEnergy, r.bvfUnitsEnergy);
    return 0;
}

int
cmdStatic(const Options &o, int fd)
{
    StaticQueryRequest req;
    req.query = queryFor(o);
    sendAll(fd, encodeFrame(MsgType::StaticQueryRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = StaticQueryResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad static response: %s",
             resp.error().describe().c_str());
    const StaticQueryResponse &r = resp.value();
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
cmdAdvise(const Options &o, int fd)
{
    StaticAdviceRequest req;
    req.query = queryFor(o);
    sendAll(fd, encodeFrame(MsgType::StaticAdviceRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = StaticAdviceResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad advice response: %s",
             resp.error().describe().c_str());
    const StaticAdviceResponse &r = resp.value();
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
evalByDigest(const Options &o, int fd, const std::string &digest)
{
    EvalSubmittedRequest req;
    setEvalConfig(req, o.eval);
    req.digest = digest;
    sendAll(fd, encodeFrame(MsgType::EvalSubmittedRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = EvalSubmittedResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad eval-submitted response: %s",
             resp.error().describe().c_str());
    const EvalSubmittedResponse &r = resp.value();
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
cmdSubmit(const Options &o, int fd)
{
    SubmitKernelRequest req;
    req.bytecode = loadKernelBytecode(o.args[0]);
    sendAll(fd, encodeFrame(MsgType::SubmitKernelRequest, req.encode()));
    std::string buf;
    const Frame frame = recvFrame(o, fd, buf);
    rejectError(frame);
    const auto resp = SubmitKernelResponse::decode(frame.payload);
    fatal_if(!resp.ok(), "bad submit response: %s",
             resp.error().describe().c_str());
    const SubmitKernelResponse &r = resp.value();
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
        return evalByDigest(o, fd, r.digest);
    return 0;
}

int
cmdEval(const Options &o, int fd)
{
    return evalByDigest(o, fd, o.args[0]);
}

int
cmdMetrics(const Options &o, int fd)
{
    const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
    sendAll(fd, get);
    std::string reply;
    char chunk[4096];
    for (;;) {
        if (o.deadlineMs > 0) {
            pollfd p = {fd, POLLIN, 0};
            const int rc = ::poll(&p, 1, o.deadlineMs);
            if (rc == 0) {
                throw TransportError{strFormat(
                    "no /metrics reply within %d ms", o.deadlineMs)};
            }
            if (rc < 0 && errno != EINTR) {
                throw TransportError{
                    strFormat("poll(): %s", std::strerror(errno))};
            }
        }
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        reply.append(chunk, static_cast<std::size_t>(n));
    }
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

    auto dispatch = [&](int fd) -> int {
        if (o.command == "ping")
            return cmdPing(o, fd);
        if (o.command == "eval-coder")
            return cmdEvalCoder(o, fd);
        if (o.command == "density")
            return cmdDensity(o, fd);
        if (o.command == "energy")
            return cmdEnergy(o, fd);
        if (o.command == "static")
            return cmdStatic(o, fd);
        if (o.command == "advise")
            return cmdAdvise(o, fd);
        if (o.command == "submit")
            return cmdSubmit(o, fd);
        if (o.command == "eval")
            return cmdEval(o, fd);
        return cmdMetrics(o, fd);
    };
    const bool known =
        o.command == "ping" || o.command == "eval-coder"
        || o.command == "density" || o.command == "energy"
        || o.command == "static" || o.command == "advise"
        || o.command == "submit" || o.command == "eval"
        || o.command == "metrics";
    if (!known) {
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
        int fd = -1;
        try {
            fd = connectTo(o);
            const int rc = dispatch(fd);
            ::close(fd);
            return rc;
        } catch (const TransportError &e) {
            if (fd >= 0)
                ::close(fd);
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
