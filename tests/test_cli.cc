/**
 * @file
 * Tests for the shared CLI parsing layer: strict whole-token numeric
 * conversion, range checks, the ArgStream cursor, and the canonical
 * diagnostics that bvf_sim and bvf_lint both relied on before the
 * parser was unified. The ClientPins cases pin bvf_client's exact
 * stdout and exit status against an in-process bvfd.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/crc32.hh"
#include "server/server.hh"

namespace bvf::cli
{
namespace
{

/** what() of the UsageError @p fn throws; fails the test if none. */
template <typename Fn>
std::string
diagnosticOf(Fn fn)
{
    try {
        fn();
    } catch (const UsageError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected a UsageError";
    return "";
}

TEST(Parse, IntegerAcceptsTheWholeRange)
{
    EXPECT_EQ(parseInteger("--jobs", "1", 1, 64), 1);
    EXPECT_EQ(parseInteger("--jobs", "64", 1, 64), 64);
    EXPECT_EQ(parseInteger("--pivot", "-3", -10, 10), -3);
}

TEST(Parse, IntegerRejectsGarbageAndPartialTokens)
{
    EXPECT_THROW(parseInteger("--jobs", "abc", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "4x", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "4.5", 1, 64), UsageError);
    EXPECT_NE(diagnosticOf([] { parseInteger("--jobs", "abc", 1, 64); })
                  .find("expected an integer"),
              std::string::npos);
}

TEST(Parse, IntegerRejectsOutOfRangeWithBothBounds)
{
    EXPECT_THROW(parseInteger("--jobs", "0", 1, 64), UsageError);
    EXPECT_THROW(parseInteger("--jobs", "65", 1, 64), UsageError);
    const std::string msg =
        diagnosticOf([] { parseInteger("--jobs", "65", 1, 64); });
    EXPECT_NE(msg.find("--jobs"), std::string::npos);
    EXPECT_NE(msg.find("[1, 64]"), std::string::npos);
}

TEST(Parse, NumberAcceptsDecimalAndScientific)
{
    EXPECT_DOUBLE_EQ(parseNumber("--vdd", "1.2", 0.0, 2.0), 1.2);
    EXPECT_DOUBLE_EQ(parseNumber("--freq", "7e8", 0.0, 1e10), 7e8);
    EXPECT_THROW(parseNumber("--vdd", "1.2v", 0.0, 2.0), UsageError);
    EXPECT_THROW(parseNumber("--vdd", "9.9", 0.0, 2.0), UsageError);
}

TEST(Parse, U64AcceptsFullWidthAndRejectsNegatives)
{
    EXPECT_EQ(parseU64("--mask", "18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseU64("--mask", "0"), 0u);
    // strtoull silently wraps negatives; the parser must not.
    EXPECT_THROW(parseU64("--mask", "-1"), UsageError);
    EXPECT_THROW(parseU64("--mask", "12 "), UsageError);
}

TEST(Parse, BadChoiceNamesFlagValueAndChoices)
{
    const std::string msg = diagnosticOf(
        [] { badChoice("--sched", "fifo", "gto, lrr, two"); });
    EXPECT_EQ(msg, "invalid value 'fifo' for --sched: "
                   "expected one of gto, lrr, two");
}

TEST(ArgStream, WalksArgvSkippingTheProgramName)
{
    const char *argv[] = {"prog", "--pivot", "21", "all"};
    ArgStream args(4, const_cast<char **>(argv));
    std::string arg;
    std::vector<std::string> seen;
    while (args.next(arg)) {
        if (arg == "--pivot")
            seen.push_back("pivot=" + args.value(arg));
        else
            seen.push_back(arg);
    }
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "pivot=21");
    EXPECT_EQ(seen[1], "all");
    EXPECT_FALSE(args.next(arg)); // stays exhausted
}

TEST(ArgStream, MissingValueIsTheCanonicalDiagnostic)
{
    const char *argv[] = {"prog", "--arch"};
    ArgStream args(2, const_cast<char **>(argv));
    std::string arg;
    ASSERT_TRUE(args.next(arg));
    const std::string msg =
        diagnosticOf([&] { args.value(arg); });
    EXPECT_EQ(msg, "--arch requires a value");
}

TEST(Report, UsageErrorsExitWithStatusTwo)
{
    EXPECT_EQ(kExitUsage, 2);
    EXPECT_EQ(reportUsage("bvf_sim", UsageError("unknown option '--x'")),
              kExitUsage);
}

/**
 * Run an example front end with the given arguments; @return its exit
 * status, with combined stdout+stderr in @p out. -1 if it did not
 * exit normally.
 */
int
runTool(const std::string &tool, const std::string &args,
        std::string &out)
{
    const std::string cmd =
        std::string(BVF_EXAMPLES_DIR) + "/" + tool + " " + args + " 2>&1";
    out.clear();
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    char chunk[512];
    while (std::fgets(chunk, sizeof(chunk), pipe))
        out += chunk;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ExitTwo, PortedFrontEndsRejectUnknownOptions)
{
    for (const char *tool :
         {"pivot_explorer", "chip_power_report", "sram_designer"}) {
        std::string out;
        EXPECT_EQ(runTool(tool, "--bogus", out), kExitUsage) << tool;
        EXPECT_NE(out.find("unknown option '--bogus'"),
                  std::string::npos)
            << tool << ": " << out;
        // The diagnostic leads with the program name.
        EXPECT_EQ(out.rfind(tool, 0), 0u) << tool << ": " << out;
    }
}

TEST(ExitTwo, PortedFrontEndsValidateValues)
{
    std::string out;
    // Flag value outside its range.
    EXPECT_EQ(runTool("pivot_explorer", "--samples 0", out), kExitUsage);
    EXPECT_NE(out.find("--samples"), std::string::npos) << out;

    // Bad choice for the node, flag and positional spellings.
    EXPECT_EQ(runTool("sram_designer", "--node 90", out), kExitUsage);
    EXPECT_NE(out.find("expected one of 28, 40"), std::string::npos)
        << out;
    EXPECT_EQ(runTool("sram_designer", "90nm", out), kExitUsage);

    // A flag that requires a value, given none.
    EXPECT_EQ(runTool("chip_power_report", "--node", out), kExitUsage);
    EXPECT_NE(out.find("--node requires a value"), std::string::npos)
        << out;

    // Excess positional arguments are refused, not silently dropped.
    EXPECT_EQ(runTool("chip_power_report", "KMN TRI", out), kExitUsage);
    EXPECT_NE(out.find("unexpected argument"), std::string::npos) << out;
}

TEST(ExitTwo, FrontEndsAgreeOnTheSharedKnobs)
{
    // One table of bad values: every front end that takes the shared
    // evaluation knobs refuses each with the same choice list.
    const struct
    {
        const char *args;
        const char *diagnostic;
    } cases[] = {
        {"--cell 7t", "invalid value '7t' for --cell: expected one of "
                      "bvf8t, bvf6t, 8t, 6t, edram"},
        {"--pstate 600", "invalid value '600' for --pstate: expected one "
                         "of 700, 500, 300"},
        {"--arch volta", "invalid value 'volta' for --arch: expected one "
                         "of fermi, kepler, maxwell, pascal"},
        {"--node 90", "invalid value '90' for --node: expected one of "
                      "28, 40"},
        {"--sched fifo", "invalid value 'fifo' for --sched: expected one "
                         "of gto, lrr, two"},
        {"--pivot 32", "--pivot"},
        {"--cells-bitline 0", "--cells-bitline"},
    };
    for (const char *tool : {"bvf_sim", "bvf_client", "bvf_fleet"}) {
        for (const auto &c : cases) {
            std::string out;
            EXPECT_EQ(runTool(tool, c.args, out), kExitUsage)
                << tool << " " << c.args;
            EXPECT_NE(out.find(c.diagnostic), std::string::npos)
                << tool << " " << c.args << ": " << out;
        }
    }
}

TEST(ExitTwo, ClientValidatesRetryFlags)
{
    std::string out;
    // Each flag rejects non-numeric and out-of-range values before any
    // connection attempt, so these fail fast with the usage status.
    EXPECT_EQ(runTool("bvf_client", "--retries -1 ping", out),
              kExitUsage);
    EXPECT_NE(out.find("--retries"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_client", "--retries many ping", out),
              kExitUsage);
    EXPECT_EQ(runTool("bvf_client", "--backoff-ms 999999 ping", out),
              kExitUsage);
    EXPECT_NE(out.find("--backoff-ms"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_client", "--deadline-ms 2.5 ping", out),
              kExitUsage);
    EXPECT_NE(out.find("--deadline-ms"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_client", "ping --deadline-ms", out),
              kExitUsage);
    EXPECT_NE(out.find("requires a value"), std::string::npos) << out;
}

TEST(ExitTwo, ClientValidatesSubmitAndEvalArguments)
{
    std::string out;
    // All of these fail during argument validation, before any
    // connection attempt.
    EXPECT_EQ(runTool("bvf_client", "submit", out), kExitUsage);
    EXPECT_NE(out.find("submit needs exactly one kernel file"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_client", "submit a.bvfk b.bvfk", out),
              kExitUsage);
    EXPECT_EQ(runTool("bvf_client", "eval", out), kExitUsage);
    EXPECT_NE(out.find("eval needs exactly one kernel digest"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_client", "ping --eval", out), kExitUsage);
    EXPECT_NE(out.find("--eval only applies to the submit command"),
              std::string::npos)
        << out;
}

TEST(ExitTwo, LintValidatesVerifyAndJsonCombinations)
{
    std::string out;
    EXPECT_EQ(runTool("bvf_lint", "--json", out), kExitUsage);
    EXPECT_NE(out.find("--json requires --advise, --verify or "
                       "--optimize"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_lint", "--json --advise --verify", out),
              kExitUsage);
    EXPECT_NE(out.find("pick one of --advise, --verify, --optimize"),
              std::string::npos)
        << out;
    EXPECT_EQ(runTool("bvf_lint", "--json --optimize --verify", out),
              kExitUsage);
    EXPECT_NE(out.find("pick one of --advise, --verify, --optimize"),
              std::string::npos)
        << out;
}

TEST(ExitTwo, AssemblerValidatesItsCommandLine)
{
    std::string out;
    EXPECT_EQ(runTool("bvf_asm", "", out), kExitUsage);
    EXPECT_EQ(runTool("bvf_asm", "frobnicate x", out), kExitUsage);
    EXPECT_NE(out.find("unknown command"), std::string::npos) << out;
    EXPECT_EQ(runTool("bvf_asm", "asm", out), kExitUsage);
    EXPECT_EQ(runTool("bvf_asm", "dump", out), kExitUsage);
}

/**
 * Run bvf_client with @p args; @return its exit status, with stdout
 * alone in @p out (stderr is dropped). -1 if it did not exit normally.
 */
int
runClient(const std::string &args, std::string &out)
{
    const std::string cmd = std::string(BVF_EXAMPLES_DIR)
                            + "/bvf_client " + args + " 2>/dev/null";
    out.clear();
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return -1;
    char chunk[512];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0)
        out.append(chunk, n);
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::uint32_t
crcOf(const std::string &text)
{
    return crc32(text.data(), text.size());
}

/** An in-process bvfd on an ephemeral TCP port and a Unix socket. */
class ClientPins : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        server::ServerOptions options;
        options.workers = 2;
        options.unixPath = ::testing::TempDir() + "bvf-client-pins-"
                           + std::to_string(::getpid()) + ".sock";
        server_ = std::make_unique<server::Server>(options);
        ASSERT_TRUE(server_->start().ok());
        unixPath_ = options.unixPath;
        port_ = "--port " + std::to_string(server_->port()) + " ";
    }

    void TearDown() override { server_.reset(); }

    std::unique_ptr<server::Server> server_;
    std::string unixPath_;
    std::string port_; //!< "--port N " for this test's daemon
};

/** A bound, listening TCP socket that never accepts; @return its fd. */
int
silentListener(int &port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0
        || ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
               != 0
        || ::listen(fd, 4) != 0
        || ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len)
               != 0) {
        ADD_FAILURE() << "cannot set up a listener";
        return -1;
    }
    port = ntohs(addr.sin_port);
    return fd;
}

TEST_F(ClientPins, PingPipelinesAndEchoesInOrder)
{
    std::string out;
    EXPECT_EQ(runClient(port_ + "ping 8", out), 0);
    EXPECT_EQ(out, "8 ping(s) echoed in order\n");
}

TEST_F(ClientPins, EvalCoderPrintsTheEncodedWords)
{
    std::string out;
    EXPECT_EQ(
        runClient(port_ + "eval-coder nv deadbeefcafef00d 0011223344556677",
                  out),
        0);
    EXPECT_EQ(out,
              "coder nv: 128 bits, ones 66 -> 80 (density 0.5156 -> "
              "0.6250)\n"
              "  deadbeefcafef00d -> deadbeefcafef00d\n"
              "  0011223344556677 -> 7feeddcc3baa9988\n");
}

TEST_F(ClientPins, StaticAndAdviseTablesAreUnchanged)
{
    std::string out;
    EXPECT_EQ(runClient(port_ + "static KMN", out), 0);
    EXPECT_EQ(crcOf(out), 0x2f75ca6au) << out;
    EXPECT_EQ(runClient(port_ + "advise KMN", out), 0);
    EXPECT_EQ(crcOf(out), 0x4977475fu) << out;
}

TEST_F(ClientPins, SubmitWithEvalAdmitsAndPricesTheSmokeKernel)
{
    // The kernel scripts/ci_daemon_smoke.sh submits.
    const std::string path = ::testing::TempDir() + "bvf-client-pins-"
                             + std::to_string(::getpid()) + ".s";
    std::ofstream(path) << ".kernel smoke\n"
                           ".launch 1 32\n"
                           ".global 64\n"
                           "    S2R R1, SR_TIDX\n"
                           "    MOV R2, #1\n"
                           "    IADD R3, R1, R2\n"
                           "    EXIT\n";
    std::string out;
    EXPECT_EQ(runClient(port_ + "submit " + path + " --eval", out), 0);
    EXPECT_EQ(crcOf(out), 0xbdb0e6ecu) << out;
    std::remove(path.c_str());
}

TEST_F(ClientPins, EvalOfAnUnknownDigestIsRefused)
{
    std::string out;
    EXPECT_EQ(runClient(port_ + "eval k00000000-0", out), 1);
    EXPECT_EQ(out, "");
    EXPECT_EQ(runTool("bvf_client", port_ + "eval k00000000-0", out), 1);
    EXPECT_NE(out.find("daemon refused the request: [4] no admitted "
                       "kernel under digest 'k00000000-0'"),
              std::string::npos)
        << out;
}

TEST_F(ClientPins, MetricsPrintsTheExpositionBody)
{
    std::string out;
    EXPECT_EQ(runClient(port_ + "metrics", out), 0);
    EXPECT_EQ(out.rfind("# bvfd metrics\nbvfd_", 0), 0u) << out;
    EXPECT_NE(out.find("\nbvfd_connections_total "), std::string::npos)
        << out;
}

TEST_F(ClientPins, PingOverTheUnixSocket)
{
    std::string out;
    EXPECT_EQ(runClient("--unix " + unixPath_ + " ping", out), 0);
    EXPECT_EQ(out, "1 ping(s) echoed in order\n");
}

TEST_F(ClientPins, HostAcceptsAName)
{
    std::string out;
    EXPECT_EQ(runClient("--host localhost " + port_ + "ping", out), 0);
    EXPECT_EQ(out, "1 ping(s) echoed in order\n");
}

TEST(ClientTransport, RetriesAClosedPortThenGivesUp)
{
    int port = 0;
    const int fd = silentListener(port);
    ASSERT_GE(fd, 0);
    ::close(fd); // nothing listens there any more
    std::string out;
    EXPECT_EQ(runTool("bvf_client",
                      "--port " + std::to_string(port)
                          + " --retries 2 --backoff-ms 1 ping",
                      out),
              1);
    EXPECT_NE(out.find("gave up after 3 attempt(s)"), std::string::npos)
        << out;
}

TEST(ClientTransport, DeadlineBoundsTheWaitForAResponse)
{
    int port = 0;
    const int fd = silentListener(port);
    ASSERT_GE(fd, 0);
    std::string out;
    EXPECT_EQ(runTool("bvf_client",
                      "--port " + std::to_string(port)
                          + " --deadline-ms 200 ping",
                      out),
              1);
    EXPECT_NE(out.find("no response within 200 ms"), std::string::npos)
        << out;
    ::close(fd);
}

TEST(GoldenCli, BvfSimChecksItsReportAgainstAGoldenReport)
{
    char tmpl[] = "/tmp/bvf-golden-cli-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string golden = dir + "/golden.txt";
    const std::string drifted = dir + "/drifted.txt";
    const std::string garbage = dir + "/garbage.txt";
    std::string out;

    // Recording is --report; checking a fresh run against it is clean.
    ASSERT_EQ(runTool("bvf_sim", "--report " + golden + " NQU", out), 0)
        << out;
    EXPECT_EQ(runTool("bvf_sim", "--golden " + golden + " NQU", out), 0)
        << out;

    // Flip one hex digit of the first hexfloat (chip:Baseline).
    std::ifstream in(golden);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t at = text.find(" 0x1.", text.find("app NQU "));
    ASSERT_NE(at, std::string::npos) << text;
    char &digit = text[at + 5];
    digit = digit == '0' ? '1' : '0';
    std::ofstream(drifted) << text;
    EXPECT_EQ(runTool("bvf_sim", "--golden " + drifted + " NQU", out), 1)
        << out;
    EXPECT_NE(out.find("golden drift: NQU chip:Baseline expected"),
              std::string::npos)
        << out;

    std::ofstream(garbage) << "not a report\n";
    EXPECT_EQ(runTool("bvf_sim", "--golden " + garbage + " NQU", out), 1)
        << out;
    EXPECT_NE(out.find("not a campaign report"), std::string::npos) << out;

    // The old record/verify mode flag and its file flag are gone.
    EXPECT_EQ(runTool("bvf_sim", "--golden-file " + golden + " NQU", out),
              kExitUsage);

    for (const std::string &file : {golden, drifted, garbage})
        std::remove(file.c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace bvf::cli
