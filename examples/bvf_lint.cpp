/**
 * @file
 * bvf_lint: static kernel linter for the evaluation suite.
 *
 * Runs the known-bits abstract interpreter over each requested kernel
 * and reports every diagnostic: reads of never-written registers or
 * predicates, dead writes, unreachable instructions, memory accesses
 * provably outside their backing store, non-canonical encodings and
 * malformed reconvergence annotations.
 *
 * Usage:
 *   bvf_lint [--arch ARCH] [--advise]
 *            [--verify] [--optimize] [--json] [APP...]
 *
 * ARCH is spelled as bvf_sim's --arch. With no APP arguments the whole
 * 58-app suite is linted. Exit status is 0 when every kernel is clean
 * and 1 otherwise, so CI can gate on it directly.
 *
 * --advise runs the static coder advisor on each kernel and prints a
 * per-kernel report (proven per-pivot density bounds, the advised VS
 * register pivot with its proven slack, the specialized ISA mask and
 * per-unit NV-vs-VS picks). With --json the reports are emitted as one
 * JSON array instead, for downstream tooling. Advice output never
 * affects the exit status; only lint findings do.
 *
 * --verify additionally runs the static admission verifier
 * (analysis/verifier.hh) on each kernel -- the same pass bvfd applies
 * to untrusted bytecode submissions. Verifier rejections count as
 * findings and fail the exit status; an admitted kernel prints its
 * certificate (proven warp trip bound and memory footprints). With
 * --json the verdicts are emitted as one JSON array.
 *
 * --optimize runs the certificate-guided optimizer pipeline
 * (analysis/optimizer.hh) on each kernel. Available rewrites are
 * findings -- the shipped kernels are expected to already carry every
 * win the optimizer can prove, so anything it still finds fails the
 * exit status (and the CI lint ratchet) until either the kernel or the
 * baseline is updated. A validation fallback is also a finding: it
 * means the optimizer produced something its own validator refused.
 * With --json the per-kernel results are emitted as one JSON array.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "analysis/lint.hh"
#include "analysis/optimizer.hh"
#include "analysis/verifier.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "core/eval_config.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

struct Options
{
    std::vector<std::string> names;
    isa::GpuArch arch = isa::GpuArch::Pascal;
    bool advise = false;
    bool verify = false;
    bool optimize = false;
    bool json = false;
};

/** Per-pass counters as "name=N" pairs, zero passes skipped. */
std::string
statsSummary(const analysis::OptStats &s)
{
    std::string out;
    const std::pair<const char *, std::uint32_t> passes[] = {
        {"dead-write", s.removedDead},
        {"unreachable", s.removedUnreachable},
        {"guard-false", s.removedGuardFalse},
        {"nop", s.removedNops},
        {"branch-collapse", s.removedBranches},
        {"constant-fold", s.foldedConstants},
        {"copy-propagation", s.propagatedCopies},
        {"strength-reduction", s.reducedStrength},
        {"branch-flatten", s.flattenedBranches},
    };
    for (const auto &[name, count] : passes) {
        if (!count)
            continue;
        if (!out.empty())
            out += " ";
        out += name;
        out += "=";
        out += std::to_string(count);
    }
    return out;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--arch") {
            // The linter's diagnostics are architecture-independent,
            // but --advise specializes the ISA mask per architecture,
            // and typos should fail loudly either way.
            opt.arch = core::parseSpelling(arg, args.value(arg),
                                           core::kArchSpellings);
        } else if (arg == "--advise") {
            opt.advise = true;
        } else if (arg == "--verify") {
            opt.verify = true;
        } else if (arg == "--optimize") {
            opt.optimize = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg.rfind("--", 0) == 0) {
            cli::dieUsage("unknown option '" + arg + "'");
        } else {
            opt.names.push_back(arg);
        }
    }
    if (opt.json && !opt.advise && !opt.verify && !opt.optimize)
        cli::dieUsage("--json requires --advise, --verify or --optimize");
    if (opt.json
        && (int(opt.advise) + int(opt.verify) + int(opt.optimize)) > 1) {
        cli::dieUsage("--json emits one document: pick one of "
                      "--advise, --verify, --optimize");
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("bvf_lint", e);
    }
    const std::vector<std::string> &names = opt.names;

    std::vector<workload::AppSpec> specs;
    if (names.empty()) {
        for (const auto &spec : workload::evaluationSuite())
            specs.push_back(spec);
    } else {
        for (const auto &name : names)
            specs.push_back(workload::findApp(name));
    }

    analysis::AdvisorOptions advisor_opts;
    advisor_opts.arch = opt.arch;

    std::size_t total = 0;
    bool first_json = true;
    if (opt.json)
        std::printf("[");
    for (const auto &spec : specs) {
        const isa::Program program = workload::buildProgram(spec);
        const auto findings = analysis::lintProgram(program);
        for (const auto &finding : findings) {
            // In --json mode stdout carries only the JSON document;
            // findings go to stderr so the stream stays parseable.
            std::fprintf(opt.json ? stderr : stdout, "%s: %s\n",
                         spec.abbr.c_str(), finding.toString().c_str());
        }
        total += findings.size();
        if (opt.verify) {
            const analysis::Verdict verdict =
                analysis::verifyProgram(program);
            if (opt.json) {
                std::printf("%s{\"version\": 1, \"kernel\": %s, "
                            "\"admitted\": %s",
                            first_json ? "" : ",\n",
                            bvf::jsonQuote(spec.abbr).c_str(),
                            verdict.admitted ? "true" : "false");
                if (verdict.admitted) {
                    std::printf(", \"trip_bound\": %llu, "
                                "\"global_footprint\": [%u, %u]",
                                static_cast<unsigned long long>(
                                    verdict.certificate.warpTripBound),
                                verdict.certificate.global.lo,
                                verdict.certificate.global.hi);
                }
                std::printf(", \"rejections\": [");
                bool first_rej = true;
                for (const auto &rej : verdict.rejections) {
                    std::printf("%s{\"reason\": %s, \"pc\": %d}",
                                first_rej ? "" : ", ",
                                bvf::jsonQuote(
                                    analysis::rejectReasonName(
                                        rej.reason))
                                    .c_str(),
                                rej.pc);
                    first_rej = false;
                }
                std::printf("]}");
                first_json = false;
            } else if (verdict.admitted) {
                std::printf("%s: admitted (warp trip bound %llu)\n",
                            spec.abbr.c_str(),
                            static_cast<unsigned long long>(
                                verdict.certificate.warpTripBound));
            }
            for (const auto &rej : verdict.rejections) {
                std::fprintf(opt.json ? stderr : stdout,
                             "%s: %s\n", spec.abbr.c_str(),
                             rej.toString().c_str());
            }
            total += verdict.rejections.size();
        }
        if (opt.optimize) {
            const analysis::OptimizeResult res =
                analysis::optimizeProgram(program);
            if (opt.json) {
                const analysis::OptStats &s = res.stats;
                std::printf(
                    "%s{\"version\": 1, \"kernel\": %s, "
                    "\"admitted\": %s, \"accepted\": %s, "
                    "\"instructions\": [%zu, %zu], "
                    "\"rewrites\": {\"dead_write\": %u, "
                    "\"unreachable\": %u, \"guard_false\": %u, "
                    "\"nop\": %u, \"branch_collapse\": %u, "
                    "\"constant_fold\": %u, \"copy_propagation\": %u, "
                    "\"strength_reduction\": %u, "
                    "\"branch_flatten\": %u}, \"note\": %s}",
                    first_json ? "" : ",\n",
                    bvf::jsonQuote(spec.abbr).c_str(),
                    res.originalAdmitted ? "true" : "false",
                    res.accepted ? "true" : "false",
                    program.body.size(), res.program.body.size(),
                    s.removedDead, s.removedUnreachable,
                    s.removedGuardFalse, s.removedNops,
                    s.removedBranches, s.foldedConstants,
                    s.propagatedCopies, s.reducedStrength,
                    s.flattenedBranches,
                    bvf::jsonQuote(res.note).c_str());
                first_json = false;
            }
            // Findings: any available rewrite (a kernel should ship
            // already optimal) and any optimizer fallback.
            std::size_t opt_findings = 0;
            if (!res.originalAdmitted) {
                std::fprintf(opt.json ? stderr : stdout,
                             "%s: optimizer: original not admitted "
                             "(%s)\n",
                             spec.abbr.c_str(), res.note.c_str());
                ++opt_findings;
            } else if (res.stats.total() > 0) {
                const std::string tail =
                    res.accepted ? std::string()
                                 : " [fallback: " + res.note + "]";
                std::fprintf(opt.json ? stderr : stdout,
                             "%s: optimizer: %u rewrite(s) available: "
                             "%s%s\n",
                             spec.abbr.c_str(), res.stats.total(),
                             statsSummary(res.stats).c_str(),
                             tail.c_str());
                ++opt_findings;
            }
            total += opt_findings;
        }
        if (opt.advise) {
            const analysis::AnalysisResult analysis =
                analysis::analyzeProgram(program);
            const analysis::StaticAdvice advice =
                analysis::adviseProgram(program, analysis, advisor_opts);
            if (opt.json) {
                std::printf("%s%s", first_json ? "" : ",\n",
                            analysis::adviceJson(spec.abbr, advice)
                                .c_str());
                first_json = false;
            } else {
                std::printf("%s", analysis::renderAdviceReport(
                                      spec.abbr, advice)
                                      .c_str());
            }
        }
    }
    if (opt.json)
        std::printf("]\n");
    if (total) {
        std::fprintf(opt.json ? stderr : stdout,
                     "bvf_lint: %zu finding(s) across %zu kernel(s)\n",
                     total, specs.size());
        return 1;
    }
    if (!opt.json)
        std::printf("bvf_lint: %zu kernel(s) clean\n", specs.size());
    return 0;
}
