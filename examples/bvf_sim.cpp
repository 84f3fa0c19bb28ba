/**
 * @file
 * bvf_sim: a command-line front end for the whole library.
 *
 * Run any suite application (or all of them) on a configurable machine
 * and print the per-scenario chip energy report, optionally dumping the
 * access trace (the paper's methodology artifact) for offline analysis.
 * With a journal the run becomes a crash-safe *campaign*: per-app
 * results are persisted as they finish, a killed campaign resumes
 * bit-identically with --resume, hanging apps are timed out by a
 * watchdog, repeatedly failing apps are quarantined, and checking the
 * report against a golden one detects silent numerical drift.
 *
 * Every simulation goes through core::ExperimentDriver, the same run
 * pipeline the campaign, bvfd and the fleet use. --trace and
 * --check-advice hang their sinks (the trace writer, the 32-pivot
 * sweep) on RunOptions::tap, which sees the machine's raw access
 * stream; --check-static is the driver's RunOptions::checkStatic, and
 * --check-advice is core::crossCheckAdvice.
 *
 * Usage:
 *   bvf_sim [options] APP...
 *   bvf_sim --list
 *
 * Options:
 *   --node --pstate --sched --cell --arch --pivot --dynamic-isa --ecc
 *   --cells-bitline       the shared evaluation knobs: technology node,
 *                         DVFS point, warp scheduler, SRAM cells, ISA,
 *                         VS register pivot, per-app ISA mask, SECDED
 *                         (72,64) on every SRAM read port, bitline
 *                         height (spellings and defaults in
 *                         src/core/eval_config.hh)
 *   --trace FILE          dump the access trace
 *   --fault-rate R        per-bit soft-error rate per read (default 0)
 *   --fault-seed N        fault-stream seed     (default 1)
 *   --log-level quiet|warn|info|debug           (default warn)
 *   --list                list the 58 applications and exit
 *   --analyze             static report only (lint + density bounds),
 *                         no simulation; exit 1 on lint findings
 *   --check-static        after simulating, verify every observed
 *                         encoded bit ratio against the static
 *                         predictor's proven interval and fail loudly
 *                         on contradiction (incompatible with --ecc,
 *                         --fault-rate and the bvf6t disturb model)
 *   --check-advice        after simulating, sweep all 32 VS register
 *                         pivots dynamically and verify the static
 *                         advisor: every measured per-pivot density
 *                         must sit inside its proven interval, and the
 *                         dynamic best pivot may beat the advised one
 *                         by at most the proven slack (same
 *                         incompatibilities as --check-static)
 *
 * Campaign options (any of these selects campaign mode):
 *   --journal FILE        crash-safe journal; every finished app is
 *                         persisted via atomic write->fsync->rename
 *   --resume              continue from an existing journal
 *   --app-timeout SEC     wall-clock watchdog per attempt (default off)
 *   --max-retries N       reseeded retries before quarantine (default 1)
 *   --jobs N              simulate N apps concurrently (default 1);
 *                         the report stays byte-identical to --jobs 1
 *   --report FILE         write the canonical (bit-stable) report
 *   --golden FILE         compare the report against FILE (a report
 *                         recorded with --report); exit 1 on any drift
 *
 * Selecting --cell bvf6t additionally arms the Section 7.1 read-disturb
 * model: the per-bit flip probability is derived from the transient
 * solver at the chosen node, Vdd and --cells-bitline.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/advisor.hh"
#include "analysis/lint.hh"
#include "campaign/campaign.hh"
#include "core/pivot_sweep.hh"
#include "core/static_check.hh"
#include "common/atomic_file.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/eval_config.hh"
#include "core/experiment.hh"
#include "core/trace.hh"
#include "fault/fault_sink.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;

namespace
{

struct Options
{
    core::EvalConfig eval;
    std::string traceFile;
    double faultRate = 0.0;
    std::uint64_t faultSeed = 1;
    std::vector<std::string> apps;
    bool list = false;
    bool analyze = false;
    bool checkStatic = false;
    bool checkAdvice = false;

    // Campaign mode.
    bool campaign = false;
    std::string journalFile;
    bool resume = false;
    double appTimeoutSec = 0.0;
    int maxRetries = 1;
    int jobs = 1;
    std::string reportFile;
    std::string goldenFile;
};

using cli::dieUsage;
using cli::parseInteger;
using cli::parseNumber;
using cli::parseU64;

[[noreturn]] void
usage()
{
    // The full usage block bypasses the "bvf_sim: ..." diagnostic
    // prefix; throwing would reformat it, so it prints and exits here.
    std::fprintf(stderr,
                 "usage: bvf_sim %s\n"
                 "               [--trace FILE] [--fault-rate R] "
                 "[--fault-seed N]\n"
                 "               [--log-level quiet|warn|info|debug]\n"
                 "               [--journal FILE] [--resume] "
                 "[--app-timeout SEC] [--max-retries N]\n"
                 "               [--jobs N] [--report FILE] "
                 "[--golden FILE]\n"
                 "               APP... | --list\n",
                 core::evalUsage("               ").c_str());
    std::exit(cli::kExitUsage);
}

Options
parse(int argc, char **argv)
{
    Options o;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        auto next = [&]() { return args.value(arg); };
        if (core::parseEvalFlag(args, arg, o.eval))
            continue;
        if (arg == "--trace") {
            o.traceFile = next();
        } else if (arg == "--fault-rate") {
            o.faultRate = parseNumber(arg, next(), 0.0, 1.0);
        } else if (arg == "--fault-seed") {
            o.faultSeed = parseU64(arg, next());
        } else if (arg == "--log-level") {
            const auto v = next();
            LogLevel level;
            if (!parseLogLevel(v, level))
                cli::badChoice(arg, v, "quiet, warn, info, debug");
            setLogLevel(level);
        } else if (arg == "--journal") {
            o.journalFile = next();
            o.campaign = true;
        } else if (arg == "--resume") {
            o.resume = true;
            o.campaign = true;
        } else if (arg == "--app-timeout") {
            o.appTimeoutSec = parseNumber(arg, next(), 0.0, 86400.0);
            o.campaign = true;
        } else if (arg == "--max-retries") {
            o.maxRetries = parseInteger(arg, next(), 0, 100);
            o.campaign = true;
        } else if (arg == "--jobs") {
            o.jobs = parseInteger(arg, next(), 1, 64);
            o.campaign = true;
        } else if (arg == "--report") {
            o.reportFile = next();
            o.campaign = true;
        } else if (arg == "--golden") {
            o.goldenFile = next();
            o.campaign = true;
        } else if (arg == "--analyze") {
            o.analyze = true;
        } else if (arg == "--check-static") {
            o.checkStatic = true;
        } else if (arg == "--check-advice") {
            o.checkAdvice = true;
        } else if (arg == "--list") {
            o.list = true;
        } else if (arg.rfind("--", 0) == 0) {
            dieUsage(strFormat("unknown option '%s'", arg.c_str()));
        } else {
            o.apps.push_back(arg);
        }
    }
    if (!o.list && o.apps.empty())
        usage();
    if (o.resume && o.journalFile.empty())
        dieUsage("--resume requires --journal FILE");
    if (o.campaign && !o.traceFile.empty())
        dieUsage("--trace is not supported in campaign mode");
    if (o.analyze && o.campaign)
        dieUsage("--analyze is a static mode; campaign flags do not apply");
    if (o.checkStatic && o.eval.ecc)
        dieUsage("--check-static is incompatible with --ecc");
    if (o.checkStatic && o.faultRate > 0.0)
        dieUsage("--check-static is incompatible with --fault-rate");
    if (o.checkAdvice && o.eval.ecc)
        dieUsage("--check-advice is incompatible with --ecc");
    if (o.checkAdvice && o.faultRate > 0.0)
        dieUsage("--check-advice is incompatible with --fault-rate");
    if (o.checkAdvice && o.campaign)
        dieUsage("--check-advice is not supported in campaign mode");
    if (o.checkAdvice && o.analyze)
        dieUsage("--check-advice needs a simulation; drop --analyze");
    return o;
}

/**
 * Campaign mode: crash-safe journaled sweep with watchdog, retry,
 * quarantine and an optional check against a golden report.
 * @return process exit code
 */
int
runCampaign(const Options &o)
{
    core::ExperimentDriver driver(o.eval.machine());

    campaign::CampaignOptions copts;
    copts.journalPath = o.journalFile;
    copts.resume = o.resume;
    copts.appTimeout = std::chrono::milliseconds(
        static_cast<long long>(o.appTimeoutSec * 1000.0));
    copts.maxRetries = o.maxRetries;
    copts.jobs = o.jobs;
    copts.run = o.eval.runOptions(o.faultRate, o.faultSeed);
    copts.run.checkStatic = o.checkStatic;
    copts.pricing = o.eval.pricing();

    const auto specs = workload::resolveApps(o.apps);
    campaign::CampaignRunner runner(driver, copts);
    const auto outcome = runner.run(specs);
    fatal_if(!outcome.ok(), "campaign failed: %s",
             outcome.error().describe().c_str());
    const campaign::CampaignReport &report = outcome.value();

    // Human-readable summary (resume metadata included here, never in
    // the canonical report, which must be resume-invariant).
    TextTable table(strFormat(
        "Campaign: %zu apps on %s / %s / %s cells / %s scheduler",
        report.results.size(), circuit::techNodeName(o.eval.node).c_str(),
        o.eval.pstate.name.c_str(),
        circuit::cellKindName(o.eval.cell).c_str(),
        gpu::schedulerName(o.eval.sched).c_str()));
    table.header({"Abbr", "Status", "Attempts", "Source", "Cycles",
                  "Chip[uJ]", "BVF saving"});
    for (const auto &r : report.results) {
        const auto base = static_cast<std::size_t>(
            coder::scenarioIndex(coder::Scenario::Baseline));
        const auto all = static_cast<std::size_t>(
            coder::scenarioIndex(coder::Scenario::AllCoders));
        const bool done = r.status == campaign::AppStatus::Completed;
        table.row(
            {r.abbr, campaign::appStatusName(r.status),
             strFormat("%u", r.attempts),
             r.fromJournal ? "journal" : "simulated",
             done ? strFormat("%llu", static_cast<unsigned long long>(
                                          r.cycles))
                  : "-",
             done ? TextTable::num(r.chipEnergy[base] * 1e6, 3) : "-",
             done ? TextTable::pct(1.0
                                   - r.chipEnergy[all]
                                         / r.chipEnergy[base])
                  : r.error.describe()});
    }
    table.print();
    std::printf("campaign: %d completed (%d resumed, %d retried), "
                "%d quarantined\n",
                report.completed, report.resumed, report.retried,
                report.quarantined);

    const std::string rendered = report.render();
    if (!o.reportFile.empty()) {
        const auto written = atomicWriteFile(o.reportFile, rendered);
        fatal_if(!written.ok(), "cannot write report: %s",
                 written.error().describe().c_str());
        std::printf("report -> %s\n", o.reportFile.c_str());
    }

    if (!o.goldenFile.empty()) {
        const auto golden = readFileBytes(o.goldenFile);
        fatal_if(!golden.ok(), "cannot read golden report: %s",
                 golden.error().describe().c_str());
        const auto diffs = campaign::diffReports(golden.value(), rendered);
        fatal_if(!diffs.ok(), "cannot check against golden report '%s': %s",
                 o.goldenFile.c_str(), diffs.error().describe().c_str());
        for (const std::string &diff : diffs.value())
            std::fprintf(stderr, "golden drift: %s\n", diff.c_str());
        if (!diffs.value().empty()) {
            std::fprintf(stderr,
                         "golden check FAILED against %s "
                         "(%zu difference(s))\n",
                         o.goldenFile.c_str(), diffs.value().size());
            return 1;
        }
        std::printf("golden check OK against %s\n", o.goldenFile.c_str());
    }
    return 0;
}

/**
 * Static mode (--analyze): lint the kernel and print the proven
 * per-unit density bounds without simulating anything.
 * @return number of lint findings
 */
std::size_t
runAnalyze(const Options &o, const workload::AppSpec &spec)
{
    const gpu::GpuConfig config = o.eval.machine();

    isa::Program program = workload::buildProgram(spec);
    const auto findings = analysis::lintProgram(program);

    const Word64 isa_mask =
        o.eval.dynamicIsa ? isa::kernelPreferenceMask(config.arch, program.body)
                          : 0;
    const core::StaticReport report =
        core::analyzeStatic(program, config, isa_mask);

    TextTable table(strFormat(
        "%s (%s): proven bit-1 density intervals (%zu instructions)",
        spec.name.c_str(), spec.abbr.c_str(), program.body.size()));
    std::vector<std::string> head{"Unit"};
    for (const auto s : coder::allScenarios)
        head.push_back(coder::scenarioName(s));
    table.header(head);
    auto cell = [](const analysis::DensityBound &b) {
        return b.any ? strFormat("[%.3f, %.3f]", b.lo, b.hi)
                     : std::string("idle");
    };
    auto bound_row = [&](const std::string &name, const auto &bounds) {
        std::vector<std::string> row{name};
        for (const auto s : coder::allScenarios) {
            row.push_back(cell(
                bounds[static_cast<std::size_t>(coder::scenarioIndex(s))]));
        }
        table.row(row);
    };
    for (const auto &[unit, bounds] : report.prediction.units)
        bound_row(coder::unitName(unit), bounds);
    bound_row("NoC", report.prediction.noc);
    table.print();

    std::printf("best static scenario: %s (mean bound midpoint %.3f vs "
                "baseline %.3f)\n",
                coder::scenarioName(report.prediction.bestStatic).c_str(),
                report.prediction.meanMidpoint[static_cast<std::size_t>(
                    coder::scenarioIndex(report.prediction.bestStatic))],
                report.prediction.meanMidpoint[static_cast<std::size_t>(
                    coder::scenarioIndex(coder::Scenario::Baseline))]);

    for (const auto &finding : findings) {
        std::fprintf(stderr, "%s: lint: %s\n", spec.abbr.c_str(),
                     finding.toString().c_str());
    }
    if (findings.empty())
        std::printf("lint: clean\n");
    std::printf("\n");
    return findings.size();
}

void
runOne(const Options &o, const workload::AppSpec &spec)
{
    const core::ExperimentDriver driver(o.eval.machine());
    core::RunOptions options = o.eval.runOptions(o.faultRate, o.faultSeed);
    options.checkStatic = o.checkStatic;

    // Refused before the trace file is opened: the read-disturb model
    // the selected cell arms corrupts the streams both checks verify.
    fatal_if((o.checkStatic || o.checkAdvice) && options.fault.anyFaults(),
             "%s is incompatible with fault injection (the selected cell "
             "arms the read-disturb model)",
             o.checkStatic ? "--check-static" : "--check-advice");

    // The advisor sees the kernel before it runs; the pivot sweep it is
    // checked against taps the machine's raw access stream.
    std::optional<analysis::StaticAdvice> advice;
    core::PivotSweepSink sweep;
    if (o.checkAdvice) {
        const isa::Program program = workload::buildProgram(spec);
        analysis::AdvisorOptions advisor_opts;
        advisor_opts.arch = driver.config().arch;
        advisor_opts.lineBytes = driver.config().lineBytes;
        advice = analysis::adviseProgram(
            program, analysis::analyzeProgram(program), advisor_opts);
        options.tap = &sweep;
    }

    std::ofstream trace_out;
    std::optional<core::TraceWriter> writer;
    std::optional<core::TeeSink> both;
    if (!o.traceFile.empty()) {
        trace_out.open(o.traceFile, std::ios::binary);
        fatal_if(!trace_out, "cannot open trace file '%s'",
                 o.traceFile.c_str());
        writer.emplace(trace_out);
        options.tap = &*writer;
        if (advice)
            options.tap = &both.emplace(sweep, *writer);
    }

    const core::AppRun run = driver.runApp(spec, options);

    std::uint64_t trace_records = 0;
    if (writer) {
        const auto finished = writer->finish();
        fatal_if(!finished.ok(), "trace dump to '%s' failed: %s",
                 o.traceFile.c_str(),
                 finished.error().describe().c_str());
        trace_records = finished.value();
    }

    if (run.staticPrediction) {
        std::printf("static cross-check OK: every observed density inside "
                    "its proven interval (best static scenario %s)\n",
                    coder::scenarioName(run.staticPrediction->bestStatic)
                        .c_str());
    }

    if (advice) {
        const auto violations = core::crossCheckAdvice(*advice, sweep);
        for (const auto &v : violations)
            std::fprintf(stderr, "%s: %s\n", spec.abbr.c_str(), v.c_str());
        fatal_if(!violations.empty(),
                 "advice check failed for %s: %zu contradiction(s) "
                 "between the advisor and the pivot sweep",
                 spec.abbr.c_str(), violations.size());
        const int advised = advice->pivot.bestPivot;
        const int dyn_best = sweep.bestMeasuredPivot();
        const double advised_density = sweep.count(advised).density();
        const double best_density = sweep.count(dyn_best).density();
        std::printf("advice check OK: advised pivot %d (measured %.4f), "
                    "dynamic best %d (measured %.4f), gap %.4f within "
                    "proven slack %.4f over %llu register accesses\n",
                    advised, advised_density, dyn_best, best_density,
                    best_density - advised_density,
                    advice->pivot.provenSlack,
                    static_cast<unsigned long long>(sweep.accesses()));
    }

    const core::AppEnergy energies = driver.evaluate(run, o.eval.pricing());

    TextTable table(strFormat(
        "%s (%s) on %s / %s / %s cells / %s scheduler",
        spec.name.c_str(), spec.abbr.c_str(),
        circuit::techNodeName(o.eval.node).c_str(),
        o.eval.pstate.name.c_str(),
        circuit::cellKindName(o.eval.cell).c_str(),
        gpu::schedulerName(o.eval.sched).c_str()));
    table.header({"Scenario", "Chip[uJ]", "vs baseline", "Units[uJ]",
                  "NoC 1-density"});
    double base_chip = 0.0;
    for (const auto s : coder::allScenarios) {
        const auto &noc = run.accountant->noc(s);
        const power::ChipEnergy &energy = energies.at(s);
        if (s == coder::Scenario::Baseline)
            base_chip = energy.chipTotal();
        table.row(
            {coder::scenarioName(s),
             TextTable::num(energy.chipTotal() * 1e6, 3),
             TextTable::pct(1.0 - energy.chipTotal() / base_chip),
             TextTable::num(energy.bvfUnitsTotal() * 1e6, 3),
             noc.payloadBits
                 ? TextTable::pct(static_cast<double>(noc.payloadOnes)
                                  / static_cast<double>(noc.payloadBits))
                 : "-"});
    }
    table.print();

    if (run.faults || o.eval.ecc) {
        const fault::FaultConfig &fault_cfg = options.fault;
        TextTable faults(strFormat(
            "Faults and ECC (seed %llu, soft %.2e, disturb %.2e, "
            "%d cells/bitline, %s)",
            static_cast<unsigned long long>(fault_cfg.seed),
            fault_cfg.softErrorRate, fault_cfg.readDisturbRate,
            o.eval.cellsBitline, fault::eccSchemeName(fault_cfg.ecc)));
        faults.header({"Unit", "Codewords", "Flips", "Corrected",
                       "Uncorrectable", "Silent", "Residual bits",
                       "Uncorr. rate"});
        auto count = [](std::uint64_t v) {
            return strFormat("%llu", static_cast<unsigned long long>(v));
        };
        auto row = [&](const std::string &name,
                       const fault::FaultSiteStats &st) {
            faults.row({name, count(st.codewords),
                        count(st.injected.total()), count(st.corrected),
                        count(st.uncorrectable), count(st.silentErrors),
                        count(st.residualBitErrors),
                        strFormat("%.3e", st.uncorrectableRate())});
        };
        if (run.faults) {
            for (const auto &[unit, st] : run.faults->unitStats())
                row(coder::unitName(unit), st);
            row("TOTAL", run.faults->totals());
        } else {
            faults.row({"(no fault mechanism armed)", "-", "-", "-", "-",
                        "-", "-", "-"});
        }
        faults.print();
    }

    std::printf("cycles %llu, instructions %llu, flits %llu, "
                "pivot-divergent writes %llu",
                static_cast<unsigned long long>(run.gpuStats.cycles),
                static_cast<unsigned long long>(run.gpuStats.sm.issued),
                static_cast<unsigned long long>(run.gpuStats.noc.flits),
                static_cast<unsigned long long>(
                    run.gpuStats.sm.pivotDivergentWrites));
    if (trace_records) {
        std::printf(", trace records %llu -> %s",
                    static_cast<unsigned long long>(trace_records),
                    o.traceFile.c_str());
    }
    std::printf("\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const cli::UsageError &e) {
        return cli::reportUsage("bvf_sim", e);
    }
    if (o.list) {
        TextTable table("The 58-application evaluation suite");
        table.header({"Abbr", "Name", "Suite", "Class"});
        for (const auto &spec : workload::evaluationSuite()) {
            table.row({spec.abbr, spec.name,
                       workload::suiteName(spec.suite),
                       spec.memoryIntensive ? "memory" : "compute"});
        }
        table.print();
        return 0;
    }
    if (o.campaign)
        return runCampaign(o);
    if (o.analyze) {
        std::size_t findings = 0;
        for (const auto &spec : workload::resolveApps(o.apps))
            findings += runAnalyze(o, spec);
        return findings ? 1 : 0;
    }
    for (const auto &spec : workload::resolveApps(o.apps))
        runOne(o, spec);
    return 0;
}
