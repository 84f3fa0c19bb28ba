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

/** Resolve the app list ("all" expands; duplicates dropped). */
std::vector<workload::AppSpec>
resolveApps(const std::vector<std::string> &names)
{
    std::vector<workload::AppSpec> specs;
    auto add = [&](const workload::AppSpec &spec) {
        for (const auto &existing : specs) {
            if (existing.abbr == spec.abbr) {
                warn("ignoring duplicate application %s",
                     spec.abbr.c_str());
                return;
            }
        }
        specs.push_back(spec);
    };
    for (const auto &name : names) {
        if (name == "all") {
            for (const auto &spec : workload::evaluationSuite())
                add(spec);
        } else {
            add(workload::findApp(name));
        }
    }
    return specs;
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

    const auto specs = resolveApps(o.apps);
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

    Word64 isa_mask = 0;
    if (o.eval.dynamicIsa) {
        const isa::InstructionEncoder encoder(config.arch);
        isa_mask = isa::extractPreferenceMask(encoder.encode(program.body));
    }
    const core::StaticReport report =
        core::analyzeStatic(program, config, isa_mask, o.eval.pivot);

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
    const gpu::GpuConfig config = o.eval.machine();
    const core::ExperimentDriver driver(config);

    core::AccountantOptions acc_opts;
    acc_opts.arch = config.arch;
    acc_opts.vsRegisterPivot = o.eval.pivot;
    acc_opts.eccAccounting = o.eval.ecc;

    isa::Program program = workload::buildProgram(spec);
    if (o.eval.dynamicIsa) {
        const isa::InstructionEncoder encoder(config.arch);
        acc_opts.dynamicIsaMask =
            isa::extractPreferenceMask(encoder.encode(program.body));
    }

    auto accountant = std::make_shared<core::EnergyAccountant>(
        driver.unitCapacities(), acc_opts);

    // Fault model: explicit soft errors, plus the physics-derived
    // read-disturb rate if a BVF-6T machine was selected.
    const fault::FaultConfig fault_cfg =
        o.eval.runOptions(o.faultRate, o.faultSeed).fault;

    // The static report must precede the move of the program into the
    // machine, and its knobs must mirror the accountant's.
    std::optional<core::StaticReport> static_report;
    if (o.checkStatic) {
        fatal_if(fault_cfg.anyFaults(),
                 "--check-static is incompatible with fault injection "
                 "(the selected cell arms the read-disturb model)");
        static_report = core::analyzeStatic(program, config,
                                            accountant->isaMask(),
                                            o.eval.pivot);
    }

    // The advisor, like the static report, must see the program before
    // it moves into the machine.
    std::optional<analysis::StaticAdvice> advice;
    if (o.checkAdvice) {
        fatal_if(fault_cfg.anyFaults(),
                 "--check-advice is incompatible with fault injection "
                 "(the selected cell arms the read-disturb model)");
        analysis::AdvisorOptions advisor_opts;
        advisor_opts.arch = config.arch;
        advisor_opts.lineBytes = config.lineBytes;
        advice = analysis::adviseProgram(
            program, analysis::analyzeProgram(program), advisor_opts);
    }

    std::unique_ptr<fault::FaultSink> fault_sink;
    sram::AccessSink *sink = accountant.get();
    if (fault_cfg.anyFaults()) {
        fault_sink =
            std::make_unique<fault::FaultSink>(*accountant, fault_cfg);
        sink = fault_sink.get();
    }

    core::PivotSweepSink sweep;
    std::optional<core::TeeSink> sweep_tee;
    if (o.checkAdvice) {
        sweep_tee.emplace(*sink, sweep);
        sink = &*sweep_tee;
    }

    gpu::GpuStats stats;
    std::uint64_t trace_records = 0;
    if (!o.traceFile.empty()) {
        std::ofstream out(o.traceFile, std::ios::binary);
        fatal_if(!out, "cannot open trace file '%s'",
                 o.traceFile.c_str());
        core::TraceWriter writer(out);
        core::TeeSink tee(*sink, writer);
        gpu::Gpu machine(config, std::move(program), tee);
        stats = machine.run();
        const auto finished = writer.finish();
        fatal_if(!finished.ok(), "trace dump to '%s' failed: %s",
                 o.traceFile.c_str(),
                 finished.error().describe().c_str());
        trace_records = finished.value();
    } else {
        gpu::Gpu machine(config, std::move(program), *sink);
        stats = machine.run();
    }
    accountant->finalize(stats.cycles);

    if (static_report) {
        const auto violations =
            core::crossCheckRun(*static_report, *accountant);
        for (const auto &v : violations)
            std::fprintf(stderr, "%s: %s\n", spec.abbr.c_str(), v.c_str());
        fatal_if(!violations.empty(),
                 "static cross-check failed for %s: %zu observed ratios "
                 "escaped their proven intervals",
                 spec.abbr.c_str(), violations.size());
        std::printf("static cross-check OK: every observed density inside "
                    "its proven interval (best static scenario %s)\n",
                    coder::scenarioName(
                        static_report->prediction.bestStatic)
                        .c_str());
    }

    if (advice) {
        constexpr double eps = 1e-9;
        std::vector<std::string> violations;
        for (int p = 0; p < 32; ++p) {
            const auto &bound =
                advice->pivot.bounds[static_cast<std::size_t>(p)];
            const auto &measured = sweep.count(p);
            if (measured.bits == 0)
                continue; // vacuously consistent
            if (!bound.any) {
                violations.push_back(strFormat(
                    "pivot %d: register traffic observed but the advisor "
                    "proved the register file idle", p));
                continue;
            }
            const double m = measured.density();
            if (m < bound.lo - eps || m > bound.hi + eps) {
                violations.push_back(strFormat(
                    "pivot %d: measured density %.6f outside proven "
                    "[%.6f, %.6f]", p, m, bound.lo, bound.hi));
            }
        }
        const int dyn_best = sweep.bestMeasuredPivot();
        const int advised = advice->pivot.bestPivot;
        const double gap = sweep.count(dyn_best).density()
                           - sweep.count(advised).density();
        if (gap > advice->pivot.provenSlack + eps) {
            violations.push_back(strFormat(
                "dynamic best pivot %d beats advised pivot %d by %.6f, "
                "more than the proven slack %.6f",
                dyn_best, advised, gap, advice->pivot.provenSlack));
        }
        for (const auto &v : violations)
            std::fprintf(stderr, "%s: %s\n", spec.abbr.c_str(), v.c_str());
        fatal_if(!violations.empty(),
                 "advice check failed for %s: %zu contradiction(s) "
                 "between the advisor and the pivot sweep",
                 spec.abbr.c_str(), violations.size());
        std::printf("advice check OK: advised pivot %d (measured %.4f), "
                    "dynamic best %d (measured %.4f), gap %.4f within "
                    "proven slack %.4f over %llu register accesses\n",
                    advised, sweep.count(advised).density(), dyn_best,
                    sweep.count(dyn_best).density(), gap,
                    advice->pivot.provenSlack,
                    static_cast<unsigned long long>(sweep.accesses()));
    }

    core::AppRun run;
    run.abbr = spec.abbr;
    run.gpuStats = stats;
    run.accountant = accountant;
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
        const auto &noc = accountant->noc(s);
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

    if (fault_sink || o.eval.ecc) {
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
        if (fault_sink) {
            for (const auto &[unit, st] : fault_sink->unitStats())
                row(coder::unitName(unit), st);
            row("TOTAL", fault_sink->totals());
        } else {
            faults.row({"(no fault mechanism armed)", "-", "-", "-", "-",
                        "-", "-", "-"});
        }
        faults.print();
    }

    std::printf("cycles %llu, instructions %llu, flits %llu, "
                "pivot-divergent writes %llu",
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.sm.issued),
                static_cast<unsigned long long>(stats.noc.flits),
                static_cast<unsigned long long>(
                    stats.sm.pivotDivergentWrites));
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
        for (const auto &spec : resolveApps(o.apps))
            findings += runAnalyze(o, spec);
        return findings ? 1 : 0;
    }
    for (const auto &spec : resolveApps(o.apps))
        runOne(o, spec);
    return 0;
}
