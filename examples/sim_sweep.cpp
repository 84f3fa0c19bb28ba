/**
 * @file
 * bvf_simsweep: deterministic fault-simulation sweeps and parser
 * fuzzing for the fleet.
 *
 * Two kinds of work, both pure functions of their seeds so a CI
 * failure is reproduced exactly by rerunning the printed command:
 *
 *   scenario sweep (default)   run N end-to-end fault scenarios
 *                              (coordinator + simulated workers +
 *                              campaign on simulated time, faults
 *                              everywhere) and verify each produces
 *                              the byte-identical fault-free report
 *                              or fails cleanly -- never hangs, never
 *                              double-counts, never trusts a corrupt
 *                              journal.
 *
 *   fuzzing (--fuzz-iters)     mutate valid inputs against every
 *                              untrusted parser (or one, with
 *                              --fuzz-target) and check structural
 *                              invariants; replay a regression corpus
 *                              with --corpus; grow one with
 *                              --write-corpus.
 *
 * Usage:
 *   bvf_simsweep [--seeds N] [--sim-seed S] [--scratch DIR]
 *   bvf_simsweep --sim-seed 1337            # reproduce one scenario
 *   bvf_simsweep --fuzz-iters 2000 [--fuzz-target frame] \
 *                [--corpus DIR] [--write-corpus DIR]
 *
 * Options:
 *   --seeds N          scenario count, starting at --sim-seed
 *                      (default 50)
 *   --sim-seed S       first (or only) scenario / fuzz seed
 *                      (default 1)
 *   --scratch DIR      working directory (default
 *                      /tmp/bvf-simsweep-<pid>)
 *   --phases N         fault phases per scenario (default: seeded 1-3)
 *   --fuzz-iters N     run the fuzz drivers instead of scenarios
 *   --fuzz-target T    frame|http|trace|journal|bytecode|asm|rtl|
 *                      rtlvec|opt
 *                      (default: all)
 *   --corpus DIR       replay every DIR/<target> input before fuzzing
 *   --write-corpus DIR write each target's seed inputs there and exit
 *   --verbose          per-seed / per-target progress lines, and a
 *                      line per salvaged journal (otherwise counted
 *                      in the summary)
 *
 * Exit: 0 all green; 1 a scenario violated the contract or a fuzz
 * invariant broke (the failing seed/input is printed); 2 usage.
 */

#include <filesystem>
#include <fstream>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sim/fuzz.hh"
#include "sim/scenario.hh"

using namespace bvf;

namespace
{

struct Options
{
    std::uint64_t seeds = 50;
    std::uint64_t simSeed = 1;
    std::string scratch;
    int phases = 0;
    std::uint64_t fuzzIters = 0;
    std::string fuzzTarget;
    std::string corpusDir;
    std::string writeCorpusDir;
    bool verbose = false;
};

Options
parse(int argc, char **argv)
{
    Options o;
    cli::ArgStream args(argc, argv);
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--seeds") {
            o.seeds = cli::parseU64(arg, args.value(arg));
        } else if (arg == "--sim-seed") {
            o.simSeed =
                cli::parseU64(arg, args.value(arg));
        } else if (arg == "--scratch") {
            o.scratch = args.value(arg);
        } else if (arg == "--phases") {
            o.phases = cli::parseInteger(arg, args.value(arg), 1, 10);
        } else if (arg == "--fuzz-iters") {
            o.fuzzIters =
                cli::parseU64(arg, args.value(arg));
        } else if (arg == "--fuzz-target") {
            o.fuzzTarget = args.value(arg);
            auto t = sim::fuzzTargetFromName(o.fuzzTarget);
            if (!t.ok())
                cli::dieUsage(t.error().message);
        } else if (arg == "--corpus") {
            o.corpusDir = args.value(arg);
        } else if (arg == "--write-corpus") {
            o.writeCorpusDir = args.value(arg);
        } else if (arg == "--verbose") {
            o.verbose = true;
        } else {
            cli::dieUsage("unknown option '" + arg + "'");
        }
    }
    if (o.scratch.empty()) {
        o.scratch = strFormat("/tmp/bvf-simsweep-%d",
                              static_cast<int>(::getpid()));
    }
    return o;
}

std::vector<sim::FuzzTarget>
selectedTargets(const Options &o)
{
    if (o.fuzzTarget.empty()) {
        return {sim::kAllFuzzTargets.begin(),
                sim::kAllFuzzTargets.end()};
    }
    return {sim::fuzzTargetFromName(o.fuzzTarget).value()};
}

int
writeCorpus(const Options &o)
{
    for (const sim::FuzzTarget target : selectedTargets(o)) {
        const std::string dir =
            o.writeCorpusDir + "/" + sim::fuzzTargetName(target);
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            std::fprintf(stderr, "bvf_simsweep: cannot create %s\n",
                         dir.c_str());
            return 1;
        }
        const auto seeds = sim::corpusSeeds(target);
        for (std::size_t i = 0; i < seeds.size(); ++i) {
            const std::string path =
                strFormat("%s/seed-%02zu.bin", dir.c_str(), i);
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f.write(seeds[i].data(),
                    static_cast<std::streamsize>(seeds[i].size()));
            if (!f) {
                std::fprintf(stderr, "bvf_simsweep: cannot write %s\n",
                             path.c_str());
                return 1;
            }
        }
        std::printf("bvf_simsweep: wrote %zu seed input(s) to %s\n",
                    seeds.size(), dir.c_str());
    }
    return 0;
}

int
runFuzzing(const Options &o)
{
    int failures = 0;
    for (const sim::FuzzTarget target : selectedTargets(o)) {
        const std::string name = sim::fuzzTargetName(target);

        if (!o.corpusDir.empty()) {
            auto replayed =
                sim::replayCorpusDir(target, o.corpusDir + "/" + name);
            if (!replayed.ok()) {
                std::fprintf(stderr, "bvf_simsweep: corpus %s: %s\n",
                             name.c_str(),
                             replayed.error().message.c_str());
                return 1;
            }
            if (replayed.value().failed) {
                std::fprintf(
                    stderr,
                    "bvf_simsweep: FAIL corpus target=%s input=%s: %s\n",
                    name.c_str(),
                    replayed.value().failingPath.c_str(),
                    replayed.value().what.c_str());
                ++failures;
                continue;
            }
            if (o.verbose) {
                std::printf("corpus %-8s %llu input(s) ok\n",
                            name.c_str(),
                            static_cast<unsigned long long>(
                                replayed.value().iterations));
            }
        }

        auto fuzzed = sim::runFuzz(target, o.simSeed, o.fuzzIters,
                                   o.scratch + "/" + name);
        if (!fuzzed.ok()) {
            std::fprintf(stderr, "bvf_simsweep: fuzz %s: %s\n",
                         name.c_str(), fuzzed.error().message.c_str());
            return 1;
        }
        if (fuzzed.value().failed) {
            std::fprintf(
                stderr,
                "bvf_simsweep: FAIL fuzz target=%s seed=%llu: %s\n"
                "  failing input: %s\n"
                "  reproduce: bvf_simsweep --fuzz-iters %llu "
                "--fuzz-target %s --sim-seed %llu\n",
                name.c_str(),
                static_cast<unsigned long long>(o.simSeed),
                fuzzed.value().what.c_str(),
                fuzzed.value().failingPath.c_str(),
                static_cast<unsigned long long>(o.fuzzIters),
                name.c_str(),
                static_cast<unsigned long long>(o.simSeed));
            ++failures;
            continue;
        }
        if (o.verbose) {
            std::printf("fuzz   %-8s %llu iteration(s) ok\n",
                        name.c_str(),
                        static_cast<unsigned long long>(
                            fuzzed.value().iterations));
        }
    }
    if (failures == 0) {
        std::printf("bvf_simsweep: fuzzing green (%llu iteration(s) "
                    "per target)\n",
                    static_cast<unsigned long long>(o.fuzzIters));
    }
    return failures == 0 ? 0 : 1;
}

int
runSweep(const Options &o)
{
    std::uint64_t identical = 0;
    std::uint64_t withFailures = 0;
    std::uint64_t salvaged = 0;
    for (std::uint64_t i = 0; i < o.seeds; ++i) {
        const std::uint64_t seed = o.simSeed + i;
        sim::ScenarioOptions so;
        so.seed = seed;
        so.scratchDir = o.scratch;
        so.maxPhases = o.phases;
        auto ran = sim::runScenario(so);
        if (!ran.ok()) {
            std::fprintf(stderr, "bvf_simsweep: seed %llu: %s\n",
                         static_cast<unsigned long long>(seed),
                         ran.error().message.c_str());
            return 1;
        }
        const sim::ScenarioResult &r = ran.value();
        if (!r.ok) {
            std::fprintf(
                stderr,
                "bvf_simsweep: FAIL seed=%llu: %s\n"
                "  reproduce: bvf_simsweep --seeds 1 --sim-seed %llu\n",
                static_cast<unsigned long long>(seed),
                r.violation.c_str(),
                static_cast<unsigned long long>(seed));
            return 1;
        }
        identical += r.identical ? 1 : 0;
        withFailures += r.cleanFailure ? 1 : 0;
        salvaged += r.salvaged.size();
        if (o.verbose) {
            for (const std::string &note : r.salvaged)
                warn("%s", note.c_str());
            std::printf("seed %-8llu ok  phases=%d kills=%d ops=%llu%s\n",
                        static_cast<unsigned long long>(seed),
                        r.phases, r.kills,
                        static_cast<unsigned long long>(r.transportOps),
                        r.cleanFailure ? " (resumed)" : "");
        }
    }
    std::printf("bvf_simsweep: %llu scenario(s) green, all "
                "byte-identical (%llu needed resume after clean "
                "failures)",
                static_cast<unsigned long long>(identical),
                static_cast<unsigned long long>(withFailures));
    // Under --verbose each salvage has its line above, and stdout keeps
    // its old form.
    if (!o.verbose && salvaged > 0) {
        std::printf(", %llu salvaged journal(s) (--verbose lists them)",
                    static_cast<unsigned long long>(salvaged));
    }
    std::printf("\n");
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
        return cli::reportUsage("bvf_simsweep", e);
    }
    if (!o.writeCorpusDir.empty())
        return writeCorpus(o);
    if (o.fuzzIters > 0 || !o.corpusDir.empty())
        return runFuzzing(o);
    return runSweep(o);
}
