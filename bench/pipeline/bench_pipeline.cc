/**
 * @file
 * bench_pipeline: end-to-end and per-layer host-time benchmark of the two
 * ways this repository is used -- a campaign (apps -> report) and bvfd
 * requests (bytecode -> admit -> optimize -> simulate -> price).
 *
 * One process runs one workload:
 *
 *   campaign     all 58 apps through campaign::CampaignRunner (jobs=1)
 *   stall        the 12 apps with the fewest accountant onAccess calls
 *                per simulated cycle, so the GPU model dominates host time
 *   dense-ecc    the 12 apps with the most onAccess calls per cycle,
 *                with SECDED(72,64) check bits accounted and priced, so
 *                the accountant dominates
 *   bvfd-submit  an in-process server::Server (1 worker) on loopback
 *                TCP driven by a closed loop of 1 client: SubmitKernel
 *                (optimize=1) and StaticAdvice per suite kernel,
 *                EvalSubmitted for every third kernel in suite order
 *
 * --seed shuffles the order apps or kernels are run in; results are
 * checked in suite order, so every seed is held to the same output pin
 * (pins.txt). A run repeats set-up plus the fixed work ("a pass") while
 * another pass fits in --seconds and reports medians; every app or
 * kernel of a pass is scaled to the host's speed (see HostScale).
 * BENCHMARK.json names every workload but campaign: a fourth workload
 * would not fit the runs its time budget allows, and campaign's pass
 * alone takes 15-30 s. Set-up is timed from process start: the binary
 * re-runs itself with --probe-setup, which exits as soon as the
 * workload is ready.
 *
 * With --trace 1 the run makes one untraced pass and then one traced
 * pass. Tracing never touches src/: each layer is timed from outside by
 * wrapping the public call into it (buildProgram, Gpu::run, a timing
 * AccessSink decorator around the EnergyAccountant, evaluate, the
 * journal append, a timing ServerOptions::handler around
 * RequestHandler::handle), and the bvfd requests are replayed in-process
 * through decodeProgram/verifyProgram/optimizeProgram/the advisor and a
 * traced Gpu::run. Traced results must equal the untraced ones byte for
 * byte.
 *
 * The last line of stdout is the result JSON; the line before it,
 * starting with "detail ", carries extra fields for run.sh.
 *
 * Usage:
 *   bench_pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--pins FILE] [--tmp DIR] [--limit N]
 *   bench_pipeline --smoke [--tmp DIR]
 * --limit cuts a workload to its first N apps or kernels (as --smoke does).
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/advisor.hh"
#include "analysis/interpreter.hh"
#include "analysis/optimizer.hh"
#include "analysis/verifier.hh"
#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/contract.hh"
#include "core/experiment.hh"
#include "gpu/gpu.hh"
#include "isa/bytecode.hh"
#include "server/handler.hh"
#include "server/kernel_store.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "server/transport.hh"
#include "workload/kernel_builder.hh"

using namespace bvf;
using namespace std::chrono_literals;

namespace
{

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double
toSeconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
secondsSince(Clock::time_point t0)
{
    return toSeconds(Clock::now() - t0);
}

// --- Workloads ----------------------------------------------------------

/** One workload: a campaign over some apps, or the bvfd request mix. */
struct WorkloadDef
{
    const char *name;
    bool bvfd = false; //!< server workload; otherwise a campaign
    bool ecc = false;  //!< SECDED(72,64) accounting and pricing
    std::vector<const char *> apps; //!< empty = the whole suite
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    // stall and dense-ecc are the two ends of one ranking: accountant
    // onAccess calls per simulated cycle, printed per app by
    // `--workload campaign --trace 1`. Few calls per cycle leave host
    // time to the GPU model; many hand it to the accountant, so each
    // layer has a workload where it dominates.
    static const std::vector<WorkloadDef> defs = {
        {"campaign", false, false, {}},
        {"stall", false, false,
         {"NN", "MST", "QTC", "SP", "SPM", "LBF", "SSP", "BH", "BTR", "HIS",
          "BFS", "NW"}},
        {"dense-ecc", false, true,
         {"SGE", "MMU", "BLA", "CP", "DXT", "FFT", "LIB", "GEM", "NQU",
          "MD", "CON", "PAT"}},
        {"bvfd-submit", true, false, {}},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &d : workloadDefs()) {
        if (name == d.name)
            return &d;
    }
    return nullptr;
}

/** The workload's apps in suite order, cut to @p limit (0 = all). */
std::vector<workload::AppSpec>
canonicalApps(const WorkloadDef &def, std::size_t limit)
{
    std::vector<workload::AppSpec> apps;
    for (const workload::AppSpec &spec : workload::evaluationSuite()) {
        if (def.apps.empty()
            || std::any_of(def.apps.begin(), def.apps.end(),
                           [&](const char *a) { return spec.abbr == a; }))
            apps.push_back(spec);
    }
    fatal_if(!def.apps.empty() && apps.size() != def.apps.size(),
             "workload %s names an app the suite lacks", def.name);
    if (limit && apps.size() > limit)
        apps.resize(limit);
    return apps;
}

/** Seeded Fisher-Yates permutation of 0..n-1 (splitmix64 stream). */
std::vector<std::size_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::uint64_t state = seed;
    auto next = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[next() % i]);
    return order;
}

// --- Metrics ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metric names and units, in reporting order. */
using MetricSpec = std::vector<std::pair<const char *, const char *>>;

/** End-to-end metrics reported with --trace 0 (BENCHMARK.json). */
const MetricSpec kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics reported with --trace 1 (BENCHMARK.json). */
const MetricSpec kPerLayer = {
    {"workload.build_s", "s"},
    {"gpu.self_s", "s"},
    {"gpu.host_ns_per_sim_cycle", "ns"},
    {"gpu.sim_cycles", "count"},
    {"gpu.issued", "count"},
    {"gpu.idle_cycles", "count"},
    {"gpu.l2_misses", "count"},
    {"gpu.dram_row_misses", "count"},
    {"noc.packets", "count"},
    {"noc.flits", "count"},
    {"core.accountant.construct_s", "s"},
    {"core.accountant.access_s", "s"},
    {"core.accountant.fetch_s", "s"},
    {"core.accountant.noc_s", "s"},
    {"core.accountant.finalize_s", "s"},
    {"core.accountant.host_ns_per_call", "ns"},
    {"core.accountant.access_calls", "count"},
    {"core.accountant.access_words", "count"},
    {"core.accountant.fetch_calls", "count"},
    {"core.accountant.noc_packets", "count"},
    {"core.contract.check_s", "s"},
    {"core.contract.checked_accesses", "count"},
    {"power.evaluate_s", "s"},
    {"campaign.journal_append_s", "s"},
    {"isa.bytecode.encode_s", "s"},
    {"isa.bytecode.decode_s", "s"},
    {"analysis.verify_s", "s"},
    {"analysis.optimize_s", "s"},
    {"analysis.advise_s", "s"},
    {"analysis.admitted", "count"},
    {"analysis.optimize_accepted", "count"},
    {"analysis.optimize_accept_ratio", "ratio"},
    {"server.handle_submit_s", "s"},
    {"server.handle_advise_s", "s"},
    {"server.handle_eval_s", "s"},
    {"server.wait_s", "s"},
    {"server.protocol_s", "s"},
    {"server.requests", "count"},
    {"server.error_responses", "count"},
    {"trace.wall_s", "s"},
    {"trace.attributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/** Fills a metric list in the order and with the units of @p spec. */
class MetricSet
{
  public:
    explicit MetricSet(const MetricSpec &spec) : spec_(spec) {}

    void
    set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    /** Every spec'd metric, in spec order; unset ones are an error. */
    std::vector<Metric>
    finish() const
    {
        std::vector<Metric> out;
        for (const auto &[name, unit] : spec_) {
            const auto it = values_.find(name);
            fatal_if(it == values_.end(), "metric %s was not set", name);
            out.push_back({name, it->second, unit});
        }
        fatal_if(values_.size() != spec_.size(),
                 "%zu metrics set, %zu specified", values_.size(),
                 spec_.size());
        return out;
    }

  private:
    const MetricSpec &spec_;
    std::map<std::string, double> values_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile: p=0.8 of 58 samples leaves 11 above it. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// --- Host speed -----------------------------------------------------------

/**
 * On a shared host, other tenants' load slows everything here by up to
 * 2x for minutes at a time, which no median inside a 35 s run removes.
 * So the fixed work is timed in short trials -- one app, or one
 * kernel's requests -- and each trial is divided by the time of a fixed
 * reference loop run just before and just after it, then reported as
 * seconds on a host where that loop takes kReferenceS.
 *
 * The loop is a popcount/xor sweep over 256 KiB: throughput-bound
 * integer work, as the simulator's is, and none of the repository's
 * code, so no change to it can move the reference. Over 10 runs of each
 * BENCHMARK.json workload on a loaded 4-vCPU VM, wall_s spread by 3-6%
 * (interquartile range over median) where unscaled pass time spread by
 * 11-23%.
 */
constexpr double kReferenceS = 0.02; //!< the loop, baseline host at rest

volatile std::uint64_t referenceSink;

double
referenceSeconds()
{
    static std::vector<std::uint64_t> words(std::size_t{1} << 15);
    std::fill(words.begin(), words.end(), 0x9e3779b97f4a7c15ULL);
    const std::size_t mask = words.size() - 1;
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int round = 0; round < 200; ++round) {
        for (std::size_t i = 0; i < words.size(); ++i) {
            const std::uint64_t x =
                words[i] ^ (words[(i * 7) & mask] >> (round % 13));
            acc += static_cast<std::uint64_t>(std::popcount(x));
            words[i] = x + acc;
        }
    }
    const double seconds = secondsSince(t0);
    referenceSink = acc;
    return seconds;
}

/** Scales each trial by the reference around it (see kReferenceS). */
class HostScale
{
  public:
    HostScale() : before_(referenceSeconds()) {}

    /** For the trial that just ended: kReferenceS over its reference. */
    double
    endTrial()
    {
        const double after = referenceSeconds();
        const double reference = 0.5 * (before_ + after);
        before_ = after;
        references_.push_back(reference);
        return kReferenceS / reference;
    }

    /** Median reference time over the trials so far. */
    double
    medianReference() const
    {
        return median(references_);
    }

  private:
    double before_;
    std::vector<double> references_;
};

/**
 * Keeps this process, its threads and its set-up probes on the CPU it
 * started on, so the reference loop runs where the work it scales runs.
 * The work never needs a second CPU: campaigns are serial, and bvfd's
 * one client waits while the one server worker runs.
 */
void
pinToOneCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

/** Raw and host-scaled seconds, summed over trials. */
struct Timed
{
    double raw = 0.0;
    double scaled = 0.0;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += strFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                         i ? ", " : "", metrics[i].name.c_str(),
                         metrics[i].value, metrics[i].unit.c_str());
    }
    return out + "}";
}

// --- Layer timing from outside -------------------------------------------

/**
 * Host time and work per layer, summed over one traced pass. Time in the
 * accountant (access/fetch/noc) and the contract probe is inside
 * gpuTotal; the GPU model's self time is what remains.
 */
struct Layers
{
    Clock::duration build{}, gpuTotal{}, accConstruct{}, accFinalize{},
        evaluate{}, journal{}, encode{}, decode{}, verify{}, optimize{},
        advise{};
    Clock::duration access{}, fetch{}, noc{}, probe{};
    std::uint64_t simCycles = 0, issued = 0, idleCycles = 0, l2Misses = 0,
                  dramRowMisses = 0, nocPackets = 0, nocFlits = 0;
    std::uint64_t accessCalls = 0, accessWords = 0, fetchCalls = 0,
                  accNocPackets = 0;
    std::uint64_t checkedAccesses = 0, admitted = 0, optimizeAttempts = 0,
                  optimizeAccepted = 0;
};

/** Times every call into the downstream sink (the accountant). */
class TimingSink final : public sram::AccessSink
{
  public:
    explicit TimingSink(sram::AccessSink &down) : down_(down) {}

    void
    onAccess(coder::UnitId unit, sram::AccessType type,
             std::span<const Word> block, std::uint32_t activeMask,
             std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        down_.onAccess(unit, type, block, activeMask, cycle);
        access += Clock::now() - t0;
        ++accessCalls;
        accessWords += block.size();
    }

    void
    onFetch(coder::UnitId unit, sram::AccessType type,
            std::span<const Word64> instrs, std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        down_.onFetch(unit, type, instrs, cycle);
        fetch += Clock::now() - t0;
        ++fetchCalls;
    }

    void
    onNocPacket(int channel, std::span<const Word> payload,
                bool instrStream, std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        down_.onNocPacket(channel, payload, instrStream, cycle);
        noc += Clock::now() - t0;
        ++nocPackets;
    }

    Clock::duration access{}, fetch{}, noc{};
    std::uint64_t accessCalls = 0, accessWords = 0, fetchCalls = 0,
                  nocPackets = 0;

  private:
    sram::AccessSink &down_;
};

/** Times the certificate checks of a ContractProbe. */
class TimingProbe final : public gpu::ExecProbe
{
  public:
    explicit TimingProbe(gpu::ExecProbe &down) : down_(down) {}

    void
    onIssue(int smId, int pc, const isa::Instruction &instr,
            const gpu::Warp &warp, std::uint32_t guard,
            std::uint64_t cycle) override
    {
        const auto t0 = Clock::now();
        down_.onIssue(smId, pc, instr, warp, guard, cycle);
        spent += Clock::now() - t0;
    }

    Clock::duration spent{};

  private:
    gpu::ExecProbe &down_;
};

/**
 * ExperimentDriver::runProgram's steps through public calls: accountant,
 * machine, run, finalize -- with the accountant behind a TimingSink and
 * an optional probe behind a TimingProbe.
 */
core::AppRun
tracedRun(const core::ExperimentDriver &driver, isa::Program program,
          bool ecc, gpu::ExecProbe *probe, bool uniformDispatch,
          Layers &layers)
{
    core::AccountantOptions opts;
    opts.arch = driver.config().arch;
    opts.eccAccounting = ecc;

    core::AppRun run;
    run.name = run.abbr = program.name;
    auto t0 = Clock::now();
    run.accountant = std::make_shared<core::EnergyAccountant>(
        driver.unitCapacities(), opts);
    layers.accConstruct += Clock::now() - t0;

    TimingSink sink(*run.accountant);
    std::optional<TimingProbe> timedProbe;
    t0 = Clock::now();
    gpu::Gpu machine(driver.config(), std::move(program), sink);
    if (probe) {
        timedProbe.emplace(*probe);
        machine.setExecProbe(&*timedProbe);
    }
    if (uniformDispatch)
        machine.setUniformDispatch(true);
    run.gpuStats = machine.run();
    layers.gpuTotal += Clock::now() - t0;

    t0 = Clock::now();
    run.accountant->finalize(run.gpuStats.cycles);
    layers.accFinalize += Clock::now() - t0;

    const gpu::GpuStats &g = run.gpuStats;
    layers.simCycles += g.cycles;
    layers.issued += g.sm.issued;
    layers.idleCycles += g.sm.idleCycles;
    layers.l2Misses += g.l2Misses;
    layers.dramRowMisses += g.dramRowMisses;
    layers.nocPackets += g.noc.packets;
    layers.nocFlits += g.noc.flits;

    layers.access += sink.access;
    layers.fetch += sink.fetch;
    layers.noc += sink.noc;
    layers.accessCalls += sink.accessCalls;
    layers.accessWords += sink.accessWords;
    layers.fetchCalls += sink.fetchCalls;
    layers.accNocPackets += sink.nocPackets;
    if (timedProbe)
        layers.probe += timedProbe->spent;
    return run;
}

/** Sum of the self times of every layer a pass is split into. */
Clock::duration
attributed(const Layers &l)
{
    return l.build + l.gpuTotal + l.accConstruct + l.accFinalize
           + l.evaluate + l.journal + l.encode + l.decode + l.verify
           + l.optimize + l.advise;
}

/** Per-layer metrics every workload reports (zero where unused). */
void
setLayerMetrics(MetricSet &m, const Layers &l)
{
    const Clock::duration inSink = l.access + l.fetch + l.noc;
    const Clock::duration gpuSelf = l.gpuTotal - inSink - l.probe;
    const std::uint64_t calls =
        l.accessCalls + l.fetchCalls + l.accNocPackets;
    m.set("workload.build_s", toSeconds(l.build));
    m.set("gpu.self_s", toSeconds(gpuSelf));
    m.set("gpu.host_ns_per_sim_cycle",
          l.simCycles ? toSeconds(gpuSelf) * 1e9
                            / static_cast<double>(l.simCycles)
                      : 0.0);
    m.set("gpu.sim_cycles", static_cast<double>(l.simCycles));
    m.set("gpu.issued", static_cast<double>(l.issued));
    m.set("gpu.idle_cycles", static_cast<double>(l.idleCycles));
    m.set("gpu.l2_misses", static_cast<double>(l.l2Misses));
    m.set("gpu.dram_row_misses", static_cast<double>(l.dramRowMisses));
    m.set("noc.packets", static_cast<double>(l.nocPackets));
    m.set("noc.flits", static_cast<double>(l.nocFlits));
    m.set("core.accountant.construct_s", toSeconds(l.accConstruct));
    m.set("core.accountant.access_s", toSeconds(l.access));
    m.set("core.accountant.fetch_s", toSeconds(l.fetch));
    m.set("core.accountant.noc_s", toSeconds(l.noc));
    m.set("core.accountant.finalize_s", toSeconds(l.accFinalize));
    m.set("core.accountant.host_ns_per_call",
          calls ? toSeconds(inSink) * 1e9 / static_cast<double>(calls)
                : 0.0);
    m.set("core.accountant.access_calls",
          static_cast<double>(l.accessCalls));
    m.set("core.accountant.access_words",
          static_cast<double>(l.accessWords));
    m.set("core.accountant.fetch_calls", static_cast<double>(l.fetchCalls));
    m.set("core.accountant.noc_packets", static_cast<double>(l.accNocPackets));
    m.set("core.contract.check_s", toSeconds(l.probe));
    m.set("core.contract.checked_accesses",
          static_cast<double>(l.checkedAccesses));
    m.set("power.evaluate_s", toSeconds(l.evaluate));
    m.set("campaign.journal_append_s", toSeconds(l.journal));
    m.set("isa.bytecode.encode_s", toSeconds(l.encode));
    m.set("isa.bytecode.decode_s", toSeconds(l.decode));
    m.set("analysis.verify_s", toSeconds(l.verify));
    m.set("analysis.optimize_s", toSeconds(l.optimize));
    m.set("analysis.advise_s", toSeconds(l.advise));
    m.set("analysis.admitted", static_cast<double>(l.admitted));
    m.set("analysis.optimize_accepted",
          static_cast<double>(l.optimizeAccepted));
    m.set("analysis.optimize_accept_ratio",
          l.optimizeAttempts ? static_cast<double>(l.optimizeAccepted)
                                   / static_cast<double>(l.optimizeAttempts)
                             : 0.0);
}

// --- Run outcome ----------------------------------------------------------

/** What one pass produced, for checking. */
struct PassOutcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint32_t pin = 0;     //!< CRC of the canonical result
    std::string problem;       //!< first correctness failure, "" if none
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string pinsPath;
    std::string tmpDir = ".";
    std::size_t limit = 0; //!< apps or kernels to run; 0 = all (smoke)
    bool smoke = false;
    bool probeSetup = false;
};

/** Owns a fresh scratch directory under --tmp; removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent)
    {
        std::string tmpl = (fs::path(parent) / "bench-pipeline-XXXXXX")
                               .string();
        fatal_if(!mkdtemp(tmpl.data()), "cannot create a directory in %s",
                 parent.c_str());
        path_ = tmpl;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string
    file(const std::string &name) const
    {
        return (fs::path(path_) / name).string();
    }

  private:
    std::string path_;
};

// --- Campaign workloads ----------------------------------------------------

/** Everything a campaign pass needs, built by the timed set-up. */
struct CampaignSetup
{
    CampaignSetup(const CampaignSetup &) = delete;
    CampaignSetup &operator=(const CampaignSetup &) = delete;

    CampaignSetup(const WorkloadDef &def, std::size_t limit,
                  std::uint64_t seed, std::string journalPath)
        : driver(gpu::baselineConfig()), canonical(canonicalApps(def, limit))
    {
        for (const std::size_t i : shuffledOrder(canonical.size(), seed))
            apps.push_back(canonical[i]);
        options.journalPath = std::move(journalPath);
        options.jobs = 1;
        options.pricing.ecc = def.ecc;
        if (def.ecc)
            options.run.fault.ecc = fault::EccScheme::Secded72_64;
        fatal_if(options.run.fault.anyFaults(),
                 "traced campaigns assume no fault layer");
        runner = std::make_unique<campaign::CampaignRunner>(driver, options);
    }

    core::ExperimentDriver driver;
    std::vector<workload::AppSpec> canonical; //!< check order
    std::vector<workload::AppSpec> apps;      //!< run order
    campaign::CampaignOptions options;
    /** The whole campaign's runner: its digest and the traced journal. */
    std::unique_ptr<campaign::CampaignRunner> runner;
};

/** The report as a suite-ordered campaign would render it. */
std::string
canonicalRender(const CampaignSetup &s, campaign::CampaignReport report)
{
    std::vector<campaign::AppResult> ordered;
    for (const workload::AppSpec &spec : s.canonical) {
        for (const campaign::AppResult &r : report.results) {
            if (r.abbr == spec.abbr)
                ordered.push_back(r);
        }
    }
    report.results = std::move(ordered);
    report.configCrc = s.runner->configDigest(s.canonical);
    return report.render();
}

struct CampaignPass
{
    PassOutcome outcome;
    std::string render;
};

CampaignPass
finishCampaignPass(const CampaignSetup &s,
                   const campaign::CampaignReport &report)
{
    CampaignPass pass;
    pass.outcome.attempted = s.apps.size();
    pass.outcome.failed = static_cast<std::uint64_t>(report.quarantined);
    if (report.results.size() != s.apps.size())
        pass.outcome.problem = "report does not cover every app";
    pass.render = canonicalRender(s, report);
    pass.outcome.pin = crc32(pass.render.data(), pass.render.size());
    return pass;
}

/**
 * One pass. Each app runs as a campaign of its own (its own runner and
 * journal next to the setup's), so that it is one trial for @p scale;
 * the results merge into the report the whole campaign renders.
 */
CampaignPass
runCampaignPass(CampaignSetup &s, HostScale &scale, Timed &time)
{
    campaign::CampaignReport merged;
    for (const workload::AppSpec &spec : s.apps) {
        const auto t0 = Clock::now();
        campaign::CampaignOptions options = s.options;
        options.journalPath += "-" + spec.abbr;
        campaign::CampaignRunner runner(s.driver, options);
        auto report = runner.run(std::span(&spec, 1));
        const double raw = secondsSince(t0);
        time.raw += raw;
        time.scaled += raw * scale.endTrial();
        if (!report.ok()) {
            CampaignPass pass;
            pass.outcome.attempted = pass.outcome.failed = s.apps.size();
            pass.outcome.problem = "campaign failed: "
                                   + report.error().describe();
            return pass;
        }
        for (campaign::AppResult &r : report.value().results)
            merged.results.push_back(std::move(r));
        merged.completed += report.value().completed;
        merged.quarantined += report.value().quarantined;
    }
    return finishCampaignPass(s, merged);
}

/**
 * The campaign again, split into layers: CampaignRunner's per-app steps
 * (build, simulate+account, price, journal) through public calls, in
 * the same app order. Prints each app's accountant onAccess calls per
 * simulated cycle, the ranking that picks stall and dense-ecc.
 */
CampaignPass
runCampaignTraced(CampaignSetup &s, Layers &layers)
{
    campaign::CampaignReport report;
    campaign::CampaignJournal journal(s.options.journalPath,
                                      s.runner->configDigest(s.apps));
    for (const workload::AppSpec &spec : s.apps) {
        campaign::AppResult result;
        result.name = spec.name;
        result.abbr = spec.abbr;
        try {
            ScopedFatalTrap trap;
            auto t0 = Clock::now();
            isa::Program program = workload::buildProgram(spec);
            layers.build += Clock::now() - t0;

            const std::uint64_t accessesBefore = layers.accessCalls;
            core::AppRun run = tracedRun(
                s.driver, std::move(program), s.options.pricing.ecc,
                nullptr, false, layers);
            run.abbr = spec.abbr;
            const std::uint64_t accesses =
                layers.accessCalls - accessesBefore;
            std::fprintf(stderr,
                         "  app %-4s cycles %9llu accountant onAccess "
                         "calls %9llu per cycle %.4f\n",
                         spec.abbr.c_str(),
                         static_cast<unsigned long long>(
                             run.gpuStats.cycles),
                         static_cast<unsigned long long>(accesses),
                         static_cast<double>(accesses)
                             / static_cast<double>(run.gpuStats.cycles));

            t0 = Clock::now();
            const core::AppEnergy energy =
                s.driver.evaluate(run, s.options.pricing);
            layers.evaluate += Clock::now() - t0;

            result.cycles = run.gpuStats.cycles;
            result.instructions = run.gpuStats.sm.issued;
            for (const auto sc : coder::allScenarios) {
                const auto idx =
                    static_cast<std::size_t>(coder::scenarioIndex(sc));
                result.chipEnergy[idx] = energy.at(sc).chipTotal();
                result.bvfUnitsEnergy[idx] = energy.at(sc).bvfUnitsTotal();
            }
            ++report.completed;
        } catch (const std::exception &e) {
            result.status = campaign::AppStatus::Quarantined;
            result.error = Error{ErrorCode::Failed, e.what()};
            ++report.quarantined;
        }

        const auto t0 = Clock::now();
        const auto appended = journal.append(result);
        layers.journal += Clock::now() - t0;
        fatal_if(!appended.ok(), "journal append failed: %s",
                 appended.error().describe().c_str());
        report.results.push_back(std::move(result));
    }
    return finishCampaignPass(s, report);
}

// --- bvfd workload -----------------------------------------------------------

constexpr int kServerWorkers = 1;
constexpr auto kIoDeadline = 120000ms;

enum ReqKind
{
    Submit,
    Advise,
    Eval,
    kReqKinds
};

const char *const kReqNames[kReqKinds] = {"submit", "advise", "eval"};

struct Kernel
{
    std::string abbr;
    std::string bytecode;
    bool eval = false; //!< every third kernel in suite order
};

/** Handler time per request kind, summed by the timing wrapper. */
struct HandlerTimes
{
    std::atomic<std::int64_t> ns[kReqKinds]{};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
};

struct BvfdSetup
{
    BvfdSetup() = default;
    BvfdSetup(const BvfdSetup &) = delete;
    BvfdSetup &operator=(const BvfdSetup &) = delete;

    std::vector<Kernel> kernels; //!< suite order
    std::vector<std::size_t> order;
    std::unique_ptr<server::RequestHandler> handler; //!< traced only
    std::unique_ptr<HandlerTimes> handlerTimes;
    std::unique_ptr<server::Server> server;
    server::TransportPtr client;
    std::string problem;

    ~BvfdSetup()
    {
        if (client)
            client->close();
        if (server) {
            server->requestStop();
            server->drain();
        }
    }
};

/**
 * Bytecode for every kernel, a started server and a connected client.
 * With @p traced set, build and encode times go there and the server
 * runs its handler behind a timing wrapper.
 */
std::unique_ptr<BvfdSetup>
makeBvfdSetup(const WorkloadDef &def, std::size_t limit, std::uint64_t seed,
              Layers *traced)
{
    auto s = std::make_unique<BvfdSetup>();
    const auto apps = canonicalApps(def, limit);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        auto t0 = Clock::now();
        const isa::Program program = workload::buildProgram(apps[i]);
        auto t1 = Clock::now();
        s->kernels.push_back(
            {apps[i].abbr, isa::encodeProgram(program), i % 3 == 0});
        if (traced) {
            traced->build += t1 - t0;
            traced->encode += Clock::now() - t1;
        }
    }
    s->order = shuffledOrder(s->kernels.size(), seed);

    server::ServerOptions options;
    options.workers = kServerWorkers;
    if (traced) {
        s->handler = std::make_unique<server::RequestHandler>();
        s->handlerTimes = std::make_unique<HandlerTimes>();
        options.handler = [h = s->handler.get(),
                           times = s->handlerTimes.get()](
                              const server::Frame &request) {
            const auto t0 = Clock::now();
            server::Frame response = h->handle(request);
            const auto ns = std::chrono::duration_cast<
                                std::chrono::nanoseconds>(Clock::now() - t0)
                                .count();
            const int kind =
                request.type == server::MsgType::SubmitKernelRequest ? Submit
                : request.type == server::MsgType::StaticAdviceRequest
                    ? Advise
                    : Eval;
            times->ns[kind] += ns;
            ++times->requests;
            if (response.type == server::MsgType::ErrorResponse)
                ++times->errors;
            return response;
        };
    }
    s->server = std::make_unique<server::Server>(options);
    if (const auto started = s->server->start(); !started.ok()) {
        s->problem = "server failed to start: "
                     + started.error().describe();
        return s;
    }
    auto dialed = server::SocketTransport::dialTcp(
        "127.0.0.1", s->server->port(), kIoDeadline);
    if (!dialed.ok())
        s->problem = "dial failed: " + dialed.error().describe();
    else
        s->client = std::move(dialed.value());
    return s;
}

/** Send one frame and read back the one response frame. */
Result<server::Frame>
exchange(server::Transport &t, const std::string &wire)
{
    if (auto sent = t.send(wire, kIoDeadline); !sent.ok())
        return sent.error();
    std::string buf;
    for (;;) {
        std::size_t consumed = 0;
        auto parsed = server::parseFrame(buf, consumed);
        if (parsed.ok()) {
            if (consumed != buf.size())
                return Error{ErrorCode::Corrupt, "bytes after response"};
            return std::move(parsed.value());
        }
        if (parsed.error().code != ErrorCode::Truncated)
            return parsed.error();
        auto got = t.recv(kIoDeadline);
        if (!got.ok())
            return got.error();
        if (got.value().empty())
            return Error{ErrorCode::Io, "server closed the connection"};
        buf += got.value();
    }
}

/** One live pass: what the client saw, and every response. */
struct LiveResult
{
    server::Transport *transport = nullptr; //!< null once the link broke
    std::vector<double> latencyMs[kReqKinds]; //!< scaled as their kernel
    Clock::duration latency{}, protocol{};    //!< sums, unscaled
    Timed time; //!< the kernels' request chains
    std::uint64_t failed = 0;
    std::string problem;

    /** Response payloads by kernel (suite index) and request kind. */
    std::vector<std::array<std::string, kReqKinds>> payload;
    std::vector<std::string> digest;

    void
    note(const std::string &why)
    {
        if (problem.empty())
            problem = why;
    }

    /**
     * Send @p request; the payload of an @p expect response, or nothing.
     * Latency runs from the first byte sent to the response frame
     * parsed; encoding the request counts as protocol time.
     */
    template <typename Request>
    std::optional<std::string>
    call(ReqKind kind, server::MsgType type, server::MsgType expect,
         const Request &request)
    {
        if (!transport)
            return std::nullopt;
        const auto t0 = Clock::now();
        const std::string wire = server::encodeFrame(type, request.encode());
        const auto t1 = Clock::now();
        auto response = exchange(*transport, wire);
        const auto t2 = Clock::now();
        protocol += t1 - t0;
        if (!response.ok()) {
            note(response.error().describe());
            transport = nullptr;
            return std::nullopt;
        }
        latency += t2 - t1;
        latencyMs[kind].push_back(toSeconds(t2 - t1) * 1e3);
        if (response.value().type != expect) {
            note(strFormat("%s answered with %s", kReqNames[kind],
                           server::msgTypeName(response.value().type)
                               .c_str()));
            return std::nullopt;
        }
        return std::move(response.value().payload);
    }

    /** Decode a response payload, as protocol time. */
    template <typename Response>
    Result<Response>
    decode(const std::string &payload)
    {
        const auto t0 = Clock::now();
        auto decoded = Response::decode(payload);
        protocol += Clock::now() - t0;
        return decoded;
    }
};

/**
 * The closed loop: one client sends each kernel's requests, kernels in
 * shuffled order. Each kernel's requests are one trial for @p scale (if
 * given), whose reference runs while the server is idle.
 */
LiveResult
runBvfdLive(BvfdSetup &s, HostScale *scale)
{
    using server::MsgType;
    LiveResult c;
    c.transport = s.client.get();
    c.payload.resize(s.kernels.size());
    c.digest.resize(s.kernels.size());
    for (const std::size_t k : s.order) {
        const Kernel &kernel = s.kernels[k];
        std::size_t earlier[kReqKinds];
        for (int i = 0; i < kReqKinds; ++i)
            earlier[i] = c.latencyMs[i].size();
        const auto t0 = Clock::now();
        std::uint64_t done = 0;

        server::SubmitKernelRequest submit;
        submit.bytecode = kernel.bytecode;
        submit.optimize = 1;
        if (auto p = c.call(Submit, MsgType::SubmitKernelRequest,
                            MsgType::SubmitKernelResponse, submit)) {
            const auto r = c.decode<server::SubmitKernelResponse>(*p);
            if (r.ok() && r.value().admitted
                && r.value().digest == server::kernelDigest(kernel.bytecode)) {
                c.digest[k] = r.value().digest;
                ++done;
            } else {
                c.note(kernel.abbr + " was not admitted");
            }
            c.payload[k][Submit] = std::move(*p);
        }

        server::StaticAdviceRequest advise;
        advise.query.abbr = kernel.abbr;
        if (auto p = c.call(Advise, MsgType::StaticAdviceRequest,
                            MsgType::StaticAdviceResponse, advise)) {
            done += c.decode<server::StaticAdviceResponse>(*p).ok();
            c.payload[k][Advise] = std::move(*p);
        }

        if (kernel.eval && !c.digest[k].empty()) {
            server::EvalSubmittedRequest eval;
            eval.digest = c.digest[k];
            if (auto p = c.call(Eval, MsgType::EvalSubmittedRequest,
                                MsgType::EvalSubmittedResponse, eval)) {
                done += c.decode<server::EvalSubmittedResponse>(*p).ok();
                c.payload[k][Eval] = std::move(*p);
            }
        }
        c.failed += (kernel.eval ? 3 : 2) - done;

        const double raw = secondsSince(t0);
        const double factor = scale ? scale->endTrial() : 1.0;
        c.time.raw += raw;
        c.time.scaled += raw * factor;
        for (int i = 0; i < kReqKinds; ++i) {
            for (std::size_t j = earlier[i]; j < c.latencyMs[i].size(); ++j)
                c.latencyMs[i][j] *= factor;
        }
    }
    return c;
}

/** CRC over every response, kernel by kernel in digest order. */
std::uint32_t
bvfdPin(const BvfdSetup &s, const LiveResult &live)
{
    std::vector<std::size_t> byDigest(s.kernels.size());
    std::iota(byDigest.begin(), byDigest.end(), std::size_t{0});
    std::sort(byDigest.begin(), byDigest.end(),
              [&](std::size_t a, std::size_t b) {
                  return live.digest[a] < live.digest[b];
              });
    Crc32 crc;
    for (const std::size_t k : byDigest) {
        crc.update(live.digest[k].data(), live.digest[k].size());
        for (const std::string &p : live.payload[k])
            crc.update(p.data(), p.size());
    }
    return crc.value();
}

PassOutcome
bvfdOutcome(const BvfdSetup &s, const LiveResult &live)
{
    PassOutcome o;
    for (const Kernel &k : s.kernels)
        o.attempted += k.eval ? 3 : 2;
    o.failed = live.failed;
    o.problem = live.problem;
    o.pin = bvfdPin(s, live);
    return o;
}

/**
 * Replay the live pass's requests in-process, split into layers, and
 * hold the replay to the live responses: same digests, same advice,
 * bit-identical eval energies. Mirrors RequestHandler's submit, advise
 * and eval paths through their public calls.
 */
std::string
replayBvfd(const BvfdSetup &s, const LiveResult &live, Layers &layers)
{
    gpu::GpuConfig config = gpu::baselineConfig();
    const server::EvalSubmittedRequest evalDefaults;
    config.arch = isa::allGpuArchs()[evalDefaults.arch];
    config.scheduler = gpu::SchedulerPolicy::Gto; // sched index 0
    const core::ExperimentDriver driver(config);

    for (const std::size_t k : s.order) {
        const Kernel &kernel = s.kernels[k];

        auto t0 = Clock::now();
        auto decoded = isa::decodeProgram(kernel.bytecode);
        layers.decode += Clock::now() - t0;
        if (!decoded.ok())
            return kernel.abbr + ": replay decode failed";

        t0 = Clock::now();
        const analysis::Verdict verdict =
            analysis::verifyProgram(decoded.value());
        layers.verify += Clock::now() - t0;
        if (!verdict.admitted)
            return kernel.abbr + ": replay did not admit";
        ++layers.admitted;
        if (server::kernelDigest(kernel.bytecode) != live.digest[k])
            return kernel.abbr + ": digest differs from the live response";

        t0 = Clock::now();
        const analysis::OptimizeResult opt =
            analysis::optimizeProgram(decoded.value());
        layers.optimize += Clock::now() - t0;
        ++layers.optimizeAttempts;
        if (opt.accepted && opt.changed) {
            ++layers.optimizeAccepted;
            t0 = Clock::now();
            (void)isa::encodeProgram(opt.program); // the store's digest
            layers.encode += Clock::now() - t0;
        }

        t0 = Clock::now();
        const isa::Program built =
            workload::buildProgram(workload::findApp(kernel.abbr));
        layers.build += Clock::now() - t0;
        t0 = Clock::now();
        analysis::AdvisorOptions adviseOpts;
        adviseOpts.arch = config.arch;
        adviseOpts.lineBytes = config.lineBytes;
        const analysis::StaticAdvice advice = analysis::adviseProgram(
            built, analysis::analyzeProgram(built), adviseOpts);
        layers.advise += Clock::now() - t0;
        const auto liveAdvice =
            server::StaticAdviceResponse::decode(live.payload[k][Advise]);
        if (!liveAdvice.ok()
            || liveAdvice.value().bestPivot != advice.pivot.bestPivot
            || liveAdvice.value().specializedMask
                   != advice.isa.specializedMask
            || liveAdvice.value().bestScenario
                   != coder::scenarioIndex(advice.bestScenario))
            return kernel.abbr + ": advice differs from the live response";

        if (!kernel.eval)
            continue;
        core::ContractProbe probe(verdict.certificate);
        core::AppRun run = tracedRun(
            driver, std::move(decoded.value()), false, &probe,
            verdict.certificate.uniformControlFlow, layers);
        layers.checkedAccesses += probe.checkedAccesses();

        core::Pricing pricing;
        pricing.node = circuit::TechNode::N28;
        pricing.pstate = gpu::pstateNominal();
        pricing.cellKind = circuit::CellKind::Sram6T; // cell index 0
        t0 = Clock::now();
        const core::AppEnergy energy = driver.evaluate(run, pricing);
        layers.evaluate += Clock::now() - t0;

        const auto liveEval =
            server::EvalSubmittedResponse::decode(live.payload[k][Eval]);
        bool same = liveEval.ok()
                    && liveEval.value().cycles == run.gpuStats.cycles
                    && liveEval.value().instructions
                           == run.gpuStats.sm.issued
                    && liveEval.value().checkedAccesses
                           == probe.checkedAccesses();
        for (const auto sc : coder::allScenarios) {
            const auto idx =
                static_cast<std::size_t>(coder::scenarioIndex(sc));
            same = same
                   && liveEval.value().chipEnergy[idx]
                          == energy.at(sc).chipTotal()
                   && liveEval.value().bvfUnitsEnergy[idx]
                          == energy.at(sc).bvfUnitsTotal();
        }
        if (!same)
            return kernel.abbr + ": replayed eval differs from the live one";
    }
    return "";
}

// --- Pins -----------------------------------------------------------------

/** Reads "workload crc32hex" lines; '#' starts a comment. */
std::optional<std::uint32_t>
loadPin(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read pins file %s", path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        char name[64];
        unsigned pin = 0;
        if (std::sscanf(line.c_str(), "%63s %x", name, &pin) == 2
            && workload == name)
            return static_cast<std::uint32_t>(pin);
    }
    return std::nullopt;
}

// --- Driving one workload ---------------------------------------------------

/** One run's result line plus the detail line before it. */
struct RunReport
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;  //!< BENCHMARK.json metrics
    std::vector<Metric> detail;   //!< extra metrics for run.sh
    std::vector<Metric> endToEnd; //!< a traced run's untraced metrics
    std::vector<std::uint32_t> pins;
    std::string render; //!< first campaign pass's canonical report
    double wallRawS = 0.0; //!< median unscaled pass wall
    std::string problem;

    void
    add(const PassOutcome &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        pins.push_back(o.pin);
        if (!o.problem.empty())
            fail(o.problem);
    }

    void
    fail(const std::string &why)
    {
        if (problem.empty())
            problem = why;
        correct = false;
    }
};

constexpr int kSetups = 5;

/**
 * Seconds from starting a fresh process to its workload being ready:
 * this binary re-run with --probe-setup, which builds the set-up and
 * then reports on its stdout pipe. Negative when the probe failed.
 */
double
spawnSetup(const Args &args)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    const std::string seed = std::to_string(args.seed);
    const std::string limit = std::to_string(args.limit);
    const auto t0 = Clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execl("/proc/self/exe", "bench_pipeline", "--probe-setup",
              "--workload", args.workload.c_str(), "--seed", seed.c_str(),
              "--limit", limit.c_str(), static_cast<char *>(nullptr));
        _exit(127);
    }
    close(fds[1]);
    char ready = 0;
    const bool signalled = pid > 0 && read(fds[0], &ready, 1) == 1;
    const double seconds = secondsSince(t0);
    close(fds[0]);
    int status = 0;
    const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid
                        && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return signalled && exited ? seconds : -1.0;
}

/** --probe-setup: build the set-up, say so, and leave without teardown. */
[[noreturn]] void
probeSetup(const WorkloadDef &def, const Args &args)
{
    std::unique_ptr<BvfdSetup> bvfd;
    std::unique_ptr<CampaignSetup> campaign;
    if (def.bvfd) {
        bvfd = makeBvfdSetup(def, args.limit, args.seed, nullptr);
    } else {
        campaign = std::make_unique<CampaignSetup>(def, args.limit,
                                                   args.seed, "unused");
    }
    const bool ready = (!bvfd || bvfd->problem.empty())
                       && write(STDOUT_FILENO, "r", 1) == 1;
    _exit(ready ? 0 : 1);
}

/**
 * --trace 0: kSetups set-up probes, then passes of set-up + fixed work
 * while the last pass would still fit in --seconds (at least one pass).
 * Each probe and each app or kernel of a pass is a trial scaled by the
 * reference around it (see HostScale); the detail line also carries the
 * times unscaled.
 */
RunReport
measure(const WorkloadDef &def, const Args &args, const ScratchDir &scratch)
{
    RunReport rep;
    HostScale scale;
    std::vector<double> setupRawS, setupS, wallRawS, wallS;
    double lastPassS = 0.0; //!< set-up + fixed work of the latest pass
    double peakRss = 0.0;   //!< after the first pass, before any other
    std::vector<double> latencyMs[kReqKinds];
    const std::size_t limit = args.limit;
    for (int i = 0; i < kSetups; ++i) {
        setupRawS.push_back(spawnSetup(args));
        if (setupRawS.back() < 0) {
            rep.fail("set-up probe process failed");
            return rep;
        }
        setupS.push_back(setupRawS.back() * scale.endTrial());
    }

    const auto start = Clock::now();
    do {
        const auto passStart = Clock::now();
        const std::string journal =
            scratch.file(strFormat("journal-%zu", wallS.size()));
        if (def.bvfd) {
            auto s = makeBvfdSetup(def, limit, args.seed, nullptr);
            if (!s->problem.empty()) {
                rep.fail(s->problem);
                break;
            }
            const LiveResult live = runBvfdLive(*s, &scale);
            wallRawS.push_back(live.time.raw);
            wallS.push_back(live.time.scaled);
            for (int k = 0; k < kReqKinds; ++k) {
                latencyMs[k].insert(latencyMs[k].end(),
                                    live.latencyMs[k].begin(),
                                    live.latencyMs[k].end());
            }
            rep.add(bvfdOutcome(*s, live));
        } else {
            CampaignSetup s(def, limit, args.seed, journal);
            Timed time;
            CampaignPass pass = runCampaignPass(s, scale, time);
            wallRawS.push_back(time.raw);
            wallS.push_back(time.scaled);
            rep.add(pass.outcome);
            if (rep.render.empty())
                rep.render = std::move(pass.render);
        }
        // Later passes start new server threads and allocator arenas,
        // so the peak would grow with the number of passes.
        if (wallS.size() == 1)
            peakRss = peakRssMb();
        lastPassS = secondsSince(passStart);
        std::fprintf(stderr, "%s pass %zu: wall %.3f s, scaled %.3f s\n",
                     def.name, wallS.size(), wallRawS.back(), wallS.back());
    } while (rep.correct
             && secondsSince(start) + lastPassS <= args.seconds);

    MetricSet m(kEndToEnd);
    m.set("setup_s", median(setupS));
    m.set("wall_s", median(wallS));
    m.set("peak_rss_mb", peakRss);
    rep.metrics = m.finish();
    rep.wallRawS = median(wallRawS);

    rep.detail.push_back(
        {"passes", static_cast<double>(wallS.size()), "count"});
    rep.detail.push_back({"setup_raw_s", median(setupRawS), "s"});
    rep.detail.push_back({"wall_raw_s", rep.wallRawS, "s"});
    rep.detail.push_back(
        {"reference_ms", scale.medianReference() * 1e3, "ms"});
    if (def.bvfd) {
        // The highest percentile with >= 10 samples above it per pass:
        // 58 submits and advises, 20 evals. Scaled as their kernel was.
        const std::pair<int, double> pcts[] = {
            {Submit, 0.5}, {Submit, 0.8}, {Advise, 0.5}, {Advise, 0.8},
            {Eval, 0.5}};
        for (const auto &[kind, p] : pcts) {
            rep.detail.push_back(
                {strFormat("%s_p%d_ms", kReqNames[kind],
                           static_cast<int>(p * 100)),
                 percentile(latencyMs[kind], p), "ms"});
        }
    }
    return rep;
}

/**
 * --trace 1: one untraced pass (as measure() makes it), then a traced
 * pass of the same inputs that must reproduce its results.
 */
RunReport
traceRun(const WorkloadDef &def, const Args &args, const ScratchDir &scratch)
{
    Args once = args;
    once.seconds = 0;
    RunReport rep = measure(def, once, scratch);
    const double untracedWall = rep.wallRawS;
    rep.endToEnd = std::move(rep.metrics);

    Layers layers;
    MetricSet m(kPerLayer);
    for (const char *name :
         {"server.handle_submit_s", "server.handle_advise_s",
          "server.handle_eval_s", "server.wait_s", "server.protocol_s",
          "server.requests", "server.error_responses"})
        m.set(name, 0.0); // the campaign workloads run no server
    double tracedWall = 0.0, attributedS = 0.0, coveredS = 0.0,
           tracedWork = 0.0;
    if (def.bvfd) {
        // Set-up builds and encodes count as layer time, but not toward
        // the traced wall they are attributed against.
        auto s = makeBvfdSetup(def, args.limit, args.seed, &layers);
        if (!s->problem.empty()) {
            rep.fail(s->problem);
        } else {
            const auto t0 = Clock::now();
            const LiveResult live = runBvfdLive(*s, nullptr);
            tracedWall = secondsSince(t0);
            rep.add(bvfdOutcome(*s, live));

            const HandlerTimes &h = *s->handlerTimes;
            double handled = 0.0;
            for (int k = 0; k < kReqKinds; ++k) {
                const double sec = static_cast<double>(h.ns[k]) * 1e-9;
                m.set(strFormat("server.handle_%s_s", kReqNames[k]), sec);
                handled += sec;
            }
            m.set("server.wait_s", toSeconds(live.latency) - handled);
            m.set("server.protocol_s", toSeconds(live.protocol));
            m.set("server.requests", static_cast<double>(h.requests));
            m.set("server.error_responses", static_cast<double>(h.errors));
            // The client spends the pass in requests or in encoding and
            // decoding them.
            attributedS = toSeconds(live.latency + live.protocol);
            coveredS = tracedWall;

            const Clock::duration before = attributed(layers);
            const auto r0 = Clock::now();
            const std::string replayed = replayBvfd(*s, live, layers);
            const double replayWall = secondsSince(r0);
            if (!replayed.empty())
                rep.fail(replayed);
            attributedS += toSeconds(attributed(layers) - before);
            coveredS += replayWall;
            tracedWork = tracedWall + replayWall;
        }
    } else {
        CampaignSetup s(def, args.limit, args.seed,
                        scratch.file("journal-traced"));
        const auto t0 = Clock::now();
        const CampaignPass pass = runCampaignTraced(s, layers);
        tracedWall = tracedWork = coveredS = secondsSince(t0);
        rep.add(pass.outcome);
        if (pass.render != rep.render)
            rep.fail("traced report differs from the untraced one");
        attributedS = toSeconds(attributed(layers));
    }

    setLayerMetrics(m, layers);
    m.set("trace.wall_s", tracedWork);
    m.set("trace.attributed_frac",
          coveredS > 0 ? attributedS / coveredS : 0.0);
    m.set("trace.overhead_frac",
          untracedWall > 0 ? tracedWall / untracedWall - 1 : 0.0);
    rep.metrics = m.finish();
    return rep;
}

void
printReport(const WorkloadDef &def, const Args &args, RunReport &rep,
            std::optional<std::uint32_t> expectPin)
{
    const std::uint32_t got = rep.pins.empty() ? 0 : rep.pins.front();
    for (const std::uint32_t p : rep.pins) {
        if (p != got)
            rep.fail("passes produced different results");
    }
    if (!args.pinsPath.empty()) {
        if (!expectPin) {
            rep.fail(strFormat("no pin for %s in %s (computed %08x)",
                               def.name, args.pinsPath.c_str(), got));
        } else if (*expectPin != got) {
            rep.fail(strFormat("output pin mismatch: computed %08x, "
                               "pinned %08x",
                               got, *expectPin));
        }
    }
    if (!rep.correct) {
        // Fast but wrong never passes: every operation counts as failed.
        rep.failed = rep.attempted;
        std::fprintf(stderr, "INCORRECT: %s\n", rep.problem.c_str());
    }
    rep.detail.push_back(
        {"failed_frac",
         rep.attempted ? static_cast<double>(rep.failed)
                             / static_cast<double>(rep.attempted)
                       : 1.0,
         "ratio"});
    rep.detail.push_back({"nproc",
                          static_cast<double>(
                              std::thread::hardware_concurrency()),
                          "count"});
    std::printf("detail {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"pin\": \"%08x\", \"metrics\": %s}\n",
                def.name, static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, got, jsonMetrics(rep.detail).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                jsonMetrics(rep.metrics).c_str());
    std::fflush(stdout);
}

/**
 * Every workload on a cut-down input (2 apps, 3 kernels), untraced and
 * traced: results must agree and every metric must be emitted.
 */
int
smoke(const Args &base)
{
    auto sameNames = [](const std::vector<Metric> &got,
                        const MetricSpec &spec) {
        return std::equal(got.begin(), got.end(), spec.begin(), spec.end(),
                          [](const Metric &m, const auto &s) {
                              return m.name == s.first;
                          });
    };
    bool ok = true;
    for (const WorkloadDef &def : workloadDefs()) {
        Args args = base;
        args.workload = def.name;
        args.trace = true;
        args.limit = def.bvfd ? 3 : 2;
        const ScratchDir scratch(base.tmpDir);
        RunReport rep = traceRun(def, args, scratch);
        if (!sameNames(rep.endToEnd, kEndToEnd)
            || !sameNames(rep.metrics, kPerLayer))
            rep.fail("metric names differ from the specification");
        printReport(def, args, rep, std::nullopt);
        ok = ok && rep.correct && rep.failed == 0;
    }
    std::fprintf(stderr, "smoke %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_pipeline: %s\n"
                 "usage: bench_pipeline --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--pins FILE] [--tmp DIR] "
                 "[--limit N]\n"
                 "       bench_pipeline --smoke [--tmp DIR]\n"
                 "workloads: campaign stall dense-ecc bvfd-submit\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke" || flag == "--probe-setup") {
            (flag == "--smoke" ? a.smoke : a.probeSetup) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds >= 0))
                usage("--seconds takes a non-negative number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--pins") {
            a.pinsPath = v;
        } else if (flag == "--tmp") {
            a.tmpDir = v;
        } else if (flag == "--limit") {
            a.limit = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--limit takes a whole number");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    pinToOneCpu();
    if (args.smoke)
        return smoke(args);
    const WorkloadDef *def = findWorkload(args.workload);
    if (!def)
        usage("unknown or missing --workload");
    if (args.probeSetup)
        probeSetup(*def, args);
    const auto expectPin = args.pinsPath.empty()
                               ? std::nullopt
                               : loadPin(args.pinsPath, def->name);

    ScratchDir scratch(args.tmpDir);
    RunReport rep = args.trace ? traceRun(*def, args, scratch)
                               : measure(*def, args, scratch);
    printReport(*def, args, rep, expectPin);
    return 0;
}
