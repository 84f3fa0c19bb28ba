/**
 * @file
 * Kernel store implementation.
 */

#include "server/kernel_store.hh"

#include <utility>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "isa/bytecode.hh"

namespace bvf::server
{

/**
 * CRC32 plus length is not collision-resistant against adversaries,
 * but an attacker who crafts a collision only aliases *their own*
 * earlier submission -- the stored program under a digest is always one
 * that passed the verifier, so the admission property is unaffected.
 */
std::string
kernelDigest(std::string_view bytecode)
{
    return strFormat("k%08x-%zx", crc32(bytecode.data(), bytecode.size()),
                     bytecode.size());
}

Result<SubmitOutcome>
KernelStore::submit(std::string_view bytecode, bool optimize)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
    }

    auto decoded = isa::decodeProgram(bytecode);
    if (!decoded.ok()) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++decodeFailures_;
        // The bytecode arrived inside an intact frame: whatever the
        // decoder calls the damage, the kernel is malformed, and a
        // Corrupt or Truncated answer would read as wire damage to the
        // fleet coordinator.
        return Error{ErrorCode::InvalidArgument, decoded.error().message};
    }

    // One fixpoint per submission: the optimizer reuses admission's.
    const analysis::Admission admission =
        analysis::admitProgram(decoded.value());
    const analysis::Verdict &verdict = admission.verdict;
    std::uint64_t steps =
        admission.analysis ? admission.analysis->steps : 0;
    if (!verdict.admitted) {
        SubmitOutcome out;
        out.admitted = false;
        out.rejections = verdict.rejections;
        std::lock_guard<std::mutex> lock(mutex_);
        analysisSteps_ += steps;
        for (const analysis::Rejection &rej : verdict.rejections)
            ++rejectedBy_[static_cast<std::size_t>(rej.reason)];
        return out;
    }

    SubmitOutcome out;
    out.admitted = true;
    out.digest = kernelDigest(bytecode);
    out.certificate = verdict.certificate;

    auto stored = std::make_shared<const StoredKernel>(
        StoredKernel{std::move(decoded.value()), verdict.certificate});

    // Optimize outside the lock: the passes plus the translation
    // validator are pure functions of the program.
    std::string opt_bytes;
    std::shared_ptr<const StoredKernel> opt_stored;
    if (optimize) {
        analysis::OptimizeResult opt =
            analysis::optimizeProgram(stored->program, admission);
        steps += opt.analysisSteps;
        out.optStats = opt.stats;
        if (opt.accepted && opt.changed) {
            opt_bytes = isa::encodeProgram(opt.program);
            out.optimized = true;
            out.optimizedDigest = kernelDigest(opt_bytes);
            opt_stored = std::make_shared<const StoredKernel>(
                StoredKernel{std::move(opt.program), opt.certificate});
        } else {
            out.optimizeNote = opt.note.empty()
                                   ? std::string("no rewrite applied")
                                   : opt.note;
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    analysisSteps_ += steps;
    const auto it = kernels_.find(out.digest);
    if (it == kernels_.end()) {
        if (kernels_.size() >= kMaxResident) {
            return Error{ErrorCode::Overloaded,
                         strFormat("kernel store is full (%zu resident)",
                                   kernels_.size())};
        }
        kernels_.emplace(out.digest, std::move(stored));
    }
    ++admitted_;

    if (optimize) {
        ++optimizeRequested_;
        if (out.optimized
            && (kernels_.count(out.optimizedDigest) != 0
                || kernels_.size() < kMaxResident)) {
            kernels_.emplace(out.optimizedDigest, std::move(opt_stored));
            ++optimizeAccepted_;
            const analysis::OptStats &s = out.optStats;
            optimizerApplied_.removedDead += s.removedDead;
            optimizerApplied_.removedUnreachable += s.removedUnreachable;
            optimizerApplied_.removedGuardFalse += s.removedGuardFalse;
            optimizerApplied_.removedNops += s.removedNops;
            optimizerApplied_.removedBranches += s.removedBranches;
            optimizerApplied_.foldedConstants += s.foldedConstants;
            optimizerApplied_.propagatedCopies += s.propagatedCopies;
            optimizerApplied_.reducedStrength += s.reducedStrength;
            optimizerApplied_.flattenedBranches += s.flattenedBranches;
        } else {
            if (out.optimized) {
                // Validated but no slot left: surface it as fallback.
                out.optimized = false;
                out.optimizedDigest.clear();
                out.optimizeNote = "kernel store is full";
            }
            ++optimizeFallback_;
        }
    }
    return out;
}

std::shared_ptr<const StoredKernel>
KernelStore::find(const std::string &digest) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = kernels_.find(digest);
    return it == kernels_.end() ? nullptr : it->second;
}

std::string
KernelStore::renderMetrics() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    out += "# HELP bvfd_kernels_submitted_total Kernel submissions "
           "received.\n";
    out += "# TYPE bvfd_kernels_submitted_total counter\n";
    out += strFormat("bvfd_kernels_submitted_total %llu\n",
                     static_cast<unsigned long long>(submitted_));
    out += "# HELP bvfd_kernels_admitted_total Submissions that passed "
           "the static verifier.\n";
    out += "# TYPE bvfd_kernels_admitted_total counter\n";
    out += strFormat("bvfd_kernels_admitted_total %llu\n",
                     static_cast<unsigned long long>(admitted_));
    out += "# HELP bvfd_kernels_decode_failures_total Submissions whose "
           "bytecode did not decode.\n";
    out += "# TYPE bvfd_kernels_decode_failures_total counter\n";
    out += strFormat("bvfd_kernels_decode_failures_total %llu\n",
                     static_cast<unsigned long long>(decodeFailures_));
    out += "# HELP bvfd_kernels_rejected_total Verifier rejections by "
           "machine-readable reason.\n";
    out += "# TYPE bvfd_kernels_rejected_total counter\n";
    for (int i = 0; i < analysis::kNumRejectReasons; ++i) {
        out += strFormat(
            "bvfd_kernels_rejected_total{reason=\"%s\"} %llu\n",
            analysis::rejectReasonName(
                static_cast<analysis::RejectReason>(i))
                .c_str(),
            static_cast<unsigned long long>(
                rejectedBy_[static_cast<std::size_t>(i)]));
    }
    out += "# HELP bvfd_kernels_analysis_steps_total Abstract-"
           "interpreter worklist steps run for submissions.\n";
    out += "# TYPE bvfd_kernels_analysis_steps_total counter\n";
    out += strFormat("bvfd_kernels_analysis_steps_total %llu\n",
                     static_cast<unsigned long long>(analysisSteps_));
    out += "# HELP bvfd_kernels_optimize_requested_total Submissions "
           "that asked for optimize-on-submit.\n";
    out += "# TYPE bvfd_kernels_optimize_requested_total counter\n";
    out += strFormat("bvfd_kernels_optimize_requested_total %llu\n",
                     static_cast<unsigned long long>(optimizeRequested_));
    out += "# HELP bvfd_kernels_optimize_accepted_total Optimized "
           "programs that passed translation validation and "
           "re-admission and were stored.\n";
    out += "# TYPE bvfd_kernels_optimize_accepted_total counter\n";
    out += strFormat("bvfd_kernels_optimize_accepted_total %llu\n",
                     static_cast<unsigned long long>(optimizeAccepted_));
    out += "# HELP bvfd_kernels_optimize_fallback_total Optimize "
           "requests answered with the original program.\n";
    out += "# TYPE bvfd_kernels_optimize_fallback_total counter\n";
    out += strFormat("bvfd_kernels_optimize_fallback_total %llu\n",
                     static_cast<unsigned long long>(optimizeFallback_));
    out += "# HELP bvfd_kernels_optimizer_rewrites_total Rewrites "
           "shipped in accepted optimized kernels, by pass.\n";
    out += "# TYPE bvfd_kernels_optimizer_rewrites_total counter\n";
    const std::pair<const char *, std::uint64_t> passes[] = {
        {"dead-write", optimizerApplied_.removedDead},
        {"unreachable", optimizerApplied_.removedUnreachable},
        {"guard-false", optimizerApplied_.removedGuardFalse},
        {"nop", optimizerApplied_.removedNops},
        {"branch-collapse", optimizerApplied_.removedBranches},
        {"constant-fold", optimizerApplied_.foldedConstants},
        {"copy-propagation", optimizerApplied_.propagatedCopies},
        {"strength-reduction", optimizerApplied_.reducedStrength},
        {"branch-flatten", optimizerApplied_.flattenedBranches},
    };
    for (const auto &[pass, count] : passes) {
        out += strFormat(
            "bvfd_kernels_optimizer_rewrites_total{pass=\"%s\"} %llu\n",
            pass, static_cast<unsigned long long>(count));
    }
    out += "# HELP bvfd_kernels_resident Admitted kernels currently "
           "stored.\n";
    out += "# TYPE bvfd_kernels_resident gauge\n";
    out += strFormat("bvfd_kernels_resident %zu\n", kernels_.size());
    return out;
}

} // namespace bvf::server
