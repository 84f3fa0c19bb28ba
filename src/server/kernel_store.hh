/**
 * @file
 * Daemon-side store of admitted untrusted kernels.
 *
 * A KernelStore owns the admission boundary for bytecode submissions:
 * submit() decodes a BVFK frame, runs the static verifier, and only an
 * *admitted* program is stored -- keyed by a content digest computed
 * over the bytecode bytes -- together with its admission certificate.
 * EvalSubmitted looks kernels up by that digest, so a rejected kernel
 * cannot reach an SM by construction: there is no handle to name it by.
 *
 * The store also keeps the admission counters surfaced on /metrics:
 * submissions, admissions, rejections broken down by machine-readable
 * reason, bytecode that did not even decode, and the abstract
 * interpreter's worklist steps (one fixpoint per submission, shared by
 * admission and optimize-on-submit). All methods are
 * thread-safe; pool workers share one store per daemon.
 */

#ifndef BVF_SERVER_KERNEL_STORE_HH
#define BVF_SERVER_KERNEL_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/optimizer.hh"
#include "analysis/verifier.hh"
#include "common/result.hh"
#include "isa/program.hh"

namespace bvf::server
{

/**
 * Content digest of submitted bytecode -- the EvalSubmitted lookup
 * handle, and the fleet's routing key (submit and eval of one kernel
 * must shard to the same worker, since the store is per-worker).
 */
std::string kernelDigest(std::string_view bytecode);

/** One admitted kernel: the program plus its proven certificate. */
struct StoredKernel
{
    isa::Program program;
    analysis::Certificate certificate;
};

/** Outcome of one submission (admitted or statically rejected). */
struct SubmitOutcome
{
    bool admitted = false;
    std::string digest; //!< lookup handle; empty when rejected
    analysis::Certificate certificate;
    std::vector<analysis::Rejection> rejections;

    /**
     * Optimize-on-submit result (meaningful only when it was
     * requested): when the optimizer's output passed translation
     * validation and re-admitted with a no-weaker certificate, the
     * optimized program is stored as a first-class kernel under
     * `optimizedDigest`. On fallback the digest stays empty and
     * `optimizeNote` says why.
     */
    bool optimized = false;
    std::string optimizedDigest;
    analysis::OptStats optStats;
    std::string optimizeNote;
};

/** Thread-safe store of verified kernels. */
class KernelStore
{
  public:
    /** Resident-kernel cap; past it submissions fail Overloaded. */
    static constexpr std::size_t kMaxResident = 128;

    /**
     * Decode, verify and (if admitted) store @p bytecode. A decode
     * failure (InvalidArgument) or a full store (Overloaded) is an
     * Error; a verifier rejection is a
     * successful SubmitOutcome with admitted=false. Resubmitting
     * identical bytecode is idempotent: same digest, no second slot.
     *
     * With @p optimize set, an admitted kernel is additionally run
     * through the certificate-guided optimizer; an accepted result is
     * stored under its own digest (see SubmitOutcome). Optimizer
     * fallback is never an error -- the original admission stands.
     */
    Result<SubmitOutcome> submit(std::string_view bytecode,
                                 bool optimize = false);

    /** Look up an admitted kernel; null when the digest is unknown. */
    std::shared_ptr<const StoredKernel> find(const std::string &digest) const;

    /** Admission counters in Prometheus text format. */
    std::string renderMetrics() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const StoredKernel>>
        kernels_;

    std::uint64_t submitted_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t decodeFailures_ = 0;
    std::array<std::uint64_t, analysis::kNumRejectReasons> rejectedBy_{};

    /** AnalysisResult::steps of every fixpoint submit() ran. */
    std::uint64_t analysisSteps_ = 0;

    // Optimize-on-submit counters (per-pass totals count rewrites the
    // accepted optimized programs actually shipped with).
    std::uint64_t optimizeRequested_ = 0;
    std::uint64_t optimizeAccepted_ = 0;
    std::uint64_t optimizeFallback_ = 0;
    analysis::OptStats optimizerApplied_{};
};

} // namespace bvf::server

#endif // BVF_SERVER_KERNEL_STORE_HH
