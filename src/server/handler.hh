/**
 * @file
 * Request execution, separated from socket plumbing.
 *
 * A RequestHandler turns one decoded request frame into one response
 * frame. Its only state is the shared kernel store and the process-wide
 * memo of static advice (static_answers.hh), both thread-safe, so any
 * number of pool workers may call handle() concurrently -- every
 * simulation builds its own machine, accountant and RNG streams, which
 * is the same property that makes the parallel campaign deterministic.
 *
 * Failures never escape as exceptions: a malformed payload, an unknown
 * application or a pricing rejection comes back as an ErrorResponse
 * frame, so one bad request cannot take down the connection, let alone
 * the daemon.
 */

#ifndef BVF_SERVER_HANDLER_HH
#define BVF_SERVER_HANDLER_HH

#include <memory>

#include "server/kernel_store.hh"
#include "server/protocol.hh"

namespace bvf::server
{

/** Executes decoded requests. Thread-safe; share one per daemon. */
class RequestHandler
{
  public:
    RequestHandler() : kernels_(std::make_shared<KernelStore>()) {}

    /**
     * Execute @p request and build the response frame. Request frames
     * with a response type are themselves answered with ErrorResponse
     * (a client must never speak response types), and so is a payload
     * that does not decode, as InvalidArgument: its frame arrived
     * intact, so the request itself is malformed.
     */
    Frame handle(const Frame &request) const;

    /** Admission store shared by every worker (metrics, lookups). */
    const KernelStore &kernelStore() const { return *kernels_; }

  private:
    /**
     * Shared (not a value) so RequestHandler stays copyable -- copies
     * used by transports and the fleet proxy all see one store.
     */
    std::shared_ptr<KernelStore> kernels_;
};

} // namespace bvf::server

#endif // BVF_SERVER_HANDLER_HH
