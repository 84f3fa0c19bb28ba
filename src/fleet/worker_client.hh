/**
 * @file
 * Deadline-bounded protocol client for one bvfd worker.
 *
 * The coordinator's unit of I/O: send one CRC-framed request, read one
 * framed response, never wait past a deadline. All byte movement goes
 * through the Transport seam (server/transport.hh): by default the
 * client dials real sockets (SocketTransport), and the simulation
 * harness injects an in-memory transport via DialFn, which is how the
 * whole fleet runs single-threaded on simulated time.
 *
 * Connections are pooled per worker: request() checks out an idle
 * transport (dialing a fresh one when the pool is dry), performs the
 * round trip, and returns the connection to the pool only when the
 * stream is *provably clean* -- the response parsed and not a byte
 * beyond it was buffered. Any failure, and any leftover bytes after
 * the response (a duplicated frame, a babbling peer), close the
 * connection: a stale frame sitting in a pooled connection would be
 * served as the answer to the *next* request, which is how a fleet
 * silently reports wrong numbers. Thread-safe: any number of pool
 * workers may call request() concurrently; each gets its own
 * connection.
 */

#ifndef BVF_FLEET_WORKER_CLIENT_HH
#define BVF_FLEET_WORKER_CLIENT_HH

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "common/result.hh"
#include "server/protocol.hh"
#include "server/transport.hh"

namespace bvf::fleet
{

/** Where one worker listens. TCP (host:port) or a Unix socket path. */
struct WorkerAddress
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string unixPath; //!< non-empty selects Unix-domain transport

    /** Stable routing/journal identifier, e.g. "127.0.0.1:7001". */
    std::string id() const;
};

/**
 * Parse "HOST:PORT" or "unix:PATH" into a WorkerAddress.
 * InvalidArgument on anything else.
 */
Result<WorkerAddress> parseWorkerAddress(const std::string &spec);

/** Pooled, deadline-bounded connection(s) to one worker. */
class WorkerClient
{
  public:
    /**
     * Produce a fresh connected Transport within the deadline. The
     * default dials the worker's real address; the simulation harness
     * injects in-memory transports here.
     */
    using DialFn = std::function<Result<server::TransportPtr>(
        std::chrono::milliseconds deadline)>;

    /**
     * @param dial  connection factory; empty dials @p address for real
     * @param clock deadline time source; null uses systemClock()
     */
    explicit WorkerClient(WorkerAddress address, DialFn dial = {},
                          Clock *clock = nullptr);
    ~WorkerClient();

    WorkerClient(const WorkerClient &) = delete;
    WorkerClient &operator=(const WorkerClient &) = delete;

    /**
     * One round trip within @p deadline (<= 0 means block forever).
     * Io: connect/reset failures. Timeout: the deadline expired.
     * Corrupt/Truncated/Unsupported: the response stream failed
     * framing. The returned frame may itself be an ErrorResponse --
     * that is an *application* answer from a healthy worker, which the
     * coordinator treats very differently from a transport error.
     */
    Result<server::Frame> request(const server::Frame &frame,
                                  std::chrono::milliseconds deadline);

    /** Drop every pooled connection (e.g. after the worker died). */
    void closeAll();

    const WorkerAddress &address() const { return address_; }

  private:
    Result<server::TransportPtr>
    checkout(std::chrono::milliseconds deadline);
    void checkin(server::TransportPtr transport);

    WorkerAddress address_;
    DialFn dial_;
    Clock *clock_;
    std::mutex mutex_;
    std::vector<server::TransportPtr> idle_;
};

} // namespace bvf::fleet

#endif // BVF_FLEET_WORKER_CLIENT_HH
