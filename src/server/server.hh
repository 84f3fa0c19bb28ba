/**
 * @file
 * bvfd: the batch-evaluation daemon.
 *
 * Listens on TCP and/or a Unix socket, speaks the CRC32-framed binary
 * protocol (protocol.hh) and executes requests on a shared
 * work-stealing pool (runtime/thread_pool.hh).
 *
 * Concurrency shape, per connection:
 *  - a *reader* thread parses frames and submits them to the pool,
 *    blocking once maxInflight requests of this connection are pending
 *    -- the socket stops being read, TCP flow control pushes back on
 *    the client, and one greedy connection cannot swamp the queue;
 *  - a *writer* thread sends responses strictly in request order as
 *    each finishes, so a client may pipeline a whole batch and match
 *    responses to requests by position.
 * Both move bytes through one non-owning SocketTransport over the
 * accepted descriptor (transport.hh), whose sends never raise SIGPIPE,
 * and the reader takes each request off its buffer with nextRequest()
 * (protocol.hh).
 *
 * A connection whose bytes fail framing (bad magic, bad CRC, oversized
 * length, wrong version) gets one ErrorResponse and is closed: after a
 * framing error the stream offset is unreliable, so resynchronization
 * is impossible by construction.
 *
 * Shutdown is a drain: stop accepting, let readers see EOF, answer
 * everything already accepted, join every thread. A SIGTERM handler
 * only needs to call requestStop(), which is async-signal-safe.
 *
 * The /metrics endpoint rides the same ports: a connection whose first
 * bytes are "GET " is answered with an HTTP/1.0 plaintext exposition
 * of the Metrics registry and closed, so `curl http://host:port/metrics`
 * works against a binary-protocol daemon.
 */

#ifndef BVF_SERVER_SERVER_HH
#define BVF_SERVER_SERVER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hh"
#include "runtime/thread_pool.hh"
#include "server/handler.hh"
#include "server/metrics.hh"
#include "server/transport.hh"

namespace bvf::server
{

/** Daemon configuration. */
struct ServerOptions
{
    /** TCP bind address; empty disables TCP. */
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (see Server::port()). */
    int port = 0;

    /** Unix socket path; empty disables the Unix listener. */
    std::string unixPath;

    /** Worker threads evaluating requests. */
    int workers = 4;

    /**
     * Per-connection bound on submitted-but-unanswered requests; the
     * reader stops consuming the socket beyond it (backpressure).
     */
    int maxInflight = 64;

    /**
     * Request dispatch override. Empty uses the built-in evaluation
     * RequestHandler; the fleet coordinator plugs its routing proxy in
     * here, inheriting the whole connection/backpressure/metrics/drain
     * machinery unchanged. Must be thread-safe: pool workers call it
     * concurrently.
     */
    std::function<Frame(const Frame &)> handler;
};

/** The daemon. start() it, then drain() (or destroy) to stop. */
class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and spawn the accept loop. */
    Result<void> start();

    /**
     * Ask the accept loop to wind down. Async-signal-safe (one write
     * to a pipe); pair with drain() from a normal thread.
     */
    void requestStop();

    /**
     * Block until requestStop() has been called (typically from a
     * signal handler). A daemon main() is just start(), waitForStop(),
     * drain().
     */
    void waitForStop() const;

    /**
     * Graceful shutdown: stop accepting, finish every request already
     * read from a socket, flush every response, join all threads.
     * Idempotent; also run by the destructor.
     */
    void drain();

    /** Bound TCP port (after start()); 0 when TCP is disabled. */
    int port() const { return boundPort_; }

    /** Render the metrics exposition (same text /metrics serves). */
    std::string renderMetrics() const;

    const Metrics &metrics() const { return metrics_; }

  private:
    struct Connection;

    void acceptLoop();
    void serveConnection(int fd);
    void serveMetricsHttp(Transport &io, std::string already);
    Result<int> listenTcp();
    Result<int> listenUnix();

    ServerOptions options_;
    RequestHandler handler_;
    std::function<Frame(const Frame &)> dispatch_;
    Metrics metrics_;
    std::unique_ptr<runtime::ThreadPool> pool_;

    int tcpFd_ = -1;
    int unixFd_ = -1;
    int boundPort_ = 0;
    int stopPipe_[2] = {-1, -1};

    std::thread acceptThread_;
    std::mutex connMutex_;
    std::vector<std::thread> connThreads_;
    std::vector<int> connFds_;
    std::atomic<bool> stopping_{false};
    bool started_ = false;
    bool drained_ = false;
};

} // namespace bvf::server

#endif // BVF_SERVER_SERVER_HH
