/**
 * @file
 * bvfd server implementation.
 */

#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>

#include "common/logging.hh"
#include "server/http.hh"
#include "server/static_answers.hh"

namespace bvf::server
{

namespace
{

/** A send/recv deadline of 0: block until done. */
constexpr std::chrono::milliseconds kBlock{0};

} // namespace

/** One request awaiting its in-order turn on the response stream. */
struct Slot
{
    Frame response;
    bool done = false;
    std::chrono::steady_clock::time_point submitted;
    MsgType requestType = MsgType::PingRequest;
};

/** Reader/writer rendezvous for one connection. */
struct Server::Connection
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::shared_ptr<Slot>> inflight;
    bool noMoreRequests = false; //!< reader saw EOF or a framing error
    bool dead = false;           //!< writer hit a send failure
};

Server::Server(ServerOptions options) : options_(std::move(options))
{
    dispatch_ = options_.handler
                    ? options_.handler
                    : [this](const Frame &f) { return handler_.handle(f); };
}

Server::~Server()
{
    drain();
}

Result<int>
Server::listenTcp()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Error{ErrorCode::Io, "socket(): out of descriptors"};
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr)
        != 1) {
        ::close(fd);
        return Error{ErrorCode::InvalidArgument,
                     strFormat("bad bind address '%s'",
                               options_.host.c_str())};
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        ::close(fd);
        return Error{ErrorCode::Io,
                     strFormat("cannot bind %s:%d: %s",
                               options_.host.c_str(), options_.port,
                               std::strerror(errno))};
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        return Error{ErrorCode::Io, std::strerror(errno)};
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len)
        == 0) {
        boundPort_ = ntohs(bound.sin_port);
    }
    return fd;
}

Result<int>
Server::listenUnix()
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return Error{ErrorCode::Io, "socket(): out of descriptors"};

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unixPath.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return Error{ErrorCode::InvalidArgument,
                     strFormat("unix socket path '%s' too long",
                               options_.unixPath.c_str())};
    }
    std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unixPath.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        ::close(fd);
        return Error{ErrorCode::Io,
                     strFormat("cannot bind unix socket '%s': %s",
                               options_.unixPath.c_str(),
                               std::strerror(errno))};
    }
    if (::listen(fd, 64) != 0) {
        ::close(fd);
        return Error{ErrorCode::Io, std::strerror(errno)};
    }
    return fd;
}

Result<void>
Server::start()
{
    panic_if(started_, "Server::start() called twice");
    if (options_.host.empty() && options_.unixPath.empty()) {
        return Error{ErrorCode::InvalidArgument,
                     "neither a TCP address nor a unix socket path "
                     "was configured"};
    }
    if (options_.workers < 1 || options_.maxInflight < 1) {
        return Error{ErrorCode::InvalidArgument,
                     "workers and max-inflight must be at least 1"};
    }
    if (::pipe(stopPipe_) != 0)
        return Error{ErrorCode::Io, "pipe(): out of descriptors"};

    if (!options_.host.empty()) {
        auto fd = listenTcp();
        if (!fd.ok())
            return fd.error();
        tcpFd_ = fd.value();
    }
    if (!options_.unixPath.empty()) {
        auto fd = listenUnix();
        if (!fd.ok()) {
            if (tcpFd_ >= 0)
                ::close(tcpFd_);
            tcpFd_ = -1;
            return fd.error();
        }
        unixFd_ = fd.value();
    }

    pool_ = std::make_unique<runtime::ThreadPool>(options_.workers);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    started_ = true;
    return {};
}

void
Server::requestStop()
{
    // Async-signal-safe: one write, no locks, no allocation.
    stopping_.store(true, std::memory_order_relaxed);
    if (stopPipe_[1] >= 0) {
        const char byte = 's';
        [[maybe_unused]] ssize_t n = ::write(stopPipe_[1], &byte, 1);
    }
}

void
Server::waitForStop() const
{
    // Nobody ever reads the stop pipe, so once requestStop() writes
    // its byte the descriptor stays readable and every waiter (the
    // accept loop and any number of waitForStop callers) wakes.
    while (!stopping_.load(std::memory_order_relaxed)) {
        if (stopPipe_[0] < 0)
            return;
        pollfd p = {stopPipe_[0], POLLIN, 0};
        if (::poll(&p, 1, -1) < 0 && errno != EINTR)
            return;
        if (p.revents & POLLIN)
            return;
    }
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[3];
        nfds_t nfds = 0;
        fds[nfds++] = {stopPipe_[0], POLLIN, 0};
        if (tcpFd_ >= 0)
            fds[nfds++] = {tcpFd_, POLLIN, 0};
        if (unixFd_ >= 0)
            fds[nfds++] = {unixFd_, POLLIN, 0};

        if (::poll(fds, nfds, -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[0].revents & POLLIN)
            break; // requestStop()

        for (nfds_t i = 1; i < nfds; ++i) {
            if (!(fds[i].revents & POLLIN))
                continue;
            const int client = ::accept(fds[i].fd, nullptr, nullptr);
            if (client < 0)
                continue;
            metrics_.onConnection();
            std::lock_guard<std::mutex> lock(connMutex_);
            if (stopping_.load()) {
                ::close(client);
                continue;
            }
            connFds_.push_back(client);
            connThreads_.emplace_back([this, client] {
                serveConnection(client);
                // Forget the descriptor before its number can be
                // reused, or drain() could shut down a stranger.
                std::lock_guard<std::mutex> forget(connMutex_);
                connFds_.erase(std::remove(connFds_.begin(),
                                           connFds_.end(), client),
                               connFds_.end());
            });
        }
    }
}

void
Server::serveMetricsHttp(Transport &io, std::string already)
{
    // Consume the rest of the request head, bounded *before* we
    // buffer: an attacker feeding an endless request line must cost a
    // rejection, not memory. We answer any complete GET head.
    HttpScanResult scan = scanHttpHead(already);
    while (scan.state == HttpScan::NeedMore) {
        auto got = io.recv(kBlock);
        if (!got.ok() || got.value().empty())
            break;
        already += got.value();
        scan = scanHttpHead(already);
    }

    std::string head;
    std::string body;
    switch (scan.state) {
      case HttpScan::RequestLineTooLong:
        metrics_.onProtocolError();
        head = "HTTP/1.0 414 URI Too Long\r\n"
               "Connection: close\r\n\r\n";
        break;
      case HttpScan::HeadTooLong:
        metrics_.onProtocolError();
        head = "HTTP/1.0 431 Request Header Fields Too Large\r\n"
               "Connection: close\r\n\r\n";
        break;
      default:
        // Complete -- or EOF mid-head, in which case answering is
        // harmless and matches the old lenient behavior.
        body = renderMetrics();
        head = strFormat(
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4\r\n"
            "Content-Length: %zu\r\n"
            "Connection: close\r\n\r\n",
            body.size());
        break;
    }
    io.send(head + body, kBlock); // the client may already be gone
    metrics_.addBytesOut(head.size() + body.size());
}

std::string
Server::renderMetrics() const
{
    const runtime::PoolStats stats =
        pool_ ? pool_->stats() : runtime::PoolStats{};
    return metrics_.render(pool_ ? pool_->queueDepth() : 0,
                           options_.workers,
                           stats.utilization(options_.workers))
           + handler_.kernelStore().renderMetrics()
           + renderStaticAnswerMetrics();
}

void
Server::serveConnection(int fd)
{
    auto conn = std::make_shared<Connection>();
    // Reader and writer share one non-owning transport; the fd is
    // closed below, after both are done with it.
    SocketTransport io(fd, /*owned=*/false);

    // Writer: flush responses in request order as they complete.
    std::thread writer([this, fd, conn, &io] {
        for (;;) {
            std::shared_ptr<Slot> slot;
            {
                std::unique_lock<std::mutex> lock(conn->mutex);
                conn->cv.wait(lock, [&] {
                    return (!conn->inflight.empty()
                            && conn->inflight.front()->done)
                           || (conn->noMoreRequests
                               && conn->inflight.empty());
                });
                if (conn->inflight.empty())
                    return; // drained and closed
                slot = conn->inflight.front();
                conn->inflight.pop_front();
            }
            conn->cv.notify_all(); // reader may be waiting on the window
            const std::string bytes =
                encodeFrame(slot->response.type, slot->response.payload);
            if (!io.send(bytes, kBlock).ok()) {
                {
                    std::lock_guard<std::mutex> lock(conn->mutex);
                    conn->dead = true;
                    conn->inflight.clear();
                }
                conn->cv.notify_all();
                ::shutdown(fd, SHUT_RD); // unblock the reader
                return;
            }
            metrics_.addBytesOut(bytes.size());
        }
    });

    std::string buf;
    bool sniffed = false;
    bool open = true;
    while (open) {
        auto got = io.recv(kBlock);
        if (!got.ok() || got.value().empty())
            break; // EOF (or drain's shutdown(SHUT_RD))
        metrics_.addBytesIn(got.value().size());
        buf += got.value();

        if (!sniffed && buf.size() >= 4) {
            sniffed = true;
            if (buf.compare(0, 4, "GET ") == 0) {
                // Plaintext metrics ride the binary port.
                {
                    std::lock_guard<std::mutex> lock(conn->mutex);
                    conn->noMoreRequests = true;
                }
                conn->cv.notify_all();
                writer.join();
                serveMetricsHttp(io, std::move(buf));
                ::shutdown(fd, SHUT_RDWR);
                ::close(fd);
                return;
            }
        }

        for (;;) {
            StreamStep step = nextRequest(buf);
            if (step.kind == StreamStep::NeedMore)
                break;
            auto slot = std::make_shared<Slot>();
            if (step.kind == StreamStep::HangUp) {
                // Framing is broken: answer once, then hang up.
                metrics_.onProtocolError();
                slot->response = std::move(step.frame);
                slot->done = true;
                slot->requestType = MsgType::ErrorResponse;
                {
                    std::lock_guard<std::mutex> lock(conn->mutex);
                    conn->inflight.push_back(std::move(slot));
                }
                conn->cv.notify_all();
                open = false;
                break;
            }
            metrics_.onRequest(step.frame.type);
            slot->submitted = std::chrono::steady_clock::now();
            slot->requestType = step.frame.type;
            {
                // Backpressure: cap this connection's pending work.
                std::unique_lock<std::mutex> lock(conn->mutex);
                conn->cv.wait(lock, [&] {
                    return conn->dead
                           || conn->inflight.size()
                                  < static_cast<std::size_t>(
                                        options_.maxInflight);
                });
                if (conn->dead)
                    break;
                conn->inflight.push_back(slot);
            }
            pool_->submit([this, conn, slot,
                           frame = std::move(step.frame)] {
                Frame response = dispatch_(frame);
                if (response.type == MsgType::ErrorResponse)
                    metrics_.onError(frame.type);
                const auto latency =
                    std::chrono::steady_clock::now() - slot->submitted;
                metrics_.onResponse(
                    response.type,
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        latency));
                {
                    std::lock_guard<std::mutex> lock(conn->mutex);
                    slot->response = std::move(response);
                    slot->done = true;
                }
                conn->cv.notify_all();
            });
        }
        std::lock_guard<std::mutex> lock(conn->mutex);
        open = open && !conn->dead;
    }

    {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->noMoreRequests = true;
    }
    conn->cv.notify_all();
    writer.join(); // flushes every accepted request's response
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
}

void
Server::drain()
{
    if (!started_ || drained_)
        return;
    drained_ = true;

    requestStop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        ::unlink(options_.unixPath.c_str());
    }

    // Readers wake with EOF; writers then flush and exit.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RD);
        threads.swap(connThreads_);
        connFds_.clear();
    }
    for (std::thread &t : threads) {
        if (t.joinable())
            t.join();
    }

    if (pool_)
        pool_->shutdown();
    for (int &fd : stopPipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    inform("bvfd: drained (served %llu request(s))",
           static_cast<unsigned long long>(metrics_.responsesTotal()));
}

} // namespace bvf::server
