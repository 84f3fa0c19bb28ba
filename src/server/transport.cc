/**
 * @file
 * SocketTransport: poll()-bounded socket I/O.
 *
 * Every endpoint shares one deadline discipline: each blocking step --
 * connect, write, read -- rides poll() with the remaining budget, so a
 * peer that was SIGKILLed mid-request surfaces as Timeout (or Io on a
 * reset) instead of hanging the caller. send() passes MSG_NOSIGNAL: a
 * peer that hung up fails the write instead of raising SIGPIPE.
 */

#include "server/transport.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.hh"

namespace bvf::server
{

namespace
{

/** Wait until @p fd is ready for @p events or the budget is gone. */
Result<void>
waitReady(int fd, short events, const Deadline &deadline)
{
    for (;;) {
        const int budget = static_cast<int>(deadline.remaining().count());
        if (budget == 0)
            return Error{ErrorCode::Timeout, "transport deadline expired"};
        pollfd p = {fd, events, 0};
        const int rc = ::poll(&p, 1, budget);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return Error{ErrorCode::Io, std::strerror(errno)};
        }
        if (rc == 0)
            return Error{ErrorCode::Timeout, "transport deadline expired"};
        if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
            // Readable-with-hangup still delivers buffered bytes.
            if (!(p.revents & POLLIN) || !(events & POLLIN))
                return Error{ErrorCode::Io, "connection lost"};
        }
        return {};
    }
}

/** Finish a (possibly in-progress) non-blocking connect on @p fd. */
Result<TransportPtr>
finishConnect(int fd, int rc, const std::string &what,
              const Deadline &deadline)
{
    if (rc != 0 && errno == EINPROGRESS) {
        auto ready = waitReady(fd, POLLOUT, deadline);
        if (!ready.ok()) {
            ::close(fd);
            return ready.error();
        }
        int soErr = 0;
        socklen_t len = sizeof(soErr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soErr, &len);
        if (soErr != 0) {
            ::close(fd);
            return Error{ErrorCode::Io,
                         strFormat("connect %s: %s", what.c_str(),
                                   std::strerror(soErr))};
        }
    } else if (rc != 0) {
        const int err = errno;
        ::close(fd);
        return Error{ErrorCode::Io, strFormat("connect %s: %s",
                                              what.c_str(),
                                              std::strerror(err))};
    }
    return TransportPtr(new SocketTransport(fd, /*owned=*/true));
}

} // namespace

std::chrono::milliseconds
Deadline::remaining() const
{
    if (budget_.count() <= 0)
        return std::chrono::milliseconds{-1}; // block forever
    const auto spent =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            clock_.now() - start_);
    const auto left = budget_ - spent;
    return left.count() > 0 ? left : std::chrono::milliseconds{0};
}

Result<void>
SocketTransport::send(std::string_view bytes,
                      std::chrono::milliseconds deadline)
{
    if (fd_ < 0)
        return Error{ErrorCode::Io, "transport is closed"};
    const Deadline budget(deadline);
    std::size_t off = 0;
    while (off < bytes.size()) {
        auto ready = waitReady(fd_, POLLOUT, budget);
        if (!ready.ok())
            return ready.error();
        const ssize_t n = ::send(fd_, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN
                || errno == EWOULDBLOCK) {
                continue;
            }
            return Error{ErrorCode::Io, std::strerror(errno)};
        }
        off += static_cast<std::size_t>(n);
    }
    return {};
}

Result<std::string>
SocketTransport::recv(std::chrono::milliseconds deadline)
{
    if (fd_ < 0)
        return Error{ErrorCode::Io, "transport is closed"};
    const Deadline budget(deadline);
    char chunk[4096];
    for (;;) {
        auto ready = waitReady(fd_, POLLIN, budget);
        if (!ready.ok())
            return ready.error();
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n == 0)
            return std::string(); // orderly EOF
        if (n > 0)
            return std::string(chunk, static_cast<std::size_t>(n));
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        return Error{ErrorCode::Io, std::strerror(errno)};
    }
}

void
SocketTransport::close()
{
    if (fd_ < 0)
        return;
    if (owned_)
        ::close(fd_);
    fd_ = -1;
}

Result<TransportPtr>
SocketTransport::dialTcp(const std::string &host, int port,
                         std::chrono::milliseconds deadline)
{
    const Deadline budget(deadline);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo *found = nullptr;
        const int rc =
            ::getaddrinfo(host.c_str(), nullptr, &hints, &found);
        if (rc != 0) {
            return Error{ErrorCode::InvalidArgument,
                         strFormat("cannot resolve %s: %s", host.c_str(),
                                   ::gai_strerror(rc))};
        }
        sockaddr_in resolved{};
        std::memcpy(&resolved, found->ai_addr, sizeof(resolved));
        addr.sin_addr = resolved.sin_addr;
        ::freeaddrinfo(found);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return Error{ErrorCode::Io, "socket(): out of descriptors"};
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    return finishConnect(fd, rc, strFormat("%s:%d", host.c_str(), port),
                         budget);
}

Result<TransportPtr>
SocketTransport::dialUnix(const std::string &path,
                          std::chrono::milliseconds deadline)
{
    const Deadline budget(deadline);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return Error{ErrorCode::Io, "socket(): out of descriptors"};
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return Error{ErrorCode::InvalidArgument,
                     "unix socket path too long"};
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
    return finishConnect(fd, rc, "unix:" + path, budget);
}

Result<Frame>
readFrame(Transport &transport, std::string &buf, const Deadline &deadline)
{
    for (;;) {
        std::size_t consumed = 0;
        auto parsed = parseFrame(buf, consumed);
        if (parsed.ok()) {
            buf.erase(0, consumed);
            return parsed;
        }
        if (parsed.error().code != ErrorCode::Truncated)
            return parsed;
        const auto budget = deadline.remaining();
        if (budget.count() == 0)
            return Error{ErrorCode::Timeout, "response deadline expired"};
        auto got = transport.recv(budget);
        if (!got.ok())
            return got.error();
        if (got.value().empty())
            return Error{ErrorCode::Io, "peer hung up mid-frame"};
        buf.append(got.value());
    }
}

} // namespace bvf::server
