/**
 * @file
 * Byte-stream transport seam.
 *
 * Every endpoint of the wire protocol moves its bytes through
 * Transport: bvfd's per-connection reader and writer (one non-owning
 * SocketTransport over the accepted descriptor), the fleet
 * coordinator's WorkerClient, and bvf_client. SocketTransport is the
 * production poll()-driven implementation; the simulation harness
 * (sim/sim_net.hh) substitutes an in-memory one whose fault schedule
 * is driven from a seed, so every fault a transport can exhibit -- a
 * frame truncated inside its CRC, a duplicated response, a connection
 * reset mid-write -- is provoked without real sockets. Clients read
 * responses with readFrame(); servers take requests with
 * nextRequest() (protocol.hh).
 *
 * Semantics both implementations honour:
 *  - send() writes the whole buffer or fails; a deadline of <= 0ms
 *    means "block forever".
 *  - recv() returns at least one byte, or an empty string on orderly
 *    EOF, or an error (Timeout when the budget ran out, Io on reset).
 *  - full-duplex: one thread may sit in recv() while another send()s;
 *    implementations keep no state shared between the directions.
 */

#ifndef BVF_SERVER_TRANSPORT_HH
#define BVF_SERVER_TRANSPORT_HH

#include <chrono>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.hh"
#include "common/result.hh"
#include "server/protocol.hh"

namespace bvf::server
{

/** A time budget measured on a Clock from the moment it is made. */
class Deadline
{
  public:
    /** @p budget <= 0 never runs out. */
    explicit Deadline(std::chrono::milliseconds budget,
                      Clock &clock = systemClock())
        : clock_(clock), start_(clock.now()), budget_(budget)
    {
    }

    /** Time left: -1 ms (block forever) when endless, else >= 0. */
    std::chrono::milliseconds remaining() const;

  private:
    Clock &clock_;
    Clock::time_point start_;
    std::chrono::milliseconds budget_;
};

/** One bidirectional byte stream. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Write all of @p bytes within @p deadline (<= 0 blocks forever). */
    virtual Result<void> send(std::string_view bytes,
                              std::chrono::milliseconds deadline) = 0;

    /**
     * Read some bytes within @p deadline (<= 0 blocks forever).
     * Empty string = orderly EOF.
     */
    virtual Result<std::string>
    recv(std::chrono::milliseconds deadline) = 0;

    /** Tear the stream down; further send/recv fail. Idempotent. */
    virtual void close() = 0;
};

using TransportPtr = std::unique_ptr<Transport>;

/** poll()-driven Transport over a connected socket descriptor. */
class SocketTransport final : public Transport
{
  public:
    /**
     * Wrap @p fd. When @p owned, close() (and the destructor) close
     * the descriptor; a non-owning wrapper leaves lifetime with the
     * caller (the server's connection loop owns its fd elsewhere).
     */
    explicit SocketTransport(int fd, bool owned = true)
        : fd_(fd), owned_(owned)
    {
    }

    ~SocketTransport() override { close(); }

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    Result<void> send(std::string_view bytes,
                      std::chrono::milliseconds deadline) override;
    Result<std::string> recv(std::chrono::milliseconds deadline) override;
    void close() override;

    int fd() const { return fd_; }

    /**
     * Deadline-bounded non-blocking connect to @p host:@p port. A host
     * that is not an IPv4 dotted quad is resolved (IPv4 only).
     */
    static Result<TransportPtr>
    dialTcp(const std::string &host, int port,
            std::chrono::milliseconds deadline);

    /** Deadline-bounded connect to a Unix-domain socket at @p path. */
    static Result<TransportPtr>
    dialUnix(const std::string &path, std::chrono::milliseconds deadline);

  private:
    int fd_ = -1;
    bool owned_ = true;
};

/**
 * Client read: receive from @p transport until one whole frame parses
 * off the front of @p buf, and return it. The frame's bytes leave
 * @p buf; any bytes after it stay there. Timeout when @p deadline runs
 * out, Io when the peer hangs up mid-frame or recv() fails, and
 * parseFrame()'s error when the bytes are not a frame.
 */
Result<Frame> readFrame(Transport &transport, std::string &buf,
                        const Deadline &deadline);

} // namespace bvf::server

#endif // BVF_SERVER_TRANSPORT_HH
