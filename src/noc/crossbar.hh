/**
 * @file
 * SM <-> L2 crossbar interconnect.
 *
 * Two unidirectional crossbars connect every SM to every L2 bank: a
 * request network (SM output ports arbitrating for bank input ports)
 * and a reply network (bank outputs to SM inputs). Each physical link
 * direction per endpoint pair is a channel; consecutive flits on a
 * channel are what toggle the wires, so channels are the unit of
 * toggle accounting (via AccessSink::onNocFlit).
 *
 * Arbitration is per destination port, round-robin among contending
 * sources, one flit per cycle per port -- a standard iSLIP-lite model,
 * detailed enough to change flit orderings under different warp
 * schedulers (the paper's Figure 21 sensitivity). Each side has at most
 * 64 ports, so the contenders for a port are one 64-bit mask.
 */

#ifndef BVF_NOC_CROSSBAR_HH
#define BVF_NOC_CROSSBAR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "noc/flit.hh"
#include "sram/access_sink.hh"

namespace bvf::noc
{

/** Statistics for the whole interconnect. */
struct NocStats
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t totalLatency = 0; //!< sum of packet transit cycles
};

/**
 * The two-sided crossbar. Packets are injected on either side and
 * delivered to a callback after traversal.
 */
class Crossbar
{
  public:
    using DeliverFn = std::function<void(const Packet &)>;

    /** Ports per side: a port's contenders are one 64-bit mask. */
    static constexpr int maxPorts = 64;

    /**
     * @param numSms SM-side ports, at most maxPorts
     * @param numBanks L2-side ports, at most maxPorts
     * @param sink accounting sink for per-channel flit traffic
     */
    Crossbar(int numSms, int numBanks, sram::AccessSink &sink);

    /** Inject a packet travelling SM -> bank. */
    void injectRequest(Packet pkt);

    /** Inject a packet travelling bank -> SM. */
    void injectReply(Packet pkt);

    /** Deliver callbacks (set once before simulation). */
    void setRequestHandler(DeliverFn fn) { deliverRequest_ = std::move(fn); }
    void setReplyHandler(DeliverFn fn) { deliverReply_ = std::move(fn); }

    /** Advance one interconnect cycle. */
    void step(std::uint64_t cycle);

    /** Any traffic still in flight? */
    bool busy() const { return request_.queued + reply_.queued > 0; }

    const NocStats &stats() const { return stats_; }

    /** Stable channel id for a request-network link SM->bank. */
    int requestChannel(int sm, int bank) const;

    /** Stable channel id for a reply-network link bank->SM. */
    int replyChannel(int bank, int sm) const;

    /** Total number of channels (both networks). */
    int numChannels() const { return 2 * numSms_ * numBanks_; }

  private:
    struct InFlight
    {
        Packet pkt;
        int flitsSent = 0;
    };

    /** One side of the crossbar (request or reply network). */
    struct Network
    {
        // Per source port: queue of packets awaiting transmission.
        std::vector<std::deque<InFlight>> sourceQueues;
        // Per destination port: bit s is set while source s's head
        // packet targets the port.
        std::vector<std::uint64_t> contenders;
        // Per destination port: round-robin pointer over sources.
        std::vector<int> rrPointer;
        // Packets in sourceQueues. With none, a step sends no flit and
        // moves no rrPointer, so it can be skipped.
        int queued = 0;
    };

    /** Queue @p pkt at source @p src of @p net, bound for port @p dst. */
    static void enqueue(Network &net, int src, int dst, Packet pkt);

    void stepNetwork(Network &net, bool isRequest, std::uint64_t cycle);

    int numSms_;
    int numBanks_;
    sram::AccessSink &sink_;
    Network request_;
    Network reply_;
    DeliverFn deliverRequest_;
    DeliverFn deliverReply_;
    NocStats stats_;
};

} // namespace bvf::noc

#endif // BVF_NOC_CROSSBAR_HH
