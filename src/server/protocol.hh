/**
 * @file
 * bvfd wire protocol: CRC32-framed, length-prefixed binary messages.
 *
 * A connection carries a stream of frames in either direction. Every
 * frame is:
 *
 *   magic   "BVFP"                       4 bytes
 *   version u8   (= kProtocolVersion)    1 byte
 *   type    u8   (MsgType)               1 byte
 *   flags   u16  (reserved, must be 0)   2 bytes
 *   length  u32  payload byte count      4 bytes
 *   crc     u32  CRC-32 of the 12 header
 *                bytes above + payload   4 bytes
 *   payload length bytes
 *
 * All integers little-endian; doubles are IEEE-754 bit patterns in a
 * u64, so energies survive the wire bit-identically. The CRC makes a
 * torn or corrupted stream detectable before any request is executed;
 * a length above kMaxPayload is rejected without buffering (a 4 GB
 * length field must not allocate 4 GB); an unknown version is refused
 * as Unsupported so old clients fail loudly against new daemons.
 *
 * Requests are answered *in order* per connection: a client may write a
 * whole batch of requests back to back and read the same number of
 * responses. The server evaluates the batch concurrently but responds
 * in request order (see server.hh).
 *
 * Each payload struct writes its layout once, as a field list that
 * both encode() and decode() walk (WireMessage). kMessageTable lists
 * every message type; names, the known-type check, metrics slots and
 * request dispatch all derive from it. Adding a message is one table
 * row plus its structs' field lists.
 */

#ifndef BVF_SERVER_PROTOCOL_HH
#define BVF_SERVER_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "analysis/verifier.hh"
#include "coder/scenario.hh"
#include "common/logging.hh"
#include "common/result.hh"
#include "core/eval_config.hh"

namespace bvf::server
{

constexpr std::uint8_t kProtocolVersion = 1;

/** Frame header byte count (magic through crc). */
constexpr std::size_t kHeaderBytes = 16;

/** Hard cap on one frame's payload (1 MiB). */
constexpr std::uint32_t kMaxPayload = 1u << 20;

/** Cap on one request's word vector (fits kMaxPayload with headroom). */
constexpr std::uint32_t kMaxWords = kMaxPayload / 8 - 16;

/** Cap on strings travelling in requests (app abbreviations, errors). */
constexpr std::uint32_t kMaxString = 4096;

/** Frame types. Requests have the high bit clear, responses set. */
enum class MsgType : std::uint8_t
{
    PingRequest = 0x01,
    EvalCoderRequest = 0x02,
    BitDensityRequest = 0x03,
    ChipEnergyRequest = 0x04,
    StaticQueryRequest = 0x05,
    StaticAdviceRequest = 0x06,
    SubmitKernelRequest = 0x07,
    EvalSubmittedRequest = 0x08,

    PingResponse = 0x81,
    EvalCoderResponse = 0x82,
    BitDensityResponse = 0x83,
    ChipEnergyResponse = 0x84,
    StaticQueryResponse = 0x85,
    StaticAdviceResponse = 0x86,
    SubmitKernelResponse = 0x87,
    EvalSubmittedResponse = 0x88,
    ErrorResponse = 0xff,
};

/** Display name, e.g. "eval-coder-request". */
std::string msgTypeName(MsgType type);

/** Is @p raw a defined MsgType value? */
bool msgTypeKnown(std::uint8_t raw);

/** One decoded frame. */
struct Frame
{
    MsgType type = MsgType::ErrorResponse;
    std::string payload;
};

/** Serialize one frame (header + payload). */
std::string encodeFrame(MsgType type, std::string_view payload);

/**
 * Parse the first frame of @p bytes. On success @p consumed is the
 * frame's total size. ErrorCode::Truncated means "feed me more bytes";
 * every other error is a real protocol violation (bad magic or CRC,
 * oversized length, unknown version) and the connection should die.
 */
Result<Frame> parseFrame(std::string_view bytes, std::size_t &consumed);

/** Build an ErrorResponse frame from a structured error. */
Frame errorFrame(const Error &error);

/** What a server does next with one connection's buffered bytes. */
struct StreamStep
{
    enum Kind
    {
        NeedMore, //!< no whole frame buffered yet: read more bytes
        Request,  //!< frame is the next request; its bytes left buf
        HangUp,   //!< framing failed: send frame (the error) once, close
    };
    Kind kind;
    Frame frame;
};

/**
 * Server stream step: take the next request off the front of @p buf.
 * After a framing error the stream offset is unreliable, so the only
 * answer is one errorFrame() of the failure, then a hangup. bvfd's
 * connection reader and the simulated worker (sim/sim_net.hh) both
 * take their requests through this.
 */
StreamStep nextRequest(std::string &buf);

// --- Payload serialization helpers -----------------------------------
//
// A message's field list is `static void fields(auto &self, auto &io)`:
// io(x) for a number, enum, array or nested struct with its own field
// list; io.string / io.blob for strings; io.size then io.items for a
// vector; io.check for a range check, at the point the decoder makes
// it; io.end where trailing bytes are refused before later checks; and
// io.tail for an optional trailing group. A WireWriter walks it to
// encode (checks are skipped), a WireReader to decode.

/** Append-only little-endian payload builder; the encoding visitor. */
class WireWriter
{
  public:
    void putU8(std::uint8_t v);
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putF64(double v); //!< IEEE-754 bits in a u64
    void putString(std::string_view s); //!< u32 length + bytes

    /** u32 length + bytes, capped by the frame payload rather than the
     *  short-string limit (kernel bytecode rides here). */
    void putBlob(std::string_view s);

    const std::string &str() const { return buf_; }
    std::string take() { return std::move(buf_); }

    template <typename T>
    void
    operator()(const T &v)
    {
        if constexpr (std::is_enum_v<T>)
            putU8(static_cast<std::uint8_t>(v));
        else if constexpr (std::is_same_v<T, std::uint8_t>)
            putU8(v);
        else if constexpr (std::is_same_v<T, std::uint32_t>)
            putU32(v);
        else if constexpr (std::is_same_v<T, std::uint64_t>)
            putU64(v);
        else if constexpr (std::is_same_v<T, double>)
            putF64(v);
        else if constexpr (requires { v.size(); })
            for (const auto &e : v)
                (*this)(e);
        else
            T::fields(v, *this);
    }

    void string(std::string_view s, std::uint32_t) { putString(s); }
    void blob(std::string_view s) { putBlob(s); }

    template <typename T>
    std::uint32_t
    size(const std::vector<T> &v)
    {
        const auto count = static_cast<std::uint32_t>(v.size());
        putU32(count);
        return count;
    }

    template <typename T>
    void
    items(const std::vector<T> &v, std::uint32_t, std::size_t = 0)
    {
        for (const T &e : v)
            (*this)(e);
    }

    bool tail(bool present) { return present; }
    void end() {}

    template <typename... Args>
    void check(bool, ErrorCode, const char *, const Args &...)
    {}

  private:
    std::string buf_;
};

/**
 * Cursor over a payload; every get fails softly at the end. As the
 * decoding visitor its first failure sticks: later reads and checks
 * are no-ops, so a decode reports exactly the first problem.
 */
class WireReader
{
  public:
    explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

    bool getU8(std::uint8_t &v);
    bool getU16(std::uint16_t &v);
    bool getU32(std::uint32_t &v);
    bool getU64(std::uint64_t &v);
    bool getF64(double &v);
    bool getString(std::string &v, std::uint32_t maxLen);

    /** Every byte consumed? (trailing garbage is a decode error) */
    bool exhausted() const { return pos_ == bytes_.size(); }

    /**
     * Bytes not yet consumed. Decoders check claimed element counts
     * against this *before* allocating, so a short hostile payload
     * cannot drive a large allocation off its count field.
     */
    std::size_t remaining() const { return bytes_.size() - pos_; }

    /** Success, or the first decode failure. */
    const Result<void> &status() const { return status_; }

    template <typename T>
    void
    operator()(T &v)
    {
        if (!status_.ok())
            return;
        bool read = true;
        if constexpr (std::is_enum_v<T>) {
            std::uint8_t raw = 0;
            read = getU8(raw);
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, std::uint8_t>) {
            read = getU8(v);
        } else if constexpr (std::is_same_v<T, std::uint32_t>) {
            read = getU32(v);
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            read = getU64(v);
        } else if constexpr (std::is_same_v<T, double>) {
            read = getF64(v);
        } else if constexpr (requires { v.size(); }) {
            for (auto &e : v)
                (*this)(e);
        } else {
            T::fields(v, *this);
        }
        if (!read)
            truncated();
    }

    void
    string(std::string &s, std::uint32_t maxLen)
    {
        if (status_.ok() && !getString(s, maxLen))
            truncated();
    }

    void blob(std::string &s) { string(s, kMaxPayload); }

    template <typename T>
    std::uint32_t
    size(const std::vector<T> &)
    {
        std::uint32_t count = 0;
        (*this)(count);
        return count;
    }

    /**
     * Read @p count items into @p v. A count that needs more than the
     * remaining bytes at @p minBytes per item is Truncated before the
     * vector is sized: no allocation off a hostile count.
     */
    template <typename T>
    void
    items(std::vector<T> &v, std::uint32_t count, std::size_t minBytes = 0)
    {
        if (!status_.ok())
            return;
        if (std::uint64_t{count} * minBytes > remaining())
            return truncated();
        v.resize(count);
        for (T &e : v)
            (*this)(e);
    }

    /** Is an optional trailing group present? Sets @p present if so. */
    bool
    tail(std::uint8_t &present)
    {
        if (!tail(true))
            return false;
        present = 1;
        return true;
    }

    bool tail(bool) { return status_.ok() && !exhausted(); }

    void
    end()
    {
        if (status_.ok() && !exhausted())
            status_ = Error{ErrorCode::Corrupt, "payload has trailing bytes"};
    }

    /** Fail with @p code and the formatted message unless @p ok. */
    template <typename... Args>
    void
    check(bool ok, ErrorCode code, const char *fmt, const Args &...args)
    {
        if (ok || !status_.ok())
            return;
        if constexpr (sizeof...(Args) == 0)
            status_ = Error{code, fmt};
        else
            status_ = Error{code, strFormat(fmt, args...)};
    }

  private:
    void
    truncated()
    {
        status_ = Error{ErrorCode::Truncated, "payload ends mid-field"};
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
    Result<void> status_;
};

/**
 * Base of every payload struct: encode() and decode() both walk the
 * struct's one field list. decode() also refuses trailing bytes.
 */
template <typename Self>
struct WireMessage
{
    std::string
    encode() const
    {
        WireWriter w;
        Self::fields(static_cast<const Self &>(*this), w);
        return w.take();
    }

    static Result<Self>
    decode(std::string_view payload)
    {
        WireReader r(payload);
        Self message;
        Self::fields(message, r);
        r.end();
        if (!r.status().ok())
            return r.status().error();
        return message;
    }
};

// --- Range checks shared by the request field lists ---------------------

/**
 * The machine fields of AppQuery, EvalSubmittedRequest and (arch and
 * pivot only) EvalCoderRequest: architecture, scheduler, VS pivot and
 * the dynamic-ISA flag.
 */
template <typename IO, typename Request>
void
checkMachine(IO &io, const Request &q)
{
    constexpr auto bad = ErrorCode::InvalidArgument;
    io.check(q.arch < core::kArchSpellings.size(), bad,
             "architecture index %u out of range", q.arch);
    if constexpr (requires { q.sched; }) {
        io.check(q.sched < core::kSchedSpellings.size(), bad,
                 "scheduler index %u out of range", q.sched);
    }
    io.check(q.vsPivot <= core::EvalConfig::maxPivot, bad,
             "VS pivot %u out of range [0, %d]", q.vsPivot,
             core::EvalConfig::maxPivot);
    if constexpr (requires { q.dynamicIsa; }) {
        io.check(q.dynamicIsa <= 1, bad,
                 "dynamic-ISA flag %u is not 0 or 1", q.dynamicIsa);
    }
}

/**
 * The pricing fields ChipEnergyRequest and EvalSubmittedRequest share;
 * the bitline bound is the one every front end enforces.
 */
template <typename IO, typename Request>
void
checkPricing(IO &io, const Request &r)
{
    constexpr auto bad = ErrorCode::InvalidArgument;
    io.check(r.node < core::kNodeSpellings.size(), bad,
             "technology node index %u out of range", r.node);
    io.check(r.pstate < core::kPStateSpellings.size(), bad,
             "P-state index %u out of range", r.pstate);
    io.check(r.cell < core::kCellSpellings.size(), bad,
             "cell kind index %u out of range", r.cell);
    io.check(r.ecc <= 1, bad, "ECC flag %u is not 0 or 1", r.ecc);
    io.check(r.cellsBitline >= 1
                 && r.cellsBitline <= core::Pricing::maxCellsPerBitline,
             bad, "cells per bitline %u out of range [1, %d]",
             r.cellsBitline, core::Pricing::maxCellsPerBitline);
}

// --- Messages ---------------------------------------------------------

/** Number of per-scenario slots every response table carries. */
constexpr std::size_t kScenarioSlots =
    static_cast<std::size_t>(coder::numScenarios);

/** Ping: echo test and liveness probe. */
struct Ping : WireMessage<Ping>
{
    std::uint64_t nonce = 0;

    static void
    fields(auto &self, auto &io)
    {
        io(self.nonce);
    }
};

/** Which coder an EvalCoder request exercises. */
enum class CoderKind : std::uint8_t
{
    Identity = 0,
    Nv = 1,  //!< narrow-value XNOR coder (32-bit words)
    Vs = 2,  //!< value-similarity block coder (32-bit words)
    Isa = 3, //!< ISA-preference mask coder (64-bit encodings)
};

/**
 * Evaluate one coder over raw words. Words travel as u64; the 32-bit
 * coders (identity/nv/vs) treat each as two little-endian 32-bit words,
 * the ISA coder consumes them whole.
 */
struct EvalCoderRequest : WireMessage<EvalCoderRequest>
{
    CoderKind coder = CoderKind::Identity;
    std::uint8_t arch = 3;    //!< isa::GpuArch index (isa coder)
    std::uint32_t vsPivot = 0; //!< VS pivot lane (vs coder)
    std::uint64_t isaMask = 0; //!< 0 = Table 2 mask of arch
    std::vector<std::uint64_t> words;

    static void
    fields(auto &self, auto &io)
    {
        io(self.coder);
        io(self.arch);
        io(self.vsPivot);
        io(self.isaMask);
        const std::uint32_t count = io.size(self.words);
        io.check(self.coder <= CoderKind::Isa, ErrorCode::InvalidArgument,
                 "unknown coder kind %u",
                 static_cast<unsigned>(self.coder));
        checkMachine(io, self);
        io.check(count <= kMaxWords, ErrorCode::InvalidArgument,
                 "%u words exceed the per-request cap of %u", count,
                 kMaxWords);
        io.items(self.words, count, 8);
    }
};

/** Bit statistics before/after encoding, plus the encoded words. */
struct EvalCoderResponse : WireMessage<EvalCoderResponse>
{
    std::uint64_t totalBits = 0;
    std::uint64_t onesBefore = 0;
    std::uint64_t onesAfter = 0;
    std::vector<std::uint64_t> encoded;

    static void
    fields(auto &self, auto &io)
    {
        io(self.totalBits);
        io(self.onesBefore);
        io(self.onesAfter);
        const std::uint32_t count = io.size(self.encoded);
        io.check(count <= kMaxWords, ErrorCode::Corrupt,
                 "encoded word count exceeds cap");
        io.items(self.encoded, count, 8);
    }
};

/** App-keyed request core shared by density/energy/static queries. */
struct AppQuery
{
    std::string abbr;          //!< suite abbreviation, e.g. "KMN"
    std::uint8_t arch = 3;     //!< isa::GpuArch index
    std::uint8_t sched = 0;    //!< gpu::SchedulerPolicy index

    /**
     * VS register pivot lane of the run. Range-checked for every
     * request, but it never reaches a StaticQuery answer: the
     * predictor's VS register bound holds for every pivot.
     */
    std::uint32_t vsPivot = 21;
    std::uint8_t dynamicIsa = 0;

    static void
    fields(auto &self, auto &io)
    {
        io.string(self.abbr, 64);
        io(self.arch);
        io(self.sched);
        io(self.vsPivot);
        io(self.dynamicIsa);
    }
};

/** AppQuery's range checks, made once the whole payload is read. */
template <typename IO>
void
checkAppQuery(IO &io, const AppQuery &q)
{
    io.check(!q.abbr.empty(), ErrorCode::InvalidArgument,
             "empty application abbreviation");
    checkMachine(io, q);
}

/** A request that carries an AppQuery and nothing else. */
template <typename Self>
struct AppRequest : WireMessage<Self>
{
    AppQuery query;

    static void
    fields(auto &self, auto &io)
    {
        io(self.query);
        io.end();
        checkAppQuery(io, self.query);
    }
};

/** Simulate an app; report per-unit encoded bit-1 density. */
struct BitDensityRequest : AppRequest<BitDensityRequest>
{};

struct BitDensityResponse : WireMessage<BitDensityResponse>
{
    struct Unit
    {
        std::uint8_t unit = 0; //!< coder::UnitId index
        std::array<double, kScenarioSlots> density{};

        static void
        fields(auto &self, auto &io)
        {
            io(self.unit);
            io(self.density);
        }
    };

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<Unit> units;
    std::array<double, kScenarioSlots> nocDensity{};

    static void
    fields(auto &self, auto &io)
    {
        io(self.cycles);
        io(self.instructions);
        const std::uint32_t count = io.size(self.units);
        io.check(count <= 64, ErrorCode::Corrupt, "unit count exceeds cap");
        io.items(self.units, count);
        io(self.nocDensity);
    }
};

/** Simulate an app and price it: per-scenario chip energy. */
struct ChipEnergyRequest : WireMessage<ChipEnergyRequest>
{
    AppQuery query;
    std::uint8_t node = 0;   //!< 0 = 28nm, 1 = 40nm
    std::uint8_t pstate = 0; //!< 0 = 700MHz, 1 = 500MHz, 2 = 300MHz
    std::uint8_t cell = 0;   //!< circuit::CellKind index
    std::uint8_t ecc = 0;
    std::uint32_t cellsBitline = 128;

    static void
    fields(auto &self, auto &io)
    {
        io(self.query);
        io(self.node);
        io(self.pstate);
        io(self.cell);
        io(self.ecc);
        io(self.cellsBitline);
        io.end();
        checkAppQuery(io, self.query);
        checkPricing(io, self);
    }
};

struct ChipEnergyResponse : WireMessage<ChipEnergyResponse>
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::array<double, kScenarioSlots> chipEnergy{};
    std::array<double, kScenarioSlots> bvfUnitsEnergy{};

    static void
    fields(auto &self, auto &io)
    {
        io(self.cycles);
        io(self.instructions);
        io(self.chipEnergy);
        io(self.bvfUnitsEnergy);
    }
};

/** Static predictor query: proven density bounds, no simulation. */
struct StaticQueryRequest : AppRequest<StaticQueryRequest>
{};

struct StaticQueryResponse : WireMessage<StaticQueryResponse>
{
    struct Bound
    {
        double lo = 0.0;
        double hi = 1.0;
        std::uint8_t any = 0;

        static void
        fields(auto &self, auto &io)
        {
            io(self.lo);
            io(self.hi);
            io(self.any);
        }
    };
    struct Unit
    {
        std::uint8_t unit = 0; //!< coder::UnitId index
        std::array<Bound, kScenarioSlots> bounds{};

        static void
        fields(auto &self, auto &io)
        {
            io(self.unit);
            io(self.bounds);
        }
    };

    std::uint8_t bestStatic = 0; //!< coder::Scenario index
    std::vector<Unit> units;
    std::array<Bound, kScenarioSlots> noc{};

    static void
    fields(auto &self, auto &io)
    {
        io(self.bestStatic);
        const std::uint32_t count = io.size(self.units);
        io.check(count <= 64, ErrorCode::Corrupt, "unit count exceeds cap");
        io.items(self.units, count);
        io(self.noc);
    }
};

/**
 * Static advisor query: derive the coder wiring itself (VS register
 * pivot, specialized ISA mask, per-unit NV-vs-VS picks) from the
 * lane-aware analysis, without simulating. Only abbr and arch of the
 * query matter; pivot/mask are outputs here, not inputs.
 */
struct StaticAdviceRequest : AppRequest<StaticAdviceRequest>
{};

struct StaticAdviceResponse : WireMessage<StaticAdviceResponse>
{
    using Bound = StaticQueryResponse::Bound;

    struct UnitPick
    {
        std::uint8_t unit = 0;   //!< coder::UnitId index
        std::uint8_t pick = 0;   //!< coder::Scenario index (NvOnly/VsOnly)
        std::uint8_t proven = 0; //!< winner's interval clears the loser's
        Bound nv;
        Bound vs;

        static void
        fields(auto &self, auto &io)
        {
            io(self.unit);
            io(self.pick);
            io(self.proven);
            io(self.nv);
            io(self.vs);
        }
    };

    // VS register pivot ranking.
    std::uint8_t bestPivot = 21;
    double provenSlack = 1.0;
    std::uint32_t affineSources = 0;
    std::uint32_t totalSources = 0;
    std::array<Bound, 32> pivotBounds{};
    std::array<double, 32> pivotScores{};

    // ISA mask specialization; the density bounds' any flag mirrors
    // IsaAdvice::anyInstruction.
    std::uint64_t defaultMask = 0;
    std::uint64_t specializedMask = 0;
    Bound defaultDensity{};
    Bound specializedDensity{};

    std::uint8_t bestScenario = 0; //!< coder::Scenario index
    std::vector<UnitPick> unitPicks;

    static void
    fields(auto &self, auto &io)
    {
        io(self.bestPivot);
        io(self.provenSlack);
        io(self.affineSources);
        io(self.totalSources);
        io.check(self.bestPivot < 32, ErrorCode::Corrupt,
                 "pivot lane out of range");
        io(self.pivotBounds);
        io(self.pivotScores);
        io(self.defaultMask);
        io(self.specializedMask);
        io(self.defaultDensity);
        io(self.specializedDensity);
        io(self.bestScenario);
        const std::uint32_t count = io.size(self.unitPicks);
        io.check(count <= 64, ErrorCode::Corrupt,
                 "unit pick count exceeds cap");
        io.items(self.unitPicks, count);
    }
};

/** Caps for the kernel-submission messages. */
constexpr std::uint32_t kMaxDigestBytes = 64;
constexpr std::uint32_t kMaxWireRejections = 256;

/**
 * Submit an untrusted kernel -- a BVFK bytecode frame (isa/bytecode.hh)
 * -- for static admission. The daemon decodes and verifies it; an
 * admitted kernel is stored under a content digest for later
 * EvalSubmitted requests and never reaches an SM without one. A
 * *rejection* is a successful response carrying the machine-readable
 * reasons; only undecodable bytecode or a full kernel store comes back
 * as an ErrorResponse.
 */
struct SubmitKernelRequest : WireMessage<SubmitKernelRequest>
{
    std::string bytecode;

    /**
     * Optimize-on-submit: after admission, run the certificate-guided
     * optimizer and store the validated optimized program alongside
     * the original. Encoded as an optional trailing byte -- absent
     * (old clients) means 0, so the wire format is fully backward
     * compatible in both directions.
     */
    std::uint8_t optimize = 0;

    static void
    fields(auto &self, auto &io)
    {
        io.blob(self.bytecode);
        if (io.tail(self.optimize != 0)) {
            io(self.optimize);
            io.check(self.optimize <= 1, ErrorCode::Corrupt,
                     "optimize flag is not boolean");
            io.end();
        }
        io.check(!self.bytecode.empty(), ErrorCode::InvalidArgument,
                 "empty kernel bytecode");
    }
};

struct SubmitKernelResponse : WireMessage<SubmitKernelResponse>
{
    struct WireRejection
    {
        std::uint8_t reason = 0; //!< analysis::RejectReason index
        std::uint32_t pc = 0;
        std::string message;

        static void
        fields(auto &self, auto &io)
        {
            io(self.reason);
            io(self.pc);
            io.string(self.message, kMaxString);
            io.check(self.reason < analysis::kNumRejectReasons,
                     ErrorCode::InvalidArgument,
                     "unknown rejection reason %u", self.reason);
        }
    };

    std::uint8_t admitted = 0;
    std::string digest;          //!< handle for EvalSubmitted ("" if rejected)
    std::uint64_t tripBound = 0; //!< proven per-warp issue bound
    std::uint32_t globalLo = 0;  //!< proven global footprint hull [lo, hi]
    std::uint32_t globalHi = 0;

    /** First kMaxWireRejections rejections, sorted by pc. */
    std::vector<WireRejection> rejections;

    /**
     * Optimize-on-submit tail, present on the wire only when set (the
     * daemon sets it iff the request carried the optimize flag).
     * `optimized` says whether a validated optimized program was
     * stored; its digest then names a first-class kernel usable with
     * EvalSubmitted. optimized=0 with the tail present means the
     * optimizer fell back to the original (nothing to do, validation
     * failure, or a weaker certificate).
     */
    std::uint8_t optimizeRequested = 0;
    std::uint8_t optimized = 0;
    std::string optimizedDigest;

    static void
    fields(auto &self, auto &io)
    {
        constexpr auto corrupt = ErrorCode::Corrupt;
        io(self.admitted);
        io.string(self.digest, kMaxDigestBytes);
        io(self.tripBound);
        io(self.globalLo);
        io(self.globalHi);
        const std::uint32_t count = io.size(self.rejections);
        io.check(self.admitted <= 1, corrupt, "admitted flag is not boolean");
        io.check(count <= kMaxWireRejections, corrupt,
                 "rejection count exceeds cap");
        // Each record needs at least its fixed 9-byte prefix.
        io.items(self.rejections, count, 9);
        if (io.tail(self.optimizeRequested)) {
            io(self.optimized);
            io.string(self.optimizedDigest, kMaxDigestBytes);
            io.end();
            io.check(self.optimized <= 1, corrupt,
                     "optimized flag is not boolean");
            io.check(!self.optimized || !self.optimizedDigest.empty(),
                     corrupt, "optimized response without a digest");
            io.check(self.optimized || self.optimizedDigest.empty(),
                     corrupt, "fallback response carries a digest");
            io.check(!self.optimized || self.admitted, corrupt,
                     "optimized response without admission");
        }
        io.check(!self.admitted || self.rejections.empty(), corrupt,
                 "admitted response carries rejections");
    }
};

/** Simulate and price a previously admitted kernel by digest. */
struct EvalSubmittedRequest : WireMessage<EvalSubmittedRequest>
{
    std::string digest;
    std::uint8_t arch = 3;     //!< isa::GpuArch index
    std::uint8_t sched = 0;    //!< gpu::SchedulerPolicy index
    std::uint32_t vsPivot = 21;
    std::uint8_t dynamicIsa = 0;
    std::uint8_t node = 0;     //!< 0 = 28nm, 1 = 40nm
    std::uint8_t pstate = 0;   //!< 0 = 700MHz, 1 = 500MHz, 2 = 300MHz
    std::uint8_t cell = 0;     //!< circuit::CellKind index
    std::uint8_t ecc = 0;
    std::uint32_t cellsBitline = 128;

    static void
    fields(auto &self, auto &io)
    {
        io.string(self.digest, kMaxDigestBytes);
        io(self.arch);
        io(self.sched);
        io(self.vsPivot);
        io(self.dynamicIsa);
        io(self.node);
        io(self.pstate);
        io(self.cell);
        io(self.ecc);
        io(self.cellsBitline);
        io.end();
        io.check(!self.digest.empty(), ErrorCode::InvalidArgument,
                 "empty kernel digest");
        checkMachine(io, self);
        checkPricing(io, self);
    }
};

struct EvalSubmittedResponse : WireMessage<EvalSubmittedResponse>
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    /** Contract-probe observations (certificate enforcement). */
    std::uint64_t maxWarpIssue = 0;
    std::uint64_t checkedAccesses = 0;

    std::array<double, kScenarioSlots> chipEnergy{};
    std::array<double, kScenarioSlots> bvfUnitsEnergy{};

    static void
    fields(auto &self, auto &io)
    {
        io(self.cycles);
        io(self.instructions);
        io(self.maxWarpIssue);
        io(self.checkedAccesses);
        io(self.chipEnergy);
        io(self.bvfUnitsEnergy);
    }
};

/** Structured failure for one request. */
struct WireError : WireMessage<WireError>
{
    std::uint8_t code = 0; //!< ErrorCode index
    std::string message;

    static void
    fields(auto &self, auto &io)
    {
        io(self.code);
        io.string(self.message, kMaxString);
    }
};

// --- The message table ------------------------------------------------

/** One message family: its types and its metrics label. */
struct MessageKind
{
    const char *label; //!< "eval_coder"; names derive from it
    MsgType request;   //!< ErrorResponse for the error family
    MsgType response;
};

/** A table row: a MessageKind and the structs of its payloads. */
template <typename Req, typename Resp>
struct MessageRow : MessageKind
{
    using Request = Req; //!< void for the error family
    using Response = Resp;
};

/**
 * Every message type, one row per request/response family. A row's
 * position is its metrics slot; a request's row names the response
 * type that answers it.
 */
inline constexpr std::tuple kMessageTable{
    MessageRow<Ping, Ping>{
        {"ping", MsgType::PingRequest, MsgType::PingResponse}},
    MessageRow<EvalCoderRequest, EvalCoderResponse>{
        {"eval_coder", MsgType::EvalCoderRequest,
         MsgType::EvalCoderResponse}},
    MessageRow<BitDensityRequest, BitDensityResponse>{
        {"bit_density", MsgType::BitDensityRequest,
         MsgType::BitDensityResponse}},
    MessageRow<ChipEnergyRequest, ChipEnergyResponse>{
        {"chip_energy", MsgType::ChipEnergyRequest,
         MsgType::ChipEnergyResponse}},
    MessageRow<StaticQueryRequest, StaticQueryResponse>{
        {"static_query", MsgType::StaticQueryRequest,
         MsgType::StaticQueryResponse}},
    MessageRow<StaticAdviceRequest, StaticAdviceResponse>{
        {"static_advice", MsgType::StaticAdviceRequest,
         MsgType::StaticAdviceResponse}},
    MessageRow<SubmitKernelRequest, SubmitKernelResponse>{
        {"submit_kernel", MsgType::SubmitKernelRequest,
         MsgType::SubmitKernelResponse}},
    MessageRow<EvalSubmittedRequest, EvalSubmittedResponse>{
        {"eval_submitted", MsgType::EvalSubmittedRequest,
         MsgType::EvalSubmittedResponse}},
    MessageRow<void, WireError>{
        {"error", MsgType::ErrorResponse, MsgType::ErrorResponse}},
};

/** The kMessageTable row whose request struct is @p Req. */
template <typename Req, std::size_t I = 0>
constexpr const auto &
requestRow()
{
    using Row =
        std::tuple_element_t<I, std::decay_t<decltype(kMessageTable)>>;
    if constexpr (std::is_same_v<typename Row::Request, Req>)
        return std::get<I>(kMessageTable);
    else
        return requestRow<Req, I + 1>();
}

/** The table's rows without their structs, for lookups at run time. */
inline constexpr auto kMessageKinds = std::apply(
    [](const auto &...row) {
        return std::array<MessageKind, sizeof...(row)>{row...};
    },
    kMessageTable);

/** Position of @p type's row in the table, or -1 if it has none. */
constexpr int
messageSlot(MsgType type)
{
    for (std::size_t i = 0; i < kMessageKinds.size(); ++i) {
        if (kMessageKinds[i].request == type
            || kMessageKinds[i].response == type)
            return static_cast<int>(i);
    }
    return -1;
}


// --- The evaluation config on the wire -----------------------------------

/** Position of @p pstate in core::kPStateSpellings, its wire index. */
std::uint8_t pstateIndex(const gpu::PState &pstate);

/**
 * The config a decoded request asks for. An enumerated knob travels as
 * its enum's value, a P-state as pstateIndex(); every decoder
 * range-checks against the spelling tables first. Knobs the message
 * lacks keep EvalConfig's defaults.
 */
template <typename Wire>
core::EvalConfig
evalConfigOf(const Wire &w)
{
    core::EvalConfig c;
    if constexpr (requires { w.query; })
        c = evalConfigOf(w.query);
    if constexpr (requires { w.arch; })
        c.arch = static_cast<isa::GpuArch>(w.arch);
    if constexpr (requires { w.sched; })
        c.sched = static_cast<gpu::SchedulerPolicy>(w.sched);
    if constexpr (requires { w.vsPivot; })
        c.pivot = static_cast<int>(w.vsPivot);
    if constexpr (requires { w.dynamicIsa; })
        c.dynamicIsa = w.dynamicIsa != 0;
    if constexpr (requires { w.node; }) {
        c.node = static_cast<circuit::TechNode>(w.node);
        c.pstate = core::kPStateSpellings[w.pstate].value();
        c.cell = static_cast<circuit::CellKind>(w.cell);
        c.ecc = w.ecc != 0;
        c.cellsBitline = static_cast<int>(w.cellsBitline);
    }
    return c;
}

/**
 * Write @p c's wire indices into a request: the inverse of
 * evalConfigOf(). abbr, digest and words are left alone.
 */
template <typename Wire>
void
setEvalConfig(Wire &w, const core::EvalConfig &c)
{
    if constexpr (requires { w.query; })
        setEvalConfig(w.query, c);
    if constexpr (requires { w.arch; })
        w.arch = static_cast<std::uint8_t>(c.arch);
    if constexpr (requires { w.sched; })
        w.sched = static_cast<std::uint8_t>(c.sched);
    if constexpr (requires { w.vsPivot; })
        w.vsPivot = static_cast<std::uint32_t>(c.pivot);
    if constexpr (requires { w.dynamicIsa; })
        w.dynamicIsa = c.dynamicIsa ? 1 : 0;
    if constexpr (requires { w.node; }) {
        w.node = static_cast<std::uint8_t>(c.node);
        w.pstate = pstateIndex(c.pstate);
        w.cell = static_cast<std::uint8_t>(c.cell);
        w.ecc = c.ecc ? 1 : 0;
        w.cellsBitline = static_cast<std::uint32_t>(c.cellsBitline);
    }
}

/**
 * Whether a request may be evaluated under @p config. A request runs
 * the config's full mapping, derived read disturb included, armed with
 * the default fault seed just as a bvf_sim run without --fault-seed.
 * Past a cell's reliability limit that disturb flips nearly every read
 * 0, which makes the run a fault study whose numbers hang on a seed no
 * request carries: such a config is refused with InvalidArgument. The
 * handler and the fleet campaign both apply this one rule.
 */
Result<void> checkServable(const core::EvalConfig &config);

} // namespace bvf::server

#endif // BVF_SERVER_PROTOCOL_HH
