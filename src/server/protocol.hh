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
 */

#ifndef BVF_SERVER_PROTOCOL_HH
#define BVF_SERVER_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "coder/scenario.hh"
#include "common/result.hh"
#include "core/eval_config.hh"

namespace bvf::server
{

constexpr std::uint8_t kProtocolVersion = 1;

/** Frame header byte count (magic through crc). */
constexpr std::size_t kHeaderBytes = 16;

/** Hard cap on one frame's payload (1 MiB). */
constexpr std::uint32_t kMaxPayload = 1u << 20;

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

// --- Payload serialization helpers -----------------------------------

/** Append-only little-endian payload builder. */
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

  private:
    std::string buf_;
};

/** Cursor over a payload; every get fails softly at the end. */
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

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// --- Messages ---------------------------------------------------------

/** Number of per-scenario slots every response table carries. */
constexpr std::size_t kScenarioSlots =
    static_cast<std::size_t>(coder::numScenarios);

/** Ping: echo test and liveness probe. */
struct Ping
{
    std::uint64_t nonce = 0;

    std::string encode() const;
    static Result<Ping> decode(std::string_view payload);
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
struct EvalCoderRequest
{
    CoderKind coder = CoderKind::Identity;
    std::uint8_t arch = 3;    //!< isa::GpuArch index (isa coder)
    std::uint32_t vsPivot = 0; //!< VS pivot lane (vs coder)
    std::uint64_t isaMask = 0; //!< 0 = Table 2 mask of arch
    std::vector<std::uint64_t> words;

    std::string encode() const;
    static Result<EvalCoderRequest> decode(std::string_view payload);
};

/** Bit statistics before/after encoding, plus the encoded words. */
struct EvalCoderResponse
{
    std::uint64_t totalBits = 0;
    std::uint64_t onesBefore = 0;
    std::uint64_t onesAfter = 0;
    std::vector<std::uint64_t> encoded;

    std::string encode() const;
    static Result<EvalCoderResponse> decode(std::string_view payload);
};

/** App-keyed request core shared by density/energy/static queries. */
struct AppQuery
{
    std::string abbr;          //!< suite abbreviation, e.g. "KMN"
    std::uint8_t arch = 3;     //!< isa::GpuArch index
    std::uint8_t sched = 0;    //!< gpu::SchedulerPolicy index
    std::uint32_t vsPivot = 21;
    std::uint8_t dynamicIsa = 0;
};

/** Simulate an app; report per-unit encoded bit-1 density. */
struct BitDensityRequest
{
    AppQuery query;

    std::string encode() const;
    static Result<BitDensityRequest> decode(std::string_view payload);
};

struct BitDensityResponse
{
    struct Unit
    {
        std::uint8_t unit = 0; //!< coder::UnitId index
        std::array<double, kScenarioSlots> density{};
    };

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<Unit> units;
    std::array<double, kScenarioSlots> nocDensity{};

    std::string encode() const;
    static Result<BitDensityResponse> decode(std::string_view payload);
};

/** Simulate an app and price it: per-scenario chip energy. */
struct ChipEnergyRequest
{
    AppQuery query;
    std::uint8_t node = 0;   //!< 0 = 28nm, 1 = 40nm
    std::uint8_t pstate = 0; //!< 0 = 700MHz, 1 = 500MHz, 2 = 300MHz
    std::uint8_t cell = 0;   //!< circuit::CellKind index
    std::uint8_t ecc = 0;
    std::uint32_t cellsBitline = 128;

    std::string encode() const;
    static Result<ChipEnergyRequest> decode(std::string_view payload);
};

struct ChipEnergyResponse
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::array<double, kScenarioSlots> chipEnergy{};
    std::array<double, kScenarioSlots> bvfUnitsEnergy{};

    std::string encode() const;
    static Result<ChipEnergyResponse> decode(std::string_view payload);
};

/** Static predictor query: proven density bounds, no simulation. */
struct StaticQueryRequest
{
    AppQuery query;

    std::string encode() const;
    static Result<StaticQueryRequest> decode(std::string_view payload);
};

struct StaticQueryResponse
{
    struct Bound
    {
        double lo = 0.0;
        double hi = 1.0;
        std::uint8_t any = 0;
    };
    struct Unit
    {
        std::uint8_t unit = 0; //!< coder::UnitId index
        std::array<Bound, kScenarioSlots> bounds{};
    };

    std::uint8_t bestStatic = 0; //!< coder::Scenario index
    std::vector<Unit> units;
    std::array<Bound, kScenarioSlots> noc{};

    std::string encode() const;
    static Result<StaticQueryResponse> decode(std::string_view payload);
};

/**
 * Static advisor query: derive the coder wiring itself (VS register
 * pivot, specialized ISA mask, per-unit NV-vs-VS picks) from the
 * lane-aware analysis, without simulating. Only abbr and arch of the
 * query matter; pivot/mask are outputs here, not inputs.
 */
struct StaticAdviceRequest
{
    AppQuery query;

    std::string encode() const;
    static Result<StaticAdviceRequest> decode(std::string_view payload);
};

struct StaticAdviceResponse
{
    using Bound = StaticQueryResponse::Bound;

    struct UnitPick
    {
        std::uint8_t unit = 0;   //!< coder::UnitId index
        std::uint8_t pick = 0;   //!< coder::Scenario index (NvOnly/VsOnly)
        std::uint8_t proven = 0; //!< winner's interval clears the loser's
        Bound nv;
        Bound vs;
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

    std::string encode() const;
    static Result<StaticAdviceResponse> decode(std::string_view payload);
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
struct SubmitKernelRequest
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

    std::string encode() const;
    static Result<SubmitKernelRequest> decode(std::string_view payload);
};

struct SubmitKernelResponse
{
    struct WireRejection
    {
        std::uint8_t reason = 0; //!< analysis::RejectReason index
        std::uint32_t pc = 0;
        std::string message;
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

    std::string encode() const;
    static Result<SubmitKernelResponse> decode(std::string_view payload);
};

/** Simulate and price a previously admitted kernel by digest. */
struct EvalSubmittedRequest
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

    std::string encode() const;
    static Result<EvalSubmittedRequest> decode(std::string_view payload);
};

struct EvalSubmittedResponse
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    /** Contract-probe observations (certificate enforcement). */
    std::uint64_t maxWarpIssue = 0;
    std::uint64_t checkedAccesses = 0;

    std::array<double, kScenarioSlots> chipEnergy{};
    std::array<double, kScenarioSlots> bvfUnitsEnergy{};

    std::string encode() const;
    static Result<EvalSubmittedResponse> decode(std::string_view payload);
};

/** Structured failure for one request. */
struct WireError
{
    std::uint8_t code = 0; //!< ErrorCode index
    std::string message;

    std::string encode() const;
    static Result<WireError> decode(std::string_view payload);
};

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
