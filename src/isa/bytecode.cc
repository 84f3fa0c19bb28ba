/**
 * @file
 * Kernel bytecode codec implementation.
 */

#include "isa/bytecode.hh"

#include <cstring>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace bvf::isa
{

namespace
{

constexpr char kMagic[4] = {'B', 'V', 'F', 'K'};

/** Zero-runs shorter than this ride inside a literal chunk. */
constexpr std::uint32_t kMinZeroRun = 8;

// --- little-endian payload plumbing -----------------------------------

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU16(std::string &out, std::uint16_t v)
{
    putU8(out, static_cast<std::uint8_t>(v));
    putU8(out, static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::string &out, std::uint32_t v)
{
    putU16(out, static_cast<std::uint16_t>(v));
    putU16(out, static_cast<std::uint16_t>(v >> 16));
}

/** Cursor over the payload; every get fails softly at the end. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    bool
    getU8(std::uint8_t &v)
    {
        if (pos_ >= bytes_.size())
            return false;
        v = static_cast<std::uint8_t>(bytes_[pos_++]);
        return true;
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (bytes_.size() - pos_ < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(bytes_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 4;
        return true;
    }

    bool
    getBytes(std::string &v, std::uint32_t n)
    {
        if (bytes_.size() - pos_ < n)
            return false;
        v.assign(bytes_.substr(pos_, n));
        pos_ += n;
        return true;
    }

    bool exhausted() const { return pos_ == bytes_.size(); }
    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// --- image chunking ----------------------------------------------------

/**
 * Emit @p image as zero-run / literal-run chunks. A chunk tag packs
 * the word count in the upper 31 bits with the literal flag in bit 0;
 * literal chunks are followed by their words, zero chunks by nothing.
 */
void
putImage(std::string &out, const std::vector<Word> &image)
{
    putU32(out, static_cast<std::uint32_t>(image.size()));
    std::size_t i = 0;
    while (i < image.size()) {
        std::size_t z = i;
        while (z < image.size() && image[z] == 0)
            ++z;
        if (z - i >= kMinZeroRun) {
            putU32(out, static_cast<std::uint32_t>((z - i) << 1));
            i = z;
            continue;
        }
        // Literal run: up to (but not including) the next long zero run.
        std::size_t end = i;
        while (end < image.size()) {
            if (image[end] == 0) {
                std::size_t zrun = end;
                while (zrun < image.size() && image[zrun] == 0)
                    ++zrun;
                if (zrun - end >= kMinZeroRun)
                    break;
                end = zrun;
                continue;
            }
            ++end;
        }
        putU32(out,
               static_cast<std::uint32_t>(((end - i) << 1) | 1u));
        for (; i < end; ++i)
            putU32(out, image[i]);
    }
}

Result<void>
getImage(Reader &in, std::vector<Word> &image, const char *space)
{
    const auto corrupt = [&](const char *what) {
        return Error{ErrorCode::Corrupt,
                     strFormat("bytecode: %s image %s", space, what)};
    };
    std::uint32_t words = 0;
    if (!in.getU32(words))
        return corrupt("count missing");
    if (words > kMaxBytecodePayload / 4)
        return corrupt("count exceeds the payload cap");
    image.assign(words, 0);
    std::size_t filled = 0;
    while (filled < words) {
        std::uint32_t tag = 0;
        if (!in.getU32(tag))
            return corrupt("chunk tag missing");
        const std::uint32_t count = tag >> 1;
        if (count == 0 || count > words - filled)
            return corrupt("chunk overruns its image");
        if (tag & 1u) {
            // Literal words: the count must be backed by real bytes
            // before anything is read, so a short hostile payload
            // cannot claim its way into a large copy.
            if (in.remaining() < static_cast<std::size_t>(count) * 4)
                return corrupt("literal chunk overruns the payload");
            for (std::uint32_t i = 0; i < count; ++i) {
                std::uint32_t w = 0;
                (void)in.getU32(w);
                image[filled + i] = w;
            }
        }
        filled += count;
    }
    return {};
}

// --- payload codec -----------------------------------------------------

std::string
encodePayload(const Program &program)
{
    std::string out;
    putU32(out, static_cast<std::uint32_t>(program.name.size()));
    out.append(program.name);
    putU32(out, static_cast<std::uint32_t>(program.launch.gridBlocks));
    putU32(out, static_cast<std::uint32_t>(program.launch.blockThreads));
    putU32(out, program.sharedBytesPerBlock);

    putU32(out, static_cast<std::uint32_t>(program.body.size()));
    for (const Instruction &instr : program.body) {
        putU8(out, static_cast<std::uint8_t>(instr.op));
        putU8(out, instr.dst);
        putU8(out, instr.srcA);
        putU8(out, instr.srcB);
        putU8(out, instr.pred);
        putU8(out, static_cast<std::uint8_t>(
                       (instr.predNegate ? 1u : 0u)
                       | (instr.immB ? 2u : 0u)));
        putU8(out, instr.flags);
        putU8(out, 0); // reserved
        putU32(out, static_cast<std::uint32_t>(instr.imm));
        putU32(out, static_cast<std::uint32_t>(instr.reconv));
    }

    putImage(out, program.global);
    putImage(out, program.constants);
    putImage(out, program.texture);
    return out;
}

Result<Program>
decodePayload(std::string_view payload)
{
    const auto corrupt = [](const char *what) {
        return Error{ErrorCode::Corrupt,
                     strFormat("bytecode: %s", what)};
    };
    Reader in(payload);
    Program prog;

    std::uint32_t nameLen = 0;
    if (!in.getU32(nameLen))
        return corrupt("name length missing");
    if (nameLen > kMaxKernelNameBytes)
        return corrupt("kernel name too long");
    if (!in.getBytes(prog.name, nameLen))
        return corrupt("name bytes missing");

    std::uint32_t gridBlocks = 0;
    std::uint32_t blockThreads = 0;
    if (!in.getU32(gridBlocks) || !in.getU32(blockThreads)
        || !in.getU32(prog.sharedBytesPerBlock)) {
        return corrupt("launch geometry missing");
    }
    prog.launch.gridBlocks = static_cast<int>(gridBlocks);
    prog.launch.blockThreads = static_cast<int>(blockThreads);

    std::uint32_t bodyCount = 0;
    if (!in.getU32(bodyCount))
        return corrupt("instruction count missing");
    // 16 bytes per instruction: check before allocating.
    if (in.remaining() / 16 < bodyCount)
        return corrupt("instruction count overruns the payload");
    prog.body.reserve(bodyCount);
    for (std::uint32_t i = 0; i < bodyCount; ++i) {
        Instruction instr;
        std::uint8_t op = 0;
        std::uint8_t bools = 0;
        std::uint8_t reserved = 0;
        std::uint32_t imm = 0;
        std::uint32_t reconv = 0;
        (void)in.getU8(op);
        (void)in.getU8(instr.dst);
        (void)in.getU8(instr.srcA);
        (void)in.getU8(instr.srcB);
        (void)in.getU8(instr.pred);
        (void)in.getU8(bools);
        (void)in.getU8(instr.flags);
        (void)in.getU8(reserved);
        (void)in.getU32(imm);
        if (!in.getU32(reconv))
            return corrupt("instruction record truncated");
        if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
            return corrupt("unknown opcode");
        if (bools & ~3u)
            return corrupt("reserved instruction bits set");
        if (reserved != 0)
            return corrupt("reserved instruction byte set");
        instr.op = static_cast<Opcode>(op);
        instr.predNegate = (bools & 1u) != 0;
        instr.immB = (bools & 2u) != 0;
        instr.imm = static_cast<std::int32_t>(imm);
        instr.reconv = static_cast<std::int32_t>(reconv);
        prog.body.push_back(instr);
    }

    if (auto r = getImage(in, prog.global, "global"); !r.ok())
        return r.error();
    if (auto r = getImage(in, prog.constants, "constant"); !r.ok())
        return r.error();
    if (auto r = getImage(in, prog.texture, "texture"); !r.ok())
        return r.error();
    if (!in.exhausted())
        return corrupt("trailing bytes after the texture image");
    return prog;
}

} // namespace

std::string
encodeProgram(const Program &program)
{
    const std::string payload = encodePayload(program);
    std::string out;
    out.reserve(kBytecodeHeaderBytes + payload.size());
    out.append(kMagic, sizeof kMagic);
    putU8(out, kBytecodeVersion);
    putU8(out, 0);  // reserved
    putU16(out, 0); // flags
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    Crc32 crc;
    crc.update(out.data(), out.size());
    crc.update(payload.data(), payload.size());
    putU32(out, crc.value());
    out.append(payload);
    return out;
}

Result<Program>
decodeProgram(std::string_view bytes)
{
    if (bytes.size() < kBytecodeHeaderBytes)
        return Error{ErrorCode::Truncated,
                     "bytecode: input shorter than the frame header"};
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        return Error{ErrorCode::Corrupt, "bytecode: bad magic"};
    const auto version = static_cast<std::uint8_t>(bytes[4]);
    if (version != kBytecodeVersion) {
        return Error{ErrorCode::Unsupported,
                     strFormat("bytecode: version %u not supported "
                               "(want %u)",
                               unsigned(version),
                               unsigned(kBytecodeVersion))};
    }
    if (bytes[5] != 0 || bytes[6] != 0 || bytes[7] != 0)
        return Error{ErrorCode::Corrupt,
                     "bytecode: reserved header bits set"};
    std::uint32_t length = 0;
    std::uint32_t wireCrc = 0;
    for (int i = 0; i < 4; ++i) {
        length |= static_cast<std::uint32_t>(
                      static_cast<std::uint8_t>(bytes[8 + i]))
                  << (8 * i);
        wireCrc |= static_cast<std::uint32_t>(
                       static_cast<std::uint8_t>(bytes[12 + i]))
                   << (8 * i);
    }
    // An oversized length is damage, not a request to buffer gigabytes.
    if (length > kMaxBytecodePayload)
        return Error{ErrorCode::Corrupt,
                     "bytecode: length exceeds the payload cap"};
    if (bytes.size() < kBytecodeHeaderBytes + length)
        return Error{ErrorCode::Truncated,
                     "bytecode: input shorter than its length field"};
    if (bytes.size() > kBytecodeHeaderBytes + length)
        return Error{ErrorCode::Corrupt,
                     "bytecode: trailing bytes after the frame"};

    const std::string_view payload =
        bytes.substr(kBytecodeHeaderBytes, length);
    Crc32 crc;
    crc.update(bytes.data(), 12);
    crc.update(payload.data(), payload.size());
    if (crc.value() != wireCrc)
        return Error{ErrorCode::Corrupt, "bytecode: CRC mismatch"};

    auto decoded = decodePayload(payload);
    if (!decoded.ok())
        return decoded.error();

    // Strictness backstop: the only accepted inputs are exactly the
    // encoder's outputs, so decode-then-reencode is byte-identical by
    // construction (non-canonical image chunking, stray name bytes and
    // the like all land here). Every header field and the CRC were
    // checked against the encoder's above, so re-encoding the payload
    // alone decides it.
    if (encodePayload(decoded.value()) != payload) {
        return Error{ErrorCode::Corrupt,
                     "bytecode: non-canonical encoding"};
    }
    return decoded;
}

} // namespace bvf::isa
