/**
 * @file
 * Synthetic per-generation instruction encodings.
 */

#include "isa/encoding.hh"

#include "common/logging.hh"

namespace bvf::isa
{

std::string
gpuArchName(GpuArch arch)
{
    switch (arch) {
      case GpuArch::Fermi:
        return "Fermi";
      case GpuArch::Kepler:
        return "Kepler";
      case GpuArch::Maxwell:
        return "Maxwell";
      case GpuArch::Pascal:
        return "Pascal";
    }
    panic("unknown architecture");
}

const std::vector<GpuArch> &
allGpuArchs()
{
    static const std::vector<GpuArch> archs = {
        GpuArch::Fermi, GpuArch::Kepler, GpuArch::Maxwell, GpuArch::Pascal,
    };
    return archs;
}

Word64
paperIsaMask(GpuArch arch)
{
    // Table 2 of the paper.
    switch (arch) {
      case GpuArch::Fermi:
        return 0x4000000000019c03ull;
      case GpuArch::Kepler:
        return 0xe0800000001c0012ull;
      case GpuArch::Maxwell:
        return 0x4818000000070205ull;
      case GpuArch::Pascal:
        return 0x4818000000070201ull;
    }
    panic("unknown architecture");
}

namespace
{

/**
 * Frequency-ordered operand code tables.
 *
 * Real ISAs assign encodings with expected operand statistics in mind;
 * we do the same: the register numbers and opcodes that dominate
 * compiled kernels get the numerically smallest codes, which keeps
 * every bit of the operand fields biased towards 0 (the property
 * Figure 14 measures). Orders were profiled over the 58-application
 * corpus; registers/opcodes outside the profile follow in ascending
 * order.
 */
constexpr int dstFrequencyOrder[] = {
    24, 12, 25, 0, 13, 5, 10, 6, 4, 2, 7, 8, 1, 27, 16, 11, 9, 3, 17,
    18, 19, 26, 15, 14, 20, 21,
};

constexpr int srcAFrequencyOrder[] = {
    0, 12, 5, 25, 13, 24, 10, 4, 16, 14, 6, 2, 7, 8, 18, 9, 19, 17, 1,
    27, 15, 20,
};

constexpr int srcBFrequencyOrder[] = {
    0, 17, 16, 5, 6, 24, 7, 11, 4, 3, 1, 8, 19, 27, 15, 20, 18, 26, 9,
    25,
};

constexpr int opFrequencyOrder[] = {
    4,  3,  14, 5,  8,  0,  1,  18, 2,  15, 16, 6,  26, 9,  27, 7,
    12, 28, 11, 10, 25, 19, 20,
};

/** Build value->code and code->value tables from a frequency order. */
struct CodeTable
{
    std::array<std::uint8_t, 256> toCode{};
    std::array<std::uint8_t, 256> fromCode{};

    CodeTable(const int *order, std::size_t orderLen, int domain)
    {
        std::array<bool, 256> seen{};
        int next = 0;
        auto assign = [&](int value) {
            toCode[static_cast<std::size_t>(value)] =
                static_cast<std::uint8_t>(next);
            fromCode[static_cast<std::size_t>(next)] =
                static_cast<std::uint8_t>(value);
            seen[static_cast<std::size_t>(value)] = true;
            ++next;
        };
        for (std::size_t i = 0; i < orderLen; ++i)
            assign(order[i]);
        for (int v = 0; v < domain; ++v) {
            if (!seen[static_cast<std::size_t>(v)])
                assign(v);
        }
    }
};

const CodeTable &
dstCodes()
{
    static const CodeTable table(dstFrequencyOrder,
                                 std::size(dstFrequencyOrder),
                                 numRegisters);
    return table;
}

const CodeTable &
srcACodes()
{
    static const CodeTable table(srcAFrequencyOrder,
                                 std::size(srcAFrequencyOrder),
                                 numRegisters);
    return table;
}

const CodeTable &
srcBCodes()
{
    static const CodeTable table(srcBFrequencyOrder,
                                 std::size(srcBFrequencyOrder),
                                 numRegisters);
    return table;
}

const CodeTable &
opCodes()
{
    static const CodeTable table(opFrequencyOrder,
                                 std::size(opFrequencyOrder),
                                 static_cast<int>(Opcode::NumOpcodes));
    return table;
}

} // namespace

InstructionEncoder::InstructionEncoder(GpuArch arch)
    : arch_(arch), framing_(paperIsaMask(arch))
{
    // Operand fields are laid over the non-framing positions, LSB first.
    for (int pos = 0; pos < 64; ++pos) {
        if (!bitAt64(framing_, pos))
            fieldPositions_.push_back(pos);
    }

    int cursor = 0;
    auto take = [this, &cursor](int width) {
        panic_if(cursor + width
                     > static_cast<int>(fieldPositions_.size()),
                 "encoding for %s has too few operand positions",
                 gpuArchName(arch_).c_str());
        Field f{cursor, width};
        cursor += width;
        return f;
    };

    opcodeField_ = take(7);
    dstField_ = take(8);
    srcAField_ = take(8);
    srcBField_ = take(8);
    predField_ = take(3); // 2-bit predicate index + negate flag
    flagsField_ = take(4); // 3-bit flags + immB flag
    immField_ = take(16);
}

Word64
InstructionEncoder::packField(Field f, Word64 value) const
{
    Word64 out = 0;
    for (int i = 0; i < f.width; ++i) {
        if ((value >> i) & 1)
            out |= Word64(1) << fieldPositions_[
                static_cast<std::size_t>(f.offset + i)];
    }
    return out;
}

Word64
InstructionEncoder::unpackField(Field f, Word64 binary) const
{
    Word64 value = 0;
    for (int i = 0; i < f.width; ++i) {
        if ((binary >> fieldPositions_[
                 static_cast<std::size_t>(f.offset + i)]) & 1)
            value |= Word64(1) << i;
    }
    return value;
}

Word64
InstructionEncoder::encode(const Instruction &instr) const
{
    Word64 bin = 0;

    // Framing: data-path instructions set all framing bits; control ops
    // keep only the lowest one (the "valid" position).
    if (isControlOp(instr.op)) {
        const int lowest = std::countr_zero(framing_);
        bin |= Word64(1) << lowest;
    } else {
        bin |= framing_;
    }

    bin |= packField(opcodeField_,
                     opCodes().toCode[static_cast<std::size_t>(instr.op)]);
    bin |= packField(dstField_, dstCodes().toCode[instr.dst]);
    bin |= packField(srcAField_, srcACodes().toCode[instr.srcA]);
    bin |= packField(srcBField_, srcBCodes().toCode[instr.srcB]);
    const Word64 pred_bits =
        static_cast<Word64>(instr.pred & 0x3)
        | (instr.predNegate ? 0x4u : 0u);
    bin |= packField(predField_, pred_bits);
    const Word64 flag_bits =
        static_cast<Word64>(instr.flags & 0x7) | (instr.immB ? 0x8u : 0u);
    bin |= packField(flagsField_, flag_bits);
    bin |= packField(immField_,
                     static_cast<Word64>(
                         static_cast<std::uint32_t>(instr.imm) & 0xffffu));
    return bin;
}

Instruction
InstructionEncoder::decode(Word64 binary) const
{
    Instruction instr;
    const Word64 op_code = unpackField(opcodeField_, binary);
    fatal_if(op_code >= static_cast<Word64>(Opcode::NumOpcodes),
             "invalid opcode %llu in binary",
             static_cast<unsigned long long>(op_code));
    instr.op = static_cast<Opcode>(
        opCodes().fromCode[static_cast<std::size_t>(op_code)]);
    instr.dst = dstCodes().fromCode[unpackField(dstField_, binary) & 0xff];
    instr.srcA =
        srcACodes().fromCode[unpackField(srcAField_, binary) & 0xff];
    instr.srcB =
        srcBCodes().fromCode[unpackField(srcBField_, binary) & 0xff];
    const Word64 pred_bits = unpackField(predField_, binary);
    instr.pred = static_cast<std::uint8_t>(pred_bits & 0x3);
    instr.predNegate = (pred_bits & 0x4) != 0;
    const Word64 flag_bits = unpackField(flagsField_, binary);
    instr.flags = static_cast<std::uint8_t>(flag_bits & 0x7);
    instr.immB = (flag_bits & 0x8) != 0;
    // Sign-extend the 16-bit immediate.
    const auto raw = static_cast<std::uint16_t>(unpackField(immField_,
                                                            binary));
    instr.imm = static_cast<std::int16_t>(raw);
    return instr;
}

std::vector<Word64>
InstructionEncoder::encode(const std::vector<Instruction> &body) const
{
    std::vector<Word64> out;
    out.reserve(body.size());
    for (const Instruction &i : body)
        out.push_back(encode(i));
    return out;
}

Word64
extractPreferenceMask(std::span<const Word64> corpus)
{
    if (corpus.empty())
        return 0;
    std::uint64_t ones[64] = {};
    for (Word64 w : corpus) {
        for (int pos = 0; pos < 64; ++pos) {
            if ((w >> pos) & 1)
                ++ones[pos];
        }
    }
    Word64 mask = 0;
    for (int pos = 0; pos < 64; ++pos) {
        if (ones[pos] * 2 > corpus.size())
            mask |= Word64(1) << pos;
    }
    return mask;
}

Word64
kernelPreferenceMask(GpuArch arch, const std::vector<Instruction> &body)
{
    return extractPreferenceMask(InstructionEncoder(arch).encode(body));
}

std::vector<double>
bitPositionOneProbability(std::span<const Word64> corpus)
{
    std::vector<double> probs(64, 0.0);
    if (corpus.empty())
        return probs;
    for (Word64 w : corpus) {
        for (int pos = 0; pos < 64; ++pos)
            probs[static_cast<std::size_t>(pos)] += bitAt64(w, pos);
    }
    for (double &p : probs)
        p /= static_cast<double>(corpus.size());
    return probs;
}

std::array<std::uint32_t, static_cast<std::size_t>(Opcode::NumOpcodes)>
opcodeHistogram(const std::vector<Instruction> &body)
{
    std::array<std::uint32_t, static_cast<std::size_t>(Opcode::NumOpcodes)>
        counts{};
    for (const Instruction &instr : body) {
        const auto op = static_cast<std::size_t>(instr.op);
        if (op < counts.size())
            ++counts[op];
    }
    return counts;
}

} // namespace bvf::isa
