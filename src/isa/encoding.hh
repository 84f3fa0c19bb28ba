/**
 * @file
 * Per-architecture 64-bit instruction encodings.
 *
 * We cannot ship NVIDIA's proprietary SASS encodings, so this module
 * synthesizes one encoding per GPU generation with the statistical
 * property the paper measures (Fig. 14 / Table 2): a small set of
 * framing/default-field bit positions is 1 in the large majority of
 * instructions, while every operand-carrying position is biased towards
 * 0 (operand values -- register indices, immediates, opcode numbers --
 * are small in realistic code). The framing positions of each generation
 * are exactly the bits of the paper's Table 2 masks, so running the mask
 * extractor over assembled binaries reproduces the published constants.
 *
 * Control-flow opcodes (BRA/EXIT/BAR/NOP) clear all framing bits except
 * the lowest, mirroring how real encodings mark instruction classes;
 * since control ops are a small fraction of static code, the framing
 * positions remain majority-1.
 */

#ifndef BVF_ISA_ENCODING_HH
#define BVF_ISA_ENCODING_HH

#include <array>
#include <vector>

#include "common/bitops.hh"
#include "isa/instruction.hh"

namespace bvf::isa
{

/** GPU architecture generations with distinct encodings (Table 2). */
enum class GpuArch
{
    Fermi,
    Kepler,
    Maxwell,
    Pascal,
};

/** Display name, e.g. "Pascal". */
std::string gpuArchName(GpuArch arch);

/** All generations, in chronological order. */
const std::vector<GpuArch> &allGpuArchs();

/**
 * The paper's Table 2 ISA preference mask for @p arch. Framing bit
 * positions of our synthetic encodings equal these constants by design.
 */
Word64 paperIsaMask(GpuArch arch);

/**
 * Bidirectional instruction <-> 64-bit binary mapping for one
 * architecture generation.
 */
class InstructionEncoder
{
  public:
    explicit InstructionEncoder(GpuArch arch);

    GpuArch arch() const { return arch_; }

    /** Assemble one instruction into its 64-bit binary form. */
    Word64 encode(const Instruction &instr) const;

    /**
     * Disassemble a binary word. The reconvergence index of branches is
     * carried out-of-band (Instruction::reconv is left 0).
     */
    Instruction decode(Word64 binary) const;

    /** Assemble a whole kernel body. */
    std::vector<Word64> encode(const std::vector<Instruction> &body) const;

    /** Framing mask (equals paperIsaMask(arch)). */
    Word64 framingMask() const { return framing_; }

  private:
    /** Bit positions available for operand fields (mask zeros), LSB up. */
    struct Field
    {
        int offset; //!< index into fieldPositions_
        int width;
    };

    Word64 packField(Field f, Word64 value) const;
    Word64 unpackField(Field f, Word64 binary) const;

    GpuArch arch_;
    Word64 framing_;
    std::vector<int> fieldPositions_;

    Field opcodeField_;
    Field dstField_;
    Field srcAField_;
    Field srcBField_;
    Field predField_;
    Field flagsField_;
    Field immField_;
};

/**
 * Statistical mask extraction (Section 4.3): for each bit position,
 * output 1 iff a strict majority of the corpus has a 1 there.
 */
Word64 extractPreferenceMask(std::span<const Word64> corpus);

/**
 * Section 4.3's dynamic method: the preference mask extracted from one
 * kernel's own binary, assembled under @p arch.
 */
Word64 kernelPreferenceMask(GpuArch arch,
                            const std::vector<Instruction> &body);

/** Per-position probability of bit value 1 over a corpus (Fig. 14). */
std::vector<double> bitPositionOneProbability(
    std::span<const Word64> corpus);

/** Static opcode counts of a kernel body, indexed by Opcode value. */
std::array<std::uint32_t, static_cast<std::size_t>(Opcode::NumOpcodes)>
opcodeHistogram(const std::vector<Instruction> &body);

} // namespace bvf::isa

#endif // BVF_ISA_ENCODING_HH
