/**
 * @file
 * Decoded instruction representation.
 *
 * This is the form the SM pipeline executes. The encoder maps it to and
 * from the per-architecture 64-bit binary encodings (isa/encoding.hh);
 * isa/asm.hh renders it as text.
 */

#ifndef BVF_ISA_INSTRUCTION_HH
#define BVF_ISA_INSTRUCTION_HH

#include <cstdint>

#include "isa/opcode.hh"

namespace bvf::isa
{

/** Number of addressable general-purpose registers per thread. */
constexpr int numRegisters = 64;

/** Number of predicate registers per thread. */
constexpr int numPredicates = 4;

/** Sentinel predicate value meaning "unpredicated" (PT). */
constexpr int predTrue = 0;

/**
 * One decoded instruction.
 *
 * Fields not meaningful for an opcode must be zero so that encoding is
 * canonical (encode/decode round-trips exactly).
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    std::uint8_t dst = 0;   //!< destination register (or SetP pred index)
    std::uint8_t srcA = 0;  //!< first source register / address register
    std::uint8_t srcB = 0;  //!< second source register / store-data reg
    std::uint8_t pred = predTrue; //!< guard predicate (0 = always)
    bool predNegate = false;      //!< execute when predicate is false
    bool immB = false;            //!< srcB replaced by imm
    std::uint8_t flags = 0;       //!< CmpOp for SetP; SpecialReg for S2R
    std::int32_t imm = 0;         //!< immediate / address offset / target

    /**
     * Reconvergence point for Bra (instruction index); carried beside
     * the binary encoding the way real hardware carries it in SSY-style
     * control blocks. Not part of the 64-bit encoding's information
     * content for non-branches.
     */
    std::int32_t reconv = 0;

    bool operator==(const Instruction &o) const = default;
};

/** Is the guard a real predicate-register read (not the PT sentinel)? */
constexpr bool
readsGuard(const Instruction &instr)
{
    return instr.pred != predTrue || instr.predNegate;
}

} // namespace bvf::isa

#endif // BVF_ISA_INSTRUCTION_HH
