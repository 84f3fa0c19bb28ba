/**
 * @file
 * Textual kernel assembler for the SASS-like ISA.
 *
 * The text form is line-oriented:
 *
 *   # comment                 ('#' at line start, '//' anywhere)
 *   .kernel atax              kernel name (rest of line, trimmed)
 *   .launch 12 128            grid blocks, block threads
 *   .shared 512               shared bytes per block (default 0)
 *   .global 4096              global image size in words (zero-filled)
 *   .const 2048               constant image size in words
 *   .texture 1024             texture image size in words
 *   .data global 16 0x1 0x2   fill image words starting at an offset
 *
 *   L0:                       label = index of the next instruction
 *     S2R R1, SR_TIDX
 *     IADD R4, R1, #1         '#' marks an immediate srcB
 *     SETP.LT P2, R10, #6
 *     LDG R16, [R12 + 0]
 *     STG [R13 + 4], R24
 *     @P2 BRA L0, join=L5     guard prefix @P / @!P; label or index
 *     EXIT
 *
 * parseAsm resolves labels and produces an isa::Program; renderAsm is
 * its inverse for canonical programs, and parseAsm(renderAsm(p))
 * reproduces p exactly for every program parseAsm can produce (the
 * fuzz driver checks this on every accepted input).
 *
 * The parser is a syntax layer only: it checks representability
 * (register/predicate/image indices fit their fields, labels resolve)
 * but not semantics -- branch-target sanity, memory extents and
 * termination are the admission verifier's job (analysis/verifier.hh).
 */

#ifndef BVF_ISA_ASM_HH
#define BVF_ISA_ASM_HH

#include <string>
#include <string_view>

#include "common/result.hh"
#include "isa/program.hh"

namespace bvf::isa
{

/**
 * Parse kernel assembly text. Errors are InvalidArgument and name the
 * offending line, e.g. "asm line 7: unknown mnemonic 'LDQ'".
 */
Result<Program> parseAsm(std::string_view text);

/** Render @p program as assembly text parseAsm accepts. */
std::string renderAsm(const Program &program);

/**
 * One instruction as it appears in renderAsm's body. Branch targets
 * inside [0, @p bodySize) print as labels "L<pc>", others as bare
 * indices; with the default 0 every target is an index, so the line
 * parses back on its own.
 */
std::string renderInstruction(const Instruction &instr, int bodySize = 0);

} // namespace bvf::isa

#endif // BVF_ISA_ASM_HH
