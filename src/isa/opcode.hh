/**
 * @file
 * The PTX-like operation set executed by the GPU model.
 *
 * This is a compact SASS-style ISA: enough integer/FP arithmetic to give
 * kernels realistic value behaviour, the full set of memory spaces the
 * paper's BVF units cover (global, shared, constant, texture), and
 * structured SIMT control flow. Opcodes are ordered roughly by dynamic
 * frequency so that encoded opcode fields are low-biased (see
 * isa/encoding.hh).
 */

#ifndef BVF_ISA_OPCODE_HH
#define BVF_ISA_OPCODE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace bvf::isa
{

/** Operation codes. Values are part of the binary encoding. */
enum class Opcode : std::uint8_t
{
    Ffma = 0,  //!< d = a * b + d (fp32)
    Fadd,      //!< d = a + b (fp32)
    Fmul,      //!< d = a * b (fp32)
    IAdd,      //!< d = a + b
    Mov,       //!< d = b (register or immediate)
    Ldg,       //!< global load:  d = mem[a + imm]
    Stg,       //!< global store: mem[a + imm] = b
    IMad,      //!< d = a * b + d
    S2R,       //!< d = special register (flags selects which)
    SetP,      //!< pred[dst] = compare(a, b) (flags select cmp)
    Lds,       //!< shared load:  d = smem[a + imm]
    Sts,       //!< shared store: smem[a + imm] = b
    IMul,      //!< d = a * b
    ISub,      //!< d = a - b
    Shl,       //!< d = a << (b & 31)
    Shr,       //!< d = a >> (b & 31) (logical)
    And,       //!< d = a & b
    Or,        //!< d = a | b
    Xor,       //!< d = a ^ b
    Ldc,       //!< constant load: d = cmem[a + imm]
    Ldt,       //!< texture load:  d = tmem[a + imm]
    I2F,       //!< d = float(a)
    F2I,       //!< d = int(a_float)
    Clz,       //!< d = count leading zeros of a
    Min,       //!< d = min(a, b) signed
    Max,       //!< d = max(a, b) signed
    // Control opcodes: these clear the encoding framing bits (they are
    // the statistical minority that keeps Table 2 masks "statistical").
    Bra,       //!< predicated branch to imm, reconverge at reconv
    Exit,      //!< warp terminates
    Bar,       //!< block-wide barrier
    Nop,       //!< no operation
    NumOpcodes,
};

/** Special registers selectable by S2R. */
enum class SpecialReg : std::uint8_t
{
    LaneId = 0,   //!< lane within the warp [0,32)
    WarpId,       //!< warp within the block
    TidX,         //!< thread id within the block
    CtaIdX,       //!< block id within the grid
    NTidX,        //!< block dimension
    GridDimX,     //!< grid dimension
};

/** Comparison selector for SetP (carried in the flags field). */
enum class CmpOp : std::uint8_t
{
    Lt = 0,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
};

/**
 * Operand shape of an opcode: how the assembler spells it, and with it
 * which instruction fields the opcode reads and writes.
 */
enum class OperandForm : std::uint8_t
{
    DstAB,   //!< OP Rd, Ra, Rb|#imm
    DstA,    //!< OP Rd, Ra
    DstB,    //!< MOV Rd, Rb|#imm
    Special, //!< S2R Rd, SR_<name>
    Compare, //!< SETP.<cmp> Pd, Ra, Rb|#imm
    Load,    //!< OP Rd, [Ra + imm]
    Store,   //!< OP [Ra + imm], Rb
    Branch,  //!< BRA target, join=target
    Bare,    //!< OP
};

/** The memory space a load or store addresses. */
enum class MemSpace : std::uint8_t
{
    None,     //!< not a memory opcode
    Global,
    Shared,
    Constant,
    Texture,
};

/** Everything the model knows about one opcode besides its semantics. */
struct OpcodeInfo
{
    const char *name;  //!< mnemonic, e.g. "FFMA"
    OperandForm form;
    int latency;       //!< core cycles; 0 = resolved by the memory system
    bool readsDst;     //!< d = a * b + d
    bool fp;           //!< issues to the floating-point pipeline
    MemSpace space;    //!< the space a load or store addresses
};

/** The opcode table, indexed by Opcode. */
inline constexpr std::array<OpcodeInfo,
                            static_cast<std::size_t>(Opcode::NumOpcodes)>
    opcodeTable = {{
        {"FFMA", OperandForm::DstAB, 6, true, true, MemSpace::None},
        {"FADD", OperandForm::DstAB, 5, false, true, MemSpace::None},
        {"FMUL", OperandForm::DstAB, 5, false, true, MemSpace::None},
        {"IADD", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"MOV", OperandForm::DstB, 4, false, false, MemSpace::None},
        {"LDG", OperandForm::Load, 0, false, false, MemSpace::Global},
        {"STG", OperandForm::Store, 4, false, false, MemSpace::Global},
        {"IMAD", OperandForm::DstAB, 6, true, false, MemSpace::None},
        {"S2R", OperandForm::Special, 4, false, false, MemSpace::None},
        {"SETP", OperandForm::Compare, 4, false, false, MemSpace::None},
        {"LDS", OperandForm::Load, 24, false, false, MemSpace::Shared},
        {"STS", OperandForm::Store, 24, false, false, MemSpace::Shared},
        {"IMUL", OperandForm::DstAB, 5, false, false, MemSpace::None},
        {"ISUB", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"SHL", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"SHR", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"AND", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"OR", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"XOR", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"LDC", OperandForm::Load, 0, false, false, MemSpace::Constant},
        {"LDT", OperandForm::Load, 0, false, false, MemSpace::Texture},
        {"I2F", OperandForm::DstA, 4, false, true, MemSpace::None},
        {"F2I", OperandForm::DstA, 4, false, true, MemSpace::None},
        {"CLZ", OperandForm::DstA, 4, false, false, MemSpace::None},
        {"MIN", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"MAX", OperandForm::DstAB, 4, false, false, MemSpace::None},
        {"BRA", OperandForm::Branch, 4, false, false, MemSpace::None},
        {"EXIT", OperandForm::Bare, 4, false, false, MemSpace::None},
        {"BAR", OperandForm::Bare, 4, false, false, MemSpace::None},
        {"NOP", OperandForm::Bare, 4, false, false, MemSpace::None},
    }};

/** Table row of @p op, which must be below NumOpcodes. */
constexpr const OpcodeInfo &
opcodeInfo(Opcode op)
{
    return opcodeTable[static_cast<std::size_t>(op)];
}

constexpr OperandForm
operandForm(Opcode op)
{
    return opcodeInfo(op).form;
}

/** Mnemonic, e.g. "FFMA". */
inline std::string
opcodeName(Opcode op)
{
    return opcodeInfo(op).name;
}

/** Does the opcode read from memory? */
constexpr bool
isLoadOp(Opcode op)
{
    return operandForm(op) == OperandForm::Load;
}

/** Does the opcode write to memory? */
constexpr bool
isStoreOp(Opcode op)
{
    return operandForm(op) == OperandForm::Store;
}

/** Does the opcode access memory? */
constexpr bool
isMemoryOp(Opcode op)
{
    return isLoadOp(op) || isStoreOp(op);
}

/** The space a memory opcode addresses (None for the others). */
constexpr MemSpace
memSpace(Opcode op)
{
    return opcodeInfo(op).space;
}

/** Control-flow / no-data opcodes (clear the encoding framing bits). */
constexpr bool
isControlOp(Opcode op)
{
    return operandForm(op) == OperandForm::Branch
           || operandForm(op) == OperandForm::Bare;
}

/**
 * Is the opcode a pure function of its register operands, computed by
 * isa::evalAlu (isa/semantics.hh)?
 */
constexpr bool
isDataOp(Opcode op)
{
    const OperandForm f = operandForm(op);
    return f == OperandForm::DstAB || f == OperandForm::DstA
           || f == OperandForm::DstB;
}

/** Does the opcode produce a destination register value? */
constexpr bool
writesRegister(Opcode op)
{
    return isDataOp(op) || operandForm(op) == OperandForm::Special
           || isLoadOp(op);
}

/** Does the opcode read the srcA register? */
constexpr bool
readsSrcA(Opcode op)
{
    const OperandForm f = operandForm(op);
    return f == OperandForm::DstAB || f == OperandForm::DstA
           || f == OperandForm::Compare || f == OperandForm::Load
           || f == OperandForm::Store;
}

/** Does the opcode read the srcB register (when not immediate)? */
constexpr bool
readsSrcB(Opcode op)
{
    const OperandForm f = operandForm(op);
    return f == OperandForm::DstAB || f == OperandForm::DstB
           || f == OperandForm::Compare || f == OperandForm::Store;
}

/** Does the opcode read its own destination register (d = a * b + d)? */
constexpr bool
readsDst(Opcode op)
{
    return opcodeInfo(op).readsDst;
}

/** Execution latency in core cycles (dependency-visible). */
constexpr int
opcodeLatency(Opcode op)
{
    return opcodeInfo(op).latency;
}

} // namespace bvf::isa

#endif // BVF_ISA_OPCODE_HH
