/**
 * @file
 * The BW NPU instruction opcodes and their static properties (Table II).
 *
 * Every instruction operates on N-length native vectors or N x N native
 * matrix tiles. Chain input/output operands are implicit: a chain begins
 * with the only instructions producing an output without an input (v_rd /
 * m_rd) and values flow instruction to instruction without named storage.
 */

#ifndef BW_ISA_OPCODE_H
#define BW_ISA_OPCODE_H

#include <cstdint>
#include <string>

namespace bw {

/** Instruction opcodes, named as in Table II. */
enum class Opcode : uint8_t
{
    VRd = 0,  //!< v_rd: vector read from MemID[index]
    VWr,      //!< v_wr: vector write to MemID[index]
    MRd,      //!< m_rd: matrix read (NetQ or DRAM only)
    MWr,      //!< m_wr: matrix write (MatrixRf or DRAM only)
    MvMul,    //!< mv_mul: matrix-vector multiply against MRF[index]
    VvAdd,    //!< vv_add: point-wise add with AddSubVrf[index]
    VvASubB,  //!< vv_a_sub_b: point-wise subtract, chain input is minuend
    VvBSubA,  //!< vv_b_sub_a: point-wise subtract, chain input is subtrahend
    VvMax,    //!< vv_max: point-wise max with AddSubVrf[index]
    VvMul,    //!< vv_mul: Hadamard product with MultiplyVrf[index]
    VRelu,    //!< v_relu: point-wise ReLU
    VSigm,    //!< v_sigm: point-wise sigmoid
    VTanh,    //!< v_tanh: point-wise tanh
    SWr,      //!< s_wr: write scalar control register
    EndChain, //!< end_chain: explicit chain terminator
    NumOpcodes
};

/** Implicit chain operand type of an instruction (IN/OUT in Table II). */
enum class ChainType : uint8_t
{
    None = 0, //!< no chain operand
    Vector,   //!< native vector
    Matrix    //!< native matrix tile
};

/** Which datapath unit executes the instruction. */
enum class UnitClass : uint8_t
{
    Memory = 0, //!< v_rd / v_wr / m_rd / m_wr
    Mvm,        //!< matrix-vector multiplier
    MfuAddSub,  //!< MFU add/subtract/max unit (vv_add, vv_*_sub_*, vv_max)
    MfuMul,     //!< MFU Hadamard-multiply unit (vv_mul)
    MfuAct,     //!< MFU activation unit (v_relu, v_sigm, v_tanh)
    Control     //!< s_wr, end_chain
};

/** Static metadata for one opcode. */
struct OpcodeInfo
{
    const char *name;    //!< assembly mnemonic, e.g. "mv_mul"
    ChainType in;        //!< implicit chain input
    ChainType out;       //!< implicit chain output
    bool hasMemOperand;  //!< operand 1 is a MemId
    bool hasIndex;       //!< has a memory/register index operand
    bool hasValue;       //!< has an immediate value operand (s_wr)
    UnitClass unit;      //!< executing unit class
};

/** Look up static properties of @p op. */
const OpcodeInfo &opcodeInfo(Opcode op);

/** Mnemonic of @p op, e.g. "vv_a_sub_b". */
inline const char *opcodeName(Opcode op) { return opcodeInfo(op).name; }

/** Parse a mnemonic; throws bw::Error for unknown names. */
Opcode parseOpcode(const std::string &name);

/** True for instructions executed by one of the MFU function units. */
bool isMfuOp(Opcode op);

/** True for activation functions (v_relu / v_sigm / v_tanh). */
bool isActivationOp(Opcode op);

} // namespace bw

#endif // BW_ISA_OPCODE_H
