#include "isa/opcode.h"

#include <array>

#include "common/logging.h"

namespace bw {

namespace {

constexpr size_t kNumOpcodes = static_cast<size_t>(Opcode::NumOpcodes);

// One row per Table II entry: name, IN, OUT, mem?, index?, value?, unit.
const std::array<OpcodeInfo, kNumOpcodes> kOpcodeTable = {{
    {"v_rd", ChainType::None, ChainType::Vector, true, true, false,
     UnitClass::Memory},
    {"v_wr", ChainType::Vector, ChainType::None, true, true, false,
     UnitClass::Memory},
    {"m_rd", ChainType::None, ChainType::Matrix, true, true, false,
     UnitClass::Memory},
    {"m_wr", ChainType::Matrix, ChainType::None, true, true, false,
     UnitClass::Memory},
    {"mv_mul", ChainType::Vector, ChainType::Vector, false, true, false,
     UnitClass::Mvm},
    {"vv_add", ChainType::Vector, ChainType::Vector, false, true, false,
     UnitClass::MfuAddSub},
    {"vv_a_sub_b", ChainType::Vector, ChainType::Vector, false, true, false,
     UnitClass::MfuAddSub},
    {"vv_b_sub_a", ChainType::Vector, ChainType::Vector, false, true, false,
     UnitClass::MfuAddSub},
    {"vv_max", ChainType::Vector, ChainType::Vector, false, true, false,
     UnitClass::MfuAddSub},
    {"vv_mul", ChainType::Vector, ChainType::Vector, false, true, false,
     UnitClass::MfuMul},
    {"v_relu", ChainType::Vector, ChainType::Vector, false, false, false,
     UnitClass::MfuAct},
    {"v_sigm", ChainType::Vector, ChainType::Vector, false, false, false,
     UnitClass::MfuAct},
    {"v_tanh", ChainType::Vector, ChainType::Vector, false, false, false,
     UnitClass::MfuAct},
    {"s_wr", ChainType::None, ChainType::None, false, true, true,
     UnitClass::Control},
    {"end_chain", ChainType::None, ChainType::None, false, false, false,
     UnitClass::Control},
}};

} // namespace

const OpcodeInfo &
opcodeInfo(Opcode op)
{
    size_t idx = static_cast<size_t>(op);
    BW_ASSERT(idx < kNumOpcodes, "bad opcode %zu", idx);
    return kOpcodeTable[idx];
}

Opcode
parseOpcode(const std::string &name)
{
    for (size_t i = 0; i < kNumOpcodes; ++i) {
        if (name == kOpcodeTable[i].name)
            return static_cast<Opcode>(i);
    }
    BW_FATAL("unknown opcode mnemonic '%s'", name.c_str());
}

bool
isMfuOp(Opcode op)
{
    UnitClass u = opcodeInfo(op).unit;
    return u == UnitClass::MfuAddSub || u == UnitClass::MfuMul ||
           u == UnitClass::MfuAct;
}

bool
isActivationOp(Opcode op)
{
    return opcodeInfo(op).unit == UnitClass::MfuAct;
}

} // namespace bw
