#include "func/machine.h"

#include <algorithm>
#include <cmath>

#include "bfp/float16.h"
#include "common/bits.h"
#include "isa/validate.h"

namespace bw {

FuncMachine::FuncMachine(const NpuConfig &cfg)
    : cfg_(cfg),
      ivrf_(cfg.initialVrfSize, cfg.nativeDim, "InitialVrf"),
      asvrf_(cfg.addSubVrfSize, cfg.nativeDim, "AddSubVrf"),
      mulvrf_(cfg.multiplyVrfSize, cfg.nativeDim, "MultiplyVrf"),
      mrf_(cfg.mrfEntries(), cfg.nativeDim),
      dram_(cfg.dramBytes, cfg.nativeDim),
      net_(cfg.nativeDim)
{
    cfg_.validate();
}

VectorRegFile &
FuncMachine::vrf(MemId id)
{
    switch (id) {
      case MemId::InitialVrf: return ivrf_;
      case MemId::AddSubVrf: return asvrf_;
      case MemId::MultiplyVrf: return mulvrf_;
      default: BW_PANIC("%s is not a VRF", memIdName(id));
    }
}

const VectorRegFile &
FuncMachine::vrf(MemId id) const
{
    return const_cast<FuncMachine *>(this)->vrf(id);
}

void
FuncMachine::loadMrfTile(uint32_t addr, const FMat &tile)
{
    if (tile.rows() != cfg_.nativeDim || tile.cols() != cfg_.nativeDim) {
        BW_FATAL("MRF tile must be %ux%u, got %zux%zu", cfg_.nativeDim,
                 cfg_.nativeDim, tile.rows(), tile.cols());
    }
    mrf_.write(addr, QuantTile(tile, cfg_.precision));
}

void
FuncMachine::loadMrfMatrix(uint32_t addr, const FMat &w)
{
    size_t n = cfg_.nativeDim;
    size_t row_tiles = ceilDiv(w.rows(), n);
    size_t col_tiles = ceilDiv(w.cols(), n);
    for (size_t r = 0; r < row_tiles; ++r) {
        size_t rows = std::min(n, w.rows() - r * n);
        for (size_t c = 0; c < col_tiles; ++c) {
            size_t cols = std::min(n, w.cols() - c * n);
            FMat tile(n, n);
            for (size_t i = 0; i < rows; ++i) {
                auto src = w.row(r * n + i).subspan(c * n, cols);
                std::copy(src.begin(), src.end(), tile.row(i).begin());
            }
            loadMrfTile(static_cast<uint32_t>(addr + r * col_tiles + c),
                        tile);
        }
    }
}

void
FuncMachine::loadVrf(MemId id, uint32_t addr, std::span<const float> data)
{
    vrf(id).write(addr, data);
}

void
FuncMachine::loadDramVector(uint32_t addr, std::span<const float> data)
{
    dram_.writeVector(addr, data);
}

void
FuncMachine::loadDramTile(uint32_t addr, const FMat &tile)
{
    dram_.writeTile(addr, tile);
}

void
FuncMachine::pushInput(std::span<const float> data)
{
    BW_ASSERT(data.size() % cfg_.nativeDim == 0,
              "input must be a whole number of native vectors");
    for (size_t i = 0; i < data.size(); i += cfg_.nativeDim) {
        net_.pushInputVector(
            FVec(data.begin() + i, data.begin() + i + cfg_.nativeDim));
    }
}

void
FuncMachine::pushInputTile(const FMat &tile)
{
    net_.pushInputTile(tile);
}

FVec
FuncMachine::popOutput(uint32_t native_vecs)
{
    return net_.popOutput(native_vecs);
}

FVec
FuncMachine::peekVrf(MemId id, uint32_t addr, uint32_t count) const
{
    return vrf(id).read(addr, count);
}

FMat
FuncMachine::peekMrfTile(uint32_t addr) const
{
    return mrf_.read(addr).dequant();
}

void
FuncMachine::resetDynamicState()
{
    ivrf_.clear();
    asvrf_.clear();
    mulvrf_.clear();
    rows_ = 1;
    cols_ = 1;
}

FVec
FuncMachine::readSource(const Instruction &inst, uint32_t width,
                        uint32_t offset)
{
    switch (inst.mem) {
      case MemId::InitialVrf:
      case MemId::AddSubVrf:
      case MemId::MultiplyVrf:
        return vrf(inst.mem).read(inst.addr + offset, width);
      case MemId::NetQ:
        return net_.popInput(width);
      case MemId::Dram:
        return dram_.readVector(inst.addr + offset, width);
      default:
        BW_FATAL("v_rd cannot source from %s", memIdName(inst.mem));
    }
}

void
FuncMachine::writeDest(const Instruction &inst, const FVec &value,
                       uint32_t offset)
{
    switch (inst.mem) {
      case MemId::InitialVrf:
      case MemId::AddSubVrf:
      case MemId::MultiplyVrf:
        vrf(inst.mem).write(inst.addr + offset, value);
        return;
      case MemId::NetQ:
        for (size_t i = 0; i < value.size(); i += cfg_.nativeDim) {
            net_.pushOutput(FVec(value.begin() + i,
                                 value.begin() + i + cfg_.nativeDim));
        }
        return;
      case MemId::Dram:
        dram_.writeVector(inst.addr + offset, value);
        return;
      default:
        BW_FATAL("v_wr cannot sink to %s", memIdName(inst.mem));
    }
}

FVec
FuncMachine::execMvMul(const Instruction &inst, const FVec &input,
                       uint32_t rows, uint32_t cols)
{
    unsigned n = cfg_.nativeDim;
    BW_ASSERT(input.size() == static_cast<size_t>(cols) * n,
              "mv_mul input is %zu elements, expected %u", input.size(),
              cols * n);

    // Quantize the input activation per native-vector block, as the
    // hardware does at the MVM boundary.
    std::vector<BfpBlock> in_blocks;
    in_blocks.reserve(cols);
    for (uint32_t c = 0; c < cols; ++c) {
        std::span<const float> blk(input.data() + static_cast<size_t>(c) * n,
                                   n);
        in_blocks.emplace_back(blk, cfg_.precision);
    }

    // Tiled matrix: entry (r, c) lives at MRF[addr + r*cols + c].
    // Accumulation across column tiles happens in float32 in the
    // add-reduction unit; the result rounds to float16 entering the MFUs.
    FVec out(static_cast<size_t>(rows) * n, 0.0f);
    for (uint32_t r = 0; r < rows; ++r) {
        for (unsigned row_in_tile = 0; row_in_tile < n; ++row_in_tile) {
            double acc = 0.0;
            for (uint32_t c = 0; c < cols; ++c) {
                const QuantTile &tile = mrf_.read(inst.addr + r * cols + c);
                acc += BfpBlock::dot(tile.row(row_in_tile), in_blocks[c]);
            }
            out[static_cast<size_t>(r) * n + row_in_tile] =
                roundToHalf(static_cast<float>(acc));
        }
    }
    return out;
}

FVec
FuncMachine::execPointwise(const Instruction &inst, const FVec &value,
                           uint32_t width, uint32_t operand_offset)
{
    unsigned n = cfg_.nativeDim;
    BW_ASSERT(value.size() == static_cast<size_t>(width) * n);

    FVec operand;
    if (opcodeInfo(inst.op).hasIndex && inst.op != Opcode::MvMul) {
        // Secondary operand from the unit's dedicated VRF.
        MemId src = opcodeInfo(inst.op).unit == UnitClass::MfuMul
                        ? MemId::MultiplyVrf
                        : MemId::AddSubVrf;
        operand = vrf(src).read(inst.addr + operand_offset, width);
    }

    FVec out(value.size());
    for (size_t i = 0; i < value.size(); ++i) {
        float a = value[i];
        float r = 0.0f;
        switch (inst.op) {
          case Opcode::VvAdd: r = a + operand[i]; break;
          case Opcode::VvASubB: r = a - operand[i]; break;
          case Opcode::VvBSubA: r = operand[i] - a; break;
          case Opcode::VvMax: r = std::max(a, operand[i]); break;
          case Opcode::VvMul: r = a * operand[i]; break;
          case Opcode::VRelu: r = a > 0.0f ? a : 0.0f; break;
          case Opcode::VSigm: r = 1.0f / (1.0f + std::exp(-a)); break;
          case Opcode::VTanh: r = std::tanh(a); break;
          default: BW_PANIC("%s is not a point-wise op",
                            opcodeName(inst.op));
        }
        out[i] = roundToHalf(r);
    }
    return out;
}

void
FuncMachine::execChain(const Program &prog, const Chain &c)
{
    if (c.kind == Chain::Kind::Scalar) {
        const Instruction &inst = prog[c.first];
        auto reg = static_cast<ScalarReg>(inst.addr);
        if (reg == ScalarReg::Rows)
            rows_ = static_cast<uint32_t>(inst.value);
        else if (reg == ScalarReg::Cols)
            cols_ = static_cast<uint32_t>(inst.value);
        return;
    }

    if (c.kind == Chain::Kind::Matrix) {
        const Instruction &rd = prog[c.first];
        const Instruction &wr = prog[c.first + 1];
        uint32_t tiles = c.rows * c.cols;
        for (uint32_t t = 0; t < tiles; ++t) {
            FMat tile = rd.mem == MemId::NetQ
                            ? net_.popInputTile()
                            : dram_.readTile(rd.addr + t);
            if (wr.mem == MemId::MatrixRf)
                mrf_.write(wr.addr + t, QuantTile(tile, cfg_.precision));
            else
                dram_.writeTile(wr.addr + t, std::move(tile));
        }
        return;
    }

    // Vector chain; the configuration repeats iters times with
    // v_rd/v_wr addresses advancing by their width each repetition.
    uint32_t in_width = c.hasMvMul ? c.cols : c.rows;
    uint32_t out_width = c.rows;
    for (uint32_t it = 0; it < c.iters; ++it) {
        FVec value;
        for (size_t i = c.first; i < c.end(); ++i) {
            const Instruction &inst = prog[i];
            switch (inst.op) {
              case Opcode::VRd:
                value = readSource(inst, in_width, it * in_width);
                break;
              case Opcode::MvMul:
                value = execMvMul(inst, value, c.rows, c.cols);
                break;
              case Opcode::VWr:
                BW_ASSERT(value.size() ==
                          static_cast<size_t>(out_width) * cfg_.nativeDim,
                          "chain value width mismatch at v_wr");
                writeDest(inst, value, it * out_width);
                break;
              default:
                value = execPointwise(inst, value, out_width,
                                      c.strideOperands ? it * out_width
                                                       : 0);
                break;
            }
        }
    }
}

void
FuncMachine::run(const Program &prog)
{
    checkProgram(prog, cfg_);
    for (const Chain &c : prog.chains())
        execChain(prog, c);
}

void
FuncMachine::run(const Program &prog, unsigned iterations)
{
    checkProgram(prog, cfg_);
    auto chains = prog.chains();
    for (unsigned it = 0; it < iterations; ++it) {
        for (const Chain &c : chains)
            execChain(prog, c);
    }
}

} // namespace bw
