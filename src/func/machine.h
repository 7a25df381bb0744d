/**
 * @file
 * The functional (architectural) simulator: executes BW programs with
 * full arithmetic fidelity — BFP-quantized matrix-vector products,
 * float16 point-wise operations — against the architectural state
 * (VRFs, MRF, DRAM, network queues, scalar control registers).
 *
 * The functional machine defines the ISA's semantics; the timing
 * simulator (bw::timing) models the same programs' performance. Tests
 * cross-check the functional machine against float reference models.
 */

#ifndef BW_FUNC_MACHINE_H
#define BW_FUNC_MACHINE_H

#include <memory>

#include "arch/npu_config.h"
#include "func/regfile.h"
#include "isa/program.h"

namespace bw {

/** Architectural simulator for one BW NPU instance. */
class FuncMachine
{
  public:
    explicit FuncMachine(const NpuConfig &cfg);

    const NpuConfig &config() const { return cfg_; }

    // --- Host-side model/state loading. ---

    /**
     * Quantize and pin an N x N float tile at MRF entry @p addr
     * (the toolflow's weight-initialization path, bypassing NetQ).
     */
    void loadMrfTile(uint32_t addr, const FMat &tile);

    /**
     * Pin a whole matrix as a row-major grid of native tiles: tile
     * (r, c) goes to MRF entry @p addr + r * ceil(cols/N) + c. Tail tiles
     * are zero-padded as they are built; @p w itself is never padded.
     */
    void loadMrfMatrix(uint32_t addr, const FMat &w);

    /** Write a host vector (multiple of N elements) into a VRF. */
    void loadVrf(MemId vrf, uint32_t addr, std::span<const float> data);

    /** Write a host vector into the DRAM vector region. */
    void loadDramVector(uint32_t addr, std::span<const float> data);

    /** Write a float tile into the DRAM tile region. */
    void loadDramTile(uint32_t addr, const FMat &tile);

    /** Push one logical input vector (multiple of N) into NetQ. */
    void pushInput(std::span<const float> data);

    /** Push a native tile into NetQ for m_rd initialization. */
    void pushInputTile(const FMat &tile);

    /** Pop @p native_vecs worth of output from NetQ. */
    FVec popOutput(uint32_t native_vecs);

    /** Read back VRF contents (tests/debug). */
    FVec peekVrf(MemId vrf, uint32_t addr, uint32_t count = 1) const;

    /** Dequantized view of an MRF tile (tests/debug). */
    FMat peekMrfTile(uint32_t addr) const;

    // --- Execution. ---

    /**
     * Execute the whole program once. Chains run in program order;
     * scalar-register state persists across run() calls, as do all
     * memories (so a per-timestep program can be replayed).
     */
    void run(const Program &prog);

    /** Execute the program @p iterations times (RNN timestep replay). */
    void run(const Program &prog, unsigned iterations);

    /** Current mega-SIMD scaling registers. */
    uint32_t rows() const { return rows_; }
    uint32_t cols() const { return cols_; }

    /** Reset scalar registers and VRF/queue state (keeps MRF + DRAM). */
    void resetDynamicState();

  private:
    void execChain(const Program &prog, const Chain &c);
    FVec readSource(const Instruction &inst, uint32_t width,
                    uint32_t offset = 0);
    void writeDest(const Instruction &inst, const FVec &value,
                   uint32_t offset = 0);
    FVec execMvMul(const Instruction &inst, const FVec &input,
                   uint32_t rows, uint32_t cols);
    FVec execPointwise(const Instruction &inst, const FVec &value,
                       uint32_t width, uint32_t operand_offset = 0);

    VectorRegFile &vrf(MemId id);
    const VectorRegFile &vrf(MemId id) const;

    NpuConfig cfg_;
    VectorRegFile ivrf_;
    VectorRegFile asvrf_;
    VectorRegFile mulvrf_;
    MatrixRegFile mrf_;
    DramStore dram_;
    NetQueues net_;
    uint32_t rows_ = 1;
    uint32_t cols_ = 1;
};

} // namespace bw

#endif // BW_FUNC_MACHINE_H
