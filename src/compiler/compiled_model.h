/**
 * @file
 * The compiler's output artifact: a per-step BW program plus the device
 * images (MRF weight tiles, VRF constant preloads) and I/O metadata
 * needed to install and serve the model.
 */

#ifndef BW_COMPILER_COMPILED_MODEL_H
#define BW_COMPILER_COMPILED_MODEL_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/npu_config.h"
#include "common/status.h"
#include "func/machine.h"
#include "graph/gir.h"
#include "isa/program.h"

namespace bw {

/**
 * One MatMul weight placed in the MRF as a grid of native tiles. The
 * matrix is the graph's own unpadded payload, shared rather than copied;
 * install() zero-pads the tail tiles as it builds them.
 */
struct WeightPlacement
{
    NodeId node = 0;       //!< the MatMul node
    uint32_t mrfAddr = 0;  //!< first tile entry
    uint32_t rowTiles = 0; //!< native row tiles (mega-SIMD rows)
    uint32_t colTiles = 0; //!< native column tiles (mega-SIMD cols)
    /** True (unpadded) dimensions; tail tiles are thin: they charge only
     *  their real elements of MRF capacity and stream in fewer beats. */
    uint32_t logicalRows = 0;
    uint32_t logicalCols = 0;
    /** logicalRows x logicalCols, shared with the GirNode. */
    std::shared_ptr<const FMat> weight;
};

/** A constant vector preloaded into a VRF before serving. */
struct VrfPreload
{
    MemId space = MemId::InitialVrf;
    uint32_t addr = 0;
    FVec data; //!< padded to a whole number of native vectors
};

/** A fully lowered model for one NPU configuration. */
struct CompiledModel
{
    std::string name;
    NpuConfig cfg;

    /** Program for one timestep (RNNs) or one inference (MLPs). */
    Program step;

    /**
     * Software-pipelining prologue (may be empty). When the compiler
     * hoists input-side projection chains (those depending on the input
     * but on no recurrent state) to the end of the step program, each
     * iteration computes the *next* step's projections while the
     * recurrent chains of the current step execute — spacing out the
     * h->h dependency exactly as tuned production kernels do. The
     * prologue computes step 0's projections; each iteration then
     * prefetches one input ahead (the final prefetch reads a dummy).
     */
    Program prologue;

    std::vector<WeightPlacement> weights;
    std::vector<VrfPreload> preloads;

    unsigned inputDim = 0;         //!< logical input elements per step
    unsigned outputDim = 0;        //!< logical output elements per step
    unsigned inputVecsPerStep = 0; //!< native vectors popped from NetQ
    unsigned outputVecsPerStep = 0;

    /** True (unpadded) model op counts, per the paper's accounting. */
    OpCount matmulOpsPerStep = 0;
    OpCount totalOpsPerStep = 0;

    /** MRF capacity used, in full-tile equivalents (element-packed). */
    uint32_t mrfTilesUsed = 0;

    /** Interleaved batch size the step program serves (1 = unbatched). */
    unsigned batchSize = 1;

    /**
     * Per-MRF-entry streaming beats for thin tail tiles (entries absent
     * from the map take the full nativeDim/lanes beats). Consumed by the
     * timing simulator via NpuTiming::setTileBeats().
     */
    std::unordered_map<uint32_t, unsigned> tileBeats;

    /** Load weight tiles and constant preloads into a machine. */
    void install(FuncMachine &m) const;

    /**
     * Clear recurrent state between independent requests on an
     * installed machine. A raw FuncMachine::resetDynamicState() also
     * wipes the model's VRF preloads (biases, constants); this
     * restores them, leaving the machine as install() left it.
     */
    void resetRequestState(FuncMachine &m) const;

    // --- Input validation (shared with bw::serve admission control).
    //     The run* entry points call these and throw bw::Error with
    //     the status message on failure; callers that prefer a value
    //     (the serving engine, services) call them directly. ---

    /** Can @p elems elements be served as one runStep() input? */
    Status validateStepInput(size_t elems) const;

    /** Can @p xs be served as a runSequence() input sequence? */
    Status validateSequenceInput(const std::vector<FVec> &xs) const;

    /** Can @p xs be served as one runStepBatch() input set? */
    Status validateBatchInput(const std::vector<FVec> &xs) const;

    /**
     * Convenience serving step: pad and push @p x, execute the step
     * program once, pop and trim the step's output. Only valid for
     * models without a software-pipelining prologue.
     */
    FVec runStep(FuncMachine &m, std::span<const float> x) const;

    /**
     * Serve a whole input sequence (handles the pipelined input
     * prefetch schedule when a prologue is present). Returns one output
     * per step.
     */
    std::vector<FVec> runSequence(FuncMachine &m,
                                  const std::vector<FVec> &xs) const;

    /**
     * One batched step: @p xs holds batchSize per-sample inputs; returns
     * batchSize per-sample outputs. Unpipelined models only.
     */
    std::vector<FVec> runStepBatch(FuncMachine &m,
                                   const std::vector<FVec> &xs) const;
};

} // namespace bw

#endif // BW_COMPILER_COMPILED_MODEL_H
