/**
 * @file
 * Critical-path methodology for latency-aware NPU design (Section III).
 *
 * Two latency-centric metrics computed over a model's dataflow graph,
 * counting only function-unit latencies:
 *
 *  - UDM: cycles to serve one step on an Unconstrained Dataflow Machine
 *    with infinite resources — the ASAP depth of the step's dataflow,
 *    where a length-L dot product costs 1 (multiply) + ceil(log2 L)
 *    (reduction tree) cycles and point-wise operations cost 1 cycle.
 *
 *  - SDM: cycles on a Structurally-constrained Dataflow Machine sharing
 *    the target's multiply-accumulate count: ops issue at the MAC-array
 *    rate (2 ops per MAC per cycle) and the final results still traverse
 *    the remaining dataflow depth, giving
 *        SDM = ceil(total_ops / (2 * macs)) + UDM - 1.
 *    This construction reproduces the paper's Table I cell-for-cell
 *    (LSTM-2000: 352, GRU-2800: 520) and the SDM rows of Table V.
 *
 * Both metrics extend to T-step RNN serving by multiplying the per-step
 * value (the recurrent dependence serializes steps on both machines).
 */

#ifndef BW_CRITPATH_CRITPATH_H
#define BW_CRITPATH_CRITPATH_H

#include "common/units.h"
#include "graph/gir.h"

namespace bw {

/** Critical-path metrics of one model step. */
struct CritPathResult
{
    /** Total arithmetic ops per step (2 per MAC + 1 per point-wise). */
    OpCount opsPerStep = 0;
    /** Matmul-only ops per step. */
    OpCount matmulOpsPerStep = 0;
    /** ASAP dataflow depth with infinite resources. */
    Cycles udmCycles = 0;
    /** Resource-constrained dataflow cycles for the given MAC count. */
    Cycles sdmCycles = 0;
    /** Model data footprint: weights plus one step's input activations
     *  at one byte per element (Table I's "Data" column). */
    uint64_t dataBytes = 0;
};

/**
 * Analyze one step of @p graph against an accelerator with @p macs
 * multiply-accumulate units.
 */
CritPathResult analyzeCritPath(const GirGraph &graph, uint64_t macs);

/** SDM cycles for @p steps recurrent steps. */
Cycles sdmTotal(const CritPathResult &r, unsigned steps);

/**
 * Per-node ASAP depths (function-unit latencies only), exposed for the
 * Fig. 2-style sweeps and for tests.
 */
std::vector<Cycles> asapDepths(const GirGraph &graph);

} // namespace bw

#endif // BW_CRITPATH_CRITPATH_H
