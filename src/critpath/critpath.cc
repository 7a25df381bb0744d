#include "critpath/critpath.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"

namespace bw {

namespace {

/** Function-unit latency of one GIR node (Section III's model). */
Cycles
nodeLatency(const GirNode &n)
{
    switch (n.op) {
      case GirOp::Input:
      case GirOp::ConstVec:
      case GirOp::State:
      case GirOp::Output:
        return 0;
      case GirOp::MatMul: {
        // One multiply plus a binary reduction tree over the dot length.
        uint64_t len = n.weight->cols();
        return 1 + (len > 1 ? ceilLog2(len) : 0);
      }
      default:
        return 1; // point-wise
    }
}

} // namespace

std::vector<Cycles>
asapDepths(const GirGraph &graph)
{
    std::vector<Cycles> depth(graph.size(), 0);
    for (NodeId id : graph.topoOrder()) {
        const GirNode &n = graph.node(id);
        Cycles in = 0;
        for (NodeId p : n.inputs)
            in = std::max(in, depth[p]);
        depth[id] = in + nodeLatency(n);
    }
    return depth;
}

CritPathResult
analyzeCritPath(const GirGraph &graph, uint64_t macs)
{
    BW_ASSERT(macs > 0);
    graph.check();

    CritPathResult r;
    r.opsPerStep = graph.opsPerStep();
    r.matmulOpsPerStep = graph.matmulOpsPerStep();

    // UDM: depth of the step's architecturally visible results (state
    // producers and outputs).
    auto depth = asapDepths(graph);
    Cycles udm = 0;
    for (auto &[state, producer] : graph.stateBindings()) {
        (void)state;
        udm = std::max(udm, depth[producer]);
    }
    for (NodeId out : graph.nodesOf(GirOp::Output))
        udm = std::max(udm, depth[graph.node(out).inputs[0]]);
    if (udm == 0) {
        // Degenerate graph with no outputs: use the deepest node.
        for (Cycles d : depth)
            udm = std::max(udm, d);
    }
    r.udmCycles = udm;

    // SDM: ops issue at the MAC array's rate (2 ops/MAC/cycle); the
    // last results still traverse the remaining dataflow depth.
    Cycles issue = ceilDiv<uint64_t>(r.opsPerStep, 2 * macs);
    r.sdmCycles = issue + (udm > 0 ? udm - 1 : 0);

    // Data: weights plus one step's input activations, 1 byte/element.
    r.dataBytes = graph.weightBytes(8);
    for (NodeId in : graph.nodesOf(GirOp::Input))
        r.dataBytes += graph.node(in).dim;
    return r;
}

Cycles
sdmTotal(const CritPathResult &r, unsigned steps)
{
    return r.sdmCycles * steps;
}

} // namespace bw
