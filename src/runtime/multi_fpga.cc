#include "runtime/multi_fpga.h"

#include <algorithm>

#include "common/bits.h"

namespace bw {

unsigned
fpgasNeededForPinning(const GirGraph &graph, const NpuConfig &cfg)
{
    uint64_t elems = 0;
    for (const GirNode &n : graph.nodes()) {
        if (n.op == GirOp::MatMul)
            elems += static_cast<uint64_t>(n.weight->rows()) *
                     n.weight->cols();
    }
    uint64_t tile_elems =
        static_cast<uint64_t>(cfg.nativeDim) * cfg.nativeDim;
    uint64_t tiles = ceilDiv(elems, tile_elems);
    return static_cast<unsigned>(ceilDiv<uint64_t>(tiles, cfg.mrfSize));
}

namespace {

BidirDirection
compileAndTime(const GruWeights &w, unsigned steps, const NpuConfig &cfg)
{
    BidirDirection d;
    GirGraph g = makeGru(w);
    d.model = compileGir(g, cfg);
    timing::NpuTiming sim(cfg);
    sim.setTileBeats(d.model.tileBeats);
    auto res = sim.run(d.model.prologue, d.model.step, steps);
    d.cycles = res.totalCycles;
    return d;
}

} // namespace

BidirServeResult
serveBidirectionalGru(const GruWeights &fwd, const GruWeights &bwd,
                      unsigned steps, const NpuConfig &cfg,
                      double network_ms)
{
    BidirServeResult r;
    r.forward = compileAndTime(fwd, steps, cfg);
    r.backward = compileAndTime(bwd, steps, cfg);
    r.networkMs = network_ms;
    double fwd_ms = cyclesToMs(r.forward.cycles, cfg.clockMhz);
    double bwd_ms = cyclesToMs(r.backward.cycles, cfg.clockMhz);
    r.latencyMs = std::max(fwd_ms, bwd_ms) + network_ms;
    return r;
}

} // namespace bw
