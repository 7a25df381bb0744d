#include "compiler/conv_lowering.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"
#include "isa/builder.h"
#include "isa/validate.h"
#include "refmodel/conv_ref.h"

namespace bw {

namespace {

/** Record thin tail-tile beats for one weight placement. */
void
recordTileBeats(std::unordered_map<uint32_t, unsigned> &beats,
                const NpuConfig &cfg, uint32_t mrf_base,
                uint32_t row_tiles, uint32_t col_tiles,
                unsigned logical_cols)
{
    unsigned full = cfg.nativeVectorBeats();
    for (uint32_t c = 0; c < col_tiles; ++c) {
        unsigned valid =
            std::min(cfg.nativeDim, logical_cols - c * cfg.nativeDim);
        unsigned b = ceilDiv(valid, cfg.lanes);
        if (b == full)
            continue;
        for (uint32_t r = 0; r < row_tiles; ++r)
            beats[mrf_base + r * col_tiles + c] = b;
    }
}

} // namespace

ConvNetPlan
planConvNet(const std::vector<ConvSpec> &layers, const NpuConfig &cfg)
{
    cfg.validate();
    BW_ASSERT(!layers.empty());

    ConvNetPlan plan;
    plan.cfg = cfg;
    unsigned n = cfg.nativeDim;

    // Double-buffered MRF weight regions sized by the largest layer.
    uint32_t max_weight_tiles = 0;
    for (const ConvSpec &s : layers) {
        uint32_t t = ceilDiv(s.outC, n) * ceilDiv(s.patchLen(), n);
        max_weight_tiles = std::max(max_weight_tiles, t);
    }
    if (2 * max_weight_tiles > cfg.mrfEntries()) {
        BW_FATAL("CNN weights need 2x%u MRF tile entries, %s has %u "
                 "(increase mrfIndexSpace or shrink the native tile)",
                 max_weight_tiles, cfg.name.c_str(), cfg.mrfEntries());
    }

    // Ping-pong activation regions in the InitialVrf.
    uint32_t region = cfg.initialVrfSize / 2;
    BW_ASSERT(region > 0);

    ProgramBuilder b;
    int64_t cur_rows = -1, cur_cols = -1, cur_iters = -1;
    auto set_rci = [&](uint32_t r, uint32_t c, uint32_t it) {
        if (cur_rows != r) {
            b.sWr(ScalarReg::Rows, r);
            cur_rows = r;
        }
        if (cur_cols != c) {
            b.sWr(ScalarReg::Cols, c);
            cur_cols = c;
        }
        if (cur_iters != it) {
            b.sWr(ScalarReg::Iterations, it);
            cur_iters = it;
        }
    };

    uint32_t dram_tile_next = 0;
    uint32_t bias_next = 0;

    // Lay out all layers first.
    for (size_t k = 0; k < layers.size(); ++k) {
        const ConvSpec &s = layers[k];
        ConvLayerPlan lp;
        lp.spec = s;
        lp.rowTiles = ceilDiv(s.outC, n);
        lp.colTiles = ceilDiv(s.patchLen(), n);
        lp.mrfBase = (k % 2) ? max_weight_tiles : 0;
        lp.dramWeightBase = dram_tile_next;
        dram_tile_next += lp.rowTiles * lp.colTiles;
        lp.biasAddr = bias_next;
        bias_next += lp.rowTiles;
        if (bias_next > cfg.addSubVrfSize) {
            BW_FATAL("CNN biases need %u AddSubVrf entries, %s has %u",
                     bias_next, cfg.name.c_str(), cfg.addSubVrfSize);
        }
        lp.inBase = (k % 2) ? region : 0;
        lp.outBase = (k % 2) ? 0 : region;
        // Positions per iterated chain, bounded by the ping-pong
        // activation regions on both the patch and output sides.
        unsigned by_in = std::max(1u, region / lp.colTiles);
        unsigned by_out = std::max(1u, region / lp.rowTiles);
        lp.groupSize = std::min({s.positions(), by_in, by_out, 4096u});
        lp.groups = ceilDiv(s.positions(), lp.groupSize);
        lp.ops = s.macOps();
        plan.totalOps += lp.ops;
        recordTileBeats(plan.tileBeats, cfg, lp.mrfBase, lp.rowTiles,
                        lp.colTiles, s.patchLen());
        plan.layers.push_back(lp);
    }

    // Emit: weight stream for layer 0, then for each layer the next
    // layer's weight stream (overlapped) followed by this layer's
    // compute chains.
    auto emit_weight_load = [&](const ConvLayerPlan &lp) {
        // Iterations do not apply to matrix chains; only rows/cols
        // shape the tile transfer.
        if (cur_rows != lp.rowTiles) {
            b.sWr(ScalarReg::Rows, lp.rowTiles);
            cur_rows = lp.rowTiles;
        }
        if (cur_cols != lp.colTiles) {
            b.sWr(ScalarReg::Cols, lp.colTiles);
            cur_cols = lp.colTiles;
        }
        b.mRd(MemId::Dram, lp.dramWeightBase);
        b.mWr(MemId::MatrixRf, lp.mrfBase);
        b.endChain();
    };

    emit_weight_load(plan.layers[0]);
    for (size_t k = 0; k < plan.layers.size(); ++k) {
        if (k + 1 < plan.layers.size())
            emit_weight_load(plan.layers[k + 1]);

        const ConvLayerPlan &lp = plan.layers[k];

        // Line-buffer refill: the previous layer's raw activations are
        // re-laid out into this layer's patch feed. One copy pass over
        // the producer's output vectors charges the single-ported
        // activation-buffer bandwidth and serializes the layers.
        if (k > 0) {
            const ConvLayerPlan &prev = plan.layers[k - 1];
            uint64_t vecs = static_cast<uint64_t>(prev.spec.positions()) *
                            prev.rowTiles;
            uint32_t count =
                static_cast<uint32_t>(std::min<uint64_t>(vecs, region));
            set_rci(1, cur_cols > 0 ? static_cast<uint32_t>(cur_cols) : 1,
                    count);
            b.vRd(MemId::InitialVrf, lp.inBase);
            b.vWr(MemId::InitialVrf, lp.inBase);
            b.endChain();
        }
        unsigned remaining = lp.spec.positions();
        // Groups wrap within the activation regions (line-buffer reuse:
        // only a sliding window of activations is live on chip).
        unsigned in_wrap = std::max(1u, region / (lp.groupSize *
                                                  lp.colTiles));
        unsigned out_wrap = std::max(1u, region / (lp.groupSize *
                                                   lp.rowTiles));
        for (unsigned g = 0; g < lp.groups; ++g) {
            unsigned count = std::min(lp.groupSize, remaining);
            remaining -= count;
            set_rci(lp.rowTiles, lp.colTiles, count);
            b.vRd(MemId::InitialVrf,
                  lp.inBase + (g % in_wrap) * lp.groupSize * lp.colTiles);
            b.mvMul(lp.mrfBase);
            b.vvAdd(lp.biasAddr);
            if (lp.spec.relu)
                b.vRelu();
            b.vWr(MemId::InitialVrf,
                  lp.outBase +
                      (g % out_wrap) * lp.groupSize * lp.rowTiles);
            b.endChain();
        }

        // Residual shortcut: a point-wise add pass over the output
        // feature map (followed by the block's deferred ReLU).
        if (lp.spec.residualAdd) {
            uint64_t vecs = static_cast<uint64_t>(lp.spec.positions()) *
                            lp.rowTiles;
            uint32_t count =
                static_cast<uint32_t>(std::min<uint64_t>(vecs, region));
            set_rci(1, cur_cols > 0 ? static_cast<uint32_t>(cur_cols) : 1,
                    count);
            b.vRd(MemId::InitialVrf, lp.outBase);
            b.vvAdd(lp.biasAddr); // shortcut operand (same-shape add)
            b.vRelu();
            b.vWr(MemId::InitialVrf, lp.outBase);
            b.endChain();
        }
    }

    plan.program = b.build();
    checkProgram(plan.program, cfg);
    return plan;
}

FTensor4
runConvLayerFunctional(FuncMachine &m, const ConvSpec &spec,
                       const FMat &weights, std::span<const float> bias,
                       const FTensor4 &input)
{
    const NpuConfig &cfg = m.config();
    unsigned n = cfg.nativeDim;
    BW_ASSERT(weights.rows() == spec.outC &&
              weights.cols() == spec.patchLen());

    uint32_t row_tiles = ceilDiv(spec.outC, n);
    uint32_t col_tiles = ceilDiv(spec.patchLen(), n);

    // Pin the quantized weight tiles.
    m.loadMrfMatrix(0, weights);
    m.loadVrf(MemId::AddSubVrf, 0,
              padTo(bias, static_cast<size_t>(row_tiles) * n));

    // Group output positions so each group's patches and outputs fit
    // the InitialVrf (patches in the lower half, outputs above).
    uint32_t region = cfg.initialVrfSize / 2;
    unsigned group = std::min<unsigned>(
        spec.positions(),
        std::min(std::max(1u, region / col_tiles),
                 std::max(1u, region / row_tiles)));

    FTensor4 out(1, spec.outH(), spec.outW(), spec.outC);
    unsigned pos = 0;
    while (pos < spec.positions()) {
        unsigned count = std::min<unsigned>(group, spec.positions() - pos);

        // Host-side patch staging (models the line-buffer/DMA feeder).
        for (unsigned p = 0; p < count; ++p) {
            unsigned y = (pos + p) / spec.outW();
            unsigned x = (pos + p) % spec.outW();
            FVec patch = im2colPatch(spec, input, y, x);
            m.loadVrf(MemId::InitialVrf, p * col_tiles,
                      padTo(patch, static_cast<size_t>(col_tiles) * n));
        }

        ProgramBuilder b;
        b.sWr(ScalarReg::Rows, row_tiles)
            .sWr(ScalarReg::Cols, col_tiles)
            .sWr(ScalarReg::Iterations, count);
        b.vRd(MemId::InitialVrf, 0);
        b.mvMul(0);
        b.vvAdd(0);
        if (spec.relu)
            b.vRelu();
        b.vWr(MemId::InitialVrf, region);
        b.endChain();
        m.run(b.build());

        for (unsigned p = 0; p < count; ++p) {
            unsigned y = (pos + p) / spec.outW();
            unsigned x = (pos + p) % spec.outW();
            FVec v = m.peekVrf(MemId::InitialVrf, region + p * row_tiles,
                               row_tiles);
            for (unsigned oc = 0; oc < spec.outC; ++oc)
                out.at(0, y, x, oc) = v[oc];
        }
        pos += count;
    }
    return out;
}

} // namespace bw
