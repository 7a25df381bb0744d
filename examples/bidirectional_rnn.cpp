/**
 * @file
 * Multi-FPGA deployment (Sections II-A, V-A): the paper's production
 * example of a bidirectional RNN split across two accelerators, with
 * the server invoking the forward and backward directions in parallel
 * and concatenating their outputs. Also shows the pinning-capacity
 * query that drives partitioning decisions.
 *
 *   $ ./bidirectional_rnn
 */

#include <cstdio>

#include "bw/bw.h"

using namespace bw;

int
main()
{
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(11);

    // How many accelerators do different models need for pinning?
    std::printf("Model pinning capacity on %s (%u tile equivalents):\n\n",
                cfg.name.c_str(), cfg.mrfSize);
    TextTable t({"Model", "Weights (M elems)", "FPGAs to pin"});
    for (unsigned h : {1024u, 2048u, 2816u, 4096u, 8192u}) {
        GirGraph g = makeGru(randomGruWeights(h, h, rng));
        uint64_t elems = 0;
        for (const GirNode &n : g.nodes()) {
            if (n.op == GirOp::MatMul)
                elems += n.weight->rows() * n.weight->cols();
        }
        t.addRow({"GRU h=" + std::to_string(h),
                  fmtF(static_cast<double>(elems) / 1e6, 1),
                  std::to_string(fpgasNeededForPinning(g, cfg))});
    }
    std::printf("%s\n", t.render().c_str());

    // The production deployment: bidirectional GRU h=1400 over 50
    // steps, one direction per FPGA — one bw::Session per accelerator,
    // with the server taking the max of both and one network round
    // trip for invoke/gather.
    const unsigned hidden = 1400, steps = 50;
    GruWeights fwd = randomGruWeights(hidden, hidden, rng);
    GruWeights bwd = randomGruWeights(hidden, hidden, rng);

    Session fwd_fpga = Session::compile(makeGru(fwd), cfg);
    Session bwd_fpga = Session::compile(makeGru(bwd), cfg);
    double fwd_ms = fwd_fpga.serviceMs(steps);
    double bwd_ms = bwd_fpga.serviceMs(steps);

    // The runtime helper models the same deployment in one call; the
    // two Sessions above reproduce it exactly.
    BidirServeResult r = serveBidirectionalGru(fwd, bwd, steps, cfg);

    std::printf("Bidirectional GRU h=%u, %u timesteps, split across two "
                "%s accelerators:\n",
                hidden, steps, cfg.name.c_str());
    std::printf("  forward FPGA:  %.3f ms\n", fwd_ms);
    std::printf("  backward FPGA: %.3f ms\n", bwd_ms);
    std::printf("  end-to-end:    %.3f ms "
                "(max of both + %.0f us network invoke/gather)\n",
                r.latencyMs, r.networkMs * 1e3);
    std::printf("  sequential on one FPGA would cost %.3f ms "
                "(%.2fx slower)\n\n",
                fwd_ms + bwd_ms, (fwd_ms + bwd_ms) / r.latencyMs);
    std::printf("\"We have split bidirectional RNNs across two "
                "independent FPGAs, with the server\ninvoking the "
                "forward and backward RNN FPGAs separately and "
                "concatenating their\noutputs.\" (Section II-A)\n");
    return 0;
}
