/**
 * @file
 * Compiler tests: chain fusion against the paper's hand-written LSTM
 * kernel shape, allocation legality, software-pipelining correctness,
 * and end-to-end functional equivalence of compiled LSTM/GRU/MLP models
 * against the float reference within BFP/float16 error bounds.
 */

#include <gtest/gtest.h>

#include "compiler/lowering.h"
#include "func/machine.h"
#include "isa/analysis.h"
#include "isa/validate.h"
#include "refmodel/rnn_ref.h"
#include "timing/npu_timing.h"

namespace bw {
namespace {

/** Small test target: N=16, plenty of storage, high-precision BFP so
 *  functional comparisons are tight. */
NpuConfig
testConfig(int mant = 7)
{
    NpuConfig c;
    c.name = "test16";
    c.nativeDim = 16;
    c.lanes = 4;
    c.tileEngines = 2;
    c.mrfSize = 512;
    c.mrfIndexSpace = 2048;
    c.initialVrfSize = 256;
    c.addSubVrfSize = 256;
    c.multiplyVrfSize = 256;
    c.precision = BfpFormat{1, 5, mant};
    return c;
}

TEST(Compiler, LstmChainShapesMatchPaperKernel)
{
    Rng rng(1);
    NpuConfig cfg = testConfig();
    GirGraph g = makeLstm(randomLstmWeights(32, 32, rng));
    CompiledModel m = compileGir(g, cfg, {.pipelineInputProjections =
                                              false});

    auto chains = m.step.chains();
    unsigned vector_chains = 0, mvmul_chains = 0;
    size_t longest = 0;
    for (const Chain &c : chains) {
        if (c.kind != Chain::Kind::Vector)
            continue;
        ++vector_chains;
        if (c.hasMvMul)
            ++mvmul_chains;
        longest = std::max(longest, c.count);
    }
    // Paper kernel: 1 input chain + 4 xW chains + f/i/o gates + c gate
    // + h chain = 10 chains, 8 of them matrix-vector.
    EXPECT_EQ(vector_chains, 10u);
    EXPECT_EQ(mvmul_chains, 8u);
    // The c-gate chain (v_rd, mv_mul, add, tanh, mul, add, 2 writes) is
    // the longest.
    EXPECT_GE(longest, 8u);
    // Instruction budget comparable to the paper's "under 100 lines".
    EXPECT_LT(m.step.size(), 100u);
}

TEST(Compiler, LstmFunctionalMatchesReference)
{
    Rng rng(2);
    NpuConfig cfg = testConfig();
    LstmWeights w = randomLstmWeights(48, 32, rng); // padded dims
    GirGraph g = makeLstm(w);
    CompiledModel m = compileGir(g, cfg);

    FuncMachine machine(cfg);
    m.install(machine);

    std::vector<FVec> xs;
    for (int t = 0; t < 8; ++t) {
        FVec x(32);
        fillUniform(x, rng, -0.5f, 0.5f);
        xs.push_back(x);
    }
    auto got = m.runSequence(machine, xs);
    auto want = lstmRefRun(w, xs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < got.size(); ++t) {
        EXPECT_LT(maxAbsDiff(got[t], want[t]), 0.03)
            << "diverged at step " << t;
    }
}

TEST(Compiler, GruFunctionalMatchesReference)
{
    Rng rng(3);
    NpuConfig cfg = testConfig();
    GruWeights w = randomGruWeights(32, 48, rng);
    GirGraph g = makeGru(w);
    CompiledModel m = compileGir(g, cfg);
    EXPECT_FALSE(m.prologue.empty()); // GRU is software-pipelined

    FuncMachine machine(cfg);
    m.install(machine);

    std::vector<FVec> xs;
    for (int t = 0; t < 8; ++t) {
        FVec x(48);
        fillUniform(x, rng, -0.5f, 0.5f);
        xs.push_back(x);
    }
    auto got = m.runSequence(machine, xs);
    auto want = gruRefRun(w, xs);
    for (size_t t = 0; t < got.size(); ++t) {
        EXPECT_LT(maxAbsDiff(got[t], want[t]), 0.03)
            << "diverged at step " << t;
    }
}

TEST(Compiler, PipelinedAndUnpipelinedAgree)
{
    Rng rng(4);
    NpuConfig cfg = testConfig();
    GruWeights w = randomGruWeights(32, 32, rng);

    CompiledModel pip = compileGir(makeGru(w), cfg,
                                   {.pipelineInputProjections = true});
    CompiledModel flat = compileGir(makeGru(w), cfg,
                                    {.pipelineInputProjections = false});
    EXPECT_FALSE(pip.prologue.empty());
    EXPECT_TRUE(flat.prologue.empty());

    std::vector<FVec> xs;
    for (int t = 0; t < 5; ++t) {
        FVec x(32);
        fillUniform(x, rng, -0.5f, 0.5f);
        xs.push_back(x);
    }
    FuncMachine ma(cfg), mb(cfg);
    pip.install(ma);
    flat.install(mb);
    auto ya = pip.runSequence(ma, xs);
    auto yb = flat.runSequence(mb, xs);
    for (size_t t = 0; t < xs.size(); ++t)
        EXPECT_LT(maxAbsDiff(ya[t], yb[t]), 1e-6) << "step " << t;
}

TEST(Compiler, MlpFunctionalMatchesReference)
{
    Rng rng(5);
    NpuConfig cfg = testConfig();
    MlpWeights w = randomMlpWeights({32, 64, 48, 16}, rng);
    CompiledModel m = compileGir(makeMlp(w), cfg);
    EXPECT_TRUE(m.prologue.empty()); // no recurrent state to pipeline

    FuncMachine machine(cfg);
    m.install(machine);
    FVec x(32);
    fillUniform(x, rng, -0.5f, 0.5f);
    FVec got = m.runStep(machine, x);
    FVec want = mlpRef(w, x);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_LT(maxAbsDiff(got, want), 0.05);
}

TEST(Compiler, UnpaddedDimensionsUseThinTiles)
{
    Rng rng(6);
    NpuConfig cfg = testConfig();
    // 40 is 2.5 native tiles: the tail tile is thin.
    GruWeights w = randomGruWeights(40, 40, rng);
    CompiledModel m = compileGir(makeGru(w), cfg);
    EXPECT_FALSE(m.tileBeats.empty());
    // Element-packed capacity: 6 * 40 * 40 / 256 = 37.5 -> 38 tiles.
    EXPECT_EQ(m.mrfTilesUsed, 38u);

    // And it still computes correctly.
    FuncMachine machine(cfg);
    m.install(machine);
    std::vector<FVec> xs(4, FVec(40));
    for (auto &x : xs)
        fillUniform(x, rng, -0.5f, 0.5f);
    auto got = m.runSequence(machine, xs);
    auto want = gruRefRun(w, xs);
    for (size_t t = 0; t < got.size(); ++t)
        EXPECT_LT(maxAbsDiff(got[t], want[t]), 0.03);
}

/**
 * Install @p m's weights the way the compiler did before it shared the
 * graph's payload: zero-pad each matrix to whole tiles, then slice.
 */
void
installFromPaddedCopy(const CompiledModel &m, FuncMachine &machine)
{
    size_t n = m.cfg.nativeDim;
    for (const WeightPlacement &w : m.weights) {
        FMat padded = padTo(*w.weight, w.rowTiles * n, w.colTiles * n);
        for (uint32_t r = 0; r < w.rowTiles; ++r) {
            for (uint32_t c = 0; c < w.colTiles; ++c) {
                FMat tile(n, n);
                for (size_t i = 0; i < n; ++i) {
                    auto src = padded.row(r * n + i).subspan(c * n, n);
                    std::copy(src.begin(), src.end(), tile.row(i).begin());
                }
                machine.loadMrfTile(w.mrfAddr + r * w.colTiles + c, tile);
            }
        }
    }
    for (const VrfPreload &p : m.preloads)
        machine.loadVrf(p.space, p.addr, p.data);
}

TEST(Compiler, UnalignedWeightsInstallPaddedTiles)
{
    Rng rng(12);
    NpuConfig cfg = testConfig();
    // 40, 37 and 5 are not multiples of nativeDim (16): every matrix
    // has thin tail tiles in both directions.
    MlpWeights w = randomMlpWeights({37, 40, 5}, rng);
    GirGraph g = makeMlp(w);
    CompiledModel m = compileGir(g, cfg);

    FuncMachine got(cfg), want(cfg);
    m.install(got);
    installFromPaddedCopy(m, want);
    ASSERT_EQ(m.weights.size(), 2u);
    for (const WeightPlacement &p : m.weights) {
        // The placement holds the graph's matrix itself, unpadded.
        EXPECT_EQ(p.weight.get(), g.node(p.node).weight.get());
        EXPECT_EQ(p.weight->rows(), p.logicalRows);
        EXPECT_EQ(p.weight->cols(), p.logicalCols);
        for (uint32_t t = 0; t < p.rowTiles * p.colTiles; ++t) {
            EXPECT_EQ(got.peekMrfTile(p.mrfAddr + t).data(),
                      want.peekMrfTile(p.mrfAddr + t).data())
                << "tile " << p.mrfAddr + t;
        }
    }
    // The bottom-right tile of the 40x37 layer is 8x5 real elements in
    // a zero 16x16 tile.
    const WeightPlacement &first = m.weights[0];
    FMat corner = got.peekMrfTile(first.mrfAddr + first.rowTiles *
                                  first.colTiles - 1);
    for (size_t r = 0; r < 16; ++r) {
        for (size_t c = 0; c < 16; ++c) {
            if (r >= 8 || c >= 5) {
                EXPECT_EQ(corner(r, c), 0.0f) << r << "," << c;
            }
        }
    }

    for (int i = 0; i < 3; ++i) {
        FVec x(37);
        fillUniform(x, rng, -0.5f, 0.5f);
        EXPECT_EQ(m.runStep(got, x), m.runStep(want, x));
    }
}

TEST(Compiler, CompiledModelOutlivesItsGraph)
{
    Rng rng(13);
    NpuConfig cfg = testConfig();
    GruWeights w = randomGruWeights(40, 24, rng);
    CompiledModel orphan;
    {
        GirGraph g = makeGru(w);
        orphan = compileGir(g, cfg);
    }
    // The graph is gone; the model alone keeps its weights alive.
    for (const WeightPlacement &p : orphan.weights)
        EXPECT_EQ(p.weight.use_count(), 1);

    GirGraph live = makeGru(w);
    CompiledModel ref = compileGir(live, cfg);
    FuncMachine a(cfg), b(cfg);
    orphan.install(a);
    ref.install(b);
    std::vector<FVec> xs(5, FVec(24));
    for (auto &x : xs)
        fillUniform(x, rng, -0.5f, 0.5f);
    EXPECT_EQ(orphan.runSequence(a, xs), ref.runSequence(b, xs));
}

TEST(Compiler, ModelTooLargeReportsPartitioning)
{
    Rng rng(7);
    NpuConfig cfg = testConfig();
    cfg.mrfSize = 4; // tiny MRF
    try {
        compileGir(makeLstm(randomLstmWeights(64, 64, rng)), cfg);
        FAIL() << "expected capacity failure";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("partition"),
                  std::string::npos);
    }
}

TEST(Compiler, ValidatedAgainstTarget)
{
    Rng rng(8);
    NpuConfig cfg = testConfig();
    CompiledModel m = compileGir(makeLstm(randomLstmWeights(32, 32, rng)),
                                 cfg);
    EXPECT_NO_THROW(checkProgram(m.step, cfg));
    ProgramStats s = analyzeProgram(m.step, cfg);
    // Dimensions are native-aligned here, so padded ops equal logical.
    EXPECT_EQ(s.mvmOps, m.matmulOpsPerStep);
}

TEST(Compiler, RunStepRejectsPipelinedModel)
{
    Rng rng(9);
    NpuConfig cfg = testConfig();
    CompiledModel m = compileGir(makeGru(randomGruWeights(32, 32, rng)),
                                 cfg);
    FuncMachine machine(cfg);
    m.install(machine);
    FVec x(32, 0.0f);
    EXPECT_THROW(m.runStep(machine, x), Error);
}

TEST(Compiler, TimingRunsOnCompiledModel)
{
    Rng rng(10);
    NpuConfig cfg = testConfig();
    CompiledModel m = compileGir(makeGru(randomGruWeights(32, 32, rng)),
                                 cfg);
    timing::NpuTiming sim(cfg);
    sim.setTileBeats(m.tileBeats);
    auto res = sim.run(m.prologue, m.step, 20);
    EXPECT_EQ(res.iterationEnd.size(), 20u);
    EXPECT_GT(res.steadyStateIterationCycles(), 0u);
}

TEST(BatchInterleave, FunctionalPerSampleIndependence)
{
    // Section VII-B3 future work: one configured chain iterates over
    // the batch with strided operands. Each sample must evolve exactly
    // as it would served alone.
    Rng rng(11);
    NpuConfig cfg = testConfig();
    GruWeights w = randomGruWeights(32, 32, rng);
    const unsigned batch = 3, steps = 4;

    CompiledModel batched =
        compileGir(makeGru(w), cfg,
                   {.pipelineInputProjections = false,
                    .batchSize = batch});
    EXPECT_EQ(batched.batchSize, batch);

    FuncMachine bm(cfg);
    batched.install(bm);

    // Per-sample input sequences.
    std::vector<std::vector<FVec>> seqs(batch);
    for (unsigned b = 0; b < batch; ++b) {
        for (unsigned t = 0; t < steps; ++t) {
            FVec x(32);
            fillUniform(x, rng, -0.5f, 0.5f);
            seqs[b].push_back(x);
        }
    }

    std::vector<std::vector<FVec>> got(batch);
    for (unsigned t = 0; t < steps; ++t) {
        std::vector<FVec> xs;
        for (unsigned b = 0; b < batch; ++b)
            xs.push_back(seqs[b][t]);
        auto outs = batched.runStepBatch(bm, xs);
        for (unsigned b = 0; b < batch; ++b)
            got[b].push_back(outs[b]);
    }

    for (unsigned b = 0; b < batch; ++b) {
        auto want = gruRefRun(w, seqs[b]);
        for (unsigned t = 0; t < steps; ++t) {
            EXPECT_LT(maxAbsDiff(got[b][t], want[t]), 0.03)
                << "sample " << b << " step " << t;
        }
    }
}

TEST(BatchInterleave, SharesWeightsAcrossBatch)
{
    Rng rng(12);
    NpuConfig cfg = testConfig();
    GruWeights w = randomGruWeights(32, 32, rng);
    CompiledModel one = compileGir(makeGru(w), cfg, {});
    CompiledModel four =
        compileGir(makeGru(w), cfg, {.batchSize = 4});
    // Same pinned-weight footprint: the batch shares the MRF image.
    EXPECT_EQ(one.mrfTilesUsed, four.mrfTilesUsed);
    // Same chain count: the batch rides the iteration registers.
    EXPECT_EQ(one.step.chains().size() + 2, four.step.chains().size());
}

TEST(BatchInterleave, TimingThroughputImprovesForSmallModels)
{
    // The point of the optimization: small models amortize the
    // per-chain configuration floor across the batch.
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(13);
    GruWeights w = randomGruWeights(1024, 1024, rng);

    auto per_sample_cycles = [&](unsigned batch) {
        CompiledModel m = compileGir(makeGru(w), cfg,
                                     {.batchSize = batch});
        timing::NpuTiming sim(cfg);
        sim.setTileBeats(m.tileBeats);
        auto res = sim.run(m.prologue, m.step, 25);
        return static_cast<double>(res.steadyStateIterationCycles()) /
               batch;
    };
    double b1 = per_sample_cycles(1);
    double b4 = per_sample_cycles(4);
    EXPECT_LT(b4, b1 * 0.5); // at least 2x per-sample throughput
}

} // namespace
} // namespace bw
