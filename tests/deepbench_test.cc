/**
 * @file
 * End-to-end calibration tests: the BW_S10 timing simulator against the
 * paper's measured DeepBench results (Table V / Table I BW columns).
 * These pin the reproduction's headline numbers; tolerances are the
 * ±10% band DESIGN.md commits to. Runs use 25-step replays (the
 * steady-state per-step latency is what Table V's totals derive from).
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "compiler/lowering.h"
#include "graph/builders.h"
#include "timing/npu_timing.h"
#include "workloads/paper_data.h"

namespace bw {
namespace {

/** Steady-state cycles per timestep of one benchmark on BW_S10. */
Cycles
perStepCycles(const RnnLayerSpec &layer)
{
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(1);
    GirGraph g =
        layer.kind == RnnKind::Lstm
            ? makeLstm(randomLstmWeights(layer.hidden, layer.hidden, rng))
            : makeGru(randomGruWeights(layer.hidden, layer.hidden, rng));
    // The paper's LSTM kernel (Section IV-C listing) fetches the input
    // inside the step loop; the GRU kernels are software-pipelined.
    CompileOptions opts;
    opts.pipelineInputProjections = layer.kind == RnnKind::Gru;
    CompiledModel m = compileGir(g, cfg, opts);

    timing::NpuTiming sim(cfg);
    sim.setTileBeats(m.tileBeats);
    auto res = sim.run(m.prologue, m.step, 25);
    return res.steadyStateIterationCycles();
}

/**
 * gtest prints a parameter without a PrintTo as its raw bytes, and ctest
 * registers each case under that text, so every byte of a Target must be
 * set. Left as padding, the three bytes after `kind` held whatever the
 * stack held and the case names changed from run to run; `nameBytes`
 * fixes them at the values the registered names already carry.
 */
struct Target
{
    RnnKind kind;
    uint8_t nameBytes[3];
    unsigned hidden;
    double paperCyclesPerStep;
};
static_assert(sizeof(Target) == 16, "Target must have no padding");

class TableFivePerStep : public ::testing::TestWithParam<Target>
{
};

TEST_P(TableFivePerStep, WithinTenPercentOfPaper)
{
    Target t = GetParam();
    RnnLayerSpec layer{t.kind, t.hidden, 25, t.hidden};
    double got = static_cast<double>(perStepCycles(layer));
    EXPECT_NEAR(got, t.paperCyclesPerStep, t.paperCyclesPerStep * 0.10)
        << layer.label();
}

// Paper per-step cycles derived from Table V latencies at 250 MHz
// (and Table I's BW column for LSTM-2000 / GRU-2800).
INSTANTIATE_TEST_SUITE_P(
    Calibration, TableFivePerStep,
    ::testing::Values(Target{RnnKind::Lstm, {0x2D, 0x67, 0x74}, 2000, 718},
                      Target{RnnKind::Gru, {0x73, 0x00, 0x65}, 2800, 662},
                      Target{RnnKind::Gru, {}, 2816, 662},
                      Target{RnnKind::Gru, {}, 2560, 662},
                      Target{RnnKind::Gru, {0x00, 0x01, 0x1B}, 2048, 636},
                      Target{RnnKind::Gru, {0xFF, 0x48, 0x00}, 1536, 634},
                      Target{RnnKind::Gru, {}, 1024, 632},
                      Target{RnnKind::Lstm, {}, 2048, 740},
                      Target{RnnKind::Lstm, {0x00, 0x01, 0x1B}, 1536, 725},
                      Target{RnnKind::Lstm, {0xDA, 0x48, 0x00}, 1024, 740},
                      Target{RnnKind::Lstm, {}, 512, 770},
                      Target{RnnKind::Lstm, {}, 256, 708}));

TEST(TableFive, UtilizationOrderingMatchesPaper)
{
    // Utilization must rise monotonically with hidden dimension within
    // each cell kind (Fig. 7's qualitative shape).
    double prev = 0;
    for (unsigned h : {1024u, 1536u, 2048u, 2560u, 2816u}) {
        RnnLayerSpec layer{RnnKind::Gru, h, 25, h};
        Cycles per_step = perStepCycles(layer);
        double util =
            static_cast<double>(layer.opsPerStep()) /
            (static_cast<double>(per_step) *
             NpuConfig::bwS10().opsPerCycle());
        EXPECT_GT(util, prev) << h;
        prev = util;
    }
    // The largest GRU reaches the paper's headline ~75% utilization.
    EXPECT_GT(prev, 0.60);
}

TEST(TableFive, LargeModelsWithinTwoPointTwoOfSdm)
{
    // Section VII-B2: BW_S10 is within 2.17x of the SDM for the large
    // (>2000-d) models.
    for (auto [kind, h, sdm_per_step] :
         {std::tuple{RnnKind::Gru, 2816u, 527.0},
          std::tuple{RnnKind::Gru, 2560u, 441.0},
          std::tuple{RnnKind::Lstm, 2048u, 370.0}}) {
        RnnLayerSpec layer{kind, h, 25, h};
        double ratio = static_cast<double>(perStepCycles(layer)) /
                       sdm_per_step;
        EXPECT_LT(ratio, 2.3) << layer.label();
        EXPECT_GT(ratio, 1.0) << layer.label();
    }
}

TEST(TableFive, PerStepLatencyRoughlyConstant)
{
    // Section VII-B2: "essentially the same latency per time step in
    // steady state for all evaluated models regardless of their size".
    Cycles small = perStepCycles({RnnKind::Gru, 1024, 25, 1024});
    Cycles large = perStepCycles({RnnKind::Gru, 2816, 25, 2816});
    EXPECT_LT(static_cast<double>(large) / small, 1.35);
}

TEST(TableFive, BatchInvarianceOfBwLatency)
{
    // BW executes a single input at a time: per-request cycles do not
    // change with "batch" (requests are just served back to back).
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(1);
    CompiledModel m =
        compileGir(makeGru(randomGruWeights(1024, 1024, rng)), cfg);
    timing::NpuTiming sim(cfg);
    sim.setTileBeats(m.tileBeats);
    Cycles one = sim.run(m.prologue, m.step, 25)
                     .steadyStateIterationCycles();
    Cycles again = sim.run(m.prologue, m.step, 25)
                       .steadyStateIterationCycles();
    EXPECT_EQ(one, again);
}

} // namespace
} // namespace bw
