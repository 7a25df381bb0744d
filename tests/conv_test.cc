/**
 * @file
 * CNN lowering tests: functional equivalence of the iterated-chain conv
 * lowering against the direct reference over a sweep of layer shapes,
 * plan structure, and ResNet-50 table sanity.
 */

#include <gtest/gtest.h>

#include "compiler/conv_lowering.h"
#include "isa/validate.h"
#include "refmodel/conv_ref.h"
#include "timing/npu_timing.h"
#include "workloads/resnet50.h"

namespace bw {
namespace {

NpuConfig
convTestConfig()
{
    NpuConfig c;
    c.name = "conv16";
    c.nativeDim = 16;
    c.lanes = 4;
    c.tileEngines = 2;
    c.mrfSize = 256;
    c.mrfIndexSpace = 1024;
    c.initialVrfSize = 512;
    c.addSubVrfSize = 128;
    c.multiplyVrfSize = 64;
    c.precision = BfpFormat{1, 5, 7};
    return c;
}

/**
 * gtest prints a parameter without a PrintTo as its raw bytes, and ctest
 * registers each case under that text, so every byte of a ConvCase must
 * be set: `tail` fills what would be padding after `relu` with zeros.
 */
struct ConvCase
{
    unsigned hw, inC, outC, k, stride, pad;
    bool relu;
    uint8_t tail[3] = {};
};
static_assert(sizeof(ConvCase) == 28, "ConvCase must have no padding");

class ConvFunctional : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvFunctional, MatchesReference)
{
    ConvCase p = GetParam();
    ConvSpec s;
    s.inH = p.hw;
    s.inW = p.hw;
    s.inC = p.inC;
    s.outC = p.outC;
    s.kH = p.k;
    s.kW = p.k;
    s.stride = p.stride;
    s.pad = p.pad;
    s.relu = p.relu;

    Rng rng(p.hw + p.inC + p.outC + p.k);
    FMat w(s.outC, s.patchLen());
    fillUniform(w, rng, -0.5f, 0.5f);
    FVec bias(s.outC);
    for (auto &b : bias)
        b = rng.uniformF(-0.2f, 0.2f);
    FTensor4 in(1, s.inH, s.inW, s.inC);
    for (auto &v : in.data())
        v = rng.uniformF(-0.5f, 0.5f);

    FuncMachine m(convTestConfig());
    FTensor4 got = runConvLayerFunctional(m, s, w, bias, in);
    FTensor4 want = conv2dRef(s, w, bias, in);

    ASSERT_EQ(got.size(), want.size());
    double worst = 0;
    for (size_t i = 0; i < got.size(); ++i)
        worst = std::max(worst,
                         std::fabs(static_cast<double>(got.data()[i]) -
                                   want.data()[i]));
    EXPECT_LT(worst, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvFunctional,
    ::testing::Values(ConvCase{6, 3, 8, 3, 1, 1, true},   // same-pad 3x3
                      ConvCase{8, 16, 16, 1, 1, 0, true}, // 1x1
                      ConvCase{8, 4, 8, 3, 2, 1, false},  // strided
                      ConvCase{5, 7, 5, 5, 1, 2, true},   // odd dims
                      ConvCase{7, 16, 32, 3, 1, 1, true},
                      ConvCase{4, 1, 4, 3, 1, 0, false})); // valid conv

TEST(ConvPlan, StructureAndValidation)
{
    NpuConfig cfg = convTestConfig();
    ConvSpec a;
    a.name = "a";
    a.inH = a.inW = 8;
    a.inC = 16;
    a.outC = 32;
    a.kH = a.kW = 3;
    a.pad = 1;
    ConvSpec b = a;
    b.name = "b";
    b.inC = 32;
    b.outC = 16;

    ConvNetPlan plan = planConvNet({a, b}, cfg);
    ASSERT_EQ(plan.layers.size(), 2u);
    EXPECT_EQ(plan.layers[0].rowTiles, 2u);  // 32/16
    EXPECT_EQ(plan.layers[0].colTiles, 9u);  // 3*3*16/16
    EXPECT_EQ(plan.layers[0].mrfBase, 0u);
    EXPECT_NE(plan.layers[1].mrfBase, 0u);   // ping-pong buffer
    EXPECT_EQ(plan.totalOps, a.macOps() + b.macOps());
    EXPECT_NO_THROW(checkProgram(plan.program, cfg));
}

TEST(ConvPlan, TimingRunsAndChargesDram)
{
    NpuConfig cfg = convTestConfig();
    ConvSpec a;
    a.inH = a.inW = 8;
    a.inC = 16;
    a.outC = 16;
    a.kH = a.kW = 3;
    a.pad = 1;
    ConvNetPlan plan = planConvNet({a, a, a}, cfg);

    timing::NpuTiming sim(cfg);
    sim.setTileBeats(plan.tileBeats);
    auto res = sim.run(plan.program, 1);
    EXPECT_GT(res.totalCycles, 0u);
    EXPECT_GT(res.stats.counter("dram_busy_cycles"), 0u);
    EXPECT_EQ(res.nativeTileOps, 3u * 64 * 9); // 64 pos x 9 tiles
}

TEST(ConvPlan, LayersSerializeThroughActivations)
{
    NpuConfig cfg = convTestConfig();
    ConvSpec a;
    a.inH = a.inW = 8;
    a.inC = 16;
    a.outC = 16;
    a.kH = a.kW = 1;

    timing::NpuTiming sim(cfg);
    Cycles one = sim.run(planConvNet({a}, cfg).program, 1).totalCycles;
    Cycles four =
        sim.run(planConvNet({a, a, a, a}, cfg).program, 1).totalCycles;
    // Four dependent layers take clearly longer than one.
    EXPECT_GT(four, one + 2 * (four / 8));
}

TEST(Resnet50, LayerTable)
{
    auto convs = resnet50Convs();
    // conv1 + 16 bottlenecks x 3 + 4 projection shortcuts = 53 convs.
    EXPECT_EQ(convs.size(), 53u);
    EXPECT_EQ(convs[0].outC, 64u);
    EXPECT_EQ(convs[0].kH, 7u);
    EXPECT_EQ(convs[0].outH(), 112u);
    // Final stage emits 7x7x2048.
    const ConvSpec &last = convs.back();
    EXPECT_EQ(last.outC, 2048u);
    EXPECT_EQ(last.outH(), 7u);
    // Total conv MACs of ResNet-50 ~ 3.86 GMAC -> ~7.7 G ops.
    EXPECT_NEAR(static_cast<double>(resnet50TotalOps()) / 1e9, 7.7, 0.4);
    // ~23.5M conv weights.
    EXPECT_NEAR(static_cast<double>(resnet50WeightCount()) / 1e6, 23.5,
                1.5);
}

TEST(Resnet50, PlansOnCnnA10)
{
    NpuConfig cfg = NpuConfig::bwCnnA10();
    ConvNetPlan plan = planConvNet(resnet50Convs(), cfg);
    EXPECT_EQ(plan.layers.size(), 53u);
    EXPECT_NO_THROW(checkProgram(plan.program, cfg));
}

} // namespace
} // namespace bw
