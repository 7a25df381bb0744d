/**
 * @file
 * Serving-runtime tests: arrival generation, unbatched vs batched
 * service disciplines (the Section VII-B3 latency/utilization trade),
 * the exact latency sort behind every summary, and the bidirectional
 * multi-FPGA deployment.
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "runtime/multi_fpga.h"
#include "runtime/serving.h"

namespace bw {
namespace {

TEST(Arrivals, PoissonRateRoughlyHonored)
{
    Rng rng(1);
    auto a = poissonArrivals(1000.0, 10.0, rng);
    EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]);
    EXPECT_LT(a.back(), 10.0);
}

TEST(ServeUnbatched, LowLoadLatencyIsServicePlusNetwork)
{
    // 1 request per 100ms, service 2ms: no queueing.
    std::vector<double> arrivals;
    for (int i = 0; i < 50; ++i)
        arrivals.push_back(i * 0.1);
    ServeStats s = serveUnbatched(arrivals, 2.0, 0.1);
    EXPECT_EQ(s.requests, 50u);
    EXPECT_NEAR(s.meanLatencyMs, 2.1, 0.01);
    EXPECT_NEAR(s.p99LatencyMs, 2.1, 0.01);
}

TEST(ServeUnbatched, OverloadQueues)
{
    // Requests every 1ms, service 2ms: the queue grows.
    std::vector<double> arrivals;
    for (int i = 0; i < 100; ++i)
        arrivals.push_back(i * 0.001);
    ServeStats s = serveUnbatched(arrivals, 2.0, 0.0);
    EXPECT_GT(s.maxLatencyMs, 90.0);
    EXPECT_NEAR(s.throughputRps, 500.0, 10.0); // 1/service
}

TEST(ServeBatched, FormsBatchesUnderLoad)
{
    // Requests every 0.25ms, batch up to 8 with a 2ms timeout.
    std::vector<double> arrivals;
    for (int i = 0; i < 400; ++i)
        arrivals.push_back(i * 0.00025);
    ServeStats s = serveBatched(arrivals, 8, 2.0, [](unsigned batch) {
        return 1.0 + 0.1 * batch; // batch amortizes well
    });
    EXPECT_GT(s.meanBatch, 4.0);
    EXPECT_EQ(s.requests, 400u);
}

TEST(ServeBatched, TimeoutAddsLatencyAtLowLoad)
{
    // Sparse arrivals: each request waits out the full timeout.
    std::vector<double> arrivals;
    for (int i = 0; i < 20; ++i)
        arrivals.push_back(i * 0.5);
    double timeout_ms = 5.0;
    ServeStats s = serveBatched(arrivals, 16, timeout_ms,
                                [](unsigned) { return 2.0; });
    EXPECT_NEAR(s.meanBatch, 1.0, 0.01);
    EXPECT_NEAR(s.meanLatencyMs, timeout_ms + 2.0, 0.01);

    // The unbatched discipline serves the same trace 5ms sooner.
    ServeStats u = serveUnbatched(arrivals, 2.0, 0.0);
    EXPECT_LT(u.meanLatencyMs + 4.9, s.meanLatencyMs);
}

TEST(ServeBatched, FullBatchLaunchesEarly)
{
    // A burst of exactly max_batch launches without waiting out the
    // timeout.
    std::vector<double> arrivals(8, 0.0);
    ServeStats s = serveBatched(arrivals, 8, 100.0,
                                [](unsigned) { return 1.0; });
    EXPECT_NEAR(s.meanLatencyMs, 1.0, 0.01);
    EXPECT_NEAR(s.meanBatch, 8.0, 0.01);
}

TEST(ServeBatched, BatchFillsExactlyAtTrigger)
{
    // The third request lands exactly on the timeout trigger: it still
    // joins the batch, and the full batch launches on its arrival
    // rather than waiting out the timer.
    std::vector<double> arrivals{0.0, 0.001, 0.002};
    ServeStats s = serveBatched(arrivals, 3, 2.0,
                                [](unsigned) { return 1.0; });
    EXPECT_EQ(s.requests, 3u);
    EXPECT_NEAR(s.meanBatch, 3.0, 1e-9);
    // Launch at t=2ms, done at 3ms: latencies 3, 2, 1 ms.
    EXPECT_NEAR(s.maxLatencyMs, 3.0, 1e-9);
    EXPECT_NEAR(s.meanLatencyMs, 2.0, 1e-9);
}

TEST(ServeBatched, ArrivalJustAfterTimeoutStartsNextBatch)
{
    // The second request arrives 1ms after the first batch's trigger:
    // it must not ride along, and its own timeout clock starts at its
    // arrival.
    std::vector<double> arrivals{0.0, 0.003};
    ServeStats s = serveBatched(arrivals, 8, 2.0,
                                [](unsigned) { return 1.0; });
    EXPECT_EQ(s.requests, 2u);
    EXPECT_NEAR(s.meanBatch, 1.0, 1e-9);
    // Both serve alone: trigger + service = 2 + 1 ms each.
    EXPECT_NEAR(s.meanLatencyMs, 3.0, 1e-9);
    EXPECT_NEAR(s.maxLatencyMs, 3.0, 1e-9);
}

TEST(ServeBatched, SingleRequestWaitsOutTheTimeout)
{
    std::vector<double> arrivals{0.0};
    ServeStats s = serveBatched(arrivals, 16, 5.0,
                                [](unsigned) { return 2.0; });
    EXPECT_EQ(s.requests, 1u);
    EXPECT_NEAR(s.meanBatch, 1.0, 1e-9);
    EXPECT_NEAR(s.meanLatencyMs, 7.0, 1e-9);
    EXPECT_NEAR(s.p99LatencyMs, 7.0, 1e-9);
}

TEST(ServeBatched, MaxBatchOneEqualsUnbatched)
{
    // With max_batch=1 and no timeout the batching queue degenerates
    // to the BW discipline exactly.
    Rng rng(3);
    auto arrivals = poissonArrivals(400.0, 2.0, rng);
    const double service_ms = 2.0;
    ServeStats b = serveBatched(arrivals, 1, 0.0,
                                [&](unsigned) { return service_ms; });
    ServeStats u = serveUnbatched(arrivals, service_ms, 0.0);
    ASSERT_EQ(b.requests, u.requests);
    EXPECT_NEAR(b.meanLatencyMs, u.meanLatencyMs, 1e-9);
    EXPECT_NEAR(b.p50LatencyMs, u.p50LatencyMs, 1e-9);
    EXPECT_NEAR(b.p99LatencyMs, u.p99LatencyMs, 1e-9);
    EXPECT_NEAR(b.maxLatencyMs, u.maxLatencyMs, 1e-9);
    EXPECT_NEAR(b.throughputRps, u.throughputRps, 1e-9);
    EXPECT_NEAR(b.meanBatch, 1.0, 1e-12);
}

TEST(ServeStats, ToJsonRoundTripsSummary)
{
    std::vector<double> arrivals{0.0, 0.1, 0.2};
    ServeStats s = serveUnbatched(arrivals, 2.0, 0.1);
    Json j = s.toJson();
    EXPECT_EQ(j.find("requests")->asInt(), 3);
    EXPECT_NEAR(j.find("mean_latency_ms")->asDouble(), s.meanLatencyMs,
                1e-12);
    EXPECT_NEAR(j.find("p99_latency_ms")->asDouble(), s.p99LatencyMs,
                1e-12);
    EXPECT_NEAR(j.find("throughput_rps")->asDouble(), s.throughputRps,
                1e-12);
}

namespace {

/// Bitwise equality: EXPECT_EQ on doubles would let -0.0 pass for +0.0.
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                          return std::memcmp(&x, &y, sizeof x) == 0;
                      });
}

/// Sort a copy of @p v with sortLatencies (through summarizeLatencies)
/// and another with std::sort: the two must agree bit for bit, and so
/// must the summaries.
void
expectSortsLikeStdSort(std::vector<double> v, LatencySortScratch &scratch)
{
    std::vector<double> ref = v;
    std::sort(ref.begin(), ref.end());
    ServeStats got, want;
    summarizeLatencies(got, v, scratch);
    fillLatencyStats(want, ref);
    EXPECT_TRUE(sameBits(v, ref));
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0);
}

} // namespace

TEST(LatencySort, EqualsStdSortBitForBit)
{
    Rng rng(20);
    LatencySortScratch scratch; // reused across calls, as callers do
    const size_t cut = kLatencyRadixMinSize;
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, cut - 1, cut, cut + 1,
                     size_t{4099}, size_t{200000}}) {
        SCOPED_TRACE(n);
        std::vector<double> v(n);
        for (double &x : v)
            x = 0.3 + rng.exponential(0.2); // latency-like, several binades
        expectSortsLikeStdSort(v, scratch);
    }

    // Heavy duplicates: 200k samples over 37 distinct values.
    std::vector<double> dup(200000);
    for (double &x : dup)
        x = 0.25 * static_cast<double>(rng.integer(0, 36));
    expectSortsLikeStdSort(dup, scratch);

    // Edge values, negative ones included, repeated past the cutoff.
    const double specials[] = {
        0.0, std::numeric_limits<double>::denorm_min(), 1e-310, DBL_MIN,
        1.0, DBL_MAX, std::numeric_limits<double>::infinity(), -1.5,
        -1e-310, -DBL_MAX, -std::numeric_limits<double>::infinity()};
    std::vector<double> edge;
    for (size_t i = 0; i < 3 * cut; ++i) {
        edge.push_back(specials[rng.integer(0, std::size(specials) - 1)]);
        edge.push_back(rng.uniform(-1e3, 1e3));
    }
    expectSortsLikeStdSort(edge, scratch);

    // Keys that all share their lowest and highest digits (values in
    // [1, 2) on a 2^-41 grid), so those digit passes are skipped.
    std::vector<double> grid(5000);
    for (double &x : grid)
        x = 1.0 + std::ldexp(static_cast<double>(rng.integer(0, 1 << 30)),
                             -41);
    expectSortsLikeStdSort(grid, scratch);

    // Every digit shared: one value, every pass skipped.
    expectSortsLikeStdSort(std::vector<double>(3 * cut, 2.5), scratch);
}

TEST(LatencySort, MergedRunsEqualStdSortOfTheConcatenation)
{
    // The fleet summary: each shard's run sorted on its own, then
    // merged into the fleet vector one run at a time.
    Rng rng(21);
    LatencySortScratch scratch;
    std::vector<double> merged, concat;
    for (size_t n : {size_t{70000}, size_t{0}, size_t{3},
                     kLatencyRadixMinSize + 1, size_t{120000}}) {
        std::vector<double> run(n);
        for (double &x : run)
            x = std::floor(rng.exponential(0.5) * 64.0) / 64.0; // ties
        concat.insert(concat.end(), run.begin(), run.end());
        sortLatencies(run, scratch);
        mergeSortedRun(merged, run);
    }
    std::sort(concat.begin(), concat.end());
    EXPECT_TRUE(sameBits(merged, concat));
}

TEST(MultiFpga, PinningCapacity)
{
    Rng rng(1);
    NpuConfig cfg = NpuConfig::bwS10();
    // GRU-2816 pins on one S10 (needs ~298 of 306 tile equivalents).
    GirGraph fits = makeGru(randomGruWeights(2816, 2816, rng));
    EXPECT_EQ(fpgasNeededForPinning(fits, cfg), 1u);
    // An LSTM-4096 (8 x 4096^2 elements = ~839 tiles) needs three.
    GirGraph big = makeLstm(randomLstmWeights(4096, 4096, rng));
    EXPECT_EQ(fpgasNeededForPinning(big, cfg), 3u);
}

TEST(MultiFpga, BidirectionalGruParallelism)
{
    Rng rng(2);
    NpuConfig cfg = NpuConfig::bwS10();
    cfg.nativeDim = 100;
    cfg.lanes = 20;
    cfg.mrfSize = 128;
    GruWeights fwd = randomGruWeights(400, 400, rng);
    GruWeights bwd = randomGruWeights(400, 400, rng);

    BidirServeResult r = serveBidirectionalGru(fwd, bwd, 20, cfg, 0.02);
    double fwd_ms = cyclesToMs(r.forward.cycles, cfg.clockMhz);
    double bwd_ms = cyclesToMs(r.backward.cycles, cfg.clockMhz);
    // Two directions run in parallel: latency ~ the slower one, not
    // the sum.
    EXPECT_NEAR(r.latencyMs, std::max(fwd_ms, bwd_ms) + 0.02, 1e-9);
    EXPECT_LT(r.latencyMs, fwd_ms + bwd_ms);
}

} // namespace
} // namespace bw
