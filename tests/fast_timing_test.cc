/**
 * @file
 * Tiered timing-fidelity tests: the event-driven fast tier's
 * equivalence to the cycle-accurate ground truth (total cycles,
 * counters, per-chain profiles), the memo tier's bit-identical cache
 * hits and its keying on program / tile-beat / arrival identity, the
 * Session / Engine / Cluster fidelity threading, and byte-identical
 * replay exports under Fidelity::Cached.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "cluster/cluster.h"
#include "compiler/lowering.h"
#include "graph/builders.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "timing/npu_timing.h"
#include "timing/timing_model.h"

namespace bw {
namespace {

using timing::CycleAccurateModel;
using timing::EventDrivenModel;
using timing::Fidelity;
using timing::MemoTimingModel;
using timing::TimingResult;

/** Small test target: N=16, plenty of storage, high-precision BFP. */
NpuConfig
testConfig()
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
    c.precision = BfpFormat{1, 5, 7};
    return c;
}

CompiledModel
lstmModel(unsigned hidden, const NpuConfig &cfg, uint64_t seed = 3)
{
    Rng rng(seed);
    return compileGir(makeLstm(randomLstmWeights(hidden, hidden, rng)),
                      cfg);
}

CompiledModel
gruModel(unsigned hidden, const NpuConfig &cfg, uint64_t seed = 4)
{
    Rng rng(seed);
    return compileGir(makeGru(randomGruWeights(hidden, hidden, rng)),
                      cfg);
}

/** All scalar counters of two results are equal. */
void
expectCountersEqual(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.dispatchedOps, b.dispatchedOps);
    EXPECT_EQ(a.mvmOps, b.mvmOps);
    EXPECT_EQ(a.instructionsDispatched, b.instructionsDispatched);
    EXPECT_EQ(a.chainsExecuted, b.chainsExecuted);
    EXPECT_EQ(a.nativeTileOps, b.nativeTileOps);
}

/** Bit-identical TimingResult (counters, vectors, stats document). */
void
expectBitIdentical(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    expectCountersEqual(a, b);
    EXPECT_EQ(a.mvmBusyCycles, b.mvmBusyCycles);
    EXPECT_EQ(a.mfuBusyCycles, b.mfuBusyCycles);
    EXPECT_EQ(a.iterationEnd, b.iterationEnd);
    EXPECT_EQ(a.outputTimes, b.outputTimes);
    EXPECT_EQ(a.stats.toJson().dump(), b.stats.toJson().dump());
}

void
expectChainsEqual(const std::vector<obs::ChainProfile> &a,
                  const std::vector<obs::ChainProfile> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].chain, b[i].chain) << "chain " << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << "chain " << i;
        EXPECT_EQ(a[i].dispatchStart, b[i].dispatchStart) << "chain " << i;
        EXPECT_EQ(a[i].dispatchDone, b[i].dispatchDone) << "chain " << i;
        EXPECT_EQ(a[i].decodeDone, b[i].decodeDone) << "chain " << i;
        EXPECT_EQ(a[i].done, b[i].done) << "chain " << i;
        EXPECT_EQ(a[i].dataStall, b[i].dataStall) << "chain " << i;
        EXPECT_EQ(a[i].inputStall, b[i].inputStall) << "chain " << i;
        EXPECT_EQ(a[i].structStall, b[i].structStall) << "chain " << i;
    }
}

// --- Fidelity selection ---

TEST(Fidelity, ParseAcceptsDocumentedSpellings)
{
    Fidelity f = Fidelity::Fast;
    EXPECT_TRUE(timing::parseFidelity("cycle", &f));
    EXPECT_EQ(f, Fidelity::CycleAccurate);
    EXPECT_TRUE(timing::parseFidelity("cycle_accurate", &f));
    EXPECT_EQ(f, Fidelity::CycleAccurate);
    EXPECT_TRUE(timing::parseFidelity("fast", &f));
    EXPECT_EQ(f, Fidelity::Fast);
    EXPECT_TRUE(timing::parseFidelity("event", &f));
    EXPECT_EQ(f, Fidelity::Fast);
    EXPECT_TRUE(timing::parseFidelity("cached", &f));
    EXPECT_EQ(f, Fidelity::Cached);
    EXPECT_TRUE(timing::parseFidelity("memo", &f));
    EXPECT_EQ(f, Fidelity::Cached);
    EXPECT_FALSE(timing::parseFidelity("warp", &f));
    EXPECT_FALSE(timing::parseFidelity("", &f));
}

TEST(Fidelity, FromEnvHonorsModeAndFallsBack)
{
    ::setenv("BW_TIMING_MODE", "fast", 1);
    EXPECT_EQ(timing::fidelityFromEnv(), Fidelity::Fast);
    ::setenv("BW_TIMING_MODE", "bogus", 1);
    EXPECT_EQ(timing::fidelityFromEnv(Fidelity::Cached), Fidelity::Cached);
    ::unsetenv("BW_TIMING_MODE");
    EXPECT_EQ(timing::fidelityFromEnv(), Fidelity::CycleAccurate);
    EXPECT_EQ(timing::fidelityFromEnv(Fidelity::Fast), Fidelity::Fast);
}

TEST(Fidelity, FactoryBuildsTheRequestedTier)
{
    NpuConfig cfg = testConfig();
    auto cyc = timing::makeTimingModel(Fidelity::CycleAccurate, cfg);
    auto fast = timing::makeTimingModel(Fidelity::Fast, cfg);
    auto cached = timing::makeTimingModel(Fidelity::Cached, cfg);
    EXPECT_EQ(cyc->fidelity(), Fidelity::CycleAccurate);
    EXPECT_EQ(fast->fidelity(), Fidelity::Fast);
    EXPECT_EQ(cached->fidelity(), Fidelity::Cached);
    // Cached wraps a cycle-accurate inner tier: hits are ground truth.
    auto *memo = dynamic_cast<MemoTimingModel *>(cached.get());
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo->inner().fidelity(), Fidelity::CycleAccurate);
}

// --- Iteration snapshots (the fast tier's observation hook) ---

TEST(IterationSnapshots, HookIsPurelyObservational)
{
    NpuConfig cfg = testConfig();
    CompiledModel m = gruModel(24, cfg);

    timing::NpuTiming plain(cfg);
    plain.setTileBeats(m.tileBeats);
    TimingResult without = plain.run(m.prologue, m.step, 12);

    timing::NpuTiming hooked(cfg);
    hooked.setTileBeats(m.tileBeats);
    std::vector<timing::NpuTiming::IterationSnapshot> snaps;
    hooked.setIterationSnapshots(&snaps);
    TimingResult with = hooked.run(m.prologue, m.step, 12);

    expectBitIdentical(with, without);
    // One snapshot after the prologue plus one per iteration.
    ASSERT_EQ(snaps.size(), 13u);
    EXPECT_EQ(snaps.back().end, with.totalCycles);
    for (size_t i = 0; i < with.iterationEnd.size(); ++i)
        EXPECT_EQ(snaps[i + 1].end, with.iterationEnd[i]);

    // Detaching stops collection.
    hooked.setIterationSnapshots(nullptr);
    hooked.run(m.prologue, m.step, 2);
    EXPECT_EQ(snaps.size(), 13u);
}

// --- Event-driven fast tier ---

/** Fast-vs-exact equivalence on one model at @p iterations. */
void
expectFastMatchesExact(const CompiledModel &m, const NpuConfig &cfg,
                       unsigned iterations)
{
    CycleAccurateModel exact(cfg);
    exact.setTileBeats(m.tileBeats);
    std::vector<obs::ChainProfile> exact_chains;
    TimingResult want = exact.runProfiled(m.prologue, m.step, iterations,
                                          &exact_chains);

    EventDrivenModel fast(cfg);
    fast.setTileBeats(m.tileBeats);
    std::vector<obs::ChainProfile> fast_chains;
    TimingResult got = fast.runProfiled(m.prologue, m.step, iterations,
                                        &fast_chains);
    EXPECT_EQ(fast.extrapolatedRuns(), 1u);
    EXPECT_EQ(fast.exactFallbacks(), 0u);

    // Steady-state extrapolation of a periodic pipeline is exact, not
    // approximate: the acceptance tolerance is zero cycles.
    EXPECT_EQ(got.totalCycles, want.totalCycles);
    EXPECT_EQ(got.iterationEnd, want.iterationEnd);
    EXPECT_EQ(got.outputTimes, want.outputTimes);
    expectCountersEqual(got, want);
    EXPECT_EQ(got.mvmBusyCycles, want.mvmBusyCycles);
    EXPECT_EQ(got.mfuBusyCycles, want.mfuBusyCycles);
    EXPECT_EQ(got.stats.counter("reduce_busy_cycles"),
              want.stats.counter("reduce_busy_cycles"));
    EXPECT_EQ(got.stats.counter("vrf_read_busy_cycles"),
              want.stats.counter("vrf_read_busy_cycles"));
    EXPECT_EQ(got.stats.counter("nios_busy_cycles"),
              want.stats.counter("nios_busy_cycles"));
    expectChainsEqual(fast_chains, exact_chains);
}

TEST(EventDriven, MatchesExactOnLstm)
{
    NpuConfig cfg = testConfig();
    // Fig. 2-style sweep: two LSTM dimensions, long steady state.
    for (unsigned hidden : {16u, 48u}) {
        SCOPED_TRACE(hidden);
        expectFastMatchesExact(lstmModel(hidden, cfg), cfg, 96);
    }
}

TEST(EventDriven, MatchesExactOnGru)
{
    NpuConfig cfg = testConfig();
    for (unsigned hidden : {24u, 40u}) {
        SCOPED_TRACE(hidden);
        expectFastMatchesExact(gruModel(hidden, cfg), cfg, 80);
    }
}

TEST(EventDriven, MatchesExactOnDeepBenchShapes)
{
    // Table 5 shapes scaled to the test configuration: the DeepBench
    // suite's hidden sizes are too large for N=16 test runs, so take
    // representative small LSTM/GRU layers at several step counts.
    NpuConfig cfg = testConfig();
    CompiledModel lstm = lstmModel(32, cfg, 7);
    for (unsigned steps : {50u, 77u, 128u}) {
        SCOPED_TRACE(steps);
        expectFastMatchesExact(lstm, cfg, steps);
    }
}

TEST(EventDriven, FallsBackExactlyOnShortRuns)
{
    NpuConfig cfg = testConfig();
    CompiledModel m = gruModel(24, cfg);

    CycleAccurateModel exact(cfg);
    exact.setTileBeats(m.tileBeats);
    EventDrivenModel fast(cfg);
    fast.setTileBeats(m.tileBeats);

    // iterations <= warmup + 1: nothing to extrapolate.
    TimingResult want = exact.run(m.prologue, m.step, 4);
    TimingResult got = fast.run(m.prologue, m.step, 4);
    EXPECT_EQ(fast.exactFallbacks(), 1u);
    EXPECT_EQ(fast.extrapolatedRuns(), 0u);
    expectBitIdentical(got, want);
}

TEST(EventDriven, FallsBackWithArrivalSchedules)
{
    NpuConfig cfg = testConfig();
    CompiledModel m = gruModel(24, cfg);
    std::vector<Cycles> arrivals;
    for (unsigned i = 0; i < 64; ++i)
        arrivals.push_back(i * 977); // aperiodic-ish spacing

    CycleAccurateModel exact(cfg);
    exact.setTileBeats(m.tileBeats);
    exact.setInputArrivals(arrivals);
    TimingResult want = exact.run(m.prologue, m.step, 40);

    EventDrivenModel fast(cfg);
    fast.setTileBeats(m.tileBeats);
    fast.setInputArrivals(arrivals);
    TimingResult got = fast.run(m.prologue, m.step, 40);
    EXPECT_EQ(fast.exactFallbacks(), 1u);
    expectBitIdentical(got, want);

    // The schedule applied to that run only: the next run is back on
    // the always-ready contract and free to extrapolate.
    TimingResult rerun = fast.run(m.prologue, m.step, 40);
    CycleAccurateModel fresh(cfg);
    fresh.setTileBeats(m.tileBeats);
    expectBitIdentical(rerun, fresh.run(m.prologue, m.step, 40));
}

TEST(EventDriven, WarmupOptionIsClamped)
{
    EventDrivenModel::Options opt;
    opt.warmupIterations = 0;
    opt.maxPeriod = 0;
    opt.stablePeriods = 0;
    EventDrivenModel fast(testConfig(), opt);
    EXPECT_GE(fast.options().warmupIterations, 1u);
    EXPECT_GE(fast.options().maxPeriod, 1u);
    EXPECT_GE(fast.options().stablePeriods, 2u);
}

// --- Memo tier ---

TEST(MemoTiming, HitsAreBitIdenticalToFirstMiss)
{
    NpuConfig cfg = testConfig();
    CompiledModel m = lstmModel(16, cfg);
    MemoTimingModel memo(std::make_unique<CycleAccurateModel>(cfg));
    memo.setTileBeats(m.tileBeats);

    std::vector<obs::ChainProfile> first_chains;
    TimingResult first =
        memo.runProfiled(m.prologue, m.step, 20, &first_chains);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 0u);

    // run(), runProfiled() and runShared() all hit the same entry.
    TimingResult second = memo.run(m.prologue, m.step, 20);
    std::vector<obs::ChainProfile> third_chains;
    TimingResult third =
        memo.runProfiled(m.prologue, m.step, 20, &third_chains);
    timing::ProfiledRun shared = memo.runShared(m.prologue, m.step, 20);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 3u);
    EXPECT_EQ(memo.entries(), 1u);

    expectBitIdentical(second, first);
    expectBitIdentical(third, first);
    expectBitIdentical(shared.result, first);
    expectChainsEqual(third_chains, first_chains);
    ASSERT_NE(shared.chains, nullptr);
    expectChainsEqual(*shared.chains, first_chains);

    // And the entry matches a fresh uncached simulator exactly.
    CycleAccurateModel fresh(cfg);
    fresh.setTileBeats(m.tileBeats);
    std::vector<obs::ChainProfile> fresh_chains;
    TimingResult want =
        fresh.runProfiled(m.prologue, m.step, 20, &fresh_chains);
    expectBitIdentical(first, want);
    expectChainsEqual(first_chains, fresh_chains);
}

TEST(MemoTiming, KeysOnProgramAndIterations)
{
    NpuConfig cfg = testConfig();
    CompiledModel lstm = lstmModel(16, cfg);
    CompiledModel gru = gruModel(16, cfg);
    MemoTimingModel memo(std::make_unique<CycleAccurateModel>(cfg));
    memo.setTileBeats(lstm.tileBeats);

    memo.run(lstm.prologue, lstm.step, 10);
    memo.run(lstm.prologue, lstm.step, 11); // iterations differ
    memo.run(gru.prologue, gru.step, 10);   // program differs
    EXPECT_EQ(memo.misses(), 3u);
    EXPECT_EQ(memo.hits(), 0u);
    memo.run(lstm.prologue, lstm.step, 10);
    EXPECT_EQ(memo.hits(), 1u);

    memo.clearCache();
    EXPECT_EQ(memo.entries(), 0u);
    memo.run(lstm.prologue, lstm.step, 10);
    EXPECT_EQ(memo.misses(), 4u);
}

TEST(MemoTiming, KeysOnTileBeatSchedule)
{
    // Regression: the memo must key on setTileBeats() state — a beat
    // schedule change invalidates every previously cached timing.
    NpuConfig cfg = testConfig();
    CompiledModel m = lstmModel(24, cfg);
    MemoTimingModel memo(std::make_unique<CycleAccurateModel>(cfg));

    memo.setTileBeats(m.tileBeats);
    TimingResult with_beats = memo.run(m.prologue, m.step, 10);
    memo.setTileBeats({}); // drop the thin-tail schedule
    TimingResult without_beats = memo.run(m.prologue, m.step, 10);
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_EQ(memo.hits(), 0u);

    // Restoring the schedule hits the original entry again.
    memo.setTileBeats(m.tileBeats);
    expectBitIdentical(memo.run(m.prologue, m.step, 10), with_beats);
    EXPECT_EQ(memo.hits(), 1u);

    // The uncached ground truth agrees with both entries.
    CycleAccurateModel plain(cfg);
    expectBitIdentical(without_beats, plain.run(m.prologue, m.step, 10));
}

TEST(MemoTiming, KeysOnInputArrivalSchedule)
{
    // Regression: the memo must key on setInputArrivals() state — a
    // cached always-ready run must not answer for a backpressured one.
    NpuConfig cfg = testConfig();
    CompiledModel m = gruModel(24, cfg);
    MemoTimingModel memo(std::make_unique<CycleAccurateModel>(cfg));
    memo.setTileBeats(m.tileBeats);

    std::vector<Cycles> slow;
    for (unsigned i = 0; i < 32; ++i)
        slow.push_back(i * 4000);

    TimingResult always_ready = memo.run(m.prologue, m.step, 10);
    memo.setInputArrivals(slow);
    TimingResult backpressured = memo.run(m.prologue, m.step, 10);
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_GT(backpressured.totalCycles, always_ready.totalCycles);

    // Same schedule again: a hit, bit-identical, consuming the pending
    // schedule (the next unscheduled run hits the always-ready entry).
    memo.setInputArrivals(slow);
    expectBitIdentical(memo.run(m.prologue, m.step, 10), backpressured);
    EXPECT_EQ(memo.hits(), 1u);
    expectBitIdentical(memo.run(m.prologue, m.step, 10), always_ready);
    EXPECT_EQ(memo.hits(), 2u);

    // A different schedule is a different key, not a stale hit.
    std::vector<Cycles> other = slow;
    other.back() += 1;
    memo.setInputArrivals(other);
    memo.run(m.prologue, m.step, 10);
    EXPECT_EQ(memo.misses(), 3u);

    // An explicitly empty schedule differs from never-set.
    memo.setInputArrivals({});
    memo.run(m.prologue, m.step, 10);
    EXPECT_EQ(memo.misses(), 4u);
}

// --- Session threading ---

TEST(SessionFidelity, TiersAgreeOnSimulatedCycles)
{
    Rng rng(11);
    Session s = Session::compile(makeGru(randomGruWeights(24, 24, rng)),
                                 testConfig());
    EXPECT_EQ(s.defaultFidelity(), Fidelity::CycleAccurate);

    TimingResult exact = s.time(60, Fidelity::CycleAccurate);
    TimingResult fast = s.time(60, Fidelity::Fast);
    TimingResult cached = s.time(60, Fidelity::Cached);
    expectBitIdentical(fast, exact);
    expectBitIdentical(cached, exact);
    EXPECT_EQ(s.time(60).totalCycles, exact.totalCycles);

    EXPECT_DOUBLE_EQ(s.serviceMs(60, Fidelity::Cached),
                     s.serviceMs(60, Fidelity::CycleAccurate));

    // The Cached tier persists across calls within the session.
    auto &memo = static_cast<MemoTimingModel &>(
        s.timingModel(Fidelity::Cached));
    EXPECT_EQ(memo.misses(), 1u); // serviceMs(Cached) above already hit
    uint64_t hits = memo.hits();
    s.time(60, Fidelity::Cached);
    EXPECT_EQ(memo.hits(), hits + 1);

    // timer() shares the CycleAccurate tier's simulator instance.
    EXPECT_EQ(&s.timer(),
              &static_cast<CycleAccurateModel &>(
                   s.timingModel(Fidelity::CycleAccurate))
                   .sim());
}

TEST(SessionFidelity, DefaultFidelityCapturedFromEnv)
{
    Rng rng(12);
    GirGraph g = makeGru(randomGruWeights(16, 16, rng));
    ::setenv("BW_TIMING_MODE", "cached", 1);
    Session cached = Session::compile(g, testConfig());
    ::unsetenv("BW_TIMING_MODE");
    Session plain = Session::compile(g, testConfig());
    EXPECT_EQ(cached.defaultFidelity(), Fidelity::Cached);
    EXPECT_EQ(plain.defaultFidelity(), Fidelity::CycleAccurate);
    EXPECT_EQ(cached.time(8).totalCycles, plain.time(8).totalCycles);
}

// --- serve::Request unification ---

TEST(ServeRequest, FactoriesBuildTimedAndFunctionalRequests)
{
    serve::Request timed = serve::Request::timed(7, 12.5, 0.25);
    EXPECT_TRUE(timed.inputs.empty());
    EXPECT_EQ(timed.steps, 7u);
    EXPECT_DOUBLE_EQ(timed.deadlineMs, 12.5);
    EXPECT_DOUBLE_EQ(timed.serviceMsOverride, 0.25);

    std::vector<FVec> xs(3, FVec(4, 0.5f));
    serve::Request fn = serve::Request::functional(xs, 9.0);
    EXPECT_EQ(fn.inputs.size(), 3u);
    EXPECT_DOUBLE_EQ(fn.deadlineMs, 9.0);

    // A model-less engine accepts timed Requests.
    serve::EngineOptions opts;
    opts.serviceMsOverride = 0.05;
    opts.timeScale = 0.0;
    serve::Engine engine(opts);
    auto via_request = engine.submit(serve::Request::timed(2));
    ASSERT_TRUE(via_request.ok()) << via_request.status().toString();
    EXPECT_TRUE(via_request.value().get().status.ok());

    // Functional inputs on a model-less engine are rejected, as are
    // zero-step timed requests.
    auto bad_fn = engine.submit(serve::Request::functional(xs));
    EXPECT_EQ(bad_fn.status().code(), StatusCode::FailedPrecondition);
    auto bad_steps = engine.submit(serve::Request::timed(0));
    EXPECT_EQ(bad_steps.status().code(), StatusCode::InvalidArgument);
    engine.shutdown();
}

// --- Engine replay exports under Fidelity::Cached ---

TEST(EngineFidelity, CachedReplayExportsAreByteIdentical)
{
    Rng rng(13);
    Session session = Session::compile(
        makeGru(randomGruWeights(24, 24, rng)), testConfig());
    std::vector<double> arrivals;
    for (int i = 0; i < 24; ++i)
        arrivals.push_back(i * 0.0007);

    auto replay_docs = [&](Fidelity f) {
        obs::SpanTracer tracer;
        obs::FlightRecorder recorder{obs::FlightRecorderOptions{}};
        serve::EngineOptions opts;
        opts.fidelity = f;
        opts.queueDepth = arrivals.size();
        opts.spanTracer = &tracer;
        opts.flightRecorder = &recorder;
        auto engine = session.serve(opts);
        engine->replay(arrivals, 4);
        Expected<Json> flight = engine->flightJson();
        EXPECT_TRUE(flight.ok()) << flight.status().toString();
        std::pair<std::string, std::string> docs{
            obs::spanTreeJson(tracer).dump(),
            flight.ok() ? flight.value().dump() : std::string()};
        engine->shutdown();
        return docs;
    };

    auto exact = replay_docs(Fidelity::CycleAccurate);
    auto cached = replay_docs(Fidelity::Cached);
    EXPECT_EQ(cached.first, exact.first);   // bw.spans/1
    EXPECT_EQ(cached.second, exact.second); // bw.flight/1

    // Two replays at the Cached tier are also self-identical (the
    // second serves every profile from the memo).
    auto cached2 = replay_docs(Fidelity::Cached);
    EXPECT_EQ(cached2.first, cached.first);
    EXPECT_EQ(cached2.second, cached.second);
}

TEST(EngineFidelity, DebugConfigReportsTimingMode)
{
    Rng rng(21);
    Session session = Session::compile(
        makeGru(randomGruWeights(16, 16, rng)), testConfig());
    serve::EngineOptions opts;
    opts.fidelity = Fidelity::Fast;
    auto engine = session.serve(opts);
    std::string doc = engine->debugConfigJson().dump();
    EXPECT_NE(doc.find("\"timing_mode\":\"fast\""), std::string::npos)
        << doc;
    engine->shutdown();
}

// --- Cluster threading ---

TEST(ClusterFidelity, CachedReplayMatchesCycleAccurate)
{
    Rng rng(22);
    GirGraph g = makeGru(randomGruWeights(16, 16, rng));
    cluster::TrafficOptions traffic;
    traffic.baseRps = 1500;
    traffic.durationS = 0.5;
    traffic.seed = 5;
    auto trace = cluster::generateTraffic(traffic);
    ASSERT_FALSE(trace.empty());

    auto run = [&](Fidelity f) {
        cluster::ClusterOptions copts;
        cluster::ReplicaGroupSpec group;
        group.name = "t16";
        group.config = testConfig();
        group.engines = 2;
        copts.groups.push_back(group);
        copts.fidelity = f;
        cluster::Cluster c(copts);
        auto id = c.addModel("gru16", g);
        EXPECT_TRUE(id.ok()) << id.status().toString();
        return c.replay(trace).toJson().dump();
    };

    EXPECT_EQ(run(Fidelity::Cached), run(Fidelity::CycleAccurate));
}

TEST(ClusterFidelity, SubmitTakesTimedRequestsOnly)
{
    cluster::ClusterOptions copts;
    cluster::ReplicaGroupSpec group;
    group.config = testConfig();
    group.engine.timeScale = 0.0;
    copts.groups.push_back(group);
    cluster::Cluster c(copts);
    uint32_t id = c.addTimedModel("flat", 0.05);
    c.start();

    auto via_request = c.submit(id, serve::Request::timed(1));
    ASSERT_TRUE(via_request.ok()) << via_request.status().toString();
    EXPECT_TRUE(via_request.value().get().status.ok());

    std::vector<FVec> xs(1, FVec(4, 0.0f));
    auto bad = c.submit(id, serve::Request::functional(xs));
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);
    c.shutdown();
}

} // namespace
} // namespace bw
