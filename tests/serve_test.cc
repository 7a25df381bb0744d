/**
 * @file
 * Serving-engine tests: Status/Expected plumbing, entry-point input
 * validation, the bw::Session facade, the concurrent engine (admission
 * control, deadlines, drain/shutdown, thread-safety under concurrent
 * submit), and the deterministic virtual-time replay's equivalence to
 * the analytic serveUnbatched() model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/status.h"
#include "compiler/lowering.h"
#include "graph/builders.h"
#include "metrics/exposition.h"
#include "metrics/metrics.h"
#include "obs/span.h"
#include "runtime/serving.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "serve/virtual_shard.h"

namespace bw {
namespace {

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

std::vector<FVec>
randomInputs(unsigned steps, unsigned dim, Rng &rng)
{
    std::vector<FVec> xs(steps, FVec(dim));
    for (FVec &x : xs)
        fillUniform(x, rng, -0.5f, 0.5f);
    return xs;
}

// --- Status / Expected ---

TEST(Status, DefaultIsOkAndFactoriesCarryCodes)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), StatusCode::Ok);
    EXPECT_EQ(ok.toString(), "OK");

    Status full = Status::queueFull("depth 4");
    EXPECT_FALSE(full.ok());
    EXPECT_EQ(full.code(), StatusCode::QueueFull);
    EXPECT_EQ(full.message(), "depth 4");
    EXPECT_EQ(full.toString(), "QUEUE_FULL: depth 4");
    EXPECT_NO_THROW(ok.throwIfError());
    EXPECT_THROW(full.throwIfError(), Error);
}

TEST(Status, ExpectedHoldsValueOrStatus)
{
    Expected<int> v(42);
    EXPECT_TRUE(v.ok());
    EXPECT_TRUE(static_cast<bool>(v));
    EXPECT_EQ(v.value(), 42);
    EXPECT_TRUE(v.status().ok());

    Expected<int> e(Status::unavailable("stopped"));
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::Unavailable);

    Expected<std::string> s(std::string("abc"));
    EXPECT_EQ(s.take(), "abc");
}

// --- Entry-point input validation ---

TEST(Validation, StepInputSizeChecked)
{
    Rng rng(3);
    NpuConfig cfg = testConfig();
    CompiledModel m =
        compileGir(makeGru(randomGruWeights(32, 32, rng)), cfg,
                   {.pipelineInputProjections = false});

    Status bad = m.validateStepInput(7);
    EXPECT_EQ(bad.code(), StatusCode::InvalidArgument);
    EXPECT_NE(bad.message().find("expects"), std::string::npos);
    EXPECT_TRUE(m.validateStepInput(m.inputDim).ok());

    FuncMachine machine(cfg);
    m.install(machine);
    FVec wrong(7, 0.0f);
    EXPECT_THROW(m.runStep(machine, wrong), Error);
}

TEST(Validation, PipelinedModelRejectsSingleSteps)
{
    Rng rng(4);
    NpuConfig cfg = testConfig();
    CompiledModel m =
        compileGir(makeGru(randomGruWeights(32, 32, rng)), cfg);
    ASSERT_FALSE(m.prologue.empty()); // pipelining on by default

    Status s = m.validateStepInput(m.inputDim);
    EXPECT_EQ(s.code(), StatusCode::FailedPrecondition);
    // The error tells the caller what to do instead.
    EXPECT_NE(s.message().find("runSequence"), std::string::npos);
    EXPECT_NE(s.message().find("pipelin"), std::string::npos);

    Status b = m.validateBatchInput({FVec(m.inputDim, 0.0f)});
    EXPECT_EQ(b.code(), StatusCode::FailedPrecondition);
}

TEST(Validation, SequenceInputSizeChecked)
{
    Rng rng(5);
    NpuConfig cfg = testConfig();
    CompiledModel m =
        compileGir(makeGru(randomGruWeights(32, 32, rng)), cfg);

    std::vector<FVec> xs = randomInputs(3, m.inputDim, rng);
    xs[1].resize(m.inputDim + 1);
    Status s = m.validateSequenceInput(xs);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("step 1"), std::string::npos);

    FuncMachine machine(cfg);
    m.install(machine);
    EXPECT_THROW(m.runSequence(machine, xs), Error);
}

// --- bw::Session ---

TEST(Session, InferMatchesDirectRunSequence)
{
    Rng rng(6);
    NpuConfig cfg = testConfig();
    GirGraph g = makeGru(randomGruWeights(32, 32, rng));

    Session session = Session::compile(g, cfg);
    std::vector<FVec> xs =
        randomInputs(4, session.model().inputDim, rng);
    auto via_session = session.infer(xs);

    CompiledModel m = compileGir(g, cfg);
    FuncMachine machine(cfg);
    m.install(machine);
    auto direct = m.runSequence(machine, xs);

    ASSERT_EQ(via_session.size(), direct.size());
    for (size_t t = 0; t < direct.size(); ++t) {
        ASSERT_EQ(via_session[t].size(), direct[t].size());
        for (size_t i = 0; i < direct[t].size(); ++i)
            EXPECT_EQ(via_session[t][i], direct[t][i]);
    }
}

TEST(Session, ResetRestoresInitialState)
{
    Rng rng(7);
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)),
                         testConfig());
    std::vector<FVec> xs =
        randomInputs(3, session.model().inputDim, rng);
    auto first = session.infer(xs);
    session.reset();
    auto second = session.infer(xs);
    for (size_t i = 0; i < first.back().size(); ++i)
        EXPECT_EQ(first.back()[i], second.back()[i]);
}

TEST(Session, ServiceMsMatchesTimingRun)
{
    Rng rng(8);
    NpuConfig cfg = testConfig();
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)), cfg);
    auto perf = session.time(5);
    EXPECT_GT(perf.totalCycles, 0u);
    EXPECT_DOUBLE_EQ(session.serviceMs(5), perf.latencyMs(cfg));
}

// --- Engine: threaded serving ---

TEST(Engine, FunctionalSubmitMatchesSessionInfer)
{
    Rng rng(9);
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)),
                         testConfig());
    std::vector<FVec> xs =
        randomInputs(4, session.model().inputDim, rng);
    auto expected = session.infer(xs);

    auto engine = session.serve({});
    auto fut = engine->submit(serve::Request::functional(xs));
    ASSERT_TRUE(fut.ok()) << fut.status().toString();
    serve::Response r = fut.take().get();
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    ASSERT_EQ(r.outputs.size(), expected.size());
    for (size_t t = 0; t < expected.size(); ++t)
        for (size_t i = 0; i < expected[t].size(); ++i)
            EXPECT_EQ(r.outputs[t][i], expected[t][i]);
    engine->drain();

    // Queue wait and service both appear in the engine trace.
    bool saw_wait = false, saw_service = false;
    for (const obs::TraceEvent &e : engine->trace().events()) {
        saw_wait |= e.kind == obs::EventKind::QueueWait &&
                    e.res == obs::ResClass::ServeQueue;
        saw_service |= e.kind == obs::EventKind::Service &&
                       e.res == obs::ResClass::ServeWorker;
    }
    EXPECT_TRUE(saw_wait);
    EXPECT_TRUE(saw_service);
}

TEST(Engine, ConcurrentSubmitStress)
{
    serve::EngineOptions opts;
    opts.replicas = 4;
    opts.queueDepth = 4096;
    opts.serviceMsOverride = 0.01;
    opts.timeScale = 0.0; // don't sleep: stress the queue, not the clock
    serve::Engine engine(opts);
    engine.start();

    constexpr unsigned kThreads = 8, kPerThread = 50;
    std::atomic<unsigned> ok_count{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                auto fut = engine.submit(serve::Request::timed(1));
                ASSERT_TRUE(fut.ok()) << fut.status().toString();
                serve::Response r = fut.take().get();
                if (r.status.ok())
                    ++ok_count;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    engine.drain();

    EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Ok),
              kThreads * kPerThread);
    EXPECT_EQ(engine.stats().requests, kThreads * kPerThread);
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Rejected), 0u);
}

TEST(Engine, QueueFullRejectsAtDepth)
{
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> in_service{false};

    serve::EngineOptions opts;
    opts.replicas = 1;
    opts.queueDepth = 3;
    opts.serviceMsOverride = 20.0;
    // Each queued request really occupies the replica for 2 ms or more,
    // far longer than the submissions below are apart.
    opts.timeScale = 0.1;
    opts.serviceHook = [&](serve::RequestId id) {
        if (id != 1)
            return;
        in_service = true;
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return release; });
    };
    serve::Engine engine(opts);

    // First request is dequeued and parks in the service hook...
    auto gate = engine.submit(serve::Request::timed(1));
    ASSERT_TRUE(gate.ok());
    while (!in_service)
        std::this_thread::yield();

    // ...so the next three fill the queue to its depth, with and
    // without their own service time...
    auto q1 = engine.submit(serve::Request::timed(1, 0, 30.0));
    auto q2 = engine.submit(serve::Request::timed(1));
    auto q3 = engine.submit(serve::Request::timed(1, 0, 40.0));
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());
    ASSERT_TRUE(q3.ok());

    // ...and the one after that is rejected without being enqueued.
    auto rejected = engine.submit(serve::Request::timed(1));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::QueueFull);
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Rejected), 1u);

    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    engine.drain();
    std::vector<serve::Response> rs;
    for (auto *f : {&gate, &q1, &q2, &q3})
        rs.push_back(f->value().get());
    // Each request reports its own simulated service time...
    const double want_ms[] = {20.0, 30.0, 20.0, 40.0};
    for (size_t i = 0; i < rs.size(); ++i) {
        EXPECT_TRUE(rs[i].status.ok()) << i;
        EXPECT_DOUBLE_EQ(rs[i].serviceMs, want_ms[i]) << i;
        EXPECT_DOUBLE_EQ(rs[i].latencyMs, rs[i].queueMs + want_ms[i]) << i;
    }
    // ...and the one replica serves the queued ones in submission order
    // (FIFO), so each waited at least as long as the one before it.
    // The head request's wait holds no worker start-up: start() has
    // returned before any submission is admitted.
    for (size_t i = 1; i < rs.size(); ++i)
        EXPECT_LE(rs[i - 1].queueMs, rs[i].queueMs) << i;
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Ok), 4u);
}

TEST(Engine, DeadlineExpiresOnDequeue)
{
    serve::EngineOptions opts;
    opts.replicas = 1;
    opts.serviceMsOverride = 30.0; // real 30ms occupancy per request
    serve::Engine engine(opts);

    auto head = engine.submit(serve::Request::timed(1));
    ASSERT_TRUE(head.ok());
    auto doomed =
        engine.submit(serve::Request::timed(1, /*deadline_ms=*/5.0));
    ASSERT_TRUE(doomed.ok());

    serve::Response r = doomed.take().get();
    EXPECT_EQ(r.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_GE(r.queueMs, 5.0); // waited out the head-of-line request
    EXPECT_TRUE(r.outputs.empty());
    EXPECT_TRUE(head.take().get().status.ok());
    EXPECT_EQ(engine.collector().count(obs::FlightClass::DeadlineExpired), 1u);
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Ok), 1u);
}

TEST(Engine, DrainCompletesEverythingThenRefusesWork)
{
    serve::EngineOptions opts;
    opts.replicas = 2;
    opts.serviceMsOverride = 2.0;
    serve::Engine engine(opts);

    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < 6; ++i) {
        auto f = engine.submit(serve::Request::timed(1));
        ASSERT_TRUE(f.ok());
        futs.push_back(f.take());
    }
    engine.drain();
    EXPECT_EQ(engine.queueSize(), 0u);
    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_TRUE(f.get().status.ok());
    }
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Ok), 6u);

    auto late = engine.submit(serve::Request::timed(1));
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::Unavailable);

    engine.shutdown(); // drain-then-shutdown is a clean sequence
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Cancelled), 0u);
}

TEST(Engine, ShutdownCancelsQueuedRequests)
{
    serve::EngineOptions opts;
    opts.replicas = 1;
    opts.serviceMsOverride = 50.0;
    serve::Engine engine(opts);

    auto a = engine.submit(serve::Request::timed(1));
    auto b = engine.submit(serve::Request::timed(1));
    auto c = engine.submit(serve::Request::timed(1));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    // Wait for the worker to pull the head request into service.
    while (engine.queueSize() > 2)
        std::this_thread::yield();

    engine.shutdown();
    EXPECT_TRUE(a.take().get().status.ok());
    EXPECT_EQ(b.take().get().status.code(), StatusCode::Cancelled);
    EXPECT_EQ(c.take().get().status.code(), StatusCode::Cancelled);
    EXPECT_EQ(engine.collector().count(obs::FlightClass::Cancelled), 2u);
}

TEST(Engine, OptionsFromEnvOverrides)
{
    ::setenv("BW_SERVE_REPLICAS", "3", 1);
    ::setenv("BW_SERVE_QUEUE_DEPTH", "17", 1);
    serve::EngineOptions o = serve::EngineOptions::fromEnv();
    EXPECT_EQ(o.replicas, 3u);
    EXPECT_EQ(o.queueDepth, 17u);
    ::unsetenv("BW_SERVE_REPLICAS");
    ::unsetenv("BW_SERVE_QUEUE_DEPTH");
}

TEST(Engine, StatsCollectorMeanBatchAveragesOverBatches)
{
    serve::StatsCollector c;
    serve::Response r;
    r.status = Status();
    r.latencyMs = 1.0;
    c.recordCompleted(r, 0.0, 0.001);
    c.recordCompleted(r, 0.001, 0.002);
    // The engine serves at batch 1: every batch has one request.
    EXPECT_EQ(c.snapshot().meanBatch, 1.0);

    Json j = c.toJson();
    EXPECT_TRUE(j.contains("rejected"));
    EXPECT_TRUE(j.contains("expired"));
    EXPECT_TRUE(j.contains("cancelled"));
    EXPECT_TRUE(j.contains("mean_queue_ms"));
    EXPECT_TRUE(j.contains("mean_service_ms"));
}

// --- Virtual-time replay vs the analytic serving models ---

TEST(Replay, UnbatchedMatchesAnalyticModel)
{
    Rng rng(10);
    auto arrivals = poissonArrivals(800.0, 5.0, rng);
    const double service_ms = 1.0, network_ms = 0.1;

    serve::EngineOptions opts;
    opts.replicas = 1;
    opts.queueDepth = arrivals.size() + 1;
    opts.serviceMsOverride = service_ms;
    opts.networkMs = network_ms;
    serve::Engine engine(opts);
    ServeStats replayed = engine.replay(arrivals);
    ServeStats analytic = serveUnbatched(arrivals, service_ms, network_ms);

    ASSERT_EQ(replayed.requests, analytic.requests);
    // Acceptance bar is 1%; the replay is in fact bit-identical.
    EXPECT_NEAR(replayed.meanLatencyMs, analytic.meanLatencyMs,
                0.01 * analytic.meanLatencyMs);
    EXPECT_NEAR(replayed.p99LatencyMs, analytic.p99LatencyMs,
                0.01 * analytic.p99LatencyMs);
    EXPECT_DOUBLE_EQ(replayed.meanLatencyMs, analytic.meanLatencyMs);
    EXPECT_DOUBLE_EQ(replayed.p99LatencyMs, analytic.p99LatencyMs);
    EXPECT_DOUBLE_EQ(replayed.maxLatencyMs, analytic.maxLatencyMs);
    EXPECT_DOUBLE_EQ(replayed.throughputRps, analytic.throughputRps);
}

TEST(Replay, AdmissionControlRejectsUnderOverload)
{
    // Offered load 10x capacity with a short queue: most requests are
    // turned away, the rest see bounded latency.
    std::vector<double> arrivals;
    for (int i = 0; i < 500; ++i)
        arrivals.push_back(i * 0.0001); // every 0.1ms
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = 4;
    serve::Engine engine(opts);
    ServeStats s = engine.replay(arrivals);
    EXPECT_GT(engine.collector().count(obs::FlightClass::Rejected), 0u);
    EXPECT_EQ(s.requests + engine.collector().count(obs::FlightClass::Rejected),
              arrivals.size());
    // The queue bound caps head-of-line wait at depth * service.
    EXPECT_LT(s.maxLatencyMs, (4 + 1) * 1.0 + 1.0);
}

TEST(Replay, DeadlinesExpireOnDequeue)
{
    std::vector<double> arrivals;
    for (int i = 0; i < 100; ++i)
        arrivals.push_back(i * 0.0005);
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = arrivals.size();
    opts.defaultDeadlineMs = 2.0;
    serve::Engine engine(opts);
    ServeStats s = engine.replay(arrivals);
    EXPECT_GT(engine.collector().count(obs::FlightClass::DeadlineExpired), 0u);
    EXPECT_EQ(s.requests +
                  engine.collector().count(obs::FlightClass::DeadlineExpired),
              arrivals.size());
}

TEST(VirtualShard, RoundHalfAwayIsLlroundBitForBit)
{
    // The inline stamp rounding must return exactly what std::llround
    // does: ties, the double just below one half, the 2^52 boundary
    // where doubles stop having fractions, and the 2^63 overflow range
    // (where it defers to llround). Values pass through a volatile so
    // neither side is folded at compile time.
    size_t checked = 0, mismatched = 0;
    auto same = [&](double x) {
        volatile double v = x;
        long long got = serve::roundHalfAway(v);
        long long want = std::llround(v);
        ++checked;
        if (got != want) {
            ++mismatched;
            ADD_FAILURE() << std::hexfloat << x << ": " << got
                          << " != llround " << want;
        }
    };
    for (double x : {0.0, -0.0, 0.5, 1.5, 2.5, 3.5, 1e6 + 0.5, 999999.5,
                     0x1p51 + 0.5, 0x1p52 - 0.5, 0x1p52 - 1.5})
        for (double sgn : {1.0, -1.0})
            same(sgn * x);
    for (double x : {0.5, 1.5, 2.5, 0x1p52 - 0.5})
        for (double sgn : {1.0, -1.0}) {
            same(sgn * std::nextafter(x, 0.0));
            same(sgn * std::nextafter(x, 1e300));
        }
    for (double edge : {0x1p52, 0x1p53, 0x1p63, 0x1p64}) {
        double lo = edge, hi = edge;
        for (int i = 0; i < 8; ++i) {
            same(lo);
            same(hi);
            same(-lo);
            same(-hi);
            lo = std::nextafter(lo, 0.0);
            hi = std::nextafter(hi, 1e300);
        }
    }
    for (double x : {1e19, 1e300, std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
        for (double sgn : {1.0, -1.0})
            same(sgn * x);
    // 10^6 seeded doubles, log-uniform over [1e-9, 1e13]: every
    // microsecond stamp and latency a replay can write.
    Rng rng(63);
    const double lo = std::log(1e-9), hi = std::log(1e13);
    for (int i = 0; i < 1000000 && mismatched < 10; ++i)
        same(std::exp(rng.uniform(lo, hi)));
    EXPECT_EQ(mismatched, 0u);
    EXPECT_GT(checked, 1000000u);

    // The stamp helpers built on it: non-positive and NaN give 0.
    EXPECT_EQ(serve::roundUs(2.5), 3u);
    EXPECT_EQ(serve::roundUs(0.0), 0u);
    EXPECT_EQ(serve::roundUs(-7.0), 0u);
    EXPECT_EQ(serve::roundUs(std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(serve::toUs(1.0000005), 1000001u);
    EXPECT_EQ(serve::toUs(-1e-3), 0u);
}

TEST(VirtualShard, MatchesAPlainDequeAndUpperBound)
{
    // The kernel's ring log must answer exactly as a std::deque searched
    // with std::upper_bound — the representation it replaced — through
    // ring growth and wrap-around, cancellations, and out-of-order
    // starts (a hedge dispatched later can log a start past a later
    // arrival's).
    Rng rng(2024);
    serve::VirtualShard shard(3, 40);
    std::deque<double> log;
    std::vector<double> free_s(3, 0.0);
    double now = 0;
    size_t deepest = 0, cancelled = 0;
    for (int step = 0; step < 4000; ++step) {
        // Overloaded on average, so the queue fills and the ring grows.
        now += rng.uniform(0.0, 0.3);
        shard.prune(now);
        while (!log.empty() && log.front() <= now)
            log.pop_front();
        if (shard.ascending()) {
            ASSERT_TRUE(std::is_sorted(log.begin(), log.end())) << step;
        }
        for (double t : {now, now + rng.uniform(0.0, 2.0)}) {
            size_t want = static_cast<size_t>(
                log.end() - std::upper_bound(log.begin(), log.end(), t));
            ASSERT_EQ(shard.queued(t), want) << "step " << step;
            deepest = std::max(deepest, want);
            uint64_t busy = static_cast<uint64_t>(std::count_if(
                free_s.begin(), free_s.end(),
                [t](double f) { return f > t; }));
            ASSERT_EQ(shard.inflight(t), busy);
        }
        if (!shard.admits(now))
            continue;
        double ready = now + rng.uniform(0.0, 1.5);
        serve::VirtualShard::Reservation res = shard.reserve(ready);
        size_t r = static_cast<size_t>(
            std::min_element(free_s.begin(), free_s.end()) -
            free_s.begin());
        ASSERT_EQ(res.replica, r);
        ASSERT_EQ(res.startS, std::max(ready, free_s[r]));
        ASSERT_EQ(res.prevFreeS, free_s[r]);
        log.push_back(res.startS);
        if (rng.uniform() < 0.2) {
            shard.cancel(res); // a hedge loser cancelled before start
            log.pop_back();
            ++cancelled;
        } else {
            double done = res.startS + rng.uniform(0.1, 1.0);
            shard.finish(res, done);
            free_s[r] = done;
        }
    }
    EXPECT_GT(deepest, 32u);
    EXPECT_GT(cancelled, 0u);

    // A scripted log on a fresh shard: ascending, unsorted after a
    // cancel and an out-of-order start, ascending again once it drains.
    // queued() answers an ascending log in O(1); it must still match
    // the deque at every step, and ascending() must track the order.
    serve::VirtualShard two(2, 8);
    log.clear();
    auto check = [&](const char *at, bool ascending) {
        ASSERT_EQ(two.ascending(), ascending) << at;
        for (double t : {0.0, 0.7, 1.0, 1.2, 2.5, 3.5, 5.0}) {
            size_t want = static_cast<size_t>(
                log.end() - std::upper_bound(log.begin(), log.end(), t));
            ASSERT_EQ(two.queued(t), want) << at << " t=" << t;
        }
    };
    check("empty", true);
    two.finish(two.reserve(1.0), 1.5); // replica 0 starts at 1.0
    log.push_back(1.0);
    check("one start", true);
    two.cancel(two.reserve(2.0)); // replica 1's start at 2.0 is undone
    check("cancelled", true);
    two.finish(two.reserve(0.5), 0.9); // replica 1 starts before 1.0
    log.push_back(0.5);
    check("out of order", false);
    two.prune(0.7); // stops at the front's 1.0: 0.5 stays behind it
    check("pruned to the front", false);
    two.prune(1.2);
    log.clear();
    check("drained", true);
    two.finish(two.reserve(3.0), 3.5);
    two.finish(two.reserve(4.0), 4.5);
    log.assign({3.0, 4.0});
    check("ascending again", true);
}

// --- Request-scoped span tracing through the engine ---

TEST(EngineSpans, FunctionalSubmitRecordsTreeWithChainLeaves)
{
    Rng rng(13);
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)),
                         testConfig());
    obs::SpanTracer tracer;
    serve::EngineOptions opts;
    opts.spanTracer = &tracer;
    auto engine = session.serve(opts);

    std::vector<FVec> xs =
        randomInputs(3, session.model().inputDim, rng);
    auto fut = engine->submit(serve::Request::functional(xs));
    ASSERT_TRUE(fut.ok());
    ASSERT_TRUE(fut.take().get().status.ok());
    engine->drain();

    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    const Json *traces = doc.find("traces");
    ASSERT_EQ(traces->size(), 1u);
    const Json *root = traces->at(0).find("root");
    EXPECT_EQ(root->find("name")->asString(), "request");
    EXPECT_EQ(root->find("outcome")->asString(), "ok");
    const Json *children = root->find("children");
    ASSERT_EQ(children->size(), 3u);
    // The execute span carries chain leaves from the timing simulator.
    const Json &execute = children->at(2);
    ASSERT_EQ(execute.find("name")->asString(), "execute");
    ASSERT_NE(execute.find("children"), nullptr);
    EXPECT_GT(execute.find("children")->size(), 0u);
    EXPECT_GT(execute.find("chains")->asInt(), 0);
    const Json &chain0 = execute.find("children")->at(0);
    EXPECT_EQ(chain0.find("name")->asString(), "chain[0]");
    EXPECT_NE(chain0.find("stalls"), nullptr);
}

TEST(EngineSpans, TracedServiceTimesMatchUntraced)
{
    // The profiled timing run feeding chain spans must not change the
    // simulated service time: cycle counts are bit-identical with the
    // tracer attached or detached.
    Rng rng(14);
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)),
                         testConfig());
    obs::SpanTracer tracer;
    serve::EngineOptions traced_opts;
    traced_opts.spanTracer = &tracer;
    auto traced = session.serve(traced_opts);
    auto plain = session.serve({});
    EXPECT_DOUBLE_EQ(traced->serviceMsFor(4), plain->serviceMsFor(4));
    EXPECT_DOUBLE_EQ(traced->serviceMsFor(1), plain->serviceMsFor(1));
    traced->shutdown();
    plain->shutdown();
}

TEST(EngineSpans, ReplayExportsByteIdenticalSpanTrees)
{
    Rng rng(15);
    auto arrivals = poissonArrivals(700.0, 4.0, rng);
    obs::SpanTracer tracer;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = arrivals.size();
    opts.spanTracer = &tracer;
    serve::Engine engine(opts);

    engine.replay(arrivals);
    std::string first = obs::spanTreeJson(tracer).dump();
    engine.replay(arrivals);
    std::string second = obs::spanTreeJson(tracer).dump();
    EXPECT_EQ(first, second); // replay clears + renumbers per run

    Json doc = Json::parse(second);
    Status st = obs::validateSpanTreeJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(doc.find("traces")->size(), arrivals.size());
}

TEST(EngineSpans, ReplayRequestDurationEqualsSumOfChildren)
{
    // The +-0 acceptance criterion: on the virtual clock every request
    // span is partitioned exactly by its direct children.
    Rng rng(16);
    auto arrivals = poissonArrivals(900.0, 3.0, rng);
    obs::SpanTracer tracer;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = arrivals.size();
    opts.spanTracer = &tracer;
    serve::Engine engine(opts);
    engine.replay(arrivals);

    Json doc = obs::spanTreeJson(tracer);
    const Json *traces = doc.find("traces");
    ASSERT_GT(traces->size(), 0u);
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json *root = traces->at(i).find("root");
        const Json *children = root->find("children");
        ASSERT_NE(children, nullptr);
        int64_t sum = 0;
        for (size_t c = 0; c < children->size(); ++c)
            sum += children->at(c).find("dur_us")->asInt();
        EXPECT_EQ(sum, root->find("dur_us")->asInt())
            << "trace " << traces->at(i).find("trace")->asInt();
    }
}

TEST(EngineSpans, ReplayHeadSamplingTracesOneInTwo)
{
    std::vector<double> arrivals;
    for (int i = 0; i < 10; ++i)
        arrivals.push_back(i * 0.01);
    obs::SpanTracerOptions topts;
    topts.sampleEvery = 2;
    obs::SpanTracer tracer(topts);
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = arrivals.size();
    opts.spanTracer = &tracer;
    serve::Engine engine(opts);
    engine.replay(arrivals);

    Json doc = obs::spanTreeJson(tracer);
    const Json *traces = doc.find("traces");
    ASSERT_EQ(traces->size(), 5u); // sequence numbers 1,3,5,7,9
    for (size_t i = 0; i < traces->size(); ++i)
        EXPECT_EQ(traces->at(i).find("trace")->asInt() % 2, 1);
}

TEST(EngineSpans, ModelLessTimedRequestsHaveNoChainChildren)
{
    std::vector<double> arrivals = {0.0, 0.001};
    obs::SpanTracer tracer;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 0.5; // no model: nothing to profile
    opts.queueDepth = arrivals.size();
    opts.spanTracer = &tracer;
    serve::Engine engine(opts);
    engine.replay(arrivals);

    Json doc = obs::spanTreeJson(tracer);
    EXPECT_TRUE(obs::validateSpanTreeJson(doc).ok());
    const Json *traces = doc.find("traces");
    ASSERT_EQ(traces->size(), 2u);
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json *children = traces->at(i).find("root")->find("children");
        ASSERT_EQ(children->size(), 3u);
        const Json &execute = children->at(2);
        ASSERT_EQ(execute.find("name")->asString(), "execute");
        EXPECT_EQ(execute.find("children"), nullptr);
    }
}

TEST(EngineSpans, LatencyExemplarsCarrySampledTraceIds)
{
    metrics::Registry registry;
    obs::SpanTracer tracer;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 0.2;
    opts.timeScale = 0.0;
    opts.metricsRegistry = &registry;
    opts.spanTracer = &tracer;
    serve::Engine engine(opts);
    engine.start();
    for (int i = 0; i < 4; ++i) {
        auto fut = engine.submit(serve::Request::timed(1));
        ASSERT_TRUE(fut.ok());
        fut.take().get();
    }
    engine.drain();

    std::string json = metrics::metricsJson(registry).dump(2);
    EXPECT_NE(json.find("\"exemplar\""), std::string::npos);
    EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST(Replay, ExtraReplicasRelieveQueueing)
{
    Rng rng(12);
    auto arrivals = poissonArrivals(1500.0, 2.0, rng);
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0; // rho = 1.5 on one replica
    opts.queueDepth = arrivals.size();

    serve::Engine one(opts);
    opts.replicas = 2;
    serve::Engine two(opts);
    ServeStats s1 = one.replay(arrivals);
    ServeStats s2 = two.replay(arrivals);
    EXPECT_LT(s2.meanLatencyMs, s1.meanLatencyMs);
    EXPECT_NEAR(s2.requests, arrivals.size(), 0);
}

} // namespace
} // namespace bw
