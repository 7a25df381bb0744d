/**
 * @file
 * Observability-layer tests: JSON model round-trips, stats
 * serialization, the event-trace ring, Chrome trace-event export
 * (structural and golden), stall attribution conservation, and the
 * guarantee that tracing never changes simulated timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats.h"
#include "isa/builder.h"
#include "obs/chrome_trace.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "obs/stall.h"
#include "obs/trace.h"
#include "runtime/serving.h"
#include "timing/npu_timing.h"

namespace bw {
namespace {

using timing::NpuTiming;
using timing::TimingResult;

// --- JSON model. -------------------------------------------------------

TEST(Json, DumpCompact)
{
    Json j = Json::object();
    j.set("a", 1);
    j.set("b", true);
    j.set("c", Json::array().push("x").push(nullptr));
    j.set("d", 2.5);
    EXPECT_EQ(j.dump(), "{\"a\":1,\"b\":true,\"c\":[\"x\",null],"
                        "\"d\":2.5}");
}

TEST(Json, ParseRoundTrip)
{
    Json j = Json::object();
    j.set("counters", Json::object().set("cycles", int64_t{123456789}));
    j.set("ratio", 0.748);
    j.set("label", "GRU h=2816 \"big\"\n");
    j.set("list", Json::array().push(1).push(2).push(3));
    Json back = Json::parse(j.dump(2));
    EXPECT_EQ(back, j);
    EXPECT_EQ(back.find("counters")->find("cycles")->asInt(), 123456789);
    EXPECT_DOUBLE_EQ(back.find("ratio")->asDouble(), 0.748);
    EXPECT_EQ(back.find("label")->asString(), "GRU h=2816 \"big\"\n");
}

TEST(Json, ParseRejectsGarbage)
{
    EXPECT_THROW(Json::parse("{\"a\":}"), Error);
    EXPECT_THROW(Json::parse("[1, 2"), Error);
    EXPECT_THROW(Json::parse("{} trailing"), Error);
}

TEST(Json, NonFiniteDumpsAsNull)
{
    Json j = Json::array();
    j.push(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(j.dump(), "[null]");
}

// --- Stats serialization and numerics. ---------------------------------

TEST(Distribution, VarianceNeverNegative)
{
    // Catastrophic cancellation regime: tiny spread, huge mean. The
    // naive sumSq/n - mean^2 goes (slightly) negative here.
    Distribution d;
    d.sample(1e9);
    d.sample(1e9 + 1e-4);
    d.sample(1e9 - 1e-4);
    EXPECT_GE(d.variance(), 0.0);
    EXPECT_GE(d.stddev(), 0.0);
    EXPECT_FALSE(std::isnan(d.stddev()));
}

TEST(Distribution, StddevMatchesSpread)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0); // classic textbook set
}

TEST(StatGroup, ToJsonRoundTrip)
{
    StatGroup g("npu");
    g.inc("chains", 42);
    g.set("cycles", 123456);
    g.sample("latency", 1.0);
    g.sample("latency", 3.0);

    Json back = Json::parse(g.toJson().dump(2));
    EXPECT_EQ(back.find("name")->asString(), "npu");
    const Json *counters = back.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("chains")->asInt(), 42);
    EXPECT_EQ(counters->find("cycles")->asInt(), 123456);
    const Json *lat = back.find("distributions")->find("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asInt(), 2);
    EXPECT_DOUBLE_EQ(lat->find("mean")->asDouble(), 2.0);
    EXPECT_EQ(back, g.toJson());
}

// --- Event-trace ring. -------------------------------------------------

obs::TraceEvent
eventAt(Cycles start, Cycles end)
{
    obs::TraceEvent e;
    e.start = start;
    e.end = end;
    e.kind = obs::EventKind::MfuOp;
    e.res = obs::ResClass::MfuUnit;
    return e;
}

TEST(EventTrace, RingKeepsMostRecent)
{
    obs::EventTrace t(4);
    for (Cycles i = 0; i < 10; ++i)
        t.event(eventAt(i, i + 1));
    EXPECT_EQ(t.emitted(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first, and only the most recent four survive.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(evs[i].start, 6 + i);
    t.clear();
    EXPECT_EQ(t.emitted(), 0u);
    EXPECT_TRUE(t.events().empty());
}

// --- Simulator integration. --------------------------------------------

/** Small config mirroring timing_test's structural fixture. */
NpuConfig
smallConfig()
{
    NpuConfig c = NpuConfig::bwS10();
    c.name = "small";
    c.nativeDim = 40;
    c.lanes = 10;
    c.tileEngines = 2;
    c.mrfSize = 64;
    c.mrfIndexSpace = 256;
    c.initialVrfSize = 128;
    c.addSubVrfSize = 128;
    c.multiplyVrfSize = 128;
    return c;
}

/** Two dependent MVM+MFU chains exercising most resource classes. */
Program
testProgram()
{
    ProgramBuilder b;
    b.tile(2, 2);
    b.vRd(MemId::InitialVrf, 0)
        .mvMul(0)
        .vvAdd(0)
        .vTanh()
        .vWr(MemId::InitialVrf, 8);
    b.vRd(MemId::InitialVrf, 8)
        .vvMul(4)
        .vWr(MemId::AddSubVrf, 16);
    return b.build();
}

TEST(NpuTimingTrace, EventOrderingAndCoverage)
{
    NpuTiming sim(smallConfig());
    obs::EventTrace trace;
    sim.setTraceSink(&trace);
    auto res = sim.run(testProgram(), 2);

    ASSERT_EQ(trace.chains().size(), 4u); // 2 chains x 2 iterations
    auto evs = trace.events();
    ASSERT_FALSE(evs.empty());
    EXPECT_EQ(trace.dropped(), 0u);

    bool seen[static_cast<size_t>(obs::ResClass::NumResClasses)] = {};
    for (const obs::TraceEvent &e : evs) {
        EXPECT_LE(e.start, e.end);
        EXPECT_LE(e.end, res.totalCycles + 64); // within the run's span
        seen[static_cast<size_t>(e.res)] = true;
    }
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::ControlProcessor)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::TopScheduler)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::TileEngine)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::ReduceUnit)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::MfuUnit)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::ResClass::VrfPort)]);

    // Profiles arrive in dispatch order — the two vector chains (first
    // instructions at indices 2 and 7, after the two s_wr's) per
    // iteration — and each chain's milestones are causally ordered.
    std::vector<uint32_t> ids;
    Cycles prev_dispatch = 0;
    for (const obs::ChainProfile &p : trace.chains()) {
        ids.push_back(p.chain);
        EXPECT_LE(p.dispatchStart, p.dispatchDone);
        EXPECT_LE(p.dispatchDone, p.decodeDone);
        EXPECT_LE(p.decodeDone, p.done);
        EXPECT_GE(p.dispatchDone, prev_dispatch);
        prev_dispatch = p.dispatchDone;
    }
    EXPECT_EQ(ids, (std::vector<uint32_t>{2, 7, 2, 7}));

    // The dependent second chain must observe a RAW stall on ivrf[8..].
    const obs::ChainProfile &dep = trace.chains()[1];
    EXPECT_GT(dep.dataStall, 0u);
    EXPECT_EQ(dep.dataStallMem, MemId::InitialVrf);
}

TEST(NpuTimingTrace, CyclesIdenticalWithAndWithoutTracing)
{
    NpuConfig cfg = smallConfig();
    Program prog = testProgram();

    NpuTiming plain(cfg);
    TimingResult off = plain.run(prog, 3);

    NpuTiming traced(cfg);
    obs::EventTrace trace;
    traced.setTraceSink(&trace);
    TimingResult on = traced.run(prog, 3);

    EXPECT_EQ(on.totalCycles, off.totalCycles);
    EXPECT_EQ(on.iterationEnd, off.iterationEnd);
    EXPECT_EQ(on.mvmBusyCycles, off.mvmBusyCycles);
    EXPECT_EQ(on.mfuBusyCycles, off.mfuBusyCycles);
    EXPECT_EQ(on.stats.counters(), off.stats.counters());

    // Detaching the sink must restore the zero-instrumentation path and
    // still produce identical timing.
    traced.setTraceSink(nullptr);
    TimingResult detached = traced.run(prog, 3);
    EXPECT_EQ(detached.totalCycles, off.totalCycles);
}

TEST(NpuTimingTrace, TextSinkPrintsChainLinesAndEventsWhenVerbose)
{
    NpuConfig cfg = smallConfig();
    Program prog = testProgram();
    TimingResult off = NpuTiming(cfg).run(prog, 2);

    for (bool verbose : {false, true}) {
        std::FILE *out = std::tmpfile();
        ASSERT_NE(out, nullptr);
        obs::TextTraceSink text(out, verbose);
        NpuTiming sim(cfg);
        sim.setTraceSink(&text);
        EXPECT_EQ(sim.run(prog, 2).totalCycles, off.totalCycles);

        std::rewind(out);
        unsigned chains = 0, events = 0;
        char line[512];
        while (std::fgets(line, sizeof(line), out)) {
            std::string l(line);
            chains += l.rfind("trace chain@", 0) == 0;
            events += l.rfind("trace event ", 0) == 0;
        }
        std::fclose(out);
        EXPECT_EQ(chains, 4u); // 2 chains x 2 iterations
        if (verbose)
            EXPECT_GT(events, 0u);
        else
            EXPECT_EQ(events, 0u);
    }
}

TEST(NpuTimingTrace, StallAttributionSumsToTotalCycles)
{
    NpuTiming sim(smallConfig());
    obs::EventTrace trace;
    sim.setTraceSink(&trace);
    auto res = sim.run(testProgram(), 4);

    obs::StallReport rep =
        obs::buildStallReport(trace.chains(), res.totalCycles);
    EXPECT_EQ(rep.totalCycles, res.totalCycles);
    Cycles sum = 0;
    for (const obs::StallBucket &b : rep.buckets)
        sum += b.cycles;
    EXPECT_EQ(sum, res.totalCycles); // exact, not just within 1%
    EXPECT_EQ(rep.attributedCycles, res.totalCycles);
    EXPECT_FALSE(rep.buckets.empty());
    // The report renders without blowing up and names its total.
    std::string text = rep.render();
    EXPECT_NE(text.find("stall reason"), std::string::npos);
}

TEST(NpuTimingTrace, TimingResultToJson)
{
    NpuTiming sim(smallConfig());
    auto res = sim.run(testProgram(), 2);
    Json j = Json::parse(res.toJson().dump());
    EXPECT_EQ(j.find("total_cycles")->asInt(),
              static_cast<int64_t>(res.totalCycles));
    EXPECT_EQ(j.find("chains_executed")->asInt(), 4);
    EXPECT_EQ(j.find("iteration_end")->size(), 2u);
    EXPECT_TRUE(j.find("stats")->contains("counters"));
}

// --- Chrome trace-event export. ----------------------------------------

TEST(ChromeTrace, GoldenTinyTrace)
{
    obs::EventTrace t;
    obs::TraceEvent e;
    e.start = 10;
    e.end = 14;
    e.kind = obs::EventKind::TileStream;
    e.res = obs::ResClass::TileEngine;
    e.resIndex = 1;
    e.chain = 3;
    t.event(e);

    // Raw-cycle timestamps (clock 0) keep the golden exact.
    std::string json = obs::chromeTraceJson(t, 0.0).dump();
    EXPECT_EQ(json,
              "{\"traceEvents\":["
              "{\"name\":\"tile_stream\",\"cat\":\"tile_engine\","
              "\"ph\":\"X\",\"ts\":10.0,\"dur\":4.0,\"pid\":0,"
              "\"tid\":2001,\"args\":{\"chain\":3,\"start_cycle\":10,"
              "\"end_cycle\":14}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":2001,\"args\":{\"name\":\"tile_engine[1]\"}},"
              "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":2001,\"args\":{\"sort_index\":2001}}],"
              "\"displayTimeUnit\":\"ms\","
              "\"otherData\":{\"tool\":\"bw_trace\",\"clock_mhz\":0.0,"
              "\"events_emitted\":1,\"events_dropped\":0}}");
}

TEST(ChromeTrace, SimRunExportsValidStructure)
{
    NpuConfig cfg = smallConfig();
    NpuTiming sim(cfg);
    obs::EventTrace trace;
    sim.setTraceSink(&trace);
    sim.run(testProgram(), 1);

    Json doc = Json::parse(obs::chromeTraceJson(trace, cfg.clockMhz)
                               .dump(2));
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);
    size_t complete = 0, metadata = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        const std::string &ph = ev.find("ph")->asString();
        ASSERT_TRUE(ph == "X" || ph == "M");
        EXPECT_TRUE(ev.contains("name"));
        EXPECT_TRUE(ev.contains("tid"));
        if (ph == "X") {
            ++complete;
            EXPECT_GE(ev.find("dur")->asDouble(), 0.0);
            EXPECT_GE(ev.find("ts")->asDouble(), 0.0);
        } else {
            ++metadata;
        }
    }
    EXPECT_GT(complete, 0u);
    EXPECT_GT(metadata, 0u); // track names present
}

// --- Span tracing. -----------------------------------------------------

/** Canonical Ok-request boundaries reused across the span tests. */
obs::FlightRecord
okRequest()
{
    obs::FlightRecord r;
    r.admitUs = 100;
    r.dequeueUs = 250;
    r.serviceUs = 300;
    r.doneUs = 900;
    r.replica = 2;
    return r;
}

/** Two adjacent chain profiles covering [0, 100) cycles. */
std::vector<obs::ChainProfile>
twoChains()
{
    obs::ChainProfile a;
    a.chain = 2;
    a.kind = 'V';
    a.dispatchStart = 0;
    a.dispatchDone = 10;
    a.decodeDone = 20;
    a.done = 50;
    a.dataStall = 5;
    obs::ChainProfile b;
    b.chain = 7;
    b.kind = 'M';
    b.dispatchStart = 50;
    b.dispatchDone = 55;
    b.decodeDone = 60;
    b.done = 100;
    b.structStall = 10;
    return {a, b};
}

/** okRequest()'s tree under @p trace with twoChains() leaves, the
 *  chains spanning 100 cycles. */
void
recordOkWithChains(obs::SpanTracer &tracer, obs::TraceId trace)
{
    std::vector<obs::ChainProfile> chains = twoChains();
    recordAttemptSpans(tracer, okRequest(), trace, 0, &chains, 100);
}

TEST(SpanTracer, HeadSamplingIsAPureFunctionOfSequence)
{
    obs::SpanTracer every{{}};
    EXPECT_EQ(every.admit(1).trace, 1u);
    EXPECT_EQ(every.admit(42).trace, 42u);
    EXPECT_TRUE(every.admit(42).sampled());

    obs::SpanTracerOptions third;
    third.sampleEvery = 3;
    obs::SpanTracer t3(third);
    EXPECT_TRUE(t3.admit(1).sampled());
    EXPECT_FALSE(t3.admit(2).sampled());
    EXPECT_FALSE(t3.admit(3).sampled());
    EXPECT_TRUE(t3.admit(4).sampled());
    EXPECT_TRUE(t3.admit(7).sampled());

    obs::SpanTracerOptions off;
    off.sampleEvery = 0;
    obs::SpanTracer none(off);
    EXPECT_FALSE(none.admit(1).sampled());
    EXPECT_FALSE(none.admit(1000).sampled());
}

TEST(SpanTracer, OptionsFromEnvReadsSampleEvery)
{
    ::setenv("BW_SPAN_SAMPLE", "5", 1);
    obs::SpanTracerOptions o = obs::SpanTracerOptions::fromEnv();
    EXPECT_EQ(o.sampleEvery, 5u);
    ::unsetenv("BW_SPAN_SAMPLE");
    EXPECT_EQ(obs::SpanTracerOptions::fromEnv().sampleEvery, 1u);
}

TEST(SpanTracer, CollectSortsByTraceThenIdAndClearResets)
{
    obs::SpanTracer tracer{{}};
    obs::SpanRecord s;
    s.trace = 2;
    s.id = 1;
    tracer.record(s);
    s.trace = 1;
    s.id = 2;
    tracer.record(s);
    s.trace = 1;
    s.id = 1;
    tracer.record(s);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].trace, 1u);
    EXPECT_EQ(spans[0].id, 1u);
    EXPECT_EQ(spans[1].trace, 1u);
    EXPECT_EQ(spans[1].id, 2u);
    EXPECT_EQ(spans[2].trace, 2u);
    EXPECT_EQ(tracer.recorded(), 3u);
    EXPECT_EQ(tracer.dropped(), 0u);

    tracer.clear();
    EXPECT_TRUE(tracer.collect().empty());
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SpanTracer, RingOverwriteCountsDropped)
{
    obs::SpanTracerOptions opts;
    opts.shardCapacity = 4;
    obs::SpanTracer tracer(opts);
    obs::SpanRecord s;
    s.trace = 1;
    for (uint32_t i = 1; i <= 10; ++i) {
        s.id = i;
        tracer.record(s); // single thread -> single shard
    }
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(tracer.collect().size(), 4u);
}

TEST(SpanRequestTree, OkTreePartitionsRequestExactly)
{
    obs::SpanTracer tracer{{}};
    recordAttemptSpans(tracer, okRequest(), 9);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 4u);
    const obs::SpanRecord &req = spans[0], &q = spans[1], &d = spans[2],
                          &e = spans[3];
    EXPECT_EQ(e.id, 4u);
    EXPECT_EQ(req.kind, obs::SpanKind::Request);
    EXPECT_EQ(q.kind, obs::SpanKind::QueueWait);
    EXPECT_EQ(d.kind, obs::SpanKind::Dispatch);
    EXPECT_EQ(e.kind, obs::SpanKind::Execute);
    EXPECT_EQ(e.index, 2u); // replica
    // Shared boundaries: children partition the request to the
    // microsecond, so durations sum exactly (the +-0 criterion).
    EXPECT_EQ(q.startUs, req.startUs);
    EXPECT_EQ(q.endUs, d.startUs);
    EXPECT_EQ(d.endUs, e.startUs);
    EXPECT_EQ(e.endUs, req.endUs);
    EXPECT_EQ((q.endUs - q.startUs) + (d.endUs - d.startUs) +
                  (e.endUs - e.startUs),
              req.endUs - req.startUs);
}

TEST(SpanRequestTree, ExpiredRequestRecordsQueueWaitOnly)
{
    obs::SpanTracer tracer{{}};
    obs::FlightRecord r;
    r.admitUs = 10;
    r.dequeueUs = 40;
    r.serviceUs = 40;
    r.doneUs = 40;
    r.cls = obs::FlightClass::DeadlineExpired;
    recordAttemptSpans(tracer, r, 3);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].kind, obs::SpanKind::Request);
    EXPECT_EQ(spans[0].outcome, obs::SpanOutcome::DeadlineExpired);
    EXPECT_EQ(spans[1].kind, obs::SpanKind::QueueWait);

    // An unsampled request records nothing at all.
    recordAttemptSpans(tracer, okRequest(), 0);
    EXPECT_EQ(tracer.collect().size(), 2u);
}

TEST(SpanChainSpans, CyclesMapProportionallyIntoExecuteWindow)
{
    obs::SpanTracer tracer{{}};
    recordOkWithChains(tracer, 1);

    auto spans = tracer.collect();
    ASSERT_EQ(spans.size(), 6u);
    const obs::SpanRecord &c0 = spans[4], &c1 = spans[5];
    EXPECT_EQ(c0.kind, obs::SpanKind::Chain);
    EXPECT_EQ(c0.parent, spans[3].id); // execute
    EXPECT_EQ(c0.chainKind, 'V');
    EXPECT_EQ(c0.chainId, 2u);
    // [0,50) and [50,100) of 100 cycles over window [300,900]:
    // integer-exact halves, adjacent chains share the boundary.
    EXPECT_EQ(c0.startUs, 300u);
    EXPECT_EQ(c0.endUs, 600u);
    EXPECT_EQ(c1.startUs, 600u);
    EXPECT_EQ(c1.endUs, 900u);
    // Cycle-domain attributes ride along unscaled.
    EXPECT_EQ(c0.dispatchCycles, 10u);
    EXPECT_EQ(c0.decodeCycles, 10u);
    EXPECT_EQ(c0.dataStallCycles, 5u);
    EXPECT_EQ(c0.computeCycles, 25u); // done-decodeDone minus stalls
    EXPECT_EQ(c1.structStallCycles, 10u);
    EXPECT_EQ(c1.computeCycles, 30u);
}

TEST(SpanChainSpans, MaxChainSpansCapsChildren)
{
    obs::SpanTracerOptions opts;
    opts.maxChainSpans = 1;
    obs::SpanTracer tracer(opts);
    recordOkWithChains(tracer, 1);
    EXPECT_EQ(tracer.collect().size(), 5u); // 4 tree + 1 capped chain

    Json doc = obs::spanTreeJson(tracer);
    const Json *children =
        doc.find("traces")->at(0).find("root")->find("children");
    ASSERT_EQ(children->size(), 3u);
    const Json &execute = children->at(2);
    EXPECT_EQ(execute.find("chains")->asInt(), 2); // full total
    EXPECT_NE(execute.find("chains_truncated"), nullptr);
    ASSERT_NE(execute.find("children"), nullptr);
    EXPECT_EQ(execute.find("children")->size(), 1u);
}

TEST(SpanTreeJson, ExportValidatesAndOrders)
{
    obs::SpanTracer tracer{{}};
    // Record trace 5 before trace 2: export must ascend by trace id.
    recordOkWithChains(tracer, 5);
    recordAttemptSpans(tracer, okRequest(), 2);

    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(doc.find("schema")->asString(), "bw.spans/1");
    EXPECT_EQ(doc.find("spans")->asInt(), 10); // 4 + 2 chains + 4
    EXPECT_EQ(doc.find("dropped")->asInt(), 0);

    const Json *traces = doc.find("traces");
    ASSERT_EQ(traces->size(), 2u);
    EXPECT_EQ(traces->at(0).find("trace")->asInt(), 2);
    EXPECT_EQ(traces->at(1).find("trace")->asInt(), 5);

    const Json *root = traces->at(1).find("root");
    EXPECT_EQ(root->find("name")->asString(), "request");
    EXPECT_EQ(root->find("outcome")->asString(), "ok");
    const Json *children = root->find("children");
    ASSERT_EQ(children->size(), 3u);
    EXPECT_EQ(children->at(0).find("name")->asString(), "queue_wait");
    EXPECT_EQ(children->at(1).find("name")->asString(), "dispatch");
    EXPECT_EQ(children->at(2).find("name")->asString(), "execute");
    const Json *chains = children->at(2).find("children");
    ASSERT_EQ(chains->size(), 2u);
    EXPECT_EQ(chains->at(0).find("name")->asString(), "chain[0]");
    EXPECT_EQ(chains->at(0).find("stalls")->find("data")->asInt(), 5);

    // Identical input renders byte-identical JSON.
    EXPECT_EQ(doc.dump(), obs::spanTreeJson(tracer).dump());
}

TEST(SpanTreeJson, ValidatorRejectsViolations)
{
    EXPECT_FALSE(obs::validateSpanTreeJson(Json::parse("[]")).ok());
    EXPECT_FALSE(
        obs::validateSpanTreeJson(Json::parse("{\"schema\":\"x\"}")).ok());

    auto mk = [](const char *root_body) {
        return Json::parse(std::string("{\"schema\":\"bw.spans/1\","
                                       "\"spans\":2,\"dropped\":0,"
                                       "\"traces\":[{\"trace\":1,"
                                       "\"root\":") +
                           root_body + "}]}");
    };
    // Root not named request.
    EXPECT_FALSE(obs::validateSpanTreeJson(
                     mk("{\"name\":\"queue_wait\",\"id\":1,"
                        "\"start_us\":0,\"end_us\":1,\"dur_us\":1}"))
                     .ok());
    // dur inconsistent with start/end.
    EXPECT_FALSE(obs::validateSpanTreeJson(
                     mk("{\"name\":\"request\",\"outcome\":\"ok\","
                        "\"id\":1,\"start_us\":0,\"end_us\":5,"
                        "\"dur_us\":4}"))
                     .ok());
    // Child escapes its parent interval.
    Status escape = obs::validateSpanTreeJson(
        mk("{\"name\":\"request\",\"outcome\":\"ok\",\"id\":1,"
           "\"start_us\":10,\"end_us\":20,\"dur_us\":10,\"children\":["
           "{\"name\":\"queue_wait\",\"id\":2,\"start_us\":5,"
           "\"end_us\":15,\"dur_us\":10}]}"));
    EXPECT_FALSE(escape.ok());
    EXPECT_NE(escape.message().find("escapes"), std::string::npos);
    // Duplicate ids within a trace.
    EXPECT_FALSE(obs::validateSpanTreeJson(
                     mk("{\"name\":\"request\",\"outcome\":\"ok\","
                        "\"id\":1,\"start_us\":0,\"end_us\":9,"
                        "\"dur_us\":9,\"children\":["
                        "{\"name\":\"queue_wait\",\"id\":1,"
                        "\"start_us\":0,\"end_us\":1,\"dur_us\":1}]}"))
                     .ok());
    // The canonical empty export passes.
    EXPECT_TRUE(obs::validateSpanTreeJson(
                    Json::parse("{\"schema\":\"bw.spans/1\",\"spans\":0,"
                                "\"dropped\":0,\"traces\":[]}"))
                    .ok());
}

TEST(SpanTreeJson, LostRootDropsTraceAndCountsIncomplete)
{
    obs::SpanTracer tracer{{}};
    // An orphaned child whose request root was overwritten.
    obs::SpanRecord s;
    s.trace = 1;
    s.id = 2;
    s.parent = 1;
    s.kind = obs::SpanKind::QueueWait;
    tracer.record(s);
    recordAttemptSpans(tracer, okRequest(), 7); // plus one intact trace

    Json doc = obs::spanTreeJson(tracer);
    EXPECT_TRUE(obs::validateSpanTreeJson(doc).ok());
    ASSERT_EQ(doc.find("traces")->size(), 1u);
    EXPECT_EQ(doc.find("traces")->at(0).find("trace")->asInt(), 7);
    EXPECT_EQ(doc.find("incomplete_traces")->asInt(), 1);
}

TEST(SpanChromeEvents, AsyncPairsOverlayTimeline)
{
    obs::SpanTracer tracer{{}};
    recordOkWithChains(tracer, 6);

    Json doc = Json::object(); // no traceEvents yet: created on demand
    Status st = obs::appendSpanTreeDocEvents(doc, obs::spanTreeJson(tracer));
    ASSERT_TRUE(st.ok()) << st.toString();
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 12u); // 6 spans x (b + e)

    size_t begins = 0, ends = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        EXPECT_EQ(ev.find("cat")->asString(), "bw.span");
        EXPECT_EQ(ev.find("id")->asString(), "6");
        const std::string &ph = ev.find("ph")->asString();
        if (ph == "b") {
            ++begins;
            ASSERT_TRUE(ev.contains("args"));
            EXPECT_EQ(ev.find("args")->find("trace")->asInt(), 6);
        } else {
            ASSERT_EQ(ph, "e");
            ++ends;
        }
    }
    EXPECT_EQ(begins, 6u);
    EXPECT_EQ(ends, 6u);
}

TEST(SpanChromeEvents, DocDrivenMergeMatchesRecordDrivenOverlay)
{
    obs::SpanTracer tracer{{}};
    recordOkWithChains(tracer, 4);
    Json span_doc = obs::spanTreeJson(tracer);

    // Events already in the target stay first; the merge appends one
    // b/e pair per recorded span, at the record's own interval.
    Json merged = Json::object();
    Json first = Json::object();
    first.set("name", "existing");
    merged.set("traceEvents", Json::array());
    merged.find("traceEvents")->push(first);
    Status st = obs::appendSpanTreeDocEvents(merged, span_doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    const Json &events = *merged.find("traceEvents");
    std::vector<obs::SpanRecord> spans = tracer.collect();
    ASSERT_EQ(events.size(), 1 + 2 * spans.size());
    EXPECT_EQ(events.at(0), first);
    for (const obs::SpanRecord &s : spans) {
        std::string name = s.kind == obs::SpanKind::Chain
                               ? "chain[" + std::to_string(s.index) + "]"
                               : obs::spanKindName(s.kind);
        size_t pairs = 0;
        for (size_t i = 1; i + 1 < events.size(); i += 2) {
            const Json &b = events.at(i);
            const Json &e = events.at(i + 1);
            pairs += b.find("ph")->asString() == "b" &&
                     e.find("ph")->asString() == "e" &&
                     b.find("name")->asString() == name &&
                     e.find("name")->asString() == name &&
                     b.find("ts")->asInt() ==
                         static_cast<int64_t>(s.startUs) &&
                     e.find("ts")->asInt() ==
                         static_cast<int64_t>(s.endUs);
        }
        EXPECT_EQ(pairs, 1u) << "span " << s.id;
    }

    // A rejected document leaves the target untouched.
    Json before = merged;
    EXPECT_FALSE(
        obs::appendSpanTreeDocEvents(merged, Json::parse("{}")).ok());
    EXPECT_EQ(merged.dump(), before.dump());
}

TEST(ShardedRing, MoreThreadsThanShardsRaceForFirstAllocation)
{
    // 24 recording threads over 16 shards: at least eight shards are
    // shared by two threads, which race for the shard's one-time ring
    // allocation once the start flag drops. Each ring holds every
    // record offered, so no two threads write one slot.
    constexpr unsigned kThreads = 24;
    constexpr uint64_t kEach = 300;
    obs::SpanTracerOptions so;
    so.shardCapacity = kThreads * kEach;
    obs::SpanTracer tracer(so);
    obs::FlightRecorderOptions fo;
    fo.shardCapacity = kThreads * kEach;
    obs::FlightRecorder flight(fo);

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (uint64_t i = 0; i < kEach; ++i) {
                obs::SpanRecord s;
                s.trace = t * kEach + i + 1;
                s.id = static_cast<obs::SpanId>(i % 3 + 1);
                tracer.record(s);
                obs::FlightRecord r;
                r.seq = t * kEach + i + 1;
                flight.record(r);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(tracer.recorded(), kThreads * kEach);
    std::vector<obs::SpanRecord> spans = tracer.collect();
    EXPECT_EQ(spans.size() + tracer.dropped(), tracer.recorded());
    EXPECT_TRUE(std::is_sorted(
        spans.begin(), spans.end(),
        [](const obs::SpanRecord &a, const obs::SpanRecord &b) {
            return a.trace != b.trace ? a.trace < b.trace : a.id < b.id;
        }));

    EXPECT_EQ(flight.recorded(), kThreads * kEach);
    std::vector<obs::FlightRecord> records = flight.collect();
    EXPECT_EQ(records.size() + flight.dropped(), flight.recorded());
    EXPECT_TRUE(std::is_sorted(
        records.begin(), records.end(),
        [](const obs::FlightRecord &a, const obs::FlightRecord &b) {
            return a.seq < b.seq;
        }));
}

TEST(ShardedRing, ThreadsSharingAShardKeepRecordsWholeWhenItsRingWraps)
{
    // 24 recording threads over 16 shards on 256-record rings: at least
    // eight shards are shared by two threads, and 300 records a thread
    // wrap every ring, so the claims n and n + 256 of two threads land
    // on one slot. Every field of a record is derived from its seq; a
    // record written by two threads at once would mix two seqs.
    constexpr unsigned kThreads = 24;
    constexpr uint64_t kEach = 300;
    constexpr size_t kRing = 256;
    obs::SpanTracerOptions so;
    so.shardCapacity = kRing;
    obs::SpanTracer tracer(so);
    obs::FlightRecorderOptions fo;
    fo.shardCapacity = kRing;
    obs::FlightRecorder flight(fo);

    auto span_of = [](uint64_t seq) {
        obs::SpanRecord s;
        s.trace = seq;
        s.id = static_cast<obs::SpanId>(seq % 3 + 1);
        s.index = static_cast<uint32_t>(seq * 7);
        s.startUs = seq * 11;
        s.endUs = seq * 11 + 5;
        s.startCycle = seq * 13;
        s.endCycle = seq * 13 + 9;
        s.computeCycles = ~seq;
        return s;
    };
    auto flight_of = [](uint64_t seq) {
        obs::FlightRecord r;
        r.seq = seq;
        r.id = seq * 3;
        r.replica = static_cast<uint32_t>(seq % 5);
        r.steps = static_cast<uint32_t>(seq * 2);
        r.admitUs = seq * 17;
        r.dequeueUs = seq * 17 + 1;
        r.serviceUs = seq * 17 + 2;
        r.doneUs = seq * 17 + 3;
        r.latencyUs = ~seq;
        return r;
    };

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (uint64_t i = 0; i < kEach; ++i) {
                uint64_t seq = t * kEach + i + 1;
                tracer.record(span_of(seq));
                flight.record(flight_of(seq));
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(tracer.recorded(), kThreads * kEach);
    std::vector<obs::SpanRecord> spans = tracer.collect();
    EXPECT_EQ(spans.size() + tracer.dropped(), tracer.recorded());
    EXPECT_GT(tracer.dropped(), 0u);
    EXPECT_TRUE(std::is_sorted(
        spans.begin(), spans.end(),
        [](const obs::SpanRecord &a, const obs::SpanRecord &b) {
            return a.trace != b.trace ? a.trace < b.trace : a.id < b.id;
        }));
    for (const obs::SpanRecord &s : spans) {
        obs::SpanRecord want = span_of(s.trace);
        EXPECT_TRUE(s.id == want.id && s.index == want.index &&
                    s.startUs == want.startUs && s.endUs == want.endUs &&
                    s.startCycle == want.startCycle &&
                    s.endCycle == want.endCycle &&
                    s.computeCycles == want.computeCycles)
            << "torn span record, trace " << s.trace;
    }

    EXPECT_EQ(flight.recorded(), kThreads * kEach);
    std::vector<obs::FlightRecord> records = flight.collect();
    EXPECT_EQ(records.size() + flight.dropped(), flight.recorded());
    EXPECT_GT(flight.dropped(), 0u);
    EXPECT_TRUE(std::is_sorted(
        records.begin(), records.end(),
        [](const obs::FlightRecord &a, const obs::FlightRecord &b) {
            return a.seq < b.seq;
        }));
    for (const obs::FlightRecord &r : records) {
        obs::FlightRecord want = flight_of(r.seq);
        EXPECT_TRUE(r.id == want.id && r.replica == want.replica &&
                    r.steps == want.steps && r.admitUs == want.admitUs &&
                    r.dequeueUs == want.dequeueUs &&
                    r.serviceUs == want.serviceUs &&
                    r.doneUs == want.doneUs &&
                    r.latencyUs == want.latencyUs)
            << "torn flight record, seq " << r.seq;
    }
}

TEST(NpuTimingTrace, RunProfiledMatchesRunAndFeedsChains)
{
    NpuConfig cfg = smallConfig();
    Program prog = testProgram();

    NpuTiming plain(cfg);
    TimingResult off = plain.run(Program{}, prog, 2);

    NpuTiming profiled(cfg);
    std::vector<obs::ChainProfile> chains;
    TimingResult on = profiled.runProfiled(Program{}, prog, 2, &chains);

    // Purely observational: bit-identical cycle counts.
    EXPECT_EQ(on.totalCycles, off.totalCycles);
    EXPECT_EQ(on.mvmBusyCycles, off.mvmBusyCycles);
    EXPECT_EQ(on.stats.counters(), off.stats.counters());
    ASSERT_EQ(chains.size(), 4u); // 2 chains x 2 iterations
    for (const obs::ChainProfile &p : chains)
        EXPECT_LE(p.dispatchStart, p.done);

    // An attached sink still sees every event through the forwarder.
    obs::EventTrace trace;
    profiled.setTraceSink(&trace);
    std::vector<obs::ChainProfile> chains2;
    profiled.runProfiled(Program{}, prog, 2, &chains2);
    EXPECT_EQ(chains2.size(), 4u);
    EXPECT_GT(trace.events().size(), 0u);
    EXPECT_EQ(trace.chains().size(), 4u);
}

// --- Serving percentiles. ----------------------------------------------

TEST(Serving, NearestRankPercentiles)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 95), 95.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99), 99.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentileSorted({}, 99), 0.0);
    EXPECT_DOUBLE_EQ(percentileSorted({7.0}, 50), 7.0);
}

TEST(Serving, P95Populated)
{
    // Uncontended requests: every latency identical, so all percentiles
    // equal service + network time.
    std::vector<double> arrivals;
    for (int i = 0; i < 50; ++i)
        arrivals.push_back(i * 1.0);
    ServeStats s = serveUnbatched(arrivals, 2.0, 0.1);
    EXPECT_NEAR(s.p95LatencyMs, 2.1, 1e-9);
    EXPECT_NEAR(s.p95LatencyMs, s.p50LatencyMs, 1e-9);
    EXPECT_LE(s.p50LatencyMs, s.p95LatencyMs);
    EXPECT_LE(s.p95LatencyMs, s.p99LatencyMs);

    ServeStats b = serveBatched(arrivals, 4, 1.0,
                                [](unsigned) { return 2.0; });
    EXPECT_GT(b.p95LatencyMs, 0.0);
    EXPECT_LE(b.p95LatencyMs, b.maxLatencyMs);
}

} // namespace
} // namespace bw
