/**
 * @file
 * Flight-recorder and SLO-monitor tests: the pure tail-promotion rule,
 * the wait-free ring recorder, bw.flight/1 export + validation, SLO
 * deadline classes and multi-window burn rates, bw.slo/1 export
 * determinism, and the engine-level acceptance criteria — byte-identical
 * flight/SLO exports across replays with rejects and expiries, cycle
 * counts unperturbed by an attached recorder, and full span evidence for
 * requests head sampling drops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "compiler/lowering.h"
#include "graph/builders.h"
#include "metrics/exposition.h"
#include "metrics/http_server.h"
#include "metrics/metrics.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "runtime/serving.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "serve/slo.h"

namespace bw {
namespace {

/** Submissions @p mon recorded, over every class. */
uint64_t
sloRequests(const serve::SloMonitor &mon)
{
    uint64_t n = 0;
    for (const serve::SloClassEval &ev : mon.snapshot())
        n += ev.requests;
    return n;
}

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

obs::FlightRecord
rec(uint64_t seq, obs::FlightClass cls, uint64_t admit_us,
    uint64_t latency_us)
{
    obs::FlightRecord r;
    r.seq = seq;
    r.id = cls == obs::FlightClass::Rejected ? 0 : seq;
    r.cls = cls;
    r.admitUs = admit_us;
    r.dequeueUs = admit_us;
    r.serviceUs = admit_us;
    r.doneUs = admit_us + latency_us;
    r.latencyUs = latency_us;
    return r;
}

std::vector<uint64_t>
seqsOf(const std::vector<obs::FlightRecord> &rs)
{
    std::vector<uint64_t> out;
    for (const auto &r : rs)
        out.push_back(r.seq);
    return out;
}

// --- Tail promotion as a pure function ---

TEST(FlightPromotion, NonOkAlwaysAndSlowestKPerWindow)
{
    obs::FlightRecorderOptions opts;
    opts.windowUs = 1000000;
    opts.slowestK = 2;

    std::vector<obs::FlightRecord> in = {
        // Window 0: five Ok records; slowest two are the 50us pair,
        // ranked by latency descending then seq ascending.
        rec(1, obs::FlightClass::Ok, 100, 10),
        rec(2, obs::FlightClass::Ok, 200, 50),
        rec(3, obs::FlightClass::Ok, 300, 30),
        rec(4, obs::FlightClass::Ok, 400, 50),
        rec(5, obs::FlightClass::Ok, 500, 20),
        // Anomalies promote regardless of latency.
        rec(6, obs::FlightClass::Rejected, 600, 0),
        // Window 1: fewer Ok records than K -> all promoted.
        rec(7, obs::FlightClass::Ok, 1500000, 5),
        rec(8, obs::FlightClass::DeadlineExpired, 1600000, 0),
    };
    auto out = promoteFlightRecords(in, opts);
    EXPECT_EQ(seqsOf(out), (std::vector<uint64_t>{2, 4, 6, 7, 8}));

    // Input order must not matter: promotion is a pure function of the
    // records themselves.
    std::reverse(in.begin(), in.end());
    std::swap(in[1], in[5]);
    EXPECT_EQ(seqsOf(promoteFlightRecords(in, opts)), seqsOf(out));
}

TEST(FlightPromotion, SlowestKZeroPromotesOnlyAnomalies)
{
    obs::FlightRecorderOptions opts;
    opts.slowestK = 0;
    std::vector<obs::FlightRecord> in = {
        rec(1, obs::FlightClass::Ok, 0, 999),
        rec(2, obs::FlightClass::Error, 10, 1),
        rec(3, obs::FlightClass::Cancelled, 20, 0),
    };
    EXPECT_EQ(seqsOf(promoteFlightRecords(in, opts)),
              (std::vector<uint64_t>{2, 3}));
}

// --- The ring recorder ---

TEST(FlightRecorder, CollectsSortedAndCountsOverwrites)
{
    obs::FlightRecorderOptions opts;
    opts.shardCapacity = 8;
    obs::FlightRecorder fr(opts);
    // One test thread -> one shard: 20 records into 8 slots drops the
    // oldest 12.
    for (uint64_t s = 20; s >= 1; --s)
        fr.record(rec(s, obs::FlightClass::Ok, s * 10, 1));
    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.dropped(), 12u);
    auto got = fr.collect();
    ASSERT_EQ(got.size(), 8u);
    for (size_t i = 1; i < got.size(); ++i)
        EXPECT_LT(got[i - 1].seq, got[i].seq);

    fr.clear();
    EXPECT_EQ(fr.recorded(), 0u);
    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_TRUE(fr.collect().empty());
}

TEST(FlightRecorder, OptionsFromEnvOverrides)
{
    setenv("BW_FLIGHT_WINDOW_MS", "250", 1);
    setenv("BW_FLIGHT_SLOWEST_K", "7", 1);
    setenv("BW_FLIGHT_RING", "1024", 1);
    auto opts = obs::FlightRecorderOptions::fromEnv();
    unsetenv("BW_FLIGHT_WINDOW_MS");
    unsetenv("BW_FLIGHT_SLOWEST_K");
    unsetenv("BW_FLIGHT_RING");
    EXPECT_EQ(opts.windowUs, 250000u);
    EXPECT_EQ(opts.slowestK, 7u);
    EXPECT_EQ(opts.shardCapacity, 1024u);
}

// --- bw.flight/1 export + validator ---

TEST(FlightJson, ExportValidatesAndEmbedsOneTracePerRecord)
{
    obs::FlightRecorder fr;
    fr.record(rec(1, obs::FlightClass::Ok, 100, 40));
    fr.record(rec(2, obs::FlightClass::Rejected, 200, 0));
    fr.record(rec(3, obs::FlightClass::DeadlineExpired, 300, 0));

    Json doc = obs::flightJson(fr);
    Status st = obs::validateFlightJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(doc.find("schema")->asString(), "bw.flight/1");
    const Json *promoted = doc.find("promoted");
    ASSERT_EQ(promoted->size(), 3u);
    EXPECT_EQ(promoted->at(1).find("class")->asString(), "rejected");
    EXPECT_EQ(promoted->at(1).find("id")->asInt(), 0);
    // One embedded span tree per promoted record, trace id == seq.
    const Json *traces = doc.find("spans")->find("traces");
    ASSERT_EQ(traces->size(), 3u);
    for (size_t i = 0; i < traces->size(); ++i) {
        EXPECT_EQ(traces->at(i).find("trace")->asInt(),
                  promoted->at(i).find("seq")->asInt());
        EXPECT_EQ(traces->at(i).find("root")->find("name")->asString(),
                  "request");
    }

    // Tampering trips the validator.
    Json bad = Json::parse(doc.dump());
    bad.set("schema", "bw.flight/2");
    EXPECT_FALSE(obs::validateFlightJson(bad).ok());
    Json nospans = Json::parse(doc.dump());
    nospans.set("spans", Json::object());
    EXPECT_FALSE(obs::validateFlightJson(nospans).ok());
}

TEST(FlightJson, ErroredRecordHasNoChainLeavesInEitherExport)
{
    // One chain source behind both exports: two profiled chains over
    // 100 cycles.
    std::vector<obs::ChainProfile> chains(2);
    chains[0].done = 40;
    chains[1].dispatchStart = 40;
    chains[1].done = 100;
    obs::ChainProfileFn source =
        [&chains](uint32_t, const std::vector<obs::ChainProfile> **out,
                  Cycles *total) {
            *out = &chains;
            *total = 100;
            return true;
        };
    for (obs::FlightClass cls :
         {obs::FlightClass::Ok, obs::FlightClass::Error}) {
        obs::FlightRecord r = rec(1, cls, 100, 40);
        r.steps = 3;
        r.dequeueUs = 105;
        r.serviceUs = 110;
        obs::SpanTracer tracer;
        obs::recordAttemptSpans(tracer, r, r.seq, 0, &chains, 100);
        std::string spans = obs::spanTreeJson(tracer).dump();
        std::string flight =
            obs::flightJson({r}, obs::FlightRecorderOptions{}, 1, 0, source)
                .dump();
        // Only a completed request shows chain leaves, in both exports.
        bool ok = cls == obs::FlightClass::Ok;
        SCOPED_TRACE(obs::flightClassName(cls));
        for (const std::string *doc : {&spans, &flight}) {
            EXPECT_NE(doc->find("\"execute\""), std::string::npos);
            EXPECT_EQ(doc->find("\"chain[0]\"") != std::string::npos, ok);
            EXPECT_EQ(doc->find("\"chains\"") != std::string::npos, ok);
        }
    }
}

// --- SLO classes and burn rates ---

TEST(Slo, ClassOfWalksTheDeadlineLadder)
{
    serve::SloMonitor mon;
    ASSERT_EQ(mon.options().classes.size(), 3u);
    EXPECT_EQ(mon.classOf(5.0), 0u);    // interactive (<= 10 ms)
    EXPECT_EQ(mon.classOf(10.0), 0u);
    EXPECT_EQ(mon.classOf(50.0), 1u);   // standard (<= 100 ms)
    EXPECT_EQ(mon.classOf(500.0), 2u);  // best_effort catch-all
    EXPECT_EQ(mon.classOf(0.0), 2u);    // no deadline -> catch-all
}

TEST(Slo, MultiWindowBurnRequiresBothWindowsFiring)
{
    const uint64_t s = 1000000; // 1 s in us
    // Bad burst 500 s before the high-water mark: inside the 1-hour
    // window, outside the 5-minute one -> sustained-burn alert must not
    // fire on the stale burst alone.
    serve::SloMonitor stale;
    for (int i = 0; i < 50; ++i)
        stale.record(3500 * s, 5.0, 0.0, false);
    for (int i = 0; i < 50; ++i)
        stale.record(4000 * s, 5.0, 1.0, true);
    auto evals = stale.snapshot();
    ASSERT_EQ(evals.size(), 3u);
    EXPECT_GT(evals[0].availability.slow.burnRate,
              stale.options().pageBurnRate);
    EXPECT_EQ(evals[0].availability.fast.bad, 0u);
    EXPECT_FALSE(evals[0].availability.firing);
    EXPECT_EQ(evals[0].requests, 100u);
    EXPECT_EQ(evals[0].availabilityBreaches, 50u);

    // The same burst inside both windows pages.
    serve::SloMonitor hot;
    for (int i = 0; i < 50; ++i)
        hot.record(3900 * s, 5.0, 0.0, false);
    for (int i = 0; i < 50; ++i)
        hot.record(4000 * s, 5.0, 1.0, true);
    EXPECT_TRUE(hot.snapshot()[0].availability.firing);
}

TEST(Slo, LatencySliCountsOnlyServedRequests)
{
    serve::SloMonitor mon;
    // interactive target is 5 ms: one good, one breach, one reject
    // (unavailable -> consumes no latency budget).
    mon.record(1000000, 5.0, 2.0, true);
    mon.record(2000000, 5.0, 20.0, true);
    mon.record(3000000, 5.0, 0.0, false);
    auto evals = mon.snapshot();
    EXPECT_EQ(evals[0].latencyBreaches, 1u);
    EXPECT_EQ(evals[0].latency.fast.good + evals[0].latency.fast.bad, 2u);
    EXPECT_EQ(evals[0].availabilityBreaches, 1u);
    EXPECT_EQ(sloRequests(mon), 3u);
}

TEST(Slo, ARecordAtTimeZeroCountsInBothWindows)
{
    // t = 0 is a real stamp (a virtual replay's first arrival), not
    // "nothing recorded yet".
    serve::SloMonitor mon;
    mon.record(0, 5.0, 2.0, true);
    mon.record(0, 5.0, 0.0, false);
    EXPECT_EQ(mon.highWaterUs(), 0u);
    auto evals = mon.snapshot();
    EXPECT_EQ(evals[0].latency.fast.good, 1u);
    EXPECT_EQ(evals[0].latency.slow.good, 1u);
    EXPECT_EQ(evals[0].availability.fast.good, 1u);
    EXPECT_EQ(evals[0].availability.fast.bad, 1u);
    EXPECT_EQ(evals[0].availability.slow.good, 1u);
    EXPECT_EQ(evals[0].availability.slow.bad, 1u);

    mon.clear();
    EXPECT_EQ(mon.highWaterUs(), 0u);
    EXPECT_EQ(mon.snapshot()[0].availability.slow.good, 0u);
}

TEST(Slo, SloJsonDeterministicValidAndBindsMetrics)
{
    metrics::Registry reg;
    serve::SloMonitor mon;
    mon.bindMetrics(&reg);
    for (int i = 0; i < 20; ++i)
        mon.record(uint64_t(i) * 500000, i % 2 ? 5.0 : 50.0,
                   i % 5 ? 1.0 : 30.0, i % 7 != 0);

    Json doc = mon.sloJson();
    Status st = serve::validateSloJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    // Evaluated at the high-water mark, not "now": re-export is
    // byte-identical.
    EXPECT_EQ(doc.dump(), mon.sloJson().dump());

    std::string prom = metrics::prometheusText(reg);
    EXPECT_NE(prom.find("bw_slo_requests_total"), std::string::npos);
    EXPECT_NE(prom.find("bw_slo_burn_rate"), std::string::npos);
    EXPECT_NE(prom.find("bw_slo_firing"), std::string::npos);

    Json bad = Json::parse(doc.dump());
    Json obj = Json::object();
    obj.set("latency", 1.5); // objectives must sit in (0, 1)
    obj.set("availability", 0.999);
    bad.set("objectives", std::move(obj));
    EXPECT_FALSE(serve::validateSloJson(bad).ok());
}

TEST(Slo, ValidatorRederivesBurnRatesAndFiring)
{
    const uint64_t s = 1000000; // 1 s in us
    // interactive burns both SLIs in both windows: availability 50 bad
    // of 100, latency 13 breaches of 50 served.
    serve::SloMonitor mon;
    for (int i = 0; i < 50; ++i)
        mon.record(3900 * s, 5.0, 0.0, false);
    for (int i = 0; i < 50; ++i)
        mon.record(4000 * s, 5.0, i % 4 ? 1.0 : 30.0, true);
    const Json doc = Json::parse(mon.sloJson().dump());
    Status st = serve::validateSloJson(doc);
    ASSERT_TRUE(st.ok()) << st.toString();

    // @p doc with member @p key of interactive's @p sli (or of its
    // @p window, when given) replaced by @p v.
    auto edit = [&doc](const char *sli, const char *window,
                       const char *key, Json v) {
        const Json &classes = *doc.find("classes");
        Json cls = classes.at(0);
        Json *target = cls.find(sli);
        if (window)
            target = target->find(window);
        target->set(key, std::move(v));
        Json edited = Json::array();
        edited.push(std::move(cls));
        for (size_t i = 1; i < classes.size(); ++i)
            edited.push(classes.at(i));
        Json out = doc;
        out.set("classes", std::move(edited));
        return out;
    };
    const Json &avail = *doc.find("classes")->at(0).find("availability");
    const Json &lat = *doc.find("classes")->at(0).find("latency");
    ASSERT_TRUE(avail.find("firing")->asBool());
    ASSERT_TRUE(lat.find("firing")->asBool());
    double frac = avail.find("fast")->find("bad_fraction")->asDouble();
    double burn = avail.find("slow")->find("burn_rate")->asDouble();
    ASSERT_GT(frac, 0.0);
    ASSERT_GT(burn, 0.0);

    // Each value below is in range, so only re-deriving it from the
    // window's counts catches it.
    EXPECT_FALSE(serve::validateSloJson(
                     edit("availability", "fast", "bad_fraction", frac / 2))
                     .ok());
    EXPECT_FALSE(serve::validateSloJson(
                     edit("availability", "slow", "burn_rate", burn * 2))
                     .ok());
    EXPECT_FALSE(
        serve::validateSloJson(edit("latency", "fast", "burn_rate", 0.0))
            .ok());
    EXPECT_FALSE(
        serve::validateSloJson(edit("availability", nullptr, "firing",
                                    false))
            .ok());
    EXPECT_FALSE(
        serve::validateSloJson(edit("latency", nullptr, "firing", false))
            .ok());

    // page_burn_rate must be positive, and firing follows it.
    for (Json page : {Json(0.0), Json(-14.4), Json("14.4")}) {
        Json bad = doc;
        bad.set("page_burn_rate", std::move(page));
        EXPECT_FALSE(serve::validateSloJson(bad).ok());
    }
    Json above = doc;
    above.set("page_burn_rate", 2 * burn);
    EXPECT_FALSE(serve::validateSloJson(above).ok());
}

// --- Engine acceptance criteria ---

TEST(EngineFlight, ReplayExportsByteIdenticalUnderRejectsAndExpiries)
{
    // 5x overload on a depth-4 queue with a 3 ms deadline: the schedule
    // produces QUEUE_FULL rejects and dequeue-time expiries alongside
    // served requests, and two replays must export byte-identical
    // flight and SLO documents.
    std::vector<double> arrivals;
    for (int i = 0; i < 300; ++i)
        arrivals.push_back(i * 0.0002);
    obs::FlightRecorder flight;
    serve::SloMonitor slo;
    metrics::Registry reg;
    slo.bindMetrics(&reg);
    obs::SpanTracer tracer;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = 4;
    opts.defaultDeadlineMs = 3.0;
    opts.flightRecorder = &flight;
    opts.sloMonitor = &slo;
    opts.spanTracer = &tracer;
    serve::Engine engine(opts);

    engine.replay(arrivals);
    // The stats collector accumulates across runs; snapshot this run's
    // counts before replaying again.
    const uint64_t run_rejected =
        engine.collector().count(obs::FlightClass::Rejected);
    const uint64_t run_expired =
        engine.collector().count(obs::FlightClass::DeadlineExpired);
    ASSERT_GT(run_rejected, 0u);
    ASSERT_GT(run_expired, 0u);
    Expected<Json> f1 = engine.flightJson();
    ASSERT_TRUE(f1.ok());
    std::string flight1 = f1.value().dump();
    std::string slo1 = slo.sloJson().dump();

    // The bound bw_slo_* counters are cumulative: a replay pass adds
    // what it recorded once, when it hands the buckets back.
    auto sloCounters = [&reg] {
        std::map<std::string, uint64_t> sums;
        for (const metrics::MetricSnapshot &m : reg.collect()) {
            if (m.type == metrics::MetricType::Counter)
                sums[m.name] += static_cast<uint64_t>(m.value);
        }
        return sums;
    };
    std::map<std::string, uint64_t> once = sloCounters();
    uint64_t lat_breaches = 0, avail_breaches = 0;
    for (const serve::SloClassEval &ev : slo.snapshot()) {
        lat_breaches += ev.latencyBreaches;
        avail_breaches += ev.availabilityBreaches;
    }
    EXPECT_EQ(once["bw_slo_requests_total"], arrivals.size());
    EXPECT_EQ(once["bw_slo_latency_breach_total"], lat_breaches);
    EXPECT_EQ(once["bw_slo_availability_breach_total"], avail_breaches);
    EXPECT_GT(avail_breaches, 0u);

    engine.replay(arrivals); // clears recorder + monitor, renumbers
    std::string flight2 = engine.flightJson().value().dump();
    std::string slo2 = slo.sloJson().dump();
    EXPECT_EQ(flight1, flight2);
    EXPECT_EQ(slo1, slo2);
    for (const auto &[name, v] : sloCounters())
        EXPECT_EQ(v, 2 * once[name]) << name;

    Json doc = Json::parse(flight2);
    Status st = obs::validateFlightJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_TRUE(serve::validateSloJson(Json::parse(slo2)).ok());

    // Every submission attempt reached the SLO monitor, and every
    // reject shows up both in the rejected counter and in the promoted
    // set (never admitted -> id 0).
    EXPECT_EQ(sloRequests(slo), arrivals.size());
    const Json *promoted = doc.find("promoted");
    uint64_t rejected = 0, expired = 0;
    for (size_t i = 0; i < promoted->size(); ++i) {
        const std::string cls =
            promoted->at(i).find("class")->asString();
        if (cls == "rejected") {
            ++rejected;
            EXPECT_EQ(promoted->at(i).find("id")->asInt(), 0);
            EXPECT_GT(promoted->at(i).find("seq")->asInt(), 0);
        } else if (cls == "deadline_expired") {
            ++expired;
        }
    }
    EXPECT_EQ(rejected, run_rejected);
    EXPECT_EQ(expired, run_expired);
}

TEST(EngineFlight, AttachedRecorderDoesNotPerturbCycleCounts)
{
    // The acceptance bar from the span tracer applies to the flight
    // recorder too: simulated service times (hence cycle counts) are
    // bit-identical with the recorder attached or detached.
    Rng rng(21);
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)),
                         testConfig());
    obs::FlightRecorder flight;
    serve::EngineOptions recorded_opts;
    recorded_opts.flightRecorder = &flight;
    auto recorded = session.serve(recorded_opts);
    auto plain = session.serve({});
    EXPECT_DOUBLE_EQ(recorded->serviceMsFor(4), plain->serviceMsFor(4));
    EXPECT_DOUBLE_EQ(recorded->serviceMsFor(1), plain->serviceMsFor(1));
    recorded->shutdown();
    plain->shutdown();
}

TEST(EngineFlight, PromotesExpiryThatHeadSamplingDropped)
{
    // BW_SPAN_SAMPLE=1000 head sampling keeps only request 1; a later
    // deadline expiry is dropped from the spans export but must appear
    // in the promoted flight export with a complete span tree.
    std::vector<double> arrivals;
    for (int i = 0; i < 20; ++i)
        arrivals.push_back(i * 0.0001);
    obs::SpanTracerOptions topts;
    topts.sampleEvery = 1000;
    obs::SpanTracer tracer(topts);
    obs::FlightRecorder flight;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 1.0;
    opts.queueDepth = arrivals.size();
    opts.defaultDeadlineMs = 2.0;
    opts.spanTracer = &tracer;
    opts.flightRecorder = &flight;
    serve::Engine engine(opts);
    engine.replay(arrivals);
    ASSERT_GT(engine.collector().count(obs::FlightClass::DeadlineExpired), 0u);

    // The head-sampled export holds exactly the one kept trace.
    Json spans = obs::spanTreeJson(tracer);
    ASSERT_EQ(spans.find("traces")->size(), 1u);
    EXPECT_EQ(spans.find("traces")->at(0).find("trace")->asInt(), 1);

    Json doc = engine.flightJson().value();
    ASSERT_TRUE(obs::validateFlightJson(doc).ok());
    const Json *promoted = doc.find("promoted");
    const Json *traces = doc.find("spans")->find("traces");
    bool found = false;
    for (size_t i = 0; i < promoted->size(); ++i) {
        const Json &p = promoted->at(i);
        if (p.find("class")->asString() != "deadline_expired" ||
            p.find("id")->asInt() == 1)
            continue;
        found = true;
        // Head sampling demonstrably dropped it...
        EXPECT_FALSE(p.find("sampled")->asBool());
        // ...yet the flight export carries its full span tree, keyed
        // by the record's sequence number.
        const Json *root = nullptr;
        for (size_t t = 0; t < traces->size(); ++t) {
            if (traces->at(t).find("trace")->asInt() ==
                p.find("seq")->asInt())
                root = traces->at(t).find("root");
        }
        ASSERT_NE(root, nullptr);
        EXPECT_EQ(root->find("name")->asString(), "request");
        EXPECT_EQ(root->find("outcome")->asString(),
                  "deadline_expired");
        const Json *children = root->find("children");
        ASSERT_NE(children, nullptr);
        EXPECT_EQ(children->at(0).find("name")->asString(),
                  "queue_wait");
        break;
    }
    EXPECT_TRUE(found);
}

TEST(EngineFlight, ModelBackedPromotionsCarryChainLeaves)
{
    // With a compiled model the engine's chain-profile cache feeds the
    // promoted span trees: served promotions get dispatch / execute /
    // chain[i] leaves exactly like the live span tracer's.
    Rng rng(22);
    Session session =
        Session::compile(makeGru(randomGruWeights(32, 32, rng)),
                         testConfig());
    obs::FlightRecorder flight;
    serve::EngineOptions opts;
    opts.queueDepth = 8;
    opts.flightRecorder = &flight;
    auto engine = session.serve(opts);
    std::vector<double> arrivals = {0.0, 0.05, 0.1, 0.15};
    engine->replay(arrivals);

    Json doc = engine->flightJson().value();
    Status st = obs::validateFlightJson(doc);
    ASSERT_TRUE(st.ok()) << st.toString();
    const Json *traces = doc.find("spans")->find("traces");
    ASSERT_GT(traces->size(), 0u);
    for (size_t t = 0; t < traces->size(); ++t) {
        const Json *children =
            traces->at(t).find("root")->find("children");
        ASSERT_EQ(children->size(), 3u);
        const Json &execute = children->at(2);
        ASSERT_EQ(execute.find("name")->asString(), "execute");
        ASSERT_NE(execute.find("children"), nullptr);
        EXPECT_GT(execute.find("children")->size(), 0u);
        EXPECT_EQ(execute.find("children")->at(0).find("name")
                      ->asString(),
                  "chain[0]");
    }
}

TEST(EngineFlight, ThreadedEngineRecordsEveryCompletion)
{
    obs::FlightRecorder flight;
    serve::SloMonitor slo;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 0.2;
    opts.timeScale = 0.0;
    opts.flightRecorder = &flight;
    opts.sloMonitor = &slo;
    serve::Engine engine(opts);
    engine.start();
    for (int i = 0; i < 6; ++i) {
        auto fut = engine.submit(serve::Request::timed(1));
        ASSERT_TRUE(fut.ok());
        ASSERT_TRUE(fut.take().get().status.ok());
    }
    engine.drain();

    EXPECT_EQ(flight.recorded(), 6u);
    EXPECT_EQ(sloRequests(slo), 6u);
    Json doc = engine.flightJson().value();
    Status st = obs::validateFlightJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
}

TEST(EngineFlight, FlightJsonRequiresARecorder)
{
    serve::EngineOptions opts;
    opts.serviceMsOverride = 0.2;
    serve::Engine engine(opts);
    Expected<Json> doc = engine.flightJson();
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::FailedPrecondition);
}

// --- /debug introspection + readiness over the metrics server ---

TEST(EngineDebug, ExposesDebugEndpointsAndReadiness)
{
    metrics::Registry reg;
    obs::FlightRecorder flight;
    serve::SloMonitor slo;
    serve::EngineOptions opts;
    opts.serviceMsOverride = 0.2;
    opts.timeScale = 0.0;
    opts.metricsRegistry = &reg;
    opts.flightRecorder = &flight;
    opts.sloMonitor = &slo;
    serve::Engine engine(opts);
    metrics::MetricsHttpServer srv(reg);
    engine.exposeDebug(srv);

    engine.start();
    auto fut = engine.submit(serve::Request::timed(2));
    ASSERT_TRUE(fut.ok());
    fut.take().get();

    // Live: ready, and every /debug endpoint parses as JSON.
    EXPECT_NE(srv.respond("GET /healthz HTTP/1.1").find("200"),
              std::string::npos);
    auto body = [&](const char *req) {
        std::string resp = srv.respond(req);
        EXPECT_NE(resp.find("200"), std::string::npos) << req;
        EXPECT_NE(resp.find("application/json"), std::string::npos);
        return Json::parse(resp.substr(resp.find("\r\n\r\n") + 4));
    };
    Json q = body("GET /debug/queue HTTP/1.1");
    EXPECT_TRUE(q.find("accepting")->asBool());
    EXPECT_GE(q.find("capacity")->asInt(), 1);
    Json r = body("GET /debug/replicas HTTP/1.1");
    EXPECT_EQ(r.find("workers")->size(), 1u);
    Json c = body("GET /debug/config HTTP/1.1");
    EXPECT_NE(c.find("engine"), nullptr);
    EXPECT_NE(c.find("env"), nullptr);
    EXPECT_TRUE(c.find("engine")->find("flight_recorder")->asBool());
    Json e = body("GET /debug/errors HTTP/1.1");
    EXPECT_EQ(e.find("total")->asInt(), 0);
    Json f = body("GET /debug/flight HTTP/1.1");
    EXPECT_TRUE(f.find("attached")->asBool());
    Json s = body("GET /slo.json HTTP/1.1");
    EXPECT_TRUE(serve::validateSloJson(s).ok());

    // Drained: liveness holds (the server still responds) but
    // readiness flips to 503 {"draining": true}.
    engine.drain();
    std::string hz = srv.respond("GET /healthz HTTP/1.1");
    EXPECT_NE(hz.find("503"), std::string::npos);
    EXPECT_NE(hz.find("\"draining\": true"), std::string::npos);
    EXPECT_NE(srv.respond("GET /metrics HTTP/1.1").find("200"),
              std::string::npos);
}

} // namespace
} // namespace bw
