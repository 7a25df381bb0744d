/**
 * @file
 * Tests for the fleet observability plane (obs/fleet.h) and its cluster
 * wiring: cross-shard metric federation, the fleet SLO rollup,
 * bounded-memory NDJSON streaming exports with truncation-detecting
 * validators, streaming-vs-vector replay equivalence, cross-shard trace
 * stitching, and the fast-tier fidelity audit.
 */

#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "bw/bw.h"

using namespace bw;
using namespace bw::cluster;

namespace {

/// Capture an NDJSON stream into one string.
obs::StreamSink
appendTo(std::string &out)
{
    return [&out](const std::string &chunk) {
        out += chunk;
        return true;
    };
}

/// The cluster_test small fleet: two groups, three engines, flat-service
/// models — plus one compiled GRU so stitching and the audit have real
/// chain profiles and cycle-accurate reference times to work with.
ClusterOptions
fleetClusterOptions()
{
    ClusterOptions co;
    ReplicaGroupSpec fast;
    fast.name = "s10";
    fast.config = NpuConfig::bwS10();
    fast.engines = 2;
    fast.engine.queueDepth = 8;
    fast.engine.defaultDeadlineMs = 20.0;
    ReplicaGroupSpec slow;
    slow.name = "s5";
    slow.config = NpuConfig::bwS5();
    slow.engines = 1;
    slow.engine.queueDepth = 8;
    slow.engine.defaultDeadlineMs = 20.0;
    co.groups = {fast, slow};
    co.weightCacheTiles = 64;
    return co;
}

uint32_t
addFleetModels(Cluster &c)
{
    c.addTimedModel("hot", 0.8, 24);
    c.addTimedModel("warm", 1.5, 24);
    Rng rng(5);
    Expected<uint32_t> id =
        c.addModel("gru64", makeGru(randomGruWeights(64, 64, rng)));
    EXPECT_TRUE(id.ok()) << id.status().toString();
    return id.value();
}

TrafficOptions
fleetTraffic(double rps, double duration_s)
{
    TrafficOptions t;
    t.baseRps = rps;
    t.durationS = duration_s;
    t.seed = 42;
    t.mix.push_back(ModelMix{0, 6.0, 1, 10.0});
    t.mix.push_back(ModelMix{1, 2.0, 1, 80.0});
    t.mix.push_back(ModelMix{2, 2.0, 2, 40.0});
    return t;
}

} // namespace

// --- FleetRegistry federation ---

TEST(FleetRegistry, FederatesShardSeriesUnderLabels)
{
    metrics::Registry cluster_reg, shard_a, shard_b;
    cluster_reg.counter("bw_cluster_requests_total", "requests").add(7);
    shard_a.counter("bw_serve_completed_total", "completions").add(3);
    shard_b.counter("bw_serve_completed_total", "completions").add(4);
    shard_b.gauge("bw_serve_queue_depth", "queue").set(2);

    obs::FleetRegistry fleet;
    fleet.setClusterRegistry(&cluster_reg);
    fleet.addShard("s10/0", "s10", &shard_a);
    fleet.addShard("s5/0", "s5", &shard_b);
    ASSERT_EQ(fleet.shardCount(), 2u);

    std::vector<metrics::MetricSnapshot> snap = fleet.federate();
    // Cluster series lead, unlabeled-by-fleet; shard series carry
    // {shard, group}.
    ASSERT_GE(snap.size(), 4u);
    EXPECT_EQ(snap[0].name, "bw_cluster_requests_total");
    EXPECT_EQ(snap[0].labels.size(), 0u);
    bool saw_a = false, saw_b = false;
    for (const metrics::MetricSnapshot &s : snap) {
        if (s.name != "bw_serve_completed_total")
            continue;
        for (const auto &kv : s.labels) {
            if (kv.first == "shard" && kv.second == "s10/0")
                saw_a = true;
            if (kv.first == "shard" && kv.second == "s5/0")
                saw_b = true;
        }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);

    // The merged exposition regroups family-major: exactly one # TYPE
    // line per family even though two shards export the same family.
    std::string text = fleet.prometheus();
    size_t first = text.find("# TYPE bw_serve_completed_total");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# TYPE bw_serve_completed_total", first + 1),
              std::string::npos);
    EXPECT_NE(text.find("shard=\"s10/0\""), std::string::npos);
    EXPECT_NE(text.find("group=\"s5\""), std::string::npos);

    // Deterministic: same sources, same bytes.
    EXPECT_EQ(text, fleet.prometheus());
    EXPECT_EQ(fleet.metricsJson().dump(), fleet.metricsJson().dump());
}

TEST(FleetRegistry, SloRollupSumsShardsAndValidates)
{
    serve::SloMonitor a, b;
    // Shard a: all good; shard b: burns availability.
    for (int i = 0; i < 40; ++i)
        a.record(1000000 + i * 1000, 10.0, 1.0, true);
    for (int i = 0; i < 40; ++i)
        b.record(1000000 + i * 1000, 10.0, i % 2 ? 50.0 : 1.0, true);

    obs::FleetRegistry fleet;
    fleet.addShard("s10/0", "s10", nullptr, &a);
    fleet.addShard("s10/1", "s10", nullptr, &b);

    Json roll = fleet.sloRollupJson();
    Status st = serve::validateSloJson(roll);
    EXPECT_TRUE(st.ok()) << st.toString();
    // Lifetime totals are the sums of the shard monitors per class.
    Json ja = a.sloJson(), jb = b.sloJson();
    const Json *rc = roll.find("classes");
    const Json *ac = ja.find("classes");
    const Json *bc = jb.find("classes");
    ASSERT_NE(rc, nullptr);
    ASSERT_EQ(rc->size(), ac->size());
    for (size_t i = 0; i < rc->size(); ++i) {
        int64_t requests = rc->at(i).find("requests")->asInt();
        EXPECT_EQ(requests, ac->at(i).find("requests")->asInt() +
                                bc->at(i).find("requests")->asInt());
    }
    // Pure function of the shard snapshots.
    EXPECT_EQ(roll.dump(), fleet.sloRollupJson().dump());
}

TEST(FleetRegistry, OneShardRollupIsTheShardDocumentPlusShards)
{
    const uint64_t s = 1000000; // 1 s in us
    serve::SloMonitor a;
    for (int i = 0; i < 30; ++i)
        a.record(3900 * s, i % 2 ? 5.0 : 50.0, 1.0, i % 3 != 0);
    for (int i = 0; i < 30; ++i)
        a.record(4000 * s + i, 5.0, i % 4 ? 1.0 : 30.0, true);
    obs::FleetRegistry fleet;
    fleet.addShard("s10/0", "s10", nullptr, &a);

    Json shard = a.sloJson();
    Json want = Json::object();
    for (size_t i = 0; i < shard.size(); ++i) {
        want.set(shard.member(i).first, shard.member(i).second);
        if (shard.member(i).first == "evaluated_at_us")
            want.set("shards", 1);
    }
    EXPECT_EQ(fleet.sloRollupJson().dump(), want.dump());
}

TEST(FleetRegistry, SloRollupEvaluatesEachShardAtItsOwnHighWaterMark)
{
    const uint64_t s = 1000000; // 1 s in us
    serve::SloMonitor a, b;
    const uint64_t fast_s = a.options().fastWindowUs / s;
    // Both shards burn at 1000 s. Shard a stops there; shard b runs on
    // one fast window longer, so its 1000 s burst is in its slow window
    // only, while a's is in both of a's windows.
    for (int i = 0; i < 20; ++i) {
        a.record(1000 * s, 5.0, 1.0, i % 2 == 0);
        b.record(1000 * s, 5.0, 30.0, i % 2 == 0);
    }
    for (int i = 0; i < 20; ++i)
        b.record((1000 + fast_s) * s, 5.0, 1.0, true);
    ASSERT_EQ(b.highWaterUs() - a.highWaterUs(), fast_s * s);

    obs::FleetRegistry fleet;
    fleet.addShard("s10/0", "s10", nullptr, &a);
    fleet.addShard("s10/1", "s10", nullptr, &b);
    Json roll = fleet.sloRollupJson();
    Status st = serve::validateSloJson(roll);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(roll.find("evaluated_at_us")->asInt(),
              static_cast<int64_t>(b.highWaterUs()));
    EXPECT_EQ(roll.find("shards")->asInt(), 2);

    std::vector<serve::SloClassEval> ea = a.snapshot(), eb = b.snapshot();
    ASSERT_EQ(ea[0].availability.fast.bad, 10u);
    ASSERT_EQ(eb[0].availability.fast.bad, 0u);
    ASSERT_EQ(eb[0].availability.slow.bad, 10u);
    const Json *rc = roll.find("classes");
    ASSERT_EQ(rc->size(), ea.size());
    for (size_t c = 0; c < ea.size(); ++c) {
        const struct
        {
            const char *sli, *window;
            const serve::SloWindowEval &a, &b;
        } windows[] = {
            {"latency", "fast", ea[c].latency.fast, eb[c].latency.fast},
            {"latency", "slow", ea[c].latency.slow, eb[c].latency.slow},
            {"availability", "fast", ea[c].availability.fast,
             eb[c].availability.fast},
            {"availability", "slow", ea[c].availability.slow,
             eb[c].availability.slow},
        };
        for (const auto &w : windows) {
            const Json &j = *rc->at(c).find(w.sli)->find(w.window);
            EXPECT_EQ(j.find("good")->asInt(),
                      static_cast<int64_t>(w.a.good + w.b.good))
                << c << " " << w.sli << "." << w.window;
            EXPECT_EQ(j.find("bad")->asInt(),
                      static_cast<int64_t>(w.a.bad + w.b.bad))
                << c << " " << w.sli << "." << w.window;
        }
    }
}

// --- Streaming exports ---

TEST(RouteStream, WriterRoundTripsThroughValidator)
{
    std::string out;
    obs::RouteStreamWriter w(appendTo(out), "slo_aware", 3, 3);
    EXPECT_TRUE(w.decision(1, 0, 0, 2));
    EXPECT_TRUE(w.decision(2, 1, 1, 0));
    EXPECT_TRUE(w.decision(3, 0, 2, -1)); // front-door shed
    EXPECT_TRUE(w.finish());
    EXPECT_TRUE(w.finish()); // idempotent
    EXPECT_EQ(w.rows(), 3u);
    EXPECT_EQ(w.bytes(), out.size());

    std::istringstream in(out);
    Status st = obs::validateRouteStreamJson(in);
    EXPECT_TRUE(st.ok()) << st.toString();
}

TEST(RouteStream, ValidatorRejectsTruncation)
{
    std::string out;
    obs::RouteStreamWriter w(appendTo(out), "least_loaded", 2, 3);
    for (uint64_t s = 1; s <= 10; ++s)
        w.decision(s, 0, 0, static_cast<int32_t>(s % 2));
    w.finish();

    // Dropping the summary trailer is detected...
    std::string no_trailer = out.substr(0, out.rfind('\n', out.size() - 2) + 1);
    std::istringstream in1(no_trailer);
    EXPECT_FALSE(obs::validateRouteStreamJson(in1).ok());

    // ...as is a final line cut mid-record (partial JSON fragment).
    std::string cut = out.substr(0, out.size() - 25);
    std::istringstream in2(cut);
    EXPECT_FALSE(obs::validateRouteStreamJson(in2).ok());

    // A trailer whose row count disagrees with the rows is rejected.
    std::string lied = out;
    size_t pos = lied.find("\"rows\":10");
    ASSERT_NE(pos, std::string::npos);
    lied.replace(pos, 9, "\"rows\":11");
    std::istringstream in3(lied);
    EXPECT_FALSE(obs::validateRouteStreamJson(in3).ok());
}

TEST(RouteStream, AbortingSinkStopsWriter)
{
    int lines = 0;
    obs::StreamSink sink = [&lines](const std::string &) {
        return ++lines <= 2; // accept header + one row, then hang up
    };
    obs::RouteStreamWriter w(sink, "consistent_hash", 2, 3);
    EXPECT_TRUE(w.decision(1, 0, 0, 0));
    EXPECT_FALSE(w.decision(2, 0, 0, 1)); // sink aborts here
    EXPECT_TRUE(w.failed());
    EXPECT_FALSE(w.decision(3, 0, 0, 0)); // no-op after failure
    EXPECT_FALSE(w.finish());
    EXPECT_EQ(lines, 3);
}

TEST(RouteStream, RowsMatchJsonDumpAtEdgeValues)
{
    std::string out;
    obs::RouteStreamWriter w(appendTo(out), "slo_aware", 3, 2);
    const size_t header_bytes = out.size();
    const uint64_t top = uint64_t{1} << 63;
    std::string want;
    for (uint64_t seq : {uint64_t{1}, top - 1, top + 5}) {
        for (uint32_t model : {0u, UINT32_MAX}) {
            for (uint32_t cls : {0u, UINT32_MAX}) {
                for (int32_t engine : {-2, -1, 0, INT32_MAX}) {
                    ASSERT_TRUE(w.decision(seq, model, cls, engine));
                    Json r = Json::object();
                    r.set("seq", seq);
                    r.set("model", model);
                    r.set("class", cls);
                    r.set("engine", engine);
                    want += r.dump();
                    want += '\n';
                }
            }
        }
    }
    EXPECT_EQ(out.substr(header_bytes), want);
    // Json(uint64_t) wraps a seq above INT64_MAX, and rows keep it.
    EXPECT_NE(want.find("{\"seq\":-9223372036854775803,\"model\":0,"),
              std::string::npos);
    EXPECT_TRUE(w.finish());
    EXPECT_EQ(w.bytes(), out.size());
}

TEST(RouteStream, TrailerCountsUnavailableRowsAsTheRouterDoes)
{
    // One decision sequence with routed, shed (-1) and no-healthy-shard
    // (-2) rows, streamed through the router's sink: the trailer's
    // counters must be the router's own.
    RouterOptions ro;
    ro.policy = RoutePolicy::SloAware;
    Router router(ro, 2, 3);
    std::string out;
    obs::RouteStreamWriter w(appendTo(out), "slo_aware", 2, 3);
    router.setDecisionSink([&w](const RouteDecision &d) {
        w.decision(d.seq, d.model, d.cls, d.engine);
    });
    std::vector<EngineLoad> idle(2), full(2), down(2);
    for (size_t e = 0; e < 2; ++e) {
        idle[e].queueCapacity = full[e].queueCapacity = 4;
        full[e].queued = 4;
        down[e].healthy = false;
    }
    uint64_t seq = 0;
    for (int round = 0; round < 3; ++round) {
        router.route(++seq, 0, "m", 0, idle); // routed
        router.route(++seq, 0, "m", 2, full); // shed: a lower class
        router.route(++seq, 0, "m", 1, down); // -2: nothing healthy
        router.route(++seq, 0, "m", 2, down);
    }
    ASSERT_EQ(router.tally().routed, 3u);
    ASSERT_EQ(router.tally().shed, 3u);
    ASSERT_EQ(router.tally().unavailable, 6u);
    EXPECT_TRUE(w.finish());
    EXPECT_EQ(w.rows(), seq);

    Json trailer = Json::parse(
        out.substr(out.rfind('\n', out.size() - 2) + 1));
    EXPECT_EQ(trailer.find("rows")->asInt(), 12);
    EXPECT_EQ(trailer.find("routed")->asInt(), 3);
    EXPECT_EQ(trailer.find("shed")->asInt(), 3);
    ASSERT_NE(trailer.find("unavailable"), nullptr);
    EXPECT_EQ(trailer.find("unavailable")->asInt(), 6);
    const Json *by_class = trailer.find("shed_by_class");
    ASSERT_NE(by_class, nullptr);
    ASSERT_EQ(by_class->size(), router.tally().shedByClass.size());
    for (size_t c = 0; c < by_class->size(); ++c)
        EXPECT_EQ(static_cast<uint64_t>(by_class->at(c).asInt()),
                  router.tally().shedByClass[c]);
    std::istringstream in(out);
    Status st = obs::validateRouteStreamJson(in);
    EXPECT_TRUE(st.ok()) << st.toString();

    // A trailer that files the unavailable rows as sheds is rejected.
    std::string lied = out;
    size_t pos = lied.find("\"shed\":3");
    ASSERT_NE(pos, std::string::npos);
    lied.replace(pos, 8, "\"shed\":9");
    std::istringstream in2(lied);
    EXPECT_FALSE(obs::validateRouteStreamJson(in2).ok());
}

TEST(SpanStream, RoundTripsAndRejectsTruncation)
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 1;
    obs::SpanTracer tracer(so);
    ClusterOptions co = fleetClusterOptions();
    co.spanTracer = &tracer;
    Cluster c(co);
    addFleetModels(c);
    c.replay(generateTraffic(fleetTraffic(1500, 0.1)));

    std::string out;
    Status st = obs::streamSpanTreesNdjson(tracer, appendTo(out));
    ASSERT_TRUE(st.ok()) << st.toString();
    std::istringstream in(out);
    st = obs::validateSpanStreamJson(in);
    EXPECT_TRUE(st.ok()) << st.toString();

    std::string cut = out.substr(0, out.size() - 20);
    std::istringstream in2(cut);
    EXPECT_FALSE(obs::validateSpanStreamJson(in2).ok());
}

TEST(FlightStream, RoundTripsAndRejectsTruncation)
{
    ClusterOptions co = fleetClusterOptions();
    Cluster c(co);
    addFleetModels(c);
    c.replay(generateTraffic(fleetTraffic(1500, 0.1)));

    // The cluster mounts per-shard flight streams over these recorders;
    // exercise the streamer directly through exposeDebug's plumbing by
    // validating the per-shard flight documents stream cleanly.
    std::string out;
    obs::FlightRecorder standalone;
    for (uint64_t i = 1; i <= 5; ++i) {
        obs::FlightRecord fr;
        fr.seq = i;
        fr.id = i;
        fr.cls = obs::FlightClass::Ok;
        fr.admitUs = i * 100;
        fr.dequeueUs = fr.serviceUs = i * 100 + 10;
        fr.doneUs = i * 100 + 50;
        fr.latencyUs = 50;
        standalone.record(fr);
    }
    Status st = obs::streamFlightNdjson(standalone, appendTo(out));
    ASSERT_TRUE(st.ok()) << st.toString();
    std::istringstream in(out);
    st = obs::validateFlightStreamJson(in);
    EXPECT_TRUE(st.ok()) << st.toString();

    std::string cut = out.substr(0, out.size() - 15);
    std::istringstream in2(cut);
    EXPECT_FALSE(obs::validateFlightStreamJson(in2).ok());
}

TEST(FlightStream, RowsMatchTheFlightDocument)
{
    // Three windows of Ok records (the slowest two of each promoted)
    // with every anomaly class mixed in.
    obs::FlightRecorderOptions fo;
    fo.windowUs = 1000;
    fo.slowestK = 2;
    obs::FlightRecorder rec(fo);
    const obs::FlightClass anomalies[] = {
        obs::FlightClass::DeadlineExpired, obs::FlightClass::Rejected,
        obs::FlightClass::Error, obs::FlightClass::Cancelled};
    for (uint64_t i = 1; i <= 30; ++i) {
        obs::FlightRecord fr;
        fr.seq = i;
        fr.cls = i % 7 == 0 ? anomalies[(i / 7) % 4] : obs::FlightClass::Ok;
        bool rejected = fr.cls == obs::FlightClass::Rejected;
        bool served = fr.cls == obs::FlightClass::Ok ||
                      fr.cls == obs::FlightClass::Error;
        fr.id = rejected ? 0 : i;
        fr.sampled = !rejected && i % 2 == 1;
        fr.replica = static_cast<uint32_t>(i % 3);
        fr.steps = static_cast<uint32_t>(i % 5 + 1);
        fr.admitUs = i * 100;
        fr.dequeueUs = rejected ? fr.admitUs : fr.admitUs + (i % 4) * 10;
        fr.serviceUs = served ? fr.dequeueUs + 5 : fr.dequeueUs;
        fr.doneUs = served ? fr.serviceUs + 20 + (i * 37) % 90
                           : fr.serviceUs;
        fr.latencyUs = fr.doneUs - fr.admitUs;
        rec.record(fr);
    }

    Json doc = Json::parse(obs::flightJson(rec).dump());
    const Json &promoted = *doc.find("promoted");
    const Json &traces = *doc.find("spans")->find("traces");
    size_t ok = 0;
    for (size_t i = 0; i < promoted.size(); ++i)
        ok += promoted.at(i).find("class")->asString() == "ok";
    ASSERT_GT(ok, 0u);
    ASSERT_GT(promoted.size(), ok);
    ASSERT_LT(promoted.size(), 30u);

    std::string out;
    ASSERT_TRUE(obs::streamFlightNdjson(rec, appendTo(out)).ok());
    std::istringstream in(out);
    std::string line;
    std::vector<Json> rows;
    while (std::getline(in, line))
        rows.push_back(Json::parse(line));
    ASSERT_EQ(rows.size(), promoted.size() + 2); // header + summary

    for (size_t i = 0; i < promoted.size(); ++i) {
        const Json &want = promoted.at(i);
        const Json &row = rows[i + 1];
        ASSERT_EQ(row.size(), want.size() + 1);
        for (size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(row.member(k).first, want.member(k).first);
            EXPECT_EQ(row.member(k).second, want.member(k).second)
                << "record " << i << " field " << want.member(k).first;
        }
        EXPECT_EQ(row.member(want.size()).first, "spans");
        const Json *row_traces = row.find("spans")->find("traces");
        ASSERT_EQ(row_traces->size(), 1u);
        const Json *doc_trace = nullptr;
        for (size_t t = 0; t < traces.size(); ++t) {
            if (traces.at(t).find("trace")->asInt() ==
                want.find("seq")->asInt())
                doc_trace = &traces.at(t);
        }
        ASSERT_NE(doc_trace, nullptr) << "record " << i;
        EXPECT_EQ(row_traces->at(0), *doc_trace) << "record " << i;
    }
}

/// The lines of an NDJSON stream, without their '\n'.
std::vector<std::string>
streamLines(const std::string &out)
{
    std::vector<std::string> lines;
    std::istringstream in(out);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/// Validate @p rows, re-serialized one per line, with @p validate.
Status
validateRows(const std::vector<Json> &rows,
             Status (*validate)(std::istream &))
{
    std::string text;
    for (const Json &row : rows)
        text += row.dump() + "\n";
    std::istringstream in(text);
    return validate(in);
}

/// @p arr with element @p i replaced by @p v (Json arrays are
/// read-only by index).
Json
replaced(const Json &arr, size_t i, Json v)
{
    Json out = Json::array();
    for (size_t k = 0; k < arr.size(); ++k)
        out.push(k == i ? v : arr.at(k));
    return out;
}

TEST(SpanStream, RowsMatchTheSpanDocument)
{
    // A 12-span ring: the first two spans recorded are overwritten.
    obs::SpanTracerOptions so;
    so.shardCapacity = 12;
    obs::SpanTracer tracer(so);
    auto span = [&tracer](obs::TraceId trace, obs::SpanId id,
                          obs::SpanId parent, obs::SpanKind kind,
                          uint64_t start, uint64_t end) {
        obs::SpanRecord r;
        r.trace = trace;
        r.id = id;
        r.parent = parent;
        r.kind = kind;
        r.startUs = start;
        r.endUs = end;
        tracer.record(r);
    };
    auto request = [&tracer](obs::TraceId trace, uint64_t at) {
        obs::FlightRecord r;
        r.admitUs = at;
        r.dequeueUs = at + 5;
        r.serviceUs = at + 7;
        r.doneUs = at + 30;
        obs::recordAttemptSpans(tracer, r, trace);
    };
    span(2, 4, 1, obs::SpanKind::Execute, 20, 30); // overwritten
    span(1, 1, 0, obs::SpanKind::Request, 0, 10);  // overwritten
    span(2, 1, 0, obs::SpanKind::Request, 10, 40);
    span(2, 2, 1, obs::SpanKind::QueueWait, 10, 20);
    span(2, 5, 4, obs::SpanKind::Chain, 22, 28); // lost its parent
    span(1, 2, 1, obs::SpanKind::QueueWait, 0, 5); // lost its root
    request(3, 50);
    request(4, 100);
    ASSERT_EQ(tracer.dropped(), 2u);

    std::string doc_text = obs::spanTreeJson(tracer).dump();
    Json doc = Json::parse(doc_text);
    const Json &traces = *doc.find("traces");
    ASSERT_EQ(traces.size(), 3u);
    ASSERT_EQ(doc.find("incomplete_traces")->asInt(), 1);
    ASSERT_TRUE(traces.at(0).contains("incomplete"));

    std::string out;
    ASSERT_TRUE(obs::streamSpanTreesNdjson(tracer, appendTo(out)).ok());
    std::vector<std::string> lines = streamLines(out);
    ASSERT_EQ(lines.size(), traces.size() + 2); // header + summary
    for (size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(lines[i + 1], traces.at(i).dump()) << "trace " << i;
    Json summary = Json::parse(lines.back());
    EXPECT_EQ(summary.find("traces")->asInt(),
              static_cast<int64_t>(traces.size()));
    for (const char *key : {"spans", "dropped", "incomplete_traces"}) {
        ASSERT_NE(summary.find(key), nullptr) << key;
        EXPECT_EQ(*summary.find(key), *doc.find(key)) << key;
    }
    std::istringstream in(out);
    Status st = obs::validateSpanStreamJson(in);
    EXPECT_TRUE(st.ok()) << st.toString();
}

TEST(SpanStream, ValidatorAppliesTheDocumentTraceChecks)
{
    obs::SpanTracer tracer;
    for (obs::TraceId t = 1; t <= 3; ++t) {
        obs::FlightRecord r;
        r.admitUs = 100 * t;
        r.dequeueUs = 100 * t + 10;
        r.serviceUs = 100 * t + 20;
        r.doneUs = 100 * t + 60;
        obs::recordAttemptSpans(tracer, r, t);
    }
    std::string out;
    ASSERT_TRUE(obs::streamSpanTreesNdjson(tracer, appendTo(out)).ok());
    std::vector<Json> rows;
    for (const std::string &line : streamLines(out))
        rows.push_back(Json::parse(line));
    ASSERT_EQ(rows.size(), 5u);
    ASSERT_TRUE(validateRows(rows, obs::validateSpanStreamJson).ok());

    const Json &root = *rows[2].find("root");
    const Json &kids = *root.find("children");
    int64_t root_end = root.find("end_us")->asInt();

    // A child span that ends after its parent.
    Json escaping = kids.at(0);
    escaping.set("end_us", root_end + 5);
    escaping.set("dur_us",
                 root_end + 5 - escaping.find("start_us")->asInt());
    std::vector<Json> bad = rows;
    bad[2].find("root")->set("children", replaced(kids, 0, escaping));
    Status st = validateRows(bad, obs::validateSpanStreamJson);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("escapes"), std::string::npos)
        << st.toString();

    // A child that repeats its parent's id.
    Json repeated = kids.at(0);
    repeated.set("id", root.find("id")->asInt());
    bad = rows;
    bad[2].find("root")->set("children", replaced(kids, 0, repeated));
    st = validateRows(bad, obs::validateSpanStreamJson);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("duplicate"), std::string::npos)
        << st.toString();
}

TEST(FlightStream, ValidatorAppliesTheDocumentRecordChecks)
{
    obs::FlightRecorder rec;
    for (uint64_t i = 1; i <= 3; ++i) {
        obs::FlightRecord fr;
        fr.seq = i;
        fr.id = i;
        fr.cls = obs::FlightClass::DeadlineExpired; // always promoted
        fr.admitUs = i * 100;
        fr.dequeueUs = fr.serviceUs = fr.doneUs = i * 100 + 10;
        fr.latencyUs = 10;
        rec.record(fr);
    }
    std::string out;
    ASSERT_TRUE(obs::streamFlightNdjson(rec, appendTo(out)).ok());
    std::vector<Json> rows;
    for (const std::string &line : streamLines(out))
        rows.push_back(Json::parse(line));
    ASSERT_EQ(rows.size(), 5u);
    ASSERT_TRUE(validateRows(rows, obs::validateFlightStreamJson).ok());

    // A class name the document validator does not know.
    std::vector<Json> bad = rows;
    bad[2].set("class", "bogus");
    Status st = validateRows(bad, obs::validateFlightStreamJson);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("class"), std::string::npos)
        << st.toString();

    // An embedded tree whose trace id is not the record's seq.
    Json spans = *rows[2].find("spans");
    Json tree = spans.find("traces")->at(0);
    tree.set("trace", 99);
    spans.set("traces", replaced(*spans.find("traces"), 0, tree));
    bad = rows;
    bad[2].set("spans", spans);
    st = validateRows(bad, obs::validateFlightStreamJson);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("seq"), std::string::npos)
        << st.toString();
}

// --- Cluster wiring: federation determinism, stitching, streaming
// --- replay, fidelity audit ---

TEST(Fleet, ClusterExportsAreByteIdenticalAcrossFreshReplays)
{
    // Audit and cluster-registry counters are cumulative across replays
    // of one Cluster, so replay determinism at the fleet plane is
    // stated over two fresh clusters fed the same trace.
    std::vector<ClusterRequest> trace =
        generateTraffic(fleetTraffic(2000, 0.3));

    auto runOnce = [&trace](std::string *metrics, std::string *slo,
                            std::string *spans, std::string *audit) {
        metrics::Registry reg;
        obs::SpanTracerOptions so;
        so.sampleEvery = 3;
        obs::SpanTracer tracer(so);
        ClusterOptions co = fleetClusterOptions();
        co.metricsRegistry = &reg;
        co.spanTracer = &tracer;
        co.fidelity = timing::Fidelity::Fast;
        co.auditEvery = 7;
        Cluster c(co);
        addFleetModels(c);
        c.replay(trace);
        *metrics = c.fleetMetricsText();
        EXPECT_EQ(c.fleetMetricsJson().dump(), c.fleetMetricsJson().dump());
        *slo = c.fleetSloJson().dump();
        *spans = "";
        obs::streamSpanTreesNdjson(tracer, appendTo(*spans));
        *audit = c.auditJson().dump();
        Status st = serve::validateSloJson(c.fleetSloJson());
        EXPECT_TRUE(st.ok()) << st.toString();
    };

    std::string m1, s1, sp1, a1, m2, s2, sp2, a2;
    runOnce(&m1, &s1, &sp1, &a1);
    runOnce(&m2, &s2, &sp2, &a2);
    EXPECT_EQ(m1, m2);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(sp1, sp2);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(m1.find("bw_timing_audit_checks_total"), std::string::npos);
    EXPECT_NE(m1.find("shard=\"s10/0\""), std::string::npos);
}

TEST(Fleet, StitchedTreesCarryChainLeavesUnderExecute)
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 1;
    obs::SpanTracer tracer(so);
    ClusterOptions co = fleetClusterOptions();
    co.spanTracer = &tracer;
    Cluster c(co);
    uint32_t gru = addFleetModels(c);
    c.replay(generateTraffic(fleetTraffic(1200, 0.2)));

    // Compiled-model requests get chain leaves stitched under execute;
    // timed-model requests keep the plain route -> request tree.
    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    ASSERT_TRUE(st.ok()) << st.toString();
    const Json *traces = doc.find("traces");
    ASSERT_NE(traces, nullptr);
    size_t stitched = 0;
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json *root = traces->at(i).find("root");
        ASSERT_NE(root, nullptr);
        EXPECT_EQ(root->find("name")->asString(), "route");
        bool is_gru = root->find("model") &&
                      root->find("model")->asInt() == gru;
        // Walk route -> request -> {queue_wait, dispatch, execute}.
        const Json *kids = root->find("children");
        if (!kids || kids->size() == 0)
            continue;
        const Json *req_kids = kids->at(0).find("children");
        if (!req_kids)
            continue;
        for (size_t k = 0; k < req_kids->size(); ++k) {
            const Json &child = req_kids->at(k);
            if (child.find("name")->asString() != "execute")
                continue;
            const Json *chains = child.find("children");
            if (is_gru && chains && chains->size() > 0) {
                ++stitched;
                EXPECT_EQ(chains->at(0).find("name")->asString(),
                          "chain[0]");
            }
            if (!is_gru) {
                EXPECT_TRUE(!chains || chains->size() == 0);
            }
        }
    }
    EXPECT_GT(stitched, 0u);
}

TEST(Fleet, StreamingReplayMatchesVectorReplay)
{
    TrafficOptions t = fleetTraffic(2500, 0.4);
    std::vector<ClusterRequest> trace = generateTraffic(t);

    auto makeCluster = [](metrics::Registry *reg,
                          obs::SpanTracer *tracer) {
        ClusterOptions co = fleetClusterOptions();
        co.metricsRegistry = reg;
        co.spanTracer = tracer;
        co.fidelity = timing::Fidelity::Fast;
        co.auditEvery = 11;
        return co;
    };

    metrics::Registry reg_v, reg_s;
    obs::SpanTracerOptions so;
    so.sampleEvery = 3;
    obs::SpanTracer tr_v(so), tr_s(so);
    Cluster vec(makeCluster(&reg_v, &tr_v));
    Cluster str(makeCluster(&reg_s, &tr_s));
    addFleetModels(vec);
    addFleetModels(str);

    ClusterStats sv = vec.replay(trace);

    std::string ndjson;
    obs::RouteStreamWriter writer(
        appendTo(ndjson), routePolicyName(str.router().options().policy),
        str.engineCount(), str.sloClassCount());
    str.setDecisionSink([&writer](const RouteDecision &d) {
        writer.decision(d.seq, d.model, d.cls, d.engine);
    });
    TrafficStream stream(t);
    ClusterStats ss = str.replayStream(
        [&stream](ClusterRequest *r) { return stream.next(r); });
    writer.finish();

    // Counters agree exactly; every decision flowed through the stream.
    EXPECT_EQ(sv.submitted, ss.submitted);
    EXPECT_EQ(sv.shed, ss.shed);
    EXPECT_EQ(sv.rejected, ss.rejected);
    EXPECT_EQ(sv.expired, ss.expired);
    EXPECT_EQ(sv.completed, ss.completed);
    EXPECT_EQ(sv.goodput, ss.goodput);
    EXPECT_DOUBLE_EQ(sv.goodputRps, ss.goodputRps);
    EXPECT_EQ(writer.rows(), ss.submitted);
    std::istringstream in(ndjson);
    EXPECT_TRUE(obs::validateRouteStreamJson(in).ok());

    // Observers are byte-identical: federated metrics, SLO rollup,
    // span-tree streams, per-shard flight documents.
    EXPECT_EQ(vec.fleetMetricsText(), str.fleetMetricsText());
    EXPECT_EQ(vec.fleetSloJson().dump(), str.fleetSloJson().dump());
    std::string spans_v, spans_s;
    obs::streamSpanTreesNdjson(tr_v, appendTo(spans_v));
    obs::streamSpanTreesNdjson(tr_s, appendTo(spans_s));
    EXPECT_EQ(spans_v, spans_s);
    for (unsigned e = 0; e < vec.engineCount(); ++e)
        EXPECT_EQ(vec.engineFlightJson(e).dump(),
                  str.engineFlightJson(e).dump());
    EXPECT_EQ(vec.auditChecks(), str.auditChecks());
    EXPECT_EQ(vec.auditDivergences(), str.auditDivergences());

    // Exact mean/max and count transfer through the sketch; percentile
    // estimates land within one geometric bucket (ratio 2^(1/4)) of the
    // exact nearest-rank values.
    EXPECT_EQ(sv.overall.requests, ss.overall.requests);
    EXPECT_NEAR(sv.overall.meanLatencyMs, ss.overall.meanLatencyMs, 1e-9);
    EXPECT_NEAR(sv.overall.maxLatencyMs, ss.overall.maxLatencyMs, 1e-9);
    const double ratio = std::exp2(0.25) + 1e-9;
    EXPECT_LE(ss.overall.p99LatencyMs, sv.overall.p99LatencyMs * ratio);
    EXPECT_GE(ss.overall.p99LatencyMs * ratio, sv.overall.p99LatencyMs);
}

TEST(Fleet, FidelityAuditCountsChecksWithoutDivergence)
{
    ClusterOptions co = fleetClusterOptions();
    co.fidelity = timing::Fidelity::Fast;
    co.auditEvery = 5;
    Cluster c(co);
    addFleetModels(c);
    c.replay(generateTraffic(fleetTraffic(2000, 0.3)));

    // The fast tier matches the cycle-accurate reference on this model.
    EXPECT_GT(c.auditChecks(), 0u);
    EXPECT_EQ(c.auditDivergences(), 0u);
    Json j = c.auditJson();
    EXPECT_EQ(j.find("schema")->asString(), "bw.audit/1");
    EXPECT_TRUE(j.find("active")->asBool());
    EXPECT_EQ(j.find("fidelity")->asString(), "fast");
    EXPECT_EQ(j.find("checks")->asInt(), c.auditChecks());
    ASSERT_NE(j.find("last_check"), nullptr);
    EXPECT_GT(j.find("last_check")->find("exact_ms")->asDouble(), 0.0);
}

TEST(Fleet, FidelityAuditInactiveWhenDisabledOrCycleAccurate)
{
    std::vector<ClusterRequest> trace =
        generateTraffic(fleetTraffic(1500, 0.1));
    {
        ClusterOptions co = fleetClusterOptions();
        co.fidelity = timing::Fidelity::Fast; // but auditEvery == 0
        Cluster c(co);
        addFleetModels(c);
        c.replay(trace);
        EXPECT_EQ(c.auditChecks(), 0u);
        EXPECT_FALSE(c.auditJson().find("active")->asBool());
    }
    {
        ClusterOptions co = fleetClusterOptions();
        co.fidelity = timing::Fidelity::CycleAccurate;
        co.auditEvery = 5; // nothing to audit against itself
        Cluster c(co);
        addFleetModels(c);
        c.replay(trace);
        EXPECT_EQ(c.auditChecks(), 0u);
        EXPECT_FALSE(c.auditJson().find("active")->asBool());
    }
}

TEST(Fleet, TrafficStreamMatchesGeneratedTrace)
{
    TrafficOptions t = fleetTraffic(3000, 0.5);
    t.diurnalAmplitude = 0.4;
    t.diurnalPeriodS = 0.25;
    t.bursts.push_back(BurstPhase{0.1, 0.05, 2.5});
    std::vector<ClusterRequest> trace = generateTraffic(t);
    ASSERT_GT(trace.size(), 500u);

    TrafficStream stream(t);
    size_t i = 0;
    ClusterRequest r;
    while (stream.next(&r)) {
        ASSERT_LT(i, trace.size());
        EXPECT_EQ(r.arrivalS, trace[i].arrivalS);
        EXPECT_EQ(r.model, trace[i].model);
        EXPECT_EQ(r.steps, trace[i].steps);
        EXPECT_EQ(r.deadlineMs, trace[i].deadlineMs);
        ++i;
    }
    EXPECT_EQ(i, trace.size());
    EXPECT_EQ(stream.produced(), trace.size());
    EXPECT_FALSE(stream.next(&r)); // stays drained
}

TEST(Fleet, EnvKnobsReachClusterAndEngineOptions)
{
    ::setenv("BW_ROUTE_LOG_MAX", "123", 1);
    ::setenv("BW_AUDIT_SAMPLE", "977", 1);
    ClusterOptions co = ClusterOptions::fromEnv();
    ::unsetenv("BW_ROUTE_LOG_MAX");
    ::unsetenv("BW_AUDIT_SAMPLE");
    EXPECT_EQ(co.router.logCapacity, 123u);
    EXPECT_EQ(co.auditEvery, 977u);

    ::setenv("BW_DEBUG_RING", "17", 1);
    serve::EngineOptions eo = serve::EngineOptions::fromEnv();
    ::unsetenv("BW_DEBUG_RING");
    EXPECT_EQ(eo.errorRingCapacity, 17u);
}
