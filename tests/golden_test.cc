/**
 * @file
 * Golden export digests: the FNV-1a-64 of every export's dump() for a
 * fixed set of seeded virtual-time replays, pinned as constants.
 *
 * The other replay tests compare a replay with itself (two runs, one
 * schedule) or with a degenerate single-engine cluster, so a change that
 * renumbers every flight id or span id the same way on both sides goes
 * unseen. These digests pin the absolute bytes instead: any edit to the
 * queueing kernel, the numbering rules or a recorder must leave every
 * digest here unchanged, or change it on purpose and say why.
 *
 * Scenarios: Engine::replay with rejects and expiries (tracer, flight
 * recorder and SLO monitor attached); a single-dispatch Cluster::replay
 * under a fault schedule with weight reloads and the fidelity audit;
 * the same replay hedged; and Cluster::replayStream into the route,
 * span and flight NDJSON writers.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bw/bw.h"

using namespace bw;
using namespace bw::cluster;

namespace {

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/// One named export and its pinned digest.
struct Golden
{
    const char *name;
    uint64_t digest;
};

/// Compare every produced export against its pinned digest; on a
/// mismatch print the full actual table so an intended change can be
/// reviewed export by export.
void
expectDigests(const std::vector<std::pair<std::string, std::string>> &got,
              const std::vector<Golden> &want)
{
    EXPECT_EQ(got.size(), want.size());
    bool all = got.size() == want.size();
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        EXPECT_EQ(got[i].first, want[i].name);
        uint64_t d = fnv1a64(got[i].second);
        EXPECT_EQ(d, want[i].digest) << got[i].first;
        all = all && d == want[i].digest;
    }
    if (!all) {
        for (const auto &g : got)
            std::printf("    {\"%s\", 0x%016" PRIx64 "ull},\n",
                        g.first.c_str(), fnv1a64(g.second));
    }
}

obs::StreamSink
appendTo(std::string &out)
{
    return [&out](const std::string &chunk) {
        out += chunk;
        return true;
    };
}

/// Engine replay over a compiled GRU (chain leaves in the span and
/// flight exports), overloaded so the queue rejects and deadlines expire.
std::vector<std::pair<std::string, std::string>>
engineExports()
{
    Rng rng(31);
    Session session = Session::compile(
        makeGru(randomGruWeights(64, 64, rng)), NpuConfig::bwS10());
    obs::SpanTracerOptions so;
    so.sampleEvery = 2;
    obs::SpanTracer tracer(so);
    obs::FlightRecorderOptions fo;
    fo.windowUs = 2000;
    obs::FlightRecorder flight(fo);
    serve::SloMonitor slo;
    serve::EngineOptions eo;
    eo.replicas = 2;
    eo.queueDepth = 6;
    eo.networkMs = 0.02;
    eo.defaultDeadlineMs = 0.15;
    eo.spanTracer = &tracer;
    eo.flightRecorder = &flight;
    eo.sloMonitor = &slo;
    auto engine = session.serve(eo);
    Rng arr(77);
    std::vector<double> arrivals = poissonArrivals(60000.0, 0.03, arr);
    ServeStats s = engine->replay(arrivals, 50);
    const serve::StatsCollector &col = engine->collector();
    EXPECT_GT(col.count(obs::FlightClass::Rejected), 0u);
    EXPECT_GT(col.count(obs::FlightClass::DeadlineExpired), 0u);
    EXPECT_GT(s.requests, 0u);
    std::vector<std::pair<std::string, std::string>> out = {
        {"stats", s.toJson().dump()},
        {"collector", col.toJson().dump()},
        {"spans", obs::spanTreeJson(tracer).dump()},
        {"flight", engine->flightJson().value().dump()},
        {"slo", slo.sloJson().dump()},
    };
    engine->shutdown();
    return out;
}

/// A fleet of two groups and three engines over two flat-service models
/// and one compiled GRU, with a weight cache small enough to reload.
ClusterOptions
goldenClusterOptions()
{
    ClusterOptions co;
    ReplicaGroupSpec fast;
    fast.name = "s10";
    fast.config = NpuConfig::bwS10();
    fast.engines = 2;
    fast.engine.queueDepth = 6;
    fast.engine.replicas = 2;
    fast.engine.networkMs = 0.05;
    fast.engine.defaultDeadlineMs = 8.0;
    ReplicaGroupSpec slow;
    slow.name = "s5";
    slow.config = NpuConfig::bwS5();
    slow.engines = 1;
    slow.engine.queueDepth = 6;
    slow.engine.defaultDeadlineMs = 8.0;
    co.groups = {fast, slow};
    co.weightCacheTiles = 40;
    co.fidelity = timing::Fidelity::Fast;
    co.auditEvery = 5;
    co.flight.windowUs = 5000;
    return co;
}

void
addGoldenModels(Cluster &c)
{
    c.addTimedModel("hot", 0.8, 24);
    c.addTimedModel("warm", 1.5, 16);
    Rng rng(5);
    Expected<uint32_t> id =
        c.addModel("gru64", makeGru(randomGruWeights(64, 64, rng)));
    ASSERT_TRUE(id.ok()) << id.status().toString();
}

/// One fault of every class, on different shards and windows.
ChaosSchedule
goldenSchedule()
{
    ChaosSchedule sched;
    auto add = [&sched](FaultClass cls, unsigned shard, double at,
                        double dur, double mag) {
        FaultEvent f;
        f.cls = cls;
        f.shard = shard;
        f.atS = at;
        f.durationS = dur;
        f.magnitude = mag;
        sched.addFault(f);
    };
    add(FaultClass::SlowReplica, 1, 0.02, 0.08, 3.0);
    add(FaultClass::ReplicaCrash, 0, 0.06, 0.04, 0);
    add(FaultClass::ReplicaHang, 2, 0.12, 0.03, 0);
    add(FaultClass::DroppedMessage, 1, 0.18, 0.06, 0.5);
    return sched;
}

TrafficOptions
goldenTraffic()
{
    TrafficOptions t;
    t.baseRps = 2600;
    t.durationS = 0.3;
    t.seed = 42;
    t.mix.push_back(ModelMix{0, 6.0, 1, 6.0});
    t.mix.push_back(ModelMix{1, 2.0, 1, 0.0});
    t.mix.push_back(ModelMix{2, 2.0, 2, 12.0});
    return t;
}

std::vector<std::pair<std::string, std::string>>
clusterExports(double hedge_ms)
{
    metrics::Registry reg;
    obs::SpanTracerOptions so;
    so.sampleEvery = 3;
    obs::SpanTracer tracer(so);
    ClusterOptions co = goldenClusterOptions();
    co.metricsRegistry = &reg;
    co.spanTracer = &tracer;
    co.hedgeMs = hedge_ms;
    Cluster c(co);
    addGoldenModels(c);
    c.setChaosSchedule(goldenSchedule());
    ClusterStats cs = c.replay(generateTraffic(goldenTraffic()));
    EXPECT_GT(cs.rejected, 0u);
    EXPECT_GT(cs.expired, 0u);
    if (hedge_ms < 0) {
        EXPECT_GT(cs.failed, 0u);
        EXPECT_GT(c.auditChecks(), 0u);
    } else {
        EXPECT_GT(cs.hedgeWins, 0u);
    }
    uint64_t reloaded = 0, faulted = 0;
    for (const EngineReport &r : cs.engines) {
        reloaded += r.cacheMisses;
        faulted += r.failed;
    }
    EXPECT_GT(reloaded, 0u);
    EXPECT_GT(faulted, 0u);

    std::vector<std::pair<std::string, std::string>> out = {
        {"stats", cs.toJson().dump()},
        {"route", c.routeJson().dump()},
    };
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        out.push_back({"flight/" + c.engineLabel(e),
                       c.engineFlightJson(e).dump()});
        out.push_back({"slo/" + c.engineLabel(e),
                       c.engineSloJson(e).dump()});
    }
    out.push_back({"cluster_slo", c.sloJson().dump()});
    out.push_back({"spans", obs::spanTreeJson(tracer).dump()});
    out.push_back({"incidents", c.incidentsJson().dump()});
    out.push_back({"audit", c.auditJson().dump()});
    out.push_back({"fleet_metrics", c.fleetMetricsText()});
    return out;
}

/// Cluster::replayStream of the chaotic golden replay into the route,
/// span and flight NDJSON writers.
std::vector<std::pair<std::string, std::string>>
streamedExports()
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 3;
    obs::SpanTracer tracer(so);
    ClusterOptions co = goldenClusterOptions();
    co.spanTracer = &tracer;
    Cluster c(co);
    addGoldenModels(c);
    c.setChaosSchedule(goldenSchedule());
    std::string route;
    obs::RouteStreamWriter writer(
        appendTo(route), routePolicyName(c.router().options().policy),
        c.engineCount(), c.sloClassCount());
    c.setDecisionSink([&writer](const RouteDecision &d) {
        writer.decision(d.seq, d.model, d.cls, d.engine);
    });
    TrafficStream stream(goldenTraffic());
    ClusterStats cs = c.replayStream(
        [&stream](ClusterRequest *r) { return stream.next(r); });
    writer.finish();

    std::vector<std::pair<std::string, std::string>> got = {
        {"stats", cs.toJson().dump()},
        {"route", route},
    };
    std::string spans;
    obs::streamSpanTreesNdjson(tracer, appendTo(spans));
    got.push_back({"spans", spans});
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        std::string flight;
        obs::streamFlightNdjson(*c.engine(e).options().flightRecorder,
                                appendTo(flight));
        got.push_back({"flight/" + c.engineLabel(e), flight});
    }
    return got;
}

} // namespace

TEST(GoldenExports, EngineReplayUnbatched)
{
    expectDigests(engineExports(),
                  {
                      {"stats", 0x2db4795eb0685e93ull},
                      {"collector", 0xe4fd1cd9f768c2bcull},
                      {"spans", 0x0f0ca6d8a06872daull},
                      {"flight", 0x2076064b2c728b5full},
                      {"slo", 0x053b8bcae5c009a3ull},
                  });
}

TEST(GoldenExports, ChaoticClusterReplay)
{
    expectDigests(clusterExports(-1),
                  {
                      {"stats", 0xa4998e912a88f182ull},
                      {"route", 0x415c3f5026926569ull},
                      {"flight/s10/0", 0x0703c1d03683fdc4ull},
                      {"slo/s10/0", 0x8a569b8e84d05fcdull},
                      {"flight/s10/1", 0xc184a29144ba1c5bull},
                      {"slo/s10/1", 0x05499d8f3175de66ull},
                      {"flight/s5/0", 0x4c2f63cf0acda3b2ull},
                      {"slo/s5/0", 0x889ae4b00a4f1e16ull},
                      {"cluster_slo", 0x5521282909e79bf4ull},
                      {"spans", 0x9b847a01ad74fb1aull},
                      {"incidents", 0x7b9a683c29b65b8dull},
                      {"audit", 0x9075b3de1d536b82ull},
                      {"fleet_metrics", 0x4a5b16e9eed3ff2eull},
                  });
}

TEST(GoldenExports, HedgedChaoticClusterReplay)
{
    expectDigests(clusterExports(3.0),
                  {
                      {"stats", 0x6dfeaabd26e80329ull},
                      {"route", 0xa36cb84ba83533c0ull},
                      {"flight/s10/0", 0x224334f46662c8acull},
                      {"slo/s10/0", 0xb8512bc687e9968aull},
                      {"flight/s10/1", 0x3764ef17066b6eedull},
                      {"slo/s10/1", 0x8fa5c7acad8fe626ull},
                      {"flight/s5/0", 0x26a4210e3adabc24ull},
                      {"slo/s5/0", 0x13049c80939bd017ull},
                      {"cluster_slo", 0x8c0381162c89ed87ull},
                      {"spans", 0x9d4b30a3a50b94a9ull},
                      {"incidents", 0xb5ec7941c4e36201ull},
                      {"audit", 0x0c1a6f3c4ea45945ull},
                      {"fleet_metrics", 0x0f259fbfeb2962c2ull},
                  });
}

TEST(GoldenExports, StreamedClusterReplayNdjson)
{
    expectDigests(streamedExports(),
                  {
                      {"stats", 0xb2fcd32157b2b1f9ull},
                      {"route", 0xb58723727b7874d7ull},
                      {"spans", 0x760815e95a5c68f5ull},
                      {"flight/s10/0", 0x07658c967b234b74ull},
                      {"flight/s10/1", 0x5803f8a42d175059ull},
                      {"flight/s5/0", 0xd1f77852ee2b4af5ull},
                  });
}

// --- Validators held to the field tables ---
//
// Each export record declares its fields once (obs/fields.h); the
// writers above and the validators expand that one list. The tests
// below hold the validators to it over the golden exports: documents
// that drifted from the writers are rejected, and so is every export
// with any declared field dropped or retyped.

namespace {

/// Steps into a document: object keys, or array indices in decimal.
using Path = std::vector<std::string>;

/// The value at @p path in @p doc, or null.
const Json *
at(const Json &doc, const Path &path)
{
    const Json *j = &doc;
    for (const std::string &step : path) {
        if (j->type() == Json::Type::Array) {
            size_t i = std::stoul(step);
            j = i < j->size() ? &j->at(i) : nullptr;
        } else {
            j = j->find(step);
        }
        if (!j)
            return nullptr;
    }
    return j;
}

/// @p doc with member @p key of the object at @p path set to @p value,
/// or removed when @p value is empty (Json values are read-only by
/// path, so the document is rebuilt).
Json
edited(const Json &doc, const Path &path, const std::string &key,
       const std::optional<Json> &value, size_t depth = 0)
{
    bool array = doc.type() == Json::Type::Array;
    Json out = array ? Json::array() : Json::object();
    bool here = depth == path.size(), seen = false;
    for (size_t i = 0; i < doc.size(); ++i) {
        const auto &[k, v] = doc.member(i);
        if (here) {
            seen = seen || k == key;
            if (k != key)
                out.set(k, v);
            else if (value)
                out.set(k, *value);
        } else if (array) {
            out.push(std::to_string(i) == path[depth]
                         ? edited(v, path, key, value, depth + 1)
                         : v);
        } else {
            out.set(k, k == path[depth]
                           ? edited(v, path, key, value, depth + 1)
                           : v);
        }
    }
    if (here && !seen && value)
        out.set(key, *value);
    return out;
}

/// @p doc with the array at @p path cut to its first @p keep elements.
Json
truncated(const Json &doc, const Path &path, size_t keep)
{
    const Json &list = *at(doc, path);
    Json head = Json::array();
    for (size_t i = 0; i < std::min(keep, list.size()); ++i)
        head.push(list.at(i));
    return edited(doc, Path(path.begin(), path.end() - 1), path.back(),
                  head);
}

/// An NDJSON stream as a Json array of its lines, and back.
Json
streamLines(const std::string &text)
{
    Json lines = Json::array();
    size_t begin = 0, end;
    while ((end = text.find('\n', begin)) != std::string::npos) {
        lines.push(Json::parse(text.substr(begin, end - begin)));
        begin = end + 1;
    }
    return lines;
}

std::string
streamText(const Json &lines)
{
    std::string text;
    for (size_t i = 0; i < lines.size(); ++i)
        text += lines.at(i).dump() + "\n";
    return text;
}

/// A stream validator as a check over streamLines() arrays.
std::function<Status(const Json &)>
streamCheck(Status (*validate)(std::istream &))
{
    return [validate](const Json &lines) {
        std::istringstream in(streamText(lines));
        return validate(in);
    };
}

/// The export named @p name in @p exports.
const std::string &
exportNamed(const std::vector<std::pair<std::string, std::string>> &exports,
            const std::string &name)
{
    for (const auto &e : exports) {
        if (e.first == name)
            return e.second;
    }
    ADD_FAILURE() << "no export named " << name;
    static const std::string none;
    return none;
}

/// Extend @p path from span node @p node to the first node, depth
/// first, whose name is @p kind or @p kind[i].
bool
findSpan(const Json &node, const std::string &kind, Path *path)
{
    const std::string &name = node.find("name")->asString();
    if (name == kind || name.rfind(kind + "[", 0) == 0)
        return true;
    if (const Json *kids = node.find("children")) {
        for (size_t i = 0; i < kids->size(); ++i) {
            path->push_back("children");
            path->push_back(std::to_string(i));
            if (findSpan(kids->at(i), kind, path))
                return true;
            path->resize(path->size() - 2);
        }
    }
    return false;
}

} // namespace

TEST(GoldenExports, ValidatorsRejectDriftedDocuments)
{
    // Each document here passed the hand-written validators the field
    // tables replaced.
    auto engine = engineExports();
    auto streamed = streamedExports();
    const Json flight = Json::parse(exportNamed(engine, "flight"));
    const Json spans = Json::parse(exportNamed(engine, "spans"));
    const Json slo = Json::parse(exportNamed(engine, "slo"));
    auto route = [](const char *text) {
        return cluster::validateRouteJson(Json::parse(text));
    };
    auto routeStream = [](const std::string &text) {
        std::istringstream in(text);
        return obs::validateRouteStreamJson(in);
    };
    auto spanStream = [](const std::string &text) {
        std::istringstream in(text);
        return obs::validateSpanStreamJson(in);
    };
    const std::string route_head =
        "{\"schema\":\"bw.routestream/1\",\"policy\":\"least_loaded\","
        "\"engines\":2}\n";
    Path execute = {"traces"};
    for (size_t i = 0; i < spans.find("traces")->size(); ++i) {
        execute = {"traces", std::to_string(i), "root"};
        if (findSpan(*at(spans, execute), "execute", &execute) &&
            at(spans, execute)->contains("chains"))
            break;
    }
    ASSERT_TRUE(at(spans, execute)->contains("chains"));
    const Path request = {"traces", "0", "root"};
    ASSERT_EQ(at(spans, request)->find("name")->asString(), "request");
    Json span_lines = streamLines(exportNamed(streamed, "spans"));
    std::string trailer = std::to_string(span_lines.size() - 1);

    const struct
    {
        const char *what;
        Status st;
    } cases[] = {
        {"bw.route/1 counters and arrays of the wrong type",
         route("{\"schema\":\"bw.route/1\",\"policy\":\"least_loaded\","
               "\"engines\":2,\"routed\":\"x\",\"shed\":\"y\","
               "\"unavailable\":null,\"log_dropped\":false,"
               "\"shed_by_class\":{},\"decisions\":{}}")},
        {"bw.route/1 decision row of the wrong types",
         route("{\"schema\":\"bw.route/1\",\"policy\":\"least_loaded\","
               "\"engines\":2,\"routed\":1,\"shed\":0,\"unavailable\":0,"
               "\"log_dropped\":0,\"shed_by_class\":[0],\"decisions\":"
               "[{\"seq\":\"a\",\"model\":[],\"class\":{},"
               "\"engine\":\"1\"}]}")},
        {"bw.routestream/1 row of fractional numbers",
         routeStream(route_head +
                     "{\"seq\":1.5,\"model\":0.25,\"class\":0,"
                     "\"engine\":0.9}\n"
                     "{\"summary\":true,\"rows\":1,\"routed\":1,"
                     "\"shed\":0,\"shed_by_class\":[0]}\n")},
        {"bw.routestream/1 trailer with a string per-class count",
         routeStream(route_head +
                     "{\"seq\":1,\"model\":0,\"class\":0,\"engine\":0}\n"
                     "{\"summary\":true,\"rows\":1,\"routed\":1,"
                     "\"shed\":0,\"shed_by_class\":[\"a\"]}\n")},
        {"bw.flight/1 without slowest_k",
         obs::validateFlightJson(edited(flight, {}, "slowest_k", {}))},
        {"bw.flight/1 record without sampled",
         obs::validateFlightJson(
             edited(flight, {"promoted", "0"}, "sampled", {}))},
        {"bw.spans/1 without spans or dropped",
         obs::validateSpanTreeJson(
             edited(edited(spans, {}, "spans", {}), {}, "dropped", {}))},
        {"span node with a numeric outcome",
         obs::validateSpanTreeJson(edited(spans, request, "outcome", 7))},
        {"span node with a string replica",
         obs::validateSpanTreeJson(edited(spans, execute, "replica", "r"))},
        {"span node with negative chains",
         obs::validateSpanTreeJson(edited(spans, execute, "chains", -3))},
        {"bw.spanstream/1 trailer without dropped",
         spanStream(streamText(
             edited(span_lines, {trailer}, "dropped", {})))},
        {"bw.slo/1 without windows.bucket_us",
         serve::validateSloJson(edited(slo, {"windows"}, "bucket_us", {}))},
        {"bw.slo/1 without evaluated_at_us",
         serve::validateSloJson(edited(slo, {}, "evaluated_at_us", {}))},
    };
    for (const auto &c : cases)
        EXPECT_FALSE(c.st.ok()) << c.what;
    // The untouched documents pass.
    EXPECT_TRUE(obs::validateFlightJson(flight).ok());
    EXPECT_TRUE(obs::validateSpanTreeJson(spans).ok());
    EXPECT_TRUE(serve::validateSloJson(slo).ok());
    EXPECT_TRUE(spanStream(streamText(span_lines)).ok());
}

namespace {

/// One table's FieldSpecs, from the validator expansion.
#define SPECS(TABLE, ...)                                                \
    std::vector<obs::FieldSpec>                                          \
    {                                                                    \
        TABLE(BW_FIELD_SPEC __VA_OPT__(, ) __VA_ARGS__)                  \
    }

/// One record of an export: where it sits and the fields it declares.
struct Record
{
    std::string what;
    Path path;
    std::vector<obs::FieldSpec> fields;
};

/// The span-tree records under the bw.spans/1 document at @p doc_path
/// (or, for a @p stream, the span-stream rows of @p doc from line 1 on):
/// the document, its first trace, and the first node of every kind with
/// its own members; adds the kinds found to @p kinds_seen.
void
addSpanRecords(const Json &doc, const Path &doc_path, bool stream,
               std::vector<Record> *records, std::set<std::string> *kinds_seen)
{
    Path traces = doc_path;
    if (!stream) {
        records->push_back({"spans", doc_path, SPECS(BW_SPAN_DOC_FIELDS,
                                                     _, _, _)});
        traces.push_back("traces");
    }
    size_t first = stream ? 1 : 0;
    Path trace = traces;
    trace.push_back(std::to_string(first));
    records->push_back({"trace", trace, SPECS(BW_SPAN_TRACE_FIELDS, _, _,
                                              _)});
    const struct
    {
        const char *kind;
        std::vector<obs::FieldSpec> own;
    } kinds[] = {
        {"request", SPECS(BW_REQUEST_SPAN_FIELDS, _)},
        {"queue_wait", {}},
        {"dispatch", {}},
        {"execute", SPECS(BW_EXECUTE_SPAN_FIELDS, _, _)},
        {"chain", SPECS(BW_CHAIN_SPAN_FIELDS, _)},
        {"route", SPECS(BW_ROUTE_SPAN_FIELDS, _)},
        {"hedge", SPECS(BW_HEDGE_SPAN_FIELDS, _)},
    };
    const Json &list = *at(doc, traces);
    for (const auto &k : kinds) {
        for (size_t i = first; i < list.size() - (stream ? 1 : 0); ++i) {
            Path node = traces;
            node.push_back(std::to_string(i));
            node.push_back("root");
            if (!findSpan(*at(doc, node), k.kind, &node))
                continue;
            std::vector<obs::FieldSpec> fields =
                SPECS(BW_SPAN_NODE_FIELDS, _);
            fields.insert(fields.end(), k.own.begin(), k.own.end());
            for (const obs::FieldSpec &f : SPECS(BW_SPAN_CHILDREN_FIELDS, _))
                fields.push_back(f);
            records->push_back({k.kind, node, fields});
            kinds_seen->insert(k.kind);
            if (std::string(k.kind) == "chain") {
                node.push_back("stalls");
                records->push_back(
                    {"stalls", node, SPECS(BW_CHAIN_STALL_FIELDS, _)});
            }
            break;
        }
    }
}

/// Expect @p check to accept @p doc, and to reject it once any field of
/// @p records that the writer always emits is dropped, or any field
/// present is retyped.
void
expectFieldsEnforced(const std::string &name, const Json &doc,
                     const std::vector<Record> &records,
                     const std::function<Status(const Json &)> &check)
{
    Status st = check(doc);
    ASSERT_TRUE(st.ok()) << name << ": " << st.toString();
    for (const Record &r : records) {
        const Json *obj = at(doc, r.path);
        ASSERT_NE(obj, nullptr) << name << ": no " << r.what;
        for (const obs::FieldSpec &f : r.fields) {
            std::string where = name + " " + r.what + "." + f.key;
            if (!obj->contains(f.key)) {
                EXPECT_TRUE(f.optional) << where << " was not written";
                continue;
            }
            if (!f.optional) {
                EXPECT_FALSE(check(edited(doc, r.path, f.key, {})).ok())
                    << where << " dropped";
            }
            bool str = f.type.kind == obs::field::Str ||
                       f.type.kind == obs::field::TagKind ||
                       f.type.kind == obs::field::NameKind;
            Json wrong = str ? Json(7) : Json("x");
            EXPECT_FALSE(check(edited(doc, r.path, f.key, wrong)).ok())
                << where << " retyped";
        }
    }
}

std::vector<Record>
flightRecords(const Path &record)
{
    return {{"record", record, SPECS(BW_FLIGHT_RECORD_FIELDS, _)}};
}

std::vector<Record>
sloRecords()
{
    std::vector<Record> r = {
        {"slo", {}, SPECS(BW_SLO_DOC_FIELDS, _, _, _, _)},
        {"objectives", {"objectives"}, SPECS(BW_SLO_OBJECTIVE_FIELDS, _)},
        {"windows", {"windows"}, SPECS(BW_SLO_WINDOWS_FIELDS, _)},
        {"class", {"classes", "0"}, SPECS(BW_SLO_CLASS_FIELDS, _, _)},
    };
    for (const char *sli : {"latency", "availability"}) {
        r.push_back({sli, {"classes", "0", sli}, SPECS(BW_SLO_SLI_FIELDS, _)});
        r.push_back({"window", {"classes", "0", sli, "slow"},
                     SPECS(BW_SLO_WINDOW_FIELDS, _)});
    }
    return r;
}

} // namespace

TEST(GoldenExports, ValidatorsRejectEveryDroppedOrRetypedField)
{
    std::vector<std::pair<std::string, std::string>> docs = engineExports();
    for (auto &e : clusterExports(3.0))
        docs.push_back({"cluster " + e.first, std::move(e.second)});
    std::set<std::string> kinds;
    for (const auto &[name, text] : docs) {
        if (name.find("stats") != std::string::npos ||
            name.find("collector") != std::string::npos ||
            name.find("audit") != std::string::npos ||
            name.find("fleet_metrics") != std::string::npos)
            continue; // no field table: not a validated export
        Json doc = Json::parse(text);
        // The engine replay's span and flight documents run to megabytes;
        // their first traces hold every record kind they carry.
        bool big = name.rfind("cluster ", 0) != 0;
        std::vector<Record> records;
        std::function<Status(const Json &)> check;
        if (name.find("spans") != std::string::npos) {
            ASSERT_TRUE(obs::validateSpanTreeJson(doc).ok()) << name;
            if (big)
                doc = truncated(doc, {"traces"}, 16);
            addSpanRecords(doc, {}, false, &records, &kinds);
            check = obs::validateSpanTreeJson;
        } else if (name.find("flight") != std::string::npos) {
            ASSERT_TRUE(obs::validateFlightJson(doc).ok()) << name;
            if (big)
                doc = truncated(truncated(doc, {"promoted"}, 16),
                                {"spans", "traces"}, 16);
            records = flightRecords({"promoted", "0"});
            records.push_back({"flight", {},
                               SPECS(BW_FLIGHT_DOC_FIELDS, _, _, _, _, _)});
            addSpanRecords(doc, {"spans"}, false, &records, &kinds);
            check = obs::validateFlightJson;
        } else if (name.find("slo") != std::string::npos) {
            records = sloRecords();
            check = serve::validateSloJson;
        } else if (name.find("route") != std::string::npos) {
            records = {{"route", {}, SPECS(BW_ROUTE_DOC_FIELDS, _, _, _, _, _)},
                       {"decision", {"decisions", "0"},
                        SPECS(BW_ROUTE_ROW_FIELDS, _)}};
            check = cluster::validateRouteJson;
        } else if (name.find("incidents") != std::string::npos) {
            records = {
                {"incidents", {}, SPECS(BW_INCIDENT_DOC_FIELDS, _, _)},
                {"incident", {"incidents", "0"},
                 SPECS(BW_INCIDENT_FIELDS, _, _)},
                {"event", {"incidents", "0", "events", "0"},
                 SPECS(BW_INCIDENT_EVENT_FIELDS, _)},
            };
            check = obs::validateIncidentJson;
        } else {
            ADD_FAILURE() << "no validator for export " << name;
            continue;
        }
        expectFieldsEnforced(name, doc, records, check);
    }

    for (const auto &[name, text] : streamedExports()) {
        Json lines = streamLines(text);
        std::string last = std::to_string(lines.size() - 1);
        std::vector<Record> records;
        std::function<Status(const Json &)> check;
        if (name == "route") {
            records = {
                {"header", {"0"},
                 SPECS(BW_ROUTE_HEADER_FIELDS, obs::kRouteStreamSchema, _, _)},
                {"row", {"1"}, SPECS(BW_ROUTE_ROW_FIELDS, _)},
                {"trailer", {last}, SPECS(BW_ROUTE_TRAILER_FIELDS, _)},
            };
            check = streamCheck(obs::validateRouteStreamJson);
        } else if (name == "spans") {
            records = {
                {"header", {"0"}, SPECS(BW_SPAN_STREAM_HEADER_FIELDS)},
                {"trailer", {last},
                 SPECS(BW_SPAN_STREAM_TRAILER_FIELDS, _, _)},
            };
            addSpanRecords(lines, {}, true, &records, &kinds);
            check = streamCheck(obs::validateSpanStreamJson);
        } else if (name.rfind("flight/", 0) == 0) {
            records = flightRecords({"1"});
            records.push_back({"row", {"1"}, SPECS(BW_FLIGHT_ROW_FIELDS, _)});
            records.push_back(
                {"header", {"0"},
                 SPECS(BW_FLIGHT_HEADER_FIELDS, obs::kFlightStreamSchema, _)});
            records.push_back({"trailer", {last},
                               SPECS(BW_FLIGHT_STREAM_TRAILER_FIELDS, _, _,
                                     _)});
            addSpanRecords(lines, {"1", "spans"}, false, &records, &kinds);
            check = streamCheck(obs::validateFlightStreamJson);
        } else {
            continue; // the replay's stats
        }
        expectFieldsEnforced("stream " + name, lines, records, check);
    }
    EXPECT_EQ(kinds.size(), static_cast<size_t>(obs::SpanKind::NumSpanKinds))
        << "a span kind went unexercised";
}
