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
    EXPECT_GT(col.rejected(), 0u);
    EXPECT_GT(col.expired(), 0u);
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
    expectDigests(got,
                  {
                      {"stats", 0xb2fcd32157b2b1f9ull},
                      {"route", 0xb58723727b7874d7ull},
                      {"spans", 0x760815e95a5c68f5ull},
                      {"flight/s10/0", 0x07658c967b234b74ull},
                      {"flight/s10/1", 0x5803f8a42d175059ull},
                      {"flight/s5/0", 0xd1f77852ee2b4af5ull},
                  });
}
