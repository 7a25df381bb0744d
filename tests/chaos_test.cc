/**
 * @file
 * Tests for the failure-domain plane: deterministic chaos schedules,
 * incident timelines, health-aware routing, hedged requests, and the
 * byte-identity contract of chaotic replays.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bw/bw.h"

using namespace bw;
using namespace bw::cluster;

namespace {

/// Two-group, three-engine cluster over flat-service models — the same
/// shape cluster_test uses, so chaos results compare against a known
/// healthy baseline.
ClusterOptions
chaosClusterOptions()
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

TrafficOptions
chaosTraffic(double rps, double duration_s)
{
    TrafficOptions t;
    t.baseRps = rps;
    t.durationS = duration_s;
    t.seed = 42;
    t.mix.push_back(ModelMix{0, 8.0, 1, 10.0});
    t.mix.push_back(ModelMix{1, 2.0, 1, 80.0});
    t.mix.push_back(ModelMix{2, 1.0, 1, 0.0});
    return t;
}

void
addChaosModels(Cluster &c)
{
    c.addTimedModel("hot", 0.8, 24);
    c.addTimedModel("warm", 1.5, 24);
    c.addTimedModel("cold", 2.5, 40);
}

ChaosOptions
chaosOpts(double rate, double horizon_s, uint64_t seed)
{
    ChaosOptions o;
    o.faultRate = rate;
    o.horizonS = horizon_s;
    o.seed = seed;
    return o;
}

} // namespace

// --- ChaosSchedule ---

TEST(Chaos, GeneratedScheduleIsDeterministic)
{
    ChaosOptions o = chaosOpts(20, 0.5, 7);
    ChaosSchedule a = ChaosSchedule::generate(o, 3);
    ChaosSchedule b = ChaosSchedule::generate(o, 3);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a.toJson().dump(), b.toJson().dump());
    for (const FaultEvent &f : a.faults()) {
        EXPECT_LT(f.shard, 3u);
        EXPECT_GE(f.atS, 0.0);
        EXPECT_LT(f.atS, o.horizonS);
        EXPECT_GT(f.durationS, 0.0);
    }
    // Sorted by fire time — the replay consumes it in one pass.
    for (size_t i = 1; i < a.faults().size(); ++i)
        EXPECT_GE(a.faults()[i].atS, a.faults()[i - 1].atS);

    // Different seed, different schedule; disabled options, none.
    ChaosSchedule c = ChaosSchedule::generate(chaosOpts(20, 0.5, 8), 3);
    EXPECT_NE(a.toJson().dump(), c.toJson().dump());
    EXPECT_TRUE(ChaosSchedule::generate(ChaosOptions(), 3).empty());
}

TEST(Chaos, ChaosUniformIsAPureFunction)
{
    EXPECT_EQ(chaosUniform(1, 2, 3), chaosUniform(1, 2, 3));
    EXPECT_NE(chaosUniform(1, 2, 3), chaosUniform(1, 2, 4));
    EXPECT_NE(chaosUniform(1, 2, 3), chaosUniform(2, 2, 3));
    for (uint64_t s = 0; s < 200; ++s) {
        double u = chaosUniform(9, 1, s);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

// --- Zero-fault identity ---

TEST(Chaos, ZeroFaultScheduleIsByteIdenticalToNoSchedule)
{
    std::vector<ClusterRequest> trace =
        generateTraffic(chaosTraffic(2500, 0.3));

    Cluster plain(chaosClusterOptions());
    addChaosModels(plain);
    ClusterStats ps = plain.replay(trace);

    Cluster chaotic(chaosClusterOptions());
    addChaosModels(chaotic);
    chaotic.setChaosSchedule(ChaosSchedule()); // explicit empty schedule
    ClusterStats cs = chaotic.replay(trace);

    EXPECT_EQ(ps.toJson().dump(), cs.toJson().dump());
    EXPECT_EQ(plain.routeJson().dump(), chaotic.routeJson().dump());
    EXPECT_EQ(plain.sloJson().dump(), chaotic.sloJson().dump());
    for (unsigned e = 0; e < plain.engineCount(); ++e) {
        EXPECT_EQ(plain.engineFlightJson(e).dump(),
                  chaotic.engineFlightJson(e).dump());
        EXPECT_EQ(plain.engineSloJson(e).dump(),
                  chaotic.engineSloJson(e).dump());
    }
    EXPECT_EQ(chaotic.incidents().faults(), 0u);
    EXPECT_EQ(cs.failed, 0u);
    EXPECT_EQ(cs.unavailable, 0u);
}

// --- Chaotic replay determinism ---

TEST(Chaos, ChaoticHedgedReplayIsByteIdenticallyDeterministic)
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 3;
    obs::SpanTracer tracer(so);
    ClusterOptions co = chaosClusterOptions();
    co.spanTracer = &tracer;
    co.chaos = chaosOpts(15, 0.4, 11);
    co.hedgeMs = 4.0;
    Cluster c(co);
    addChaosModels(c);
    std::vector<ClusterRequest> trace =
        generateTraffic(chaosTraffic(3000, 0.4));

    ClusterStats s1 = c.replay(trace);
    std::string route1 = c.routeJson().dump();
    std::string slo1 = c.sloJson().dump();
    std::string inc1 = c.incidentsJson().dump();
    std::string spans1 = obs::spanTreeJson(tracer).dump();
    std::vector<std::string> flight1;
    for (unsigned e = 0; e < c.engineCount(); ++e)
        flight1.push_back(c.engineFlightJson(e).dump());

    // The schedule actually bit: faults opened incidents and requests
    // were lost to them.
    EXPECT_GT(c.incidents().faults(), 0u);
    EXPECT_GT(s1.failed + s1.expired, 0u);
    EXPECT_GT(s1.hedged, 0u);

    ClusterStats s2 = c.replay(trace);
    EXPECT_EQ(s1.toJson().dump(), s2.toJson().dump());
    EXPECT_EQ(route1, c.routeJson().dump());
    EXPECT_EQ(slo1, c.sloJson().dump());
    EXPECT_EQ(inc1, c.incidentsJson().dump());
    EXPECT_EQ(spans1, obs::spanTreeJson(tracer).dump());
    for (unsigned e = 0; e < c.engineCount(); ++e)
        EXPECT_EQ(flight1[e], c.engineFlightJson(e).dump());

    // Every export still validates under chaos.
    Status st = cluster::validateRouteJson(c.routeJson());
    EXPECT_TRUE(st.ok()) << st.toString();
    st = obs::validateIncidentJson(c.incidentsJson());
    EXPECT_TRUE(st.ok()) << st.toString();
    st = obs::validateSpanTreeJson(obs::spanTreeJson(tracer));
    EXPECT_TRUE(st.ok()) << st.toString();
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        EXPECT_TRUE(obs::validateFlightJson(c.engineFlightJson(e)).ok());
        EXPECT_TRUE(serve::validateSloJson(c.engineSloJson(e)).ok());
    }

    // Accounting closes: every submitted request lands in exactly one
    // terminal bucket (hedged requests count once, winner only).
    EXPECT_EQ(s1.submitted, trace.size());
    EXPECT_EQ(s1.completed + s1.shed + s1.rejected + s1.expired +
                  s1.failed + s1.unavailable,
              s1.submitted);
}

// --- Incident timelines ---

TEST(Chaos, CrashIncidentWalksAllFivePhasesAndChargesRewarm)
{
    ClusterOptions co = chaosClusterOptions();
    // A slow detector leaves a 10 ms window where the crashed shard
    // still takes traffic — wide enough that the seeded trace is
    // guaranteed to lose requests to it.
    co.healthDetectMs = 10.0;
    // Least-loaded spreads every model across all shards, so the
    // crashed shard is guaranteed traffic inside its down window.
    co.router.policy = RoutePolicy::LeastLoaded;
    Cluster c(co);
    addChaosModels(c);

    ChaosSchedule sched;
    FaultEvent crash;
    crash.cls = FaultClass::ReplicaCrash;
    crash.shard = 0;
    crash.atS = 0.05;
    crash.durationS = 0.03;
    sched.addFault(crash);
    c.setChaosSchedule(std::move(sched));

    ClusterStats s = c.replay(generateTraffic(chaosTraffic(2000, 0.3)));
    ASSERT_EQ(c.incidents().faults(), 1u);
    const obs::Incident &inc = c.incidents().incidents()[0];
    EXPECT_EQ(inc.cls, "crash");
    EXPECT_EQ(inc.shard, "s10/0");
    EXPECT_EQ(inc.group, "s10");

    // fault_injected -> detected -> evicted -> rewarm_started ->
    // recovered, stamps non-decreasing and detection lagging by the
    // configured health-check interval.
    ASSERT_EQ(inc.events.size(), 5u);
    EXPECT_EQ(inc.events[0].phase, obs::IncidentPhase::FaultInjected);
    EXPECT_EQ(inc.events[1].phase, obs::IncidentPhase::Detected);
    EXPECT_EQ(inc.events[2].phase, obs::IncidentPhase::Evicted);
    EXPECT_EQ(inc.events[3].phase, obs::IncidentPhase::RewarmStarted);
    EXPECT_EQ(inc.events[4].phase, obs::IncidentPhase::Recovered);
    EXPECT_EQ(inc.events[0].tUs, 50000u);
    EXPECT_EQ(inc.events[1].tUs, 60000u); // +healthDetectMs
    EXPECT_EQ(inc.events[2].tUs, inc.events[1].tUs); // evict on detect
    for (size_t i = 1; i < inc.events.size(); ++i)
        EXPECT_GE(inc.events[i].tUs, inc.events[i - 1].tUs);

    // The restart re-streamed the warm set through the DRAM model.
    EXPECT_GT(inc.reloadTiles, 0u);
    EXPECT_GT(inc.reloadUs, 0u);
    EXPECT_GT(inc.affected, 0u);
    EXPECT_GT(s.failed, 0u);

    Status st = obs::validateIncidentJson(c.incidentsJson());
    EXPECT_TRUE(st.ok()) << st.toString();
}

namespace {

/// A minimal bw.incident/1 document with injectable defects: the
/// terminal phase, an event stamp, and the recorded mttr_us.
Json
incidentDoc(const char *terminal, uint64_t detect_us, uint64_t mttr_us)
{
    return Json::parse(detail::format(
        R"({"schema":"bw.incident/1","faults":1,"incidents":[{)"
        R"("id":1,"class":"crash","shard":"s10/0","group":"s10",)"
        R"("affected":3,"reload_tiles":24,"reload_us":180,)"
        R"("mttr_us":%llu,"events":[)"
        R"({"phase":"fault_injected","t_us":1000},)"
        R"({"phase":"detected","t_us":%llu},)"
        R"({"phase":"%s","t_us":5000}]}]})",
        static_cast<unsigned long long>(mttr_us),
        static_cast<unsigned long long>(detect_us), terminal));
}

} // namespace

TEST(Incident, ValidatorRejectsTampering)
{
    // The log builder itself produces a valid document.
    obs::IncidentLog log;
    uint64_t id = log.open("crash", "s10/0", "s10", 1000);
    log.event(id, obs::IncidentPhase::Detected, 2000);
    log.event(id, obs::IncidentPhase::Evicted, 2000);
    log.event(id, obs::IncidentPhase::RewarmStarted, 3000);
    log.event(id, obs::IncidentPhase::Recovered, 5000);
    log.addAffected(id);
    log.setReload(id, 24, 180);
    Json doc = obs::incidentJson(log);
    Status st = obs::validateIncidentJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(doc.find("incidents")->at(0).find("mttr_us")->asInt(),
              4000);

    EXPECT_TRUE(
        obs::validateIncidentJson(incidentDoc("recovered", 2000, 4000))
            .ok());
    EXPECT_TRUE(
        obs::validateIncidentJson(incidentDoc("evicted", 2000, 4000))
            .ok());

    Json bad = doc;
    bad.set("schema", "bw.incident/2");
    EXPECT_FALSE(obs::validateIncidentJson(bad).ok());

    bad = doc;
    bad.set("faults", static_cast<uint64_t>(7));
    EXPECT_FALSE(obs::validateIncidentJson(bad).ok());

    // Stamps must be monotone in virtual time.
    EXPECT_FALSE(
        obs::validateIncidentJson(incidentDoc("recovered", 9000, 4000))
            .ok());

    // A fault with no terminal recovery/eviction is unresolved.
    EXPECT_FALSE(
        obs::validateIncidentJson(
            incidentDoc("rewarm_started", 2000, 4000))
            .ok());

    // mttr_us must equal the first-to-last stamp gap.
    EXPECT_FALSE(
        obs::validateIncidentJson(incidentDoc("recovered", 2000, 1))
            .ok());
}

// --- Health-aware routing ---

TEST(Router, LoadPoliciesNeverRouteToEvictedShard)
{
    for (RoutePolicy p :
         {RoutePolicy::LeastLoaded, RoutePolicy::SloAware}) {
        RouterOptions o;
        o.policy = p;
        Router r(o, 3, 3);
        std::vector<EngineLoad> loads(3);
        for (auto &l : loads)
            l.queueCapacity = 8;
        loads[0].healthy = false; // idle but evicted: the load trap
        loads[1].queued = 3;
        loads[2].queued = 5;
        for (uint64_t s = 1; s <= 32; ++s)
            EXPECT_NE(r.route(s, 0, "m", 0, loads), 0) << "policy "
                                                       << routePolicyName(p);
        EXPECT_EQ(r.route(100, 0, "m", 0, loads), 1);
    }
}

TEST(Router, ConsistentHashRehashesDeterministically)
{
    RouterOptions o;
    o.policy = RoutePolicy::ConsistentHash;
    Router a(o, 4, 1), b(o, 4, 1);
    std::vector<EngineLoad> loads(4);

    int32_t home = a.route(1, 0, "gru-hot", 0, loads);
    ASSERT_GE(home, 0);

    // Evict the home engine: the ring walk must land elsewhere, and two
    // independent routers must agree on the re-placement.
    loads[static_cast<size_t>(home)].healthy = false;
    int32_t moved_a = a.route(2, 0, "gru-hot", 0, loads);
    int32_t moved_b = b.route(1, 0, "gru-hot", 0, loads);
    ASSERT_GE(moved_a, 0);
    EXPECT_NE(moved_a, home);
    EXPECT_EQ(moved_a, moved_b);

    // Recovery restores the original placement (stable ring).
    loads[static_cast<size_t>(home)].healthy = true;
    EXPECT_EQ(a.route(3, 0, "gru-hot", 0, loads), home);
}

TEST(Router, AllEvictedReportsUnavailable)
{
    for (RoutePolicy p :
         {RoutePolicy::ConsistentHash, RoutePolicy::LeastLoaded,
          RoutePolicy::SloAware}) {
        RouterOptions o;
        o.policy = p;
        Router r(o, 2, 1);
        std::vector<EngineLoad> loads(2);
        for (auto &l : loads)
            l.healthy = false;
        EXPECT_EQ(r.route(1, 0, "m", 0, loads), -2);
        EXPECT_EQ(r.tally().unavailable, 1u);
        Status st = validateRouteJson(r.decisionsJson());
        EXPECT_TRUE(st.ok()) << st.toString();
    }
}

TEST(Cluster, FullyEvictedModelReturnsUnavailableNamingIt)
{
    Cluster c(chaosClusterOptions());
    addChaosModels(c);
    c.start();
    for (unsigned e = 0; e < c.engineCount(); ++e)
        c.setShardHealthy(e, false);
    Expected<std::future<serve::Response>> f =
        c.submit(0, serve::Request::timed(1));
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::Unavailable);
    EXPECT_NE(f.status().message().find("hot"), std::string::npos)
        << f.status().message();

    // One shard recovering restores service.
    c.setShardHealthy(1, true);
    Expected<std::future<serve::Response>> ok =
        c.submit(0, serve::Request::timed(1));
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.value().get().status.ok());
    c.drain();
}

// --- Hedged requests ---

TEST(Cluster, HedgedSpansHaveExactlyOneWinner)
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 1;
    obs::SpanTracer tracer(so);
    ClusterOptions co = chaosClusterOptions();
    co.spanTracer = &tracer;
    co.hedgeMs = 0.0; // hedge every routed request
    Cluster c(co);
    addChaosModels(c);
    ClusterStats s = c.replay(generateTraffic(chaosTraffic(1500, 0.15)));
    EXPECT_GT(s.hedged, 0u);
    EXPECT_GT(s.hedgeWins, 0u);
    EXPECT_LE(s.hedgeWins, s.hedged);

    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    ASSERT_TRUE(st.ok()) << st.toString();
    const Json *traces = doc.find("traces");
    ASSERT_GT(traces->size(), 0u);
    size_t hedged_traces = 0;
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json *root = traces->at(i).find("root");
        ASSERT_NE(root, nullptr);
        if (root->find("name")->asString() != "route")
            continue;
        const Json *kids = root->find("children");
        if (!kids || kids->size() == 0 ||
            kids->at(0).find("name")->asString().rfind("hedge[", 0) != 0)
            continue; // shed request or unhedged
        ++hedged_traces;
        ASSERT_EQ(kids->size(), 2u);
        EXPECT_EQ(kids->at(0).find("name")->asString(), "hedge[0]");
        EXPECT_EQ(kids->at(1).find("name")->asString(), "hedge[1]");
        // First-wins cancellation: both attempts cannot complete.
        size_t ok_attempts = 0;
        for (size_t k = 0; k < 2; ++k)
            ok_attempts +=
                kids->at(k).find("outcome")->asString() == "ok";
        EXPECT_LE(ok_attempts, 1u);
    }
    EXPECT_GT(hedged_traces, 0u);
}

TEST(Cluster, HedgedSpanIdsStayDisjointAboveTheDefaultChainCap)
{
    // hedge[1]'s subtree starts one id stride past hedge[0]'s, so the
    // stride must cover hedge[0]'s request tree plus every chain leaf
    // the tracer's cap lets through. A GRU 64x64 at 100 steps retires
    // more chains than the cap of 600 below; with a fixed stride of 512
    // hedge[0]'s leaves took hedge[1]'s ids and the tree failed to
    // validate.
    obs::SpanTracerOptions so;
    so.sampleEvery = 1;
    so.maxChainSpans = 600;
    obs::SpanTracer tracer(so);
    ClusterOptions co = chaosClusterOptions();
    co.spanTracer = &tracer;
    co.hedgeMs = 0.0; // hedge every routed request
    Cluster c(co);
    Rng rng(3);
    Expected<uint32_t> gru =
        c.addModel("gru64", makeGru(randomGruWeights(64, 64, rng)));
    ASSERT_TRUE(gru.ok()) << gru.status().toString();
    std::vector<ClusterRequest> trace;
    for (int i = 0; i < 4; ++i) {
        ClusterRequest r;
        r.arrivalS = 0.01 * i;
        r.model = gru.value();
        r.steps = 100;
        trace.push_back(r);
    }
    ClusterStats s = c.replay(trace);
    EXPECT_EQ(s.hedged, trace.size());
    EXPECT_EQ(s.completed, trace.size());

    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    ASSERT_TRUE(st.ok()) << st.toString();
    // The cap really bit: some execute span holds more leaves than a
    // 512 stride leaves room for.
    size_t most = 0;
    std::vector<const Json *> stack;
    const Json *traces = doc.find("traces");
    for (size_t i = 0; i < traces->size(); ++i)
        stack.push_back(traces->at(i).find("root"));
    while (!stack.empty()) {
        const Json *node = stack.back();
        stack.pop_back();
        const Json *kids = node->find("children");
        if (!kids)
            continue;
        if (node->find("name")->asString() == "execute")
            most = std::max(most, kids->size());
        for (size_t k = 0; k < kids->size(); ++k)
            stack.push_back(&kids->at(k));
    }
    EXPECT_GT(most, 507u);
}

TEST(Cluster, HedgingRescuesRequestsFromACrashedShard)
{
    // One engine crashes for the first quarter of the run. Before the
    // health check notices, every request placed there is lost —
    // unless a hedge re-dispatches it to a healthy sibling.
    ChaosSchedule sched;
    FaultEvent crash;
    crash.cls = FaultClass::ReplicaCrash;
    crash.shard = 0;
    crash.atS = 0.0;
    crash.durationS = 0.05;
    sched.addFault(crash);
    std::vector<ClusterRequest> trace =
        generateTraffic(chaosTraffic(2000, 0.2));

    ClusterOptions plain_opts = chaosClusterOptions();
    plain_opts.healthDetectMs = 40.0; // slow detector: hedges must save us
    Cluster plain(plain_opts);
    addChaosModels(plain);
    plain.setChaosSchedule(sched);
    ClusterStats ps = plain.replay(trace);

    ClusterOptions hedged_opts = plain_opts;
    hedged_opts.hedgeMs = 2.0;
    Cluster hedged(hedged_opts);
    addChaosModels(hedged);
    hedged.setChaosSchedule(sched);
    ClusterStats hs = hedged.replay(trace);

    EXPECT_GT(ps.failed, 0u);
    EXPECT_GT(hs.hedgeWins, 0u);
    EXPECT_GT(hs.goodput, ps.goodput);
    EXPECT_LT(hs.failed, ps.failed);
}

// --- Replay-side eviction ---

TEST(Cluster, ReplayCountsUnavailableWhenEveryShardIsDown)
{
    // Crash all three shards over one long overlapping window: once
    // detection evicts them, the router has nowhere to place work.
    ClusterOptions co = chaosClusterOptions();
    co.healthDetectMs = 1.0;
    Cluster c(co);
    addChaosModels(c);
    ChaosSchedule sched;
    for (unsigned e = 0; e < 3; ++e) {
        FaultEvent f;
        f.cls = FaultClass::ReplicaCrash;
        f.shard = e;
        f.atS = 0.02;
        f.durationS = 0.2;
        sched.addFault(f);
    }
    c.setChaosSchedule(std::move(sched));
    ClusterStats s = c.replay(generateTraffic(chaosTraffic(2000, 0.2)));
    EXPECT_GT(s.unavailable, 0u);
    EXPECT_EQ(c.incidents().faults(), 3u);
    Status st = cluster::validateRouteJson(c.routeJson());
    EXPECT_TRUE(st.ok()) << st.toString();
    st = obs::validateIncidentJson(c.incidentsJson());
    EXPECT_TRUE(st.ok()) << st.toString();
}
