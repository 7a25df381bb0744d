/**
 * @file
 * The cluster layer end to end: replica groups of serving engines over
 * heterogeneous NPU configurations (the paper's mixed Stratix V /
 * Arria 10 / Stratix 10 fleet), multi-model tenancy behind per-engine
 * LRU weight caches, and a front-door router that places every request
 * by consistent hash, least load, or SLO-aware admission shedding.
 *
 * Three phases:
 *   1. Deterministic virtual-time replay of a seeded open-loop trace
 *      (Poisson + diurnal modulation + a burst phase) through the
 *      router and every engine shard — per-engine flight/SLO exports.
 *   2. A saturation sweep on a dedicated four-engine group with a
 *      skewed model mix: an rps ladder under every routing policy,
 *      recording goodput (completions inside their deadline) in the
 *      machine-readable BENCH_cluster_sweep.json artifact. The skew
 *      pins the hot model to one engine under consistent hashing, so
 *      least-loaded sustains strictly more goodput past saturation.
 *   3. A live (threaded) smoke: worker pools spun up, the trace head
 *      submitted through Cluster::submit, drained.
 *
 * Environment: BW_CLUSTER_MIX ("s5:2,a10:1,s10:1") picks the replica
 * groups, BW_CLUSTER_POLICY the router policy, BW_CLUSTER_CACHE_TILES
 * the per-engine weight-cache capacity, and BW_CLUSTER_SEED /
 * BW_CLUSTER_RPS / BW_CLUSTER_DURATION_S shape the generated trace.
 * BW_SERVE_* override the per-engine options as everywhere else. A
 * numeric value that does not parse, or lies outside its option's
 * range, warns once on stderr and leaves the option as configured.
 * BW_CLUSTER_ROUTE_JSON=<path> writes the router's bw.route/1 decision
 * log, BW_SLO_JSON the cluster-level bw.slo/1 document, BW_SPANS_JSON
 * the route-rooted span trees, BW_FLIGHT_JSON engine 0's bw.flight/1
 * document, and BW_BENCH_JSON overrides the sweep artifact path.
 *
 * Fleet plane: BW_FLEET_METRICS_JSON / BW_FLEET_SLO_JSON write the
 * federated metrics document and the fleet bw.slo/1 rollup,
 * BW_FLEET_STREAM streams every routing decision of the Phase-1 replay
 * as bw.routestream/1 NDJSON (validated after the run),
 * BW_FLEET_SPANS_NDJSON streams the stitched span trees as
 * bw.spanstream/1, and BW_AUDIT_JSON writes the /debug/audit document.
 * BW_AUDIT_SAMPLE=<n> audits every n-th completed compiled-model
 * request against the cycle-accurate model when BW_TIMING_MODE runs a
 * fast/cached tier.
 *
 * Chaos plane: BW_CHAOS_RATE > 0 injects a seeded fault schedule
 * (crash / hang / slow / dropped-message, BW_CHAOS_SEED,
 * BW_CHAOS_HORIZON_S; 50 ms mean windows, slow faults x4, partitions
 * drop half their requests) into the Phase-1 replay; BW_HEDGE_MS arms hedged
 * requests, BW_HEALTH_DETECT_MS sets the detection lag, and
 * BW_FLEET_INCIDENTS_JSON writes the bw.incident/1 timeline document
 * (also served live at /fleet/incidents.json; check with
 * 'bw_spans incidents').
 *
 * Live introspection: BW_METRICS_PORT serves the cluster registry
 * (bw_cluster_* series) plus /debug/cluster, /route.json, /slo.json,
 * the fleet plane (/fleet/metrics, /fleet/metrics.json, /fleet/slo.json,
 * /fleet/spans.ndjson, /debug/audit) and per-shard
 * /engine/<i>/{slo,flight,cache,metrics}.json, /engine/<i>/flight.ndjson
 * and /engine/<i>/debug/config; /healthz turns 503 {"draining":true}
 * once any shard drains. BW_METRICS_LINGER_S holds the endpoint open
 * after the run so scrapers cannot race the exit.
 *
 *   $ ./cluster_serve [live_requests]
 *   $ ./cluster_serve --help
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bw/bw.h"

using namespace bw;
using namespace bw::cluster;

namespace {

/** The demo cluster: a heterogeneous two-generation fleet. */
ClusterOptions
demoOptions(metrics::Registry *reg, obs::SpanTracer *spans)
{
    ClusterOptions co;
    ReplicaGroupSpec s10;
    s10.name = "s10";
    s10.config = NpuConfig::bwS10();
    s10.engines = 2;
    ReplicaGroupSpec s5;
    s5.name = "s5";
    s5.config = NpuConfig::bwS5();
    s5.engines = 1;
    for (ReplicaGroupSpec *g : {&s10, &s5}) {
        g->engine.queueDepth = 32;
        g->engine.networkMs = 0.05;
        g->engine.defaultDeadlineMs = 50.0;
        g->engine = serve::EngineOptions::fromEnv(g->engine);
    }
    co.groups = {s10, s5};
    co.router.policy = RoutePolicy::SloAware;
    // Tight enough that the cold model (40 tiles) contends with the
    // hot+warm pair (48): replays show real weight-reload charges.
    co.weightCacheTiles = 64;
    co = ClusterOptions::fromEnv(std::move(co));
    co.metricsRegistry = reg;
    co.spanTracer = spans;
    return co;
}

/** The demo trace: diurnal swell plus one burst, three-model skew. */
TrafficOptions
demoTraffic()
{
    TrafficOptions t;
    t.baseRps = 2000;
    t.durationS = 1.0;
    t.seed = 42;
    t.diurnalAmplitude = 0.3;
    t.diurnalPeriodS = 1.0;
    t.bursts.push_back(BurstPhase{0.45, 0.1, 3.0});
    t.mix.push_back(ModelMix{0, 8.0, 1, 10.0}); // hot, interactive
    t.mix.push_back(ModelMix{1, 2.0, 1, 80.0}); // warm, standard
    t.mix.push_back(ModelMix{2, 1.0, 1, 0.0});  // cold, best-effort
    t.mix.push_back(ModelMix{3, 1.5, 2, 40.0}); // compiled GRU
    return TrafficOptions::fromEnv(std::move(t));
}

void
addDemoModels(Cluster &c)
{
    c.addTimedModel("dnn-hot", 0.8, 24);
    c.addTimedModel("dnn-warm", 1.5, 24);
    c.addTimedModel("dnn-cold", 2.5, 40);
    // A real compiled model rides along with the timed ones: its
    // service time and weight footprint come from compilation per
    // group (the S5 and S10 prices differ), its execute spans carry
    // stitched chain leaves, and the fidelity audit has a compiled
    // target to re-price against the cycle-accurate model.
    Rng rng(7);
    GirGraph gru = makeGru(randomGruWeights(128, 128, rng));
    Expected<uint32_t> id = c.addModel("gru-tagger", gru);
    BW_ASSERT(id.ok(), "gru-tagger failed to register: %s",
              id.status().message().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::printf(
            "usage: cluster_serve [live_requests]\n"
            "\n"
            "Replay a seeded open-loop trace through a multi-engine\n"
            "cluster, sweep routing policies across an rps ladder, and\n"
            "smoke the live threaded submit path.\n"
            "\n"
            "Environment variables (shared across all bw binaries):\n%s",
            renderEnvVarHelp().c_str());
        return 0;
    }
    unsigned live_requests = argc > 1 ? std::atoi(argv[1]) : 200;

    metrics::Registry registry;
    obs::SpanTracer spans(obs::SpanTracerOptions::fromEnv());
    Cluster cluster(demoOptions(&registry, &spans));
    addDemoModels(cluster);

    std::printf("Cluster: %u engines, %zu models, %s routing\n",
                cluster.engineCount(), cluster.modelCount(),
                routePolicyName(cluster.router().options().policy));

    metrics::MetricsHttpServer http(registry);
    cluster.exposeDebug(http);
    if (const char *port_env = std::getenv("BW_METRICS_PORT")) {
        Status st =
            http.start(static_cast<uint16_t>(std::atoi(port_env)));
        if (st.ok())
            std::printf("Metrics endpoint: http://127.0.0.1:%u/metrics\n",
                        http.port());
        else
            std::printf("Metrics endpoint unavailable: %s\n",
                        st.message().c_str());
    }

    // --- Phase 1: deterministic virtual-time replay. ---
    // With BW_FLEET_STREAM, every routing decision is written as one
    // bw.routestream/1 NDJSON line while the replay runs — O(1) writer
    // state no matter the trace length.
    std::ofstream route_stream_file;
    std::unique_ptr<obs::RouteStreamWriter> route_writer;
    const char *stream_path = std::getenv("BW_FLEET_STREAM");
    if (stream_path) {
        route_stream_file.open(stream_path, std::ios::binary);
        obs::StreamSink sink =
            [&route_stream_file](const std::string &chunk) {
                route_stream_file.write(
                    chunk.data(),
                    static_cast<std::streamsize>(chunk.size()));
                return static_cast<bool>(route_stream_file);
            };
        route_writer = std::make_unique<obs::RouteStreamWriter>(
            std::move(sink),
            routePolicyName(cluster.router().options().policy),
            cluster.engineCount(), cluster.sloClassCount());
        cluster.setDecisionSink(
            [&w = *route_writer](const RouteDecision &d) {
                w.decision(d.seq, d.model, d.cls, d.engine);
            });
    }

    TrafficOptions traffic = demoTraffic();
    std::vector<ClusterRequest> trace = generateTraffic(traffic);
    ClusterStats rs = cluster.replay(trace);

    if (route_writer) {
        route_writer->finish();
        route_stream_file.close();
        cluster.setDecisionSink({});
        Status st = obs::validateStreamFile(stream_path);
        std::printf("Fleet route stream written to %s "
                    "(%llu rows, %llu bytes): %s\n",
                    stream_path,
                    static_cast<unsigned long long>(route_writer->rows()),
                    static_cast<unsigned long long>(route_writer->bytes()),
                    st.ok() ? "valid" : st.message().c_str());
    }

    std::printf("\nReplay: %zu requests over %.2f s (seed %llu)\n",
                trace.size(), traffic.durationS,
                static_cast<unsigned long long>(traffic.seed));
    TextTable per({"engine", "routed", "done", "rej", "exp", "hit",
                   "miss", "reload ms", "p99 ms"});
    for (const EngineReport &e : rs.engines)
        per.addRow({e.label, fmtI(e.routed), fmtI(e.completed),
                    fmtI(e.rejected), fmtI(e.expired), fmtI(e.cacheHits),
                    fmtI(e.cacheMisses), fmtF(e.reloadMsTotal, 2),
                    fmtF(e.stats.p99LatencyMs, 3)});
    std::printf("%s\n", per.render().c_str());
    std::printf("submitted %llu  shed %llu  rejected %llu  expired %llu"
                "  goodput %llu (%.0f good req/s)\n",
                static_cast<unsigned long long>(rs.submitted),
                static_cast<unsigned long long>(rs.shed),
                static_cast<unsigned long long>(rs.rejected),
                static_cast<unsigned long long>(rs.expired),
                static_cast<unsigned long long>(rs.goodput),
                rs.goodputRps);
    if (!cluster.chaosSchedule().empty()) {
        uint64_t affected = 0;
        for (const obs::Incident &inc : cluster.incidents().incidents())
            affected += inc.affected;
        std::printf("chaos: %zu fault(s) scheduled (seed %llu), %zu "
                    "incident(s), %llu request(s) affected, %llu "
                    "failed\n",
                    cluster.chaosSchedule().faults().size(),
                    static_cast<unsigned long long>(
                        cluster.chaosSchedule().seed()),
                    cluster.incidents().faults(),
                    static_cast<unsigned long long>(affected),
                    static_cast<unsigned long long>(rs.failed));
    }
    if (cluster.options().hedgeMs >= 0) {
        std::printf("hedging (>%.1f ms): %llu hedged, %llu hedge "
                    "wins\n",
                    cluster.options().hedgeMs,
                    static_cast<unsigned long long>(rs.hedged),
                    static_cast<unsigned long long>(rs.hedgeWins));
    }
    if (cluster.options().auditEvery > 0) {
        std::printf("fidelity audit (%s tier, 1-in-%llu): %llu checks, "
                    "%llu divergences\n",
                    timing::fidelityName(cluster.options().fidelity),
                    static_cast<unsigned long long>(
                        cluster.options().auditEvery),
                    static_cast<unsigned long long>(cluster.auditChecks()),
                    static_cast<unsigned long long>(
                        cluster.auditDivergences()));
    }

    if (const char *path = std::getenv("BW_CLUSTER_ROUTE_JSON")) {
        writeJsonFile(path, cluster.routeJson());
        std::printf("Route decision log written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_SLO_JSON")) {
        writeJsonFile(path, cluster.sloJson());
        std::printf("Cluster SLO JSON written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_SPANS_JSON")) {
        writeJsonFile(path, obs::spanTreeJson(spans));
        std::printf("Span trees written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_FLIGHT_JSON")) {
        writeJsonFile(path, cluster.engineFlightJson(0));
        std::printf("Engine 0 flight JSON written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_FLEET_METRICS_JSON")) {
        writeJsonFile(path, cluster.fleetMetricsJson());
        std::printf("Fleet metrics JSON written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_FLEET_SLO_JSON")) {
        writeJsonFile(path, cluster.fleetSloJson());
        std::printf("Fleet SLO rollup written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_FLEET_INCIDENTS_JSON")) {
        writeJsonFile(path, cluster.incidentsJson());
        std::printf("Incident timelines written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_AUDIT_JSON")) {
        writeJsonFile(path, cluster.auditJson());
        std::printf("Fidelity audit JSON written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_FLEET_SPANS_NDJSON")) {
        std::ofstream out(path, std::ios::binary);
        obs::StreamSink sink = [&out](const std::string &chunk) {
            out.write(chunk.data(),
                      static_cast<std::streamsize>(chunk.size()));
            return static_cast<bool>(out);
        };
        Status st = obs::streamSpanTreesNdjson(spans, sink);
        std::printf("Fleet span stream written to %s: %s\n", path,
                    st.ok() ? "ok" : st.message().c_str());
    }

    // --- Phase 2: saturation sweep, routing policies head to head. ---
    // A dedicated homogeneous four-engine group with a heavily skewed
    // model mix: consistent hashing pins ~89% of the traffic to the
    // hot model's engine while least-loaded spreads it; everything in
    // this phase is virtual time, so the artifact is deterministic and
    // diffable by bench_compare.
    ClusterOptions so;
    ReplicaGroupSpec sg;
    sg.name = "s10";
    sg.config = NpuConfig::bwS10();
    sg.engines = 4;
    sg.engine.queueDepth = 16;
    sg.engine.networkMs = 0.05;
    sg.engine.defaultDeadlineMs = 25.0;
    so.groups = {sg};
    so.weightCacheTiles = 256;
    Cluster sweep(so);
    sweep.addTimedModel("hot", 1.0, 16);
    sweep.addTimedModel("cold-a", 1.0, 16);
    sweep.addTimedModel("cold-b", 1.0, 16);

    TrafficOptions st;
    st.durationS = 0.5;
    st.seed = 9;
    st.mix.push_back(ModelMix{0, 16.0, 1, 12.0});
    st.mix.push_back(ModelMix{1, 1.0, 1, 12.0});
    st.mix.push_back(ModelMix{2, 1.0, 1, 12.0});

    const double ladder[] = {1000, 1800, 2600, 3400};
    const RoutePolicy policies[] = {RoutePolicy::ConsistentHash,
                                    RoutePolicy::LeastLoaded,
                                    RoutePolicy::SloAware};
    Json points = Json::array();
    TextTable sweep_tbl({"rps", "policy", "submitted", "shed", "rej",
                         "exp", "goodput", "good req/s"});
    for (double rps : ladder) {
        st.baseRps = rps;
        std::vector<ClusterRequest> t = generateTraffic(st);
        for (RoutePolicy p : policies) {
            sweep.setRouterPolicy(p);
            ClusterStats s = sweep.replay(t);
            Json pt = Json::object();
            pt.set("rps", rps);
            pt.set("policy", routePolicyName(p));
            pt.set("submitted", s.submitted);
            pt.set("shed", s.shed);
            pt.set("rejected", s.rejected);
            pt.set("expired", s.expired);
            pt.set("completed", s.completed);
            pt.set("goodput", s.goodput);
            pt.set("goodput_rps", s.goodputRps);
            pt.set("p99_latency_ms", s.overall.p99LatencyMs);
            points.push(std::move(pt));
            sweep_tbl.addRow({fmtF(rps, 0), routePolicyName(p),
                              fmtI(s.submitted), fmtI(s.shed),
                              fmtI(s.rejected), fmtI(s.expired),
                              fmtI(s.goodput), fmtF(s.goodputRps, 0)});
        }
    }
    std::printf("\nSaturation sweep (4x BW_S10, 16:1:1 model skew, "
                "12 ms deadlines):\n%s\n",
                sweep_tbl.render().c_str());

    // The headline comparison the artifact records: goodput at the
    // highest ladder point, least-loaded vs consistent hash.
    uint64_t hash_top = 0, least_top = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        const Json &pt = points.at(i);
        if (pt.find("rps")->asDouble() != ladder[3])
            continue;
        uint64_t gp =
            static_cast<uint64_t>(pt.find("goodput")->asInt());
        if (pt.find("policy")->asString() == "consistent_hash")
            hash_top = gp;
        else if (pt.find("policy")->asString() == "least_loaded")
            least_top = gp;
    }
    std::printf("At %.0f rps: least_loaded goodput %llu vs "
                "consistent_hash %llu (%+lld)\n",
                ladder[3], static_cast<unsigned long long>(least_top),
                static_cast<unsigned long long>(hash_top),
                static_cast<long long>(least_top) -
                    static_cast<long long>(hash_top));

    {
        const char *env = std::getenv("BW_BENCH_JSON");
        std::string path = env ? env : "BENCH_cluster_sweep.json";
        Json doc = Json::object();
        doc.set("schema", "bw.cluster_sweep/1");
        doc.set("harness", "cluster_serve");
        doc.set("engines", sg.engines);
        doc.set("config", sg.config.name);
        doc.set("queue_depth", static_cast<uint64_t>(sg.engine.queueDepth));
        doc.set("deadline_ms", sg.engine.defaultDeadlineMs);
        doc.set("seed", st.seed);
        doc.set("duration_s", st.durationS);
        doc.set("goodput_least_loaded_at_peak", least_top);
        doc.set("goodput_consistent_hash_at_peak", hash_top);
        doc.set("points", std::move(points));
        writeJsonFile(path, doc);
        std::printf("Sweep JSON written to %s\n", path.c_str());
    }

    // --- Phase 3: live threaded smoke on the demo cluster. ---
    cluster.start();
    unsigned submitted = 0, shed = 0;
    std::vector<std::future<serve::Response>> futs;
    for (const ClusterRequest &req : trace) {
        if (submitted + shed >= live_requests)
            break;
        Expected<std::future<serve::Response>> f = cluster.submit(
            req.model, serve::Request::timed(req.steps, req.deadlineMs));
        if (f.ok()) {
            futs.push_back(std::move(f.value()));
            ++submitted;
        } else {
            ++shed;
        }
    }
    cluster.drain();
    unsigned completed = 0;
    for (auto &f : futs)
        completed += f.get().status.ok();
    std::printf("\nLive smoke: %u submitted, %u shed/rejected at the "
                "front door, %u completed\n",
                submitted, shed, completed);

    // Hold the endpoint open so external scrapers can't race our exit.
    if (const char *linger = std::getenv("BW_METRICS_LINGER_S")) {
        if (http.running()) {
            double hold_s = std::atof(linger);
            std::printf("Metrics endpoint lingering %.1f s...\n", hold_s);
            std::fflush(stdout);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(hold_s));
        }
    }
    return 0;
}
