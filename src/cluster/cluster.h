/**
 * @file
 * bw::cluster — multi-engine sharded serving with multi-model tenancy
 * and a front-door router.
 *
 * The paper's deployment (Section II, Fig. 1) is not one accelerator:
 * it is racks of network-attached NPUs of several hardware generations
 * (the Table III Stratix V / Arria 10 / Stratix 10 configurations
 * coexist in production) behind a front end that routes each inference
 * to some replica. A Cluster reproduces that layer on top of the
 * single-node serve::Engine:
 *
 *   - Replica groups: N engines per group, each group its own
 *     NpuConfig (heterogeneous hardware mixes, e.g. 2x BW_S10 + 4x
 *     BW_S5). Every engine is an independent shard with its own
 *     metrics registry, flight recorder and SLO monitor — the
 *     unlabeled bw_serve_* series of two engines must never share a
 *     registry.
 *   - Multi-model tenancy: models register once (addModel compiles the
 *     graph for every group's configuration; addTimedModel takes a
 *     flat service time) and any engine can serve any model — at the
 *     cost of an LRU weight-matrix cache per engine (WeightCache): a
 *     request for a non-resident model first streams the model's MRF
 *     tiles from DRAM, charged in cycles from the group's TimingParams
 *     (dramLatency + bytes / dramBytesPerCycle).
 *   - Front-door routing: a Router (router.h) picks the engine per
 *     request — consistent-hash by model, least-loaded, or SLO-aware
 *     with class-ordered admission shedding — and logs every decision.
 *
 * Determinism contract: replay(trace) pushes a generateTraffic() trace
 * through routing, weight caching and, per engine, the same
 * serve::VirtualShard queueing kernel Engine::replay runs, with no
 * threads and no clocks. Two replays of one trace produce byte-identical router
 * decision logs, per-engine bw.flight/1 and bw.slo/1 documents, and
 * span-tree exports (tested). A single-group, single-engine cluster
 * serving one zero-footprint model degenerates to Engine::replay()
 * bit-identically (tested).
 */

#ifndef BW_CLUSTER_CLUSTER_H
#define BW_CLUSTER_CLUSTER_H

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/router.h"
#include "cluster/traffic.h"
#include "cluster/weight_cache.h"
#include "common/status.h"
#include "graph/gir.h"
#include "metrics/metrics.h"
#include "obs/fleet.h"
#include "obs/flight.h"
#include "obs/incident.h"
#include "obs/span.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "serve/slo.h"
#include "serve/virtual_shard.h"

namespace bw {
namespace metrics {
class MetricsHttpServer;
}
namespace cluster {

/** One replica group: homogeneous engines over one NPU configuration. */
struct ReplicaGroupSpec
{
    std::string name = "s10";  //!< label prefix ("s10/0", "s10/1", ...)
    NpuConfig config;          //!< the group's synthesis configuration
    unsigned engines = 1;      //!< engine shards in this group
    /** Per-engine options (queueDepth, replicas, networkMs, deadlines).
     *  groupLabel / registries / recorders are overwritten per shard. */
    serve::EngineOptions engine;
};

/** Cluster configuration. */
struct ClusterOptions
{
    std::vector<ReplicaGroupSpec> groups;
    RouterOptions router;

    /** Per-engine weight-cache capacity in native matrix tiles
     *  (0 = each engine's config.mrfSize — the paper's MRF budget). */
    uint64_t weightCacheTiles = 0;

    /** Preload registered models (ascending id, first-fit) into every
     *  engine's weight cache at construction and at each replay(). */
    bool warmStart = true;

    /** Cluster-level registry for the bw_cluster_* series (non-owning;
     *  per-engine bw_serve_* series live in per-shard registries). */
    metrics::Registry *metricsRegistry = nullptr;

    /** Span tracer for route-rooted request trees under replay()
     *  (non-owning; cleared at the start of every replay). */
    obs::SpanTracer *spanTracer = nullptr;

    /** Deadline-class ladder and objectives, shared by the cluster
     *  monitor and every per-engine monitor. */
    serve::SloOptions slo;

    /** Per-engine flight-recorder options. */
    obs::FlightRecorderOptions flight;

    /** Timing-fidelity tier for model service-time simulation
     *  (modelServiceMs) and for every shard engine's timing model.
     *  Replays stay deterministic at any tier; Cached replays are
     *  bit-identical to CycleAccurate. */
    timing::Fidelity fidelity = timing::Fidelity::CycleAccurate;

    /**
     * Fidelity audit sampling: when > 0 and the cluster runs a
     * fast/cached tier, every auditEvery-th completed compiled-model
     * request is re-priced against the cycle-accurate model and
     * compared (bw_timing_audit_{checks,divergence}_total,
     * /debug/audit). 0 disables the audit. The sampling key is the
     * deterministic submission sequence number, so two replays audit
     * the same requests.
     */
    uint64_t auditEvery = 0;

    /**
     * Deterministic fault-injection plan (the chaos plane). When
     * enabled() the cluster generates a ChaosSchedule from these
     * options at construction; setChaosSchedule() replaces it. Faults
     * only act under replay() — the live path reacts to health state
     * (setShardHealthy) but never injects.
     */
    ChaosOptions chaos;

    /**
     * Hedged-request latency threshold in virtual milliseconds: when a
     * routed request's primary attempt misses this budget (or fails
     * outright), a duplicate is dispatched to the least-loaded other
     * healthy shard and the first completion wins; the loser is
     * cancelled. Negative disables hedging (the default — the
     * non-hedged replay path is byte-identical to earlier builds).
     * Zero hedges every request.
     */
    double hedgeMs = -1;

    /**
     * Virtual milliseconds between a crash/hang fault firing and the
     * health checker detecting it (detection immediately evicts the
     * shard from routing).
     */
    double healthDetectMs = 5.0;

    /**
     * Apply BW_CLUSTER_* environment overrides on @p base:
     * BW_CLUSTER_MIX replaces the groups with a preset mix
     * ("s5:2,a10:1,s10:1" — preset:count, presets s5 / a10 / s10),
     * BW_CLUSTER_POLICY sets the router policy by name,
     * BW_CLUSTER_CACHE_TILES sets weightCacheTiles,
     * BW_ROUTE_LOG_MAX sets router.logCapacity, and BW_AUDIT_SAMPLE
     * sets auditEvery. BW_TIMING_MODE sets the timing fidelity tier
     * ("cycle" | "fast" | "cached"). BW_HEDGE_MS sets hedgeMs,
     * BW_HEALTH_DETECT_MS sets healthDetectMs, and the BW_CHAOS_*
     * family (ChaosOptions::fromEnv) configures the fault plan.
     */
    static ClusterOptions fromEnv(ClusterOptions base);
    static ClusterOptions fromEnv();
};

/** Per-engine slice of a ClusterStats. */
struct EngineReport
{
    std::string label;
    ServeStats stats;          //!< latency summary of this shard
    uint64_t routed = 0;       //!< requests the router sent here
    uint64_t completed = 0;
    uint64_t rejected = 0;     //!< QUEUE_FULL at the shard
    uint64_t expired = 0;      //!< deadline expiries at dequeue
    uint64_t good = 0;         //!< completions inside their deadline
    uint64_t failed = 0;       //!< requests lost to an injected fault
    uint64_t cancelled = 0;    //!< hedge losers cancelled first-wins
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
    uint64_t reloadedTiles = 0;
    double reloadMsTotal = 0;  //!< service time spent streaming weights

    Json toJson() const;
};

/** Outcome of one Cluster::replay(). */
struct ClusterStats
{
    ServeStats overall;  //!< merged latency summary across engines
    uint64_t submitted = 0;
    uint64_t shed = 0;     //!< front-door sheds (router policy)
    uint64_t unavailable = 0; //!< no healthy shard (router engine -2)
    uint64_t rejected = 0; //!< shard QUEUE_FULL rejects
    uint64_t expired = 0;
    uint64_t failed = 0;   //!< requests lost to injected faults
    uint64_t hedged = 0;   //!< requests that dispatched a hedge
    uint64_t hedgeWins = 0; //!< hedges that beat the primary
    uint64_t completed = 0;
    /** Completions whose latency met their deadline (no deadline =
     *  always good): the saturation-sweep goodput numerator. */
    uint64_t goodput = 0;
    double goodputRps = 0;
    std::vector<uint64_t> shedByClass;
    std::vector<EngineReport> engines;

    Json toJson() const;
};

/**
 * A cluster of serve::Engine shards behind a front-door Router.
 * Construction builds every shard (engine + registry + flight recorder
 * + SLO monitor + weight cache); models register afterwards. replay()
 * is single-threaded virtual time; submit() is the live threaded
 * path (router decisions serialized under one lock, service on the
 * shard engines' worker pools).
 */
class Cluster
{
  public:
    explicit Cluster(ClusterOptions opts);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    const ClusterOptions &options() const { return opts_; }
    const Router &router() const { return *router_; }

    /** Total engine shards across all groups. */
    unsigned engineCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Shard label, "<group>/<index-within-group>". */
    const std::string &engineLabel(unsigned engine) const;

    /** The shard's serving engine (live submits, debug endpoints). */
    serve::Engine &engine(unsigned engine);

    /**
     * Register a model: compile @p graph for every group configuration
     * (weight footprint and service times then differ per group, as the
     * hardware does). Returns the model id requests name, or
     * InvalidArgument when compilation fails for some group.
     */
    Expected<uint32_t> addModel(const std::string &name,
                                const GirGraph &graph);

    /**
     * Register a model by flat service time: @p service_ms per request
     * on any group, @p weight_tiles of MRF footprint. Zero tiles makes
     * every touch a free cache hit — the degeneracy-test configuration.
     */
    uint32_t addTimedModel(const std::string &name, double service_ms,
                           uint64_t weight_tiles = 0);

    size_t modelCount() const { return models_.size(); }
    const std::string &modelName(uint32_t model) const;

    /** The model's MRF tile footprint on @p group's configuration. */
    uint64_t modelTiles(uint32_t model, size_t group) const;

    /** Simulated single-request service milliseconds for @p model on
     *  @p group's configuration at @p steps timesteps (cached). */
    double modelServiceMs(uint32_t model, size_t group, unsigned steps);
    /** The same under timing tier @p fidelity (the fidelity audit
     *  re-prices under CycleAccurate). */
    double modelServiceMs(uint32_t model, size_t group, unsigned steps,
                          timing::Fidelity fidelity);

    /** Milliseconds to stream @p tiles weight tiles from DRAM on
     *  @p group's configuration (TimingParams cycles at clockMhz). */
    double reloadMs(size_t group, uint64_t tiles) const;

    /** Swap the routing policy (drops the decision log; typically
     *  called between replays — the saturation sweep). */
    void setRouterPolicy(RoutePolicy policy);

    // --- Failure-domain observability (the chaos plane). ---

    /**
     * Install a fault schedule for subsequent replay()s, replacing any
     * schedule auto-generated from ClusterOptions::chaos. Faults whose
     * shard index is out of range are ignored; overlapping faults on
     * one shard keep the earlier fault (one incident at a time per
     * shard). An empty schedule restores fault-free replay —
     * byte-identical to a cluster that never had a schedule (tested).
     */
    void setChaosSchedule(ChaosSchedule schedule);

    /** The installed fault schedule (empty when chaos is off). */
    const ChaosSchedule &chaosSchedule() const { return chaos_; }

    /** The incident log of the most recent replay (cleared at each
     *  replayReset, fully closed by replayFinish). */
    const obs::IncidentLog &incidents() const { return incidents_; }

    /** The bw.incident/1 timeline document (/fleet/incidents.json). */
    Json incidentsJson() const { return obs::incidentJson(incidents_); }

    /**
     * Live-path health override: an unhealthy shard is skipped by
     * every routing policy until marked healthy again. Replay manages
     * health itself (detection/eviction under the chaos schedule) and
     * resets every shard healthy at replayReset.
     */
    void setShardHealthy(unsigned engine, bool healthy);

    /**
     * Deterministic virtual-time replay of @p trace (ascending
     * arrivals, e.g. generateTraffic()). Resets router log, weight
     * caches (re-warmed when warmStart), per-engine flight recorders
     * and SLO monitors, the cluster SLO monitor, and the span tracer,
     * then routes every request through the shard's VirtualShard (the
     * kernel Engine::replay runs) with model service + weight-reload
     * charging. Requests without a deadline inherit the target shard's
     * defaultDeadlineMs.
     */
    ClusterStats replay(const std::vector<ClusterRequest> &trace);

    /**
     * Streaming replay: pull requests from @p next (e.g.
     * TrafficStream::next) until it returns false, with O(1) resident
     * memory regardless of trace length — per-shard dequeue history is
     * pruned as virtual time advances and latency summaries come from
     * a bounded log-bucket sketch (exact counters and mean/max;
     * p50/p95/p99 are bucket-upper-bound estimates). Router decisions,
     * flight records, SLO feeds and span trees are byte-identical to
     * replay() on the same trace (tested) — attach a decision sink for
     * the O(1) route export.
     */
    ClusterStats
    replayStream(const std::function<bool(ClusterRequest *)> &next);

    /**
     * Attach a streaming router-decision sink (obs::RouteStreamWriter),
     * re-applied across setRouterPolicy(). Every decision — routed or
     * shed — flows through it before the bounded decision log.
     */
    void setDecisionSink(std::function<void(const RouteDecision &)> sink);

    // --- Live (threaded) serving. ---

    /** Spawn every shard's worker pool (idempotent). */
    void start();

    /**
     * Route and submit one timed request for @p model. Sheds at the
     * front door with Unavailable (naming the deadline class) under the
     * slo_aware policy; otherwise forwards to the routed shard with the
     * model's service time plus any weight-reload charge folded into
     * req.serviceMsOverride. req.deadlineMs 0 = the shard's
     * defaultDeadlineMs; req.inputs must be empty (cluster requests are
     * timed — functional inputs go through a Session directly).
     */
    Expected<std::future<serve::Response>> submit(uint32_t model,
                                                  serve::Request req);

    /** Drain every shard (stop admitting, wait for in-flight work). */
    void drain();

    /** Shut every shard down (cancel queued work, join workers). */
    void shutdown();

    /** True while every shard still admits requests. */
    bool accepting() const;

    // --- Introspection. ---

    /** The router's bw.route/1 decision log. */
    Json routeJson() const { return router_->decisionsJson(); }

    /** The cluster-level bw.slo/1 document (sheds burn availability). */
    Json sloJson() const { return clsMonitor_.sloJson(); }

    /** Deadline classes in the monitor's ladder (after defaulting) —
     *  sizes the RouteStreamWriter's shed_by_class vector. */
    size_t sloClassCount() const
    {
        return clsMonitor_.options().classes.size();
    }

    /** Shard @p engine's bw.slo/1 document. */
    Json engineSloJson(unsigned engine) const;

    /** Shard @p engine's bw.flight/1 document (model-less shards have
     *  no chain leaves, matching Engine::flightJson without a model). */
    Json engineFlightJson(unsigned engine) const;

    /** Shard @p engine's weight-cache state. */
    Json engineCacheJson(unsigned engine) const;

    /** Topology + per-shard occupancy/cache/counters + router summary. */
    Json debugClusterJson() const;

    /** The fleet federation plane over every shard registry + SLO
     *  monitor (and the cluster registry when bound). */
    const obs::FleetRegistry &fleet() const { return fleet_; }

    /** Federated /fleet/metrics Prometheus text. */
    std::string fleetMetricsText() const { return fleet_.prometheus(); }

    /** Federated /fleet/metrics.json document. */
    Json fleetMetricsJson() const { return fleet_.metricsJson(); }

    /** Fleet bw.slo/1 rollup across every shard monitor. */
    Json fleetSloJson() const { return fleet_.sloRollupJson(); }

    /** The /debug/audit document: fidelity-audit sampling config,
     *  check/divergence counters, and the last divergence (if any). */
    Json auditJson() const;

    uint64_t auditChecks() const { return auditChecks_; }
    uint64_t auditDivergences() const { return auditDivergence_; }

    /**
     * Mount the cluster's introspection endpoints on @p srv:
     * /debug/cluster, /route.json, /slo.json, and per shard i
     * /engine/i/slo.json, /engine/i/flight.json, /engine/i/metrics.json
     * (the shard registry's bw_serve_* series) and /engine/i/debug/config
     * (which carries the shard's group label). Registers the readiness
     * probe: /healthz turns 503 once any shard stops accepting. The
     * server must not outlive the cluster.
     */
    void exposeDebug(metrics::MetricsHttpServer &srv);

  private:
    /**
     * Bounded log-bucket latency summary for streaming replay: exact
     * count/mean/max, bucket-upper-bound p50/p95/p99. Buckets are
     * geometric (ratio 2^(1/4)) from 1 microsecond.
     */
    struct LatencySketch
    {
        static constexpr size_t kBuckets = 96;
        uint64_t count = 0;
        double sumMs = 0;
        double maxMs = 0;
        std::array<uint64_t, kBuckets> buckets{};

        void record(double latency_ms);
        void clear();
        /** Fill the requests/mean/percentile/max fields of @p stats. */
        void fill(ServeStats &stats) const;
    };

    /** One engine shard: the engine plus everything it must not share. */
    struct Shard
    {
        std::string label;
        size_t group = 0;
        std::unique_ptr<metrics::Registry> registry;
        std::unique_ptr<obs::FlightRecorder> flight;
        std::unique_ptr<serve::SloMonitor> slo;
        std::unique_ptr<serve::Engine> engine;
        WeightCache cache;
        /** The engine's own occupancy gauges (live-load signal). */
        metrics::Gauge *queueDepth = nullptr;
        metrics::Gauge *inflight = nullptr;

        /** Virtual-time queue (replay). replayOne prunes its start log
         *  to each arrival before routing, so the loads and admission
         *  at that arrival count the log in O(1) while it ascends. */
        serve::VirtualShard queue;
        /** SLO class of the shard's default deadline (a request with
         *  none is sampled under it). */
        size_t defaultClass = 0;
        uint64_t attempt = 0; //!< per-shard flight seq counter

        /** Health-check verdict: false once the checker evicts the
         *  shard (replay: chaos detection; live: setShardHealthy). */
        bool healthy = true;

        /** Per-replay counters; replayFinish adds the label, latency
         *  summary and cache counters. */
        EngineReport report;
        /** Per-replay tallies with no EngineReport field: whole reload
         *  microseconds (the bw_cluster_reload_us_total unit) and
         *  requests hit by each fault class. */
        uint64_t reloadUs = 0;
        std::array<uint64_t, static_cast<size_t>(FaultClass::NumFaultClasses)>
            faults{};
        std::vector<double> latencies; //!< exact (vector replay) only
        LatencySketch sketch;          //!< streaming replay only
        double firstArrival = 0, lastDone = 0;
        bool saw = false;
    };

    /** State threaded through one replay pass (vector or streaming). */
    struct ReplayPass
    {
        /** The flight and SLO outcomes: one outlet per shard, by shard
         *  index, then the front door's (index front). */
        serve::OutcomeSink out;
        size_t front = 0;
        ClusterStats cs;
        uint64_t seq = 0;      //!< every submission (router key)
        uint64_t admitted = 0; //!< admitted ids (span trace ids)
        bool streaming = false;
        std::vector<uint64_t> modelRequests; //!< submissions per model id
        double lastArrival = 0;
        bool sawArrival = false;
    };

    /** One registered model. */
    struct ModelEntry
    {
        std::string name;
        bool timed = false;
        double timedMs = 0;
        uint64_t timedTiles = 0;
        /** One compiled session per group (empty when timed). */
        std::vector<std::unique_ptr<Session>> sessions;
        metrics::Counter *requests = nullptr; //!< bw_cluster_requests_total
    };

    /** Per-shard cluster-registry counters (labels {engine: label}). */
    struct ShardMetrics
    {
        metrics::Counter *routed = nullptr;
        metrics::Counter *completed = nullptr;
        metrics::Counter *rejected = nullptr;
        metrics::Counter *expired = nullptr;
        metrics::Counter *cacheHits = nullptr;
        metrics::Counter *cacheMisses = nullptr;
        metrics::Counter *cacheEvictions = nullptr;
        metrics::Counter *reloadUs = nullptr;
    };

    /** Count, gauge and (warmStart) preload a new model. */
    uint32_t registerModel(ModelEntry e);
    /** Shard @p s's virtual-time load at @p now_s. */
    static EngineLoad virtualLoad(const Shard &s, double now_s);
    /** Every shard's virtual-time load at @p now_s, with no pruning (a
     *  reused buffer, valid until the next call): the hedge's view at
     *  its future dispatch time. */
    const std::vector<EngineLoad> &virtualLoads(double now_s);
    std::vector<EngineLoad> liveLoads() const;
    /** Preload every registered model on @p s (warmStart). */
    void warm(Shard &s);
    void bindClusterMetrics();
    metrics::Counter *shedCounter(uint32_t cls);

    // Replay decomposition shared by replay() and replayStream(). The
    // pass keeps exact latencies, or (streaming) the bounded sketch.
    void replayReset(ReplayPass &rp, bool streaming);
    void replayOne(const ClusterRequest &req, ReplayPass &rp);
    ClusterStats replayFinish(ReplayPass &rp);
    /** Add one pass's tallies to the cluster registry's counters: the
     *  replay path counts in plain fields and publishes once, here. */
    void publishReplayCounters(const ClusterStats &cs,
                               const ReplayPass &rp);

    /** Shard @p shard's cluster-registry counters (null when unbound). */
    ShardMetrics *metricsOf(size_t shard)
    {
        return shardMetrics_.empty() ? nullptr : &shardMetrics_[shard];
    }
    /** What one touchWeights() did: the cache outcome and the DRAM
     *  reload it charged, in milliseconds and in whole microseconds
     *  (the bw_cluster_reload_us_total unit); zero on a hit. */
    struct WeightCharge
    {
        WeightTouch touch;
        double ms = 0;
        uint64_t us = 0;
    };
    /** Touch @p model's weights on @p shard's cache, charging any DRAM
     *  reload to the shard's report. Counts nothing in the registry:
     *  each caller does (replay once per pass, live per request). */
    WeightCharge touchWeights(size_t shard, uint32_t model, uint64_t tiles);

    // --- Chaos plane (replay fault injection + incident telemetry). ---

    /** Active fault effects on one shard (between fire and recover). */
    struct ShardChaos
    {
        bool down = false;     //!< crashed: requests error at failAtS
        bool hung = false;     //!< hung: requests stall to deadline
        bool slow = false;     //!< degraded: service times multiplied
        bool dropping = false; //!< lossy: per-request coin-flip errors
        double slowFactor = 1.0;
        double dropProb = 0;
        double failAtS = 0; //!< crash: when callers see the error
        double endS = 0;    //!< fault-window end (hang fallback stamp)
        size_t fault = 0;   //!< schedule index (drop-decision salt)
        uint64_t incident = 0;
    };

    /** One precomputed incident state-machine edge. Built at
     *  replayReset from the schedule; stamps are pure functions of
     *  (schedule, options), which is what makes incident timelines
     *  replay byte-identically. */
    struct ChaosTransition
    {
        enum Phase : uint8_t
        {
            Fire = 0,        //!< fault effects begin
            Detect,          //!< health check notices; shard evicted
            RewarmStart,     //!< crash only: weight re-load begins
            Recover,         //!< effects end; shard rejoins routing
        };
        double tS = 0;
        unsigned shard = 0;
        uint32_t fault = 0; //!< index into chaos_.faults()
        Phase phase = Fire;
    };

    /** One dispatch attempt of a routed request against one shard: all
     *  shard-state mutations committed, nothing recorded yet (under
     *  hedging the winner decides what the caller saw). The step's
     *  times run from dispatchS; its queue slot is set for Expired and
     *  Completed attempts only. */
    struct Attempt : serve::VirtualShard::Step
    {
        enum class Kind : uint8_t
        {
            Rejected,  //!< shard queue full
            Expired,   //!< deadline passed at dequeue
            Faulted,   //!< lost to an injected fault
            Completed, //!< serviced (may still lose the hedge race)
        };
        Kind kind = Kind::Completed;
        unsigned shard = 0;
        uint64_t seq = 0;      //!< per-shard flight attempt number
        double dispatchS = 0;  //!< when this attempt reached the shard
        double deadlineMs = 0; //!< resolved against the shard default
    };

    /** Process every transition with tS <= now_s, in stamp order. */
    void advanceChaos(double now_s);
    void applyTransition(const ChaosTransition &tr);
    void setHealthGauge(size_t shard, double state);

    /** Run one dispatch attempt against @p shard at virtual time @p t:
     *  fault effects, admission and the weight touch, then the shard's
     *  batch-1 step over the model's service time plus any reload,
     *  stretched on a slowed replica. */
    Attempt runAttempt(unsigned shard, double t, const ClusterRequest &req,
                       ReplayPass &rp);
    /** The hedged routed path of replayOne (opts_.hedgeMs >= 0) for a
     *  request in deadline class @p cls. */
    void replayHedged(const ClusterRequest &req, uint32_t cls,
                      ReplayPass &rp, unsigned primary);
    /** Account the attempt whose outcome the caller saw (record
     *  @p rec) of @p req, routed in deadline class @p cls — counters,
     *  latencies, goodput and the shard + cluster SLO samples. */
    void settle(const Attempt &w, serve::AttemptRecord rec,
                const ClusterRequest &req, uint32_t cls, ReplayPass &rp);
    /** Record @p rec's request tree under span @p parent (chain leaves
     *  when it completed on a compiled model). */
    void recordAttemptTree(obs::TraceId trace,
                           const serve::AttemptRecord &rec,
                           obs::SpanId parent, const ClusterRequest &req,
                           size_t group);

    /** What one attempt of a (model, group, steps) costs. */
    struct Price
    {
        double ms = 0;      //!< service milliseconds
        uint64_t tiles = 0; //!< weight footprint (modelTiles)
    };
    /** The price of @p model on @p group at @p steps and @p fidelity,
     *  from the dense price table: two indexings once priced. */
    Price price(uint32_t model, size_t group, unsigned steps,
                timing::Fidelity fidelity);
    /** Fill price-table slot @p slot at @p steps (the cold path). */
    Price priceFresh(size_t slot, uint32_t model, size_t group,
                     unsigned steps, timing::Fidelity fidelity);
    /** Sampled fast-vs-cycle-accurate comparison (replay completed
     *  path). */
    void auditCheck(uint64_t seq, uint32_t model, size_t group,
                    unsigned steps, double fast_ms);

    ClusterOptions opts_;
    std::unique_ptr<Router> router_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<ModelEntry> models_;
    /** Cluster-level SLO monitor: deadline-class authority (classOf)
     *  and the front-door /slo.json — records every submission
     *  including sheds (as availability burn). */
    serve::SloMonitor clsMonitor_;
    std::vector<ShardMetrics> shardMetrics_;
    std::vector<metrics::Counter *> shedByClassC_;
    metrics::Gauge *enginesGauge_ = nullptr;
    metrics::Gauge *modelsGauge_ = nullptr;

    /** Service ms and tiles by slot (model, group, fidelity) — slot
     *  (model * groups + group) * kFidelities + fidelity — then by
     *  steps; an entry with ms < 0 is not priced yet. */
    std::vector<std::vector<Price>> prices_;

    /** (model, group, steps) -> the profiled timing run whose chains
     *  become chain[i] span leaves. */
    std::unordered_map<uint64_t, timing::ProfiledRun> chainCache_;

    std::vector<EngineLoad> loads_; //!< per-arrival router loads buffer

    /** The fleet federation plane (cluster registry + every shard). */
    obs::FleetRegistry fleet_;

    /** Streaming router-decision sink, re-applied on router swaps. */
    std::function<void(const RouteDecision &)> decisionSink_;

    // Chaos-plane state (replay fault injection).
    ChaosSchedule chaos_;
    obs::IncidentLog incidents_;
    std::vector<ChaosTransition> transitions_;
    size_t nextTransition_ = 0;
    std::vector<ShardChaos> shardChaos_;
    /** Per-shard warm-set size at reset — what a crash must re-load. */
    std::vector<uint64_t> rewarmTiles_;
    std::vector<double> rewarmMs_;
    /** bw_health_state per shard: 0 healthy, 1 degraded, 2 faulted,
     *  3 evicted, 4 re-warming. */
    std::vector<metrics::Gauge *> healthG_;
    /** bw_failure_total per shard per fault class. */
    std::vector<std::array<metrics::Counter *,
                           static_cast<size_t>(
                               FaultClass::NumFaultClasses)>>
        failureC_;
    metrics::Counter *hedgeAttemptsC_ = nullptr;
    metrics::Counter *hedgeWinsC_ = nullptr;
    metrics::Counter *hedgeCancelledC_ = nullptr;

    // Fidelity-audit state (cumulative across replays, like the
    // cluster-registry counters).
    uint64_t auditChecks_ = 0;
    uint64_t auditDivergence_ = 0;
    metrics::Counter *auditChecksC_ = nullptr;
    metrics::Counter *auditDivergenceC_ = nullptr;
    struct AuditSample
    {
        uint64_t seq = 0;
        uint32_t model = 0;
        unsigned steps = 0;
        double fastMs = 0;
        double exactMs = 0;
    };
    AuditSample lastCheck_;
    AuditSample lastDivergence_;

    /** Serializes live routing decisions + cache touches. */
    std::mutex liveMu_;
    uint64_t liveSeq_ = 0;
};

} // namespace cluster
} // namespace bw

#endif // BW_CLUSTER_CLUSTER_H
