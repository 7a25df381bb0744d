#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>

#include "common/env_doc.h"
#include "common/logging.h"
#include "metrics/exposition.h"
#include "metrics/http_server.h"

namespace bw {
namespace cluster {

using serve::toUs;

namespace {

/// Chain-profile cache key: model and group are small, steps dominates.
uint64_t
chainKey(uint32_t model, size_t group, unsigned steps)
{
    return (static_cast<uint64_t>(model) << 44) |
           (static_cast<uint64_t>(group) << 32) | steps;
}

/// Timing fidelities a price-table slot distinguishes.
constexpr size_t kFidelities =
    static_cast<size_t>(timing::Fidelity::Cached) + 1;

} // namespace

// --- ClusterOptions ---

ClusterOptions
ClusterOptions::fromEnv(ClusterOptions base)
{
    if (const char *mix = envText("BW_CLUSTER_MIX")) {
        // "s5:2,a10:1" — preset name and engine count per group. The
        // first existing group's engine options act as the template.
        serve::EngineOptions tmpl = base.groups.empty()
                                        ? serve::EngineOptions{}
                                        : base.groups.front().engine;
        std::vector<ReplicaGroupSpec> groups;
        std::string s = mix;
        size_t pos = 0;
        bool ok = true;
        while (pos < s.size()) {
            size_t comma = s.find(',', pos);
            if (comma == std::string::npos)
                comma = s.size();
            std::string tok = s.substr(pos, comma - pos);
            pos = comma + 1;
            if (tok.empty())
                continue;
            size_t colon = tok.find(':');
            ReplicaGroupSpec g;
            g.name = tok.substr(0, colon);
            g.engine = tmpl;
            uint64_t count = 1;
            bool good = colon == std::string::npos ||
                        parseUnsigned(tok.c_str() + colon + 1, 0,
                                      std::numeric_limits<unsigned>::max(),
                                      &count);
            if (g.name == "s5")
                g.config = NpuConfig::bwS5();
            else if (g.name == "a10")
                g.config = NpuConfig::bwA10();
            else if (g.name == "s10")
                g.config = NpuConfig::bwS10();
            else
                good = false;
            if (!good) {
                BW_WARN("BW_CLUSTER_MIX: bad group '%s' (want s5, a10 or "
                        "s10 with an optional :count); keeping configured "
                        "groups",
                        tok.c_str());
                ok = false;
                break;
            }
            g.engines = static_cast<unsigned>(std::max<uint64_t>(1, count));
            groups.push_back(std::move(g));
        }
        if (ok && !groups.empty())
            base.groups = std::move(groups);
    }
    if (const char *pol = envText("BW_CLUSTER_POLICY")) {
        Expected<RoutePolicy> p = routePolicyFromName(pol);
        if (p.ok())
            base.router.policy = p.value();
        else
            BW_WARN("BW_CLUSTER_POLICY: %s", p.status().message().c_str());
    }
    envUnsigned("BW_CLUSTER_CACHE_TILES", &base.weightCacheTiles);
    envUnsigned("BW_ROUTE_LOG_MAX", &base.router.logCapacity);
    envUnsigned("BW_AUDIT_SAMPLE", &base.auditEvery);
    // Negative hedgeMs turns hedging off; a negative detection delay
    // acts as 0, as every reader of healthDetectMs clamps it.
    envDouble("BW_HEDGE_MS", &base.hedgeMs);
    envDouble("BW_HEALTH_DETECT_MS", &base.healthDetectMs);
    base.chaos = ChaosOptions::fromEnv(base.chaos);
    base.fidelity = timing::fidelityFromEnv(base.fidelity);
    return base;
}

ClusterOptions
ClusterOptions::fromEnv()
{
    return fromEnv(ClusterOptions{});
}

// --- Reports ---

Json
EngineReport::toJson() const
{
    Json j = Json::object();
    j.set("label", label);
    j.set("stats", stats.toJson());
    j.set("routed", routed);
    j.set("completed", completed);
    j.set("rejected", rejected);
    j.set("expired", expired);
    j.set("good", good);
    j.set("failed", failed);
    j.set("cancelled", cancelled);
    j.set("cache_hits", cacheHits);
    j.set("cache_misses", cacheMisses);
    j.set("cache_evictions", cacheEvictions);
    j.set("reloaded_tiles", reloadedTiles);
    j.set("reload_ms_total", reloadMsTotal);
    return j;
}

Json
ClusterStats::toJson() const
{
    Json j = Json::object();
    j.set("overall", overall.toJson());
    j.set("submitted", submitted);
    j.set("shed", shed);
    j.set("unavailable", unavailable);
    j.set("rejected", rejected);
    j.set("expired", expired);
    j.set("failed", failed);
    j.set("hedged", hedged);
    j.set("hedge_wins", hedgeWins);
    j.set("completed", completed);
    j.set("goodput", goodput);
    j.set("goodput_rps", goodputRps);
    Json sbc = Json::array();
    for (uint64_t c : shedByClass)
        sbc.push(c);
    j.set("shed_by_class", std::move(sbc));
    Json eng = Json::array();
    for (const EngineReport &r : engines)
        eng.push(r.toJson());
    j.set("engines", std::move(eng));
    return j;
}

// --- Cluster ---

Cluster::Cluster(ClusterOptions opts)
    : opts_(std::move(opts)), clsMonitor_(opts_.slo)
{
    if (opts_.groups.empty()) {
        ReplicaGroupSpec g;
        g.config = NpuConfig::bwS10();
        opts_.groups.push_back(std::move(g));
    }
    unsigned engines = 0;
    for (ReplicaGroupSpec &g : opts_.groups) {
        g.engines = std::max(1u, g.engines);
        engines += g.engines;
    }
    size_t classes = clsMonitor_.options().classes.size();
    router_ = std::make_unique<Router>(opts_.router, engines, classes);

    for (size_t gi = 0; gi < opts_.groups.size(); ++gi) {
        const ReplicaGroupSpec &g = opts_.groups[gi];
        for (unsigned i = 0; i < g.engines; ++i) {
            auto s = std::make_unique<Shard>();
            s->label = g.name + "/" + std::to_string(i);
            s->group = gi;
            s->registry = std::make_unique<metrics::Registry>();
            s->flight = std::make_unique<obs::FlightRecorder>(opts_.flight);
            s->slo = std::make_unique<serve::SloMonitor>(opts_.slo);
            serve::EngineOptions eo = g.engine;
            eo.groupLabel = s->label;
            eo.fidelity = opts_.fidelity;
            eo.metricsRegistry = s->registry.get();
            eo.flightRecorder = s->flight.get();
            eo.sloMonitor = s->slo.get();
            // The cluster records route-rooted span trees itself
            // (replay); per-engine tracers would collide on trace ids.
            eo.spanTracer = nullptr;
            s->engine = std::make_unique<serve::Engine>(std::move(eo));
            // The engine registered these gauges in bindMetrics();
            // get-or-create hands back the same instances.
            s->queueDepth = &s->registry->gauge(
                "bw_serve_queue_depth",
                "Requests waiting in the engine's bounded admission queue");
            s->inflight = &s->registry->gauge(
                "bw_serve_inflight",
                "Requests currently in service across accelerator replicas");
            s->cache = WeightCache(opts_.weightCacheTiles
                                       ? opts_.weightCacheTiles
                                       : g.config.mrfSize);
            s->queue = serve::VirtualShard(
                s->engine->options().replicas,
                s->engine->options().queueDepth);
            s->defaultClass = clsMonitor_.classOf(
                s->engine->options().defaultDeadlineMs);
            shards_.push_back(std::move(s));
        }
    }
    fleet_.setClusterRegistry(opts_.metricsRegistry);
    for (const auto &s : shards_) {
        fleet_.addShard(s->label, opts_.groups[s->group].name,
                        s->registry.get(), s->slo.get());
    }
    shardChaos_.assign(shards_.size(), ShardChaos{});
    rewarmTiles_.assign(shards_.size(), 0);
    rewarmMs_.assign(shards_.size(), 0.0);
    if (opts_.chaos.enabled())
        chaos_ = ChaosSchedule::generate(opts_.chaos, engineCount());
    if (opts_.metricsRegistry)
        bindClusterMetrics();
}

Cluster::~Cluster()
{
    shutdown();
}

void
Cluster::bindClusterMetrics()
{
    metrics::Registry &reg = *opts_.metricsRegistry;
    enginesGauge_ =
        &reg.gauge("bw_cluster_engines", "Engine shards in the cluster");
    enginesGauge_->set(static_cast<double>(shards_.size()));
    modelsGauge_ = &reg.gauge("bw_cluster_models",
                              "Resident models registered with the cluster");
    for (const auto &s : shards_) {
        metrics::Labels l{{"engine", s->label}};
        ShardMetrics m;
        m.routed = &reg.counter(
            "bw_cluster_routed_total",
            "Requests the front-door router sent to this engine", l);
        m.completed = &reg.counter("bw_cluster_completed_total",
                                   "Requests completed per engine", l);
        m.rejected = &reg.counter(
            "bw_cluster_rejected_total",
            "Requests rejected QUEUE_FULL at the engine shard", l);
        m.expired = &reg.counter(
            "bw_cluster_expired_total",
            "Requests whose deadline expired at the engine shard", l);
        m.cacheHits = &reg.counter("bw_cluster_weight_cache_hits_total",
                                   "Weight-cache hits per engine", l);
        m.cacheMisses =
            &reg.counter("bw_cluster_weight_cache_misses_total",
                         "Weight-cache misses (DRAM reloads) per engine", l);
        m.cacheEvictions =
            &reg.counter("bw_cluster_weight_cache_evictions_total",
                         "Resident models evicted per engine", l);
        m.reloadUs = &reg.counter(
            "bw_cluster_reload_us_total",
            "Simulated microseconds spent streaming weights from DRAM",
            l);
        shardMetrics_.push_back(m);
    }
    const auto &classes = clsMonitor_.options().classes;
    for (const serve::SloClassSpec &c : classes) {
        shedByClassC_.push_back(&reg.counter(
            "bw_cluster_shed_total",
            "Requests shed at the front door by deadline class",
            {{"class", c.name}}));
    }
    // Failure-domain series: a health-state gauge and one counter per
    // fault class per shard, eagerly registered so a clean run still
    // exports every class at zero (dashboards key on the full matrix).
    for (const auto &s : shards_) {
        const std::string &gname = opts_.groups[s->group].name;
        healthG_.push_back(&reg.gauge(
            "bw_health_state",
            "Shard health: 0 healthy, 1 degraded, 2 faulted, 3 evicted, "
            "4 re-warming",
            {{"group", gname}, {"shard", s->label}}));
        std::array<metrics::Counter *,
                   static_cast<size_t>(FaultClass::NumFaultClasses)>
            row{};
        for (size_t c = 0;
             c < static_cast<size_t>(FaultClass::NumFaultClasses); ++c) {
            row[c] = &reg.counter(
                "bw_failure_total",
                "Requests lost or degraded by injected faults, by fault "
                "class",
                {{"class", faultClassName(static_cast<FaultClass>(c))},
                 {"group", gname},
                 {"shard", s->label}});
        }
        failureC_.push_back(row);
    }
    hedgeAttemptsC_ = &reg.counter(
        "bw_hedge_attempts_total",
        "Duplicate dispatches issued for requests over the hedge "
        "latency budget");
    hedgeWinsC_ = &reg.counter(
        "bw_hedge_wins_total",
        "Hedged dispatches that finished before the primary attempt");
    hedgeCancelledC_ = &reg.counter(
        "bw_hedge_cancelled_total",
        "Hedge-race losers cancelled after the first completion");
    auditChecksC_ = &reg.counter(
        "bw_timing_audit_checks_total",
        "Sampled fast-tier service times re-priced against the "
        "cycle-accurate timing model");
    auditDivergenceC_ = &reg.counter(
        "bw_timing_audit_divergence_total",
        "Audited service times that diverged from the cycle-accurate "
        "reference");
}

metrics::Counter *
Cluster::shedCounter(uint32_t cls)
{
    if (shedByClassC_.empty())
        return nullptr;
    return shedByClassC_[std::min<size_t>(cls, shedByClassC_.size() - 1)];
}

const std::string &
Cluster::engineLabel(unsigned engine) const
{
    BW_ASSERT(engine < shards_.size(), "engine %u out of range", engine);
    return shards_[engine]->label;
}

serve::Engine &
Cluster::engine(unsigned engine)
{
    BW_ASSERT(engine < shards_.size(), "engine %u out of range", engine);
    return *shards_[engine]->engine;
}

Expected<uint32_t>
Cluster::addModel(const std::string &name, const GirGraph &graph)
{
    ModelEntry e;
    e.name = name;
    for (size_t gi = 0; gi < opts_.groups.size(); ++gi) {
        try {
            e.sessions.push_back(std::make_unique<Session>(
                Session::compile(graph, opts_.groups[gi].config)));
        } catch (const std::exception &ex) {
            return Status::invalidArgument(detail::format(
                "model '%s' does not compile for group '%s': %s",
                name.c_str(), opts_.groups[gi].name.c_str(), ex.what()));
        }
    }
    return registerModel(std::move(e));
}

uint32_t
Cluster::addTimedModel(const std::string &name, double service_ms,
                       uint64_t weight_tiles)
{
    BW_ASSERT(service_ms > 0, "timed model '%s' needs service_ms > 0",
              name.c_str());
    ModelEntry e;
    e.name = name;
    e.timed = true;
    e.timedMs = service_ms;
    e.timedTiles = weight_tiles;
    return registerModel(std::move(e));
}

uint32_t
Cluster::registerModel(ModelEntry e)
{
    if (opts_.metricsRegistry) {
        e.requests = &opts_.metricsRegistry->counter(
            "bw_cluster_requests_total",
            "Requests submitted per resident model", {{"model", e.name}});
    }
    models_.push_back(std::move(e));
    uint32_t id = static_cast<uint32_t>(models_.size() - 1);
    if (modelsGauge_)
        modelsGauge_->set(static_cast<double>(models_.size()));
    if (opts_.warmStart) {
        for (auto &s : shards_)
            s->cache.preload(id, modelTiles(id, s->group));
    }
    return id;
}

const std::string &
Cluster::modelName(uint32_t model) const
{
    BW_ASSERT(model < models_.size(), "model %u out of range", model);
    return models_[model].name;
}

uint64_t
Cluster::modelTiles(uint32_t model, size_t group) const
{
    BW_ASSERT(model < models_.size(), "model %u out of range", model);
    const ModelEntry &e = models_[model];
    if (e.timed)
        return e.timedTiles;
    return e.sessions[group]->model().mrfTilesUsed;
}

double
Cluster::modelServiceMs(uint32_t model, size_t group, unsigned steps)
{
    return price(model, group, steps, opts_.fidelity).ms;
}

double
Cluster::modelServiceMs(uint32_t model, size_t group, unsigned steps,
                        timing::Fidelity fidelity)
{
    return price(model, group, steps, fidelity).ms;
}

// This file spends GCC's unit-wide inlining budget long before the
// replay path, so the per-request steps that must inline into
// replayOne say so: the price lookup, the shard measure, the weight
// touch, the attempt and its settlement. Inlined, they measurably
// sped up replay; the hedged path inlines the attempt twice.

[[gnu::always_inline]] inline Cluster::Price
Cluster::price(uint32_t model, size_t group, unsigned steps,
               timing::Fidelity fidelity)
{
    size_t slot =
        (static_cast<size_t>(model) * opts_.groups.size() + group) *
            kFidelities +
        static_cast<size_t>(fidelity);
    if (slot < prices_.size() && steps < prices_[slot].size() &&
        prices_[slot][steps].ms >= 0)
        return prices_[slot][steps];
    return priceFresh(slot, model, group, steps, fidelity);
}

Cluster::Price
Cluster::priceFresh(size_t slot, uint32_t model, size_t group,
                    unsigned steps, timing::Fidelity fidelity)
{
    Price p;
    p.tiles = modelTiles(model, group); // checks the id
    const ModelEntry &e = models_[model];
    p.ms = e.timed ? e.timedMs
                   : e.sessions[group]->serviceMs(steps, fidelity);
    if (slot >= prices_.size())
        prices_.resize(slot + 1);
    std::vector<Price> &by_steps = prices_[slot];
    if (steps >= by_steps.size())
        by_steps.resize(static_cast<size_t>(steps) + 1, Price{-1.0, 0});
    by_steps[steps] = p;
    return p;
}

double
Cluster::reloadMs(size_t group, uint64_t tiles) const
{
    if (tiles == 0)
        return 0.0;
    const NpuConfig &c = opts_.groups[group].config;
    // One native N x N tile: N*N BFP elements (sign + mantissa bits)
    // plus one shared exponent per row.
    uint64_t n = c.nativeDim;
    uint64_t bits_per_tile =
        n * n * static_cast<uint64_t>(c.precision.elemBits()) +
        n * static_cast<uint64_t>(c.precision.expBits);
    uint64_t bytes = (tiles * bits_per_tile + 7) / 8;
    uint64_t bpc = std::max(1u, c.timing.dramBytesPerCycle);
    uint64_t cycles = c.timing.dramLatency + (bytes + bpc - 1) / bpc;
    return static_cast<double>(cycles) / (c.clockMhz * 1e3);
}

void
Cluster::setRouterPolicy(RoutePolicy policy)
{
    RouterOptions ro = router_->options();
    ro.policy = policy;
    opts_.router = ro;
    router_ = std::make_unique<Router>(
        std::move(ro), engineCount(),
        clsMonitor_.options().classes.size());
    if (decisionSink_)
        router_->setDecisionSink(decisionSink_);
}

void
Cluster::setDecisionSink(std::function<void(const RouteDecision &)> sink)
{
    decisionSink_ = std::move(sink);
    router_->setDecisionSink(decisionSink_);
}

void
Cluster::setChaosSchedule(ChaosSchedule schedule)
{
    chaos_ = std::move(schedule);
}

void
Cluster::setShardHealthy(unsigned engine, bool healthy)
{
    BW_ASSERT(engine < shards_.size(), "engine %u out of range", engine);
    std::lock_guard<std::mutex> lk(liveMu_);
    shards_[engine]->healthy = healthy;
    setHealthGauge(engine, healthy ? 0.0 : 3.0);
}

void
Cluster::setHealthGauge(size_t shard, double state)
{
    if (shard < healthG_.size())
        healthG_[shard]->set(state);
}

void
Cluster::warm(Shard &s)
{
    // Ascending model id, first-fit: deterministic warm set per shard.
    for (uint32_t m = 0; m < models_.size(); ++m)
        s.cache.preload(m, modelTiles(m, s.group));
}

[[gnu::always_inline]] inline EngineLoad
Cluster::virtualLoad(const Shard &s, double now_s)
{
    EngineLoad l;
    l.queued = s.queue.queued(now_s);
    l.inflight = s.queue.inflight(now_s);
    l.queueCapacity = s.queue.queueDepth();
    l.healthy = s.healthy;
    return l;
}

const std::vector<EngineLoad> &
Cluster::virtualLoads(double now_s)
{
    loads_.resize(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i)
        loads_[i] = virtualLoad(*shards_[i], now_s);
    return loads_;
}

std::vector<EngineLoad>
Cluster::liveLoads() const
{
    std::vector<EngineLoad> loads;
    loads.reserve(shards_.size());
    for (const auto &s : shards_) {
        EngineLoad l;
        l.queued = static_cast<uint64_t>(
            std::max(0.0, s->queueDepth->value()));
        l.inflight = static_cast<uint64_t>(
            std::max(0.0, s->inflight->value()));
        l.queueCapacity = s->engine->options().queueDepth;
        l.healthy = s->healthy;
        loads.push_back(l);
    }
    return loads;
}

// --- Streaming latency sketch ---

namespace {

/// Sketch floor: one microsecond, in milliseconds.
constexpr double kSketchMinMs = 1e-3;

/// Upper bound of log-bucket @p idx (geometric, ratio 2^(1/4)).
double
sketchUpperMs(size_t idx)
{
    return kSketchMinMs * std::exp2(static_cast<double>(idx) / 4.0);
}

} // namespace

void
Cluster::LatencySketch::record(double latency_ms)
{
    ++count;
    sumMs += latency_ms;
    maxMs = std::max(maxMs, latency_ms);
    size_t idx = 0;
    if (latency_ms > kSketchMinMs) {
        double b = std::ceil(std::log2(latency_ms / kSketchMinMs) * 4.0);
        idx = std::min<size_t>(
            kBuckets - 1, static_cast<size_t>(std::max(0.0, b)));
    }
    ++buckets[idx];
}

void
Cluster::LatencySketch::clear()
{
    count = 0;
    sumMs = 0;
    maxMs = 0;
    buckets.fill(0);
}

void
Cluster::LatencySketch::fill(ServeStats &stats) const
{
    stats.requests = count;
    if (count == 0)
        return;
    stats.meanLatencyMs = sumMs / static_cast<double>(count);
    stats.maxLatencyMs = maxMs;
    // Nearest-rank percentile over the buckets, reported at the
    // bucket's upper bound (a conservative estimate within one ratio
    // step of the exact sample), clamped to the observed maximum.
    auto pct = [this](double p) {
        uint64_t rank = static_cast<uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(count)));
        rank = std::max<uint64_t>(1, std::min(rank, count));
        uint64_t cum = 0;
        for (size_t b = 0; b < kBuckets; ++b) {
            cum += buckets[b];
            if (cum >= rank)
                return std::min(maxMs, sketchUpperMs(b));
        }
        return maxMs;
    };
    stats.p50LatencyMs = pct(50.0);
    stats.p95LatencyMs = pct(95.0);
    stats.p99LatencyMs = pct(99.0);
}

// --- Replay ---

void
Cluster::replayReset(ReplayPass &rp, bool streaming)
{
    BW_ASSERT(!models_.empty(), "replay: no models registered");
    // Full virtual reset: every observer restarts with the trace, so
    // two replays of one trace export byte-identically. The cluster
    // registry's counters and the audit totals are cumulative across
    // replays by design, like any production Prometheus counter; the
    // pass counts in plain tallies and replayFinish publishes them.
    // The pass sink takes the SLO monitors' and flight recorders'
    // storage, cleared, until replayFinish hands it back.
    router_->clear();
    if (opts_.spanTracer)
        opts_.spanTracer->clear();
    for (size_t i = 0; i < shards_.size(); ++i) {
        Shard &s = *shards_[i];
        s.queue = serve::VirtualShard(s.engine->options().replicas,
                                      s.engine->options().queueDepth);
        s.attempt = 0;
        s.report = EngineReport{};
        s.reloadUs = 0;
        s.faults.fill(0);
        s.latencies.clear();
        s.sketch.clear();
        s.saw = false;
        s.firstArrival = s.lastDone = 0;
        s.healthy = true;
        rp.out.add(s.flight.get(), s.slo.get()); // outlet i is shard i
        s.cache.clear();
        if (opts_.warmStart)
            warm(s);
        setHealthGauge(i, 0.0);
    }

    // Compile the fault schedule into incident state-machine edges.
    // Everything here is a pure function of (schedule, options, warm
    // set), so the transition list — and with it every incident stamp
    // — replays identically. A shard lives one incident at a time:
    // faults that land inside an earlier fault's incident window are
    // dropped (busyUntil).
    incidents_.clear();
    transitions_.clear();
    nextTransition_ = 0;
    shardChaos_.assign(shards_.size(), ShardChaos{});
    for (size_t i = 0; i < shards_.size(); ++i) {
        // A crash restart must re-stream whatever was resident; after
        // the reset above, that is exactly the warm set.
        rewarmTiles_[i] = shards_[i]->cache.usedTiles();
        rewarmMs_[i] = reloadMs(shards_[i]->group, rewarmTiles_[i]);
    }
    if (!chaos_.empty()) {
        double detect_s = std::max(0.0, opts_.healthDetectMs) / 1e3;
        std::vector<double> busyUntil(shards_.size(), 0.0);
        const std::vector<FaultEvent> &faults = chaos_.faults();
        for (size_t fi = 0; fi < faults.size(); ++fi) {
            const FaultEvent &f = faults[fi];
            if (f.shard >= shards_.size())
                continue;
            if (f.atS < busyUntil[f.shard])
                continue;
            double fire = f.atS;
            double end = fire + std::max(0.0, f.durationS);
            uint32_t id = static_cast<uint32_t>(fi);
            auto push = [&](double t, ChaosTransition::Phase p) {
                transitions_.push_back(
                    ChaosTransition{t, f.shard, id, p});
            };
            double recover = end;
            switch (f.cls) {
            case FaultClass::ReplicaCrash: {
                double detect = fire + detect_s;
                end = std::max(end, detect);
                recover = end + rewarmMs_[f.shard] / 1e3;
                push(fire, ChaosTransition::Fire);
                push(detect, ChaosTransition::Detect);
                push(end, ChaosTransition::RewarmStart);
                push(recover, ChaosTransition::Recover);
                break;
            }
            case FaultClass::ReplicaHang: {
                double detect = fire + detect_s;
                recover = std::max(end, detect);
                push(fire, ChaosTransition::Fire);
                push(detect, ChaosTransition::Detect);
                push(recover, ChaosTransition::Recover);
                break;
            }
            case FaultClass::SlowReplica:
            case FaultClass::DroppedMessage:
            default:
                push(fire, ChaosTransition::Fire);
                push(recover, ChaosTransition::Recover);
                break;
            }
            busyUntil[f.shard] = recover;
        }
        std::stable_sort(
            transitions_.begin(), transitions_.end(),
            [](const ChaosTransition &a, const ChaosTransition &b) {
                if (a.tS != b.tS)
                    return a.tS < b.tS;
                if (a.fault != b.fault)
                    return a.fault < b.fault;
                return a.phase < b.phase;
            });
    }
    rp.front = rp.out.add(nullptr, &clsMonitor_);
    rp.streaming = streaming;
    rp.cs.shedByClass.assign(clsMonitor_.options().classes.size(), 0);
    rp.modelRequests.assign(models_.size(), 0);
}

// --- Chaos plane ---

void
Cluster::advanceChaos(double now_s)
{
    while (nextTransition_ < transitions_.size() &&
           transitions_[nextTransition_].tS <= now_s) {
        applyTransition(transitions_[nextTransition_]);
        ++nextTransition_;
    }
}

void
Cluster::applyTransition(const ChaosTransition &tr)
{
    const FaultEvent &f = chaos_.faults()[tr.fault];
    Shard &s = *shards_[tr.shard];
    ShardChaos &cc = shardChaos_[tr.shard];
    uint64_t t_us = toUs(tr.tS);
    switch (tr.phase) {
    case ChaosTransition::Fire: {
        cc = ShardChaos{};
        cc.fault = tr.fault;
        cc.endS = f.atS + std::max(0.0, f.durationS);
        cc.incident = incidents_.open(faultClassName(f.cls), s.label,
                                      opts_.groups[s.group].name, t_us);
        switch (f.cls) {
        case FaultClass::ReplicaCrash:
            cc.down = true;
            // Callers learn of the crash when the health check does.
            cc.failAtS =
                f.atS + std::max(0.0, opts_.healthDetectMs) / 1e3;
            setHealthGauge(tr.shard, 2.0);
            break;
        case FaultClass::ReplicaHang:
            cc.hung = true;
            setHealthGauge(tr.shard, 2.0);
            break;
        case FaultClass::SlowReplica:
            cc.slow = true;
            cc.slowFactor =
                std::max(1.0, f.magnitude > 0 ? f.magnitude : kSlowFactor);
            setHealthGauge(tr.shard, 1.0);
            break;
        case FaultClass::DroppedMessage:
        default:
            cc.dropping = true;
            cc.dropProb = std::min(
                1.0, std::max(0.0, f.magnitude > 0 ? f.magnitude
                                                   : kDropProb));
            setHealthGauge(tr.shard, 1.0);
            break;
        }
        break;
    }
    case ChaosTransition::Detect:
        incidents_.event(cc.incident, obs::IncidentPhase::Detected,
                         t_us);
        // Eviction is immediate on detection: the router's next
        // decision already skips the shard.
        incidents_.event(cc.incident, obs::IncidentPhase::Evicted,
                         t_us);
        s.healthy = false;
        setHealthGauge(tr.shard, 3.0);
        break;
    case ChaosTransition::RewarmStart: {
        incidents_.event(cc.incident,
                         obs::IncidentPhase::RewarmStarted, t_us);
        // The restarted shard comes up cold: drop residency (counters
        // survive — they are cumulative) and re-stream the warm set,
        // charged through the group's DRAM reload model.
        s.cache.invalidate();
        if (opts_.warmStart)
            warm(s);
        uint64_t tiles = rewarmTiles_[tr.shard];
        double ms = rewarmMs_[tr.shard];
        uint64_t us = serve::roundUs(ms * 1e3);
        s.report.reloadedTiles += tiles;
        s.report.reloadMsTotal += ms;
        s.reloadUs += us;
        incidents_.setReload(cc.incident, tiles, us);
        setHealthGauge(tr.shard, 4.0);
        break;
    }
    case ChaosTransition::Recover:
        incidents_.event(cc.incident, obs::IncidentPhase::Recovered,
                         t_us);
        s.healthy = true;
        shardChaos_[tr.shard] = ShardChaos{};
        setHealthGauge(tr.shard, 0.0);
        break;
    }
}

ClusterStats
Cluster::replay(const std::vector<ClusterRequest> &trace)
{
    ReplayPass rp;
    replayReset(rp, false);
    for (const ClusterRequest &req : trace)
        replayOne(req, rp);
    return replayFinish(rp);
}

ClusterStats
Cluster::replayStream(const std::function<bool(ClusterRequest *)> &next)
{
    ReplayPass rp;
    replayReset(rp, true);
    ClusterRequest req;
    while (next(&req))
        replayOne(req, rp);
    return replayFinish(rp);
}

void
Cluster::replayOne(const ClusterRequest &req, ReplayPass &rp)
{
    ClusterStats &cs = rp.cs;
    ++rp.seq;
    ++cs.submitted;
    BW_ASSERT(req.model < models_.size(), "replay: unknown model %u",
              req.model);
    BW_ASSERT(!rp.sawArrival || req.arrivalS >= rp.lastArrival,
              "replay: arrivals must be ascending");
    rp.sawArrival = true;
    rp.lastArrival = req.arrivalS;
    obs::SpanTracer *tracer = opts_.spanTracer;
    ModelEntry &me = models_[req.model];
    ++rp.modelRequests[req.model];
    uint32_t cls =
        static_cast<uint32_t>(clsMonitor_.classOf(req.deadlineMs));
    double a = req.arrivalS;
    advanceChaos(a);
    // One pass over the shards: drop each start log's past, then
    // measure it at the arrival.
    loads_.resize(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
        Shard &s = *shards_[i];
        s.queue.prune(a);
        loads_[i] = virtualLoad(s, a);
    }

    int32_t target =
        router_->route(rp.seq, req.model, me.name, cls, loads_);
    if (target < 0) {
        if (target == -2) {
            ++cs.unavailable; // eviction took every shard: not a shed
        } else {
            ++cs.shed;
            ++cs.shedByClass[cls];
        }
        rp.out.slo(rp.front, cls, toUs(a), 0.0, false);
        return;
    }
    if (opts_.hedgeMs >= 0) {
        replayHedged(req, cls, rp, static_cast<unsigned>(target));
        return;
    }

    // Single dispatch: the request takes an id (and a head-sampling
    // decision) only once the shard queues it, so rejects and faulted
    // attempts keep id 0, unsampled — the numbering Engine::replay uses.
    Attempt at = runAttempt(static_cast<unsigned>(target), a, req, rp);
    Shard &s = *shards_[at.shard];
    bool queued = at.kind == Attempt::Kind::Expired ||
                  at.kind == Attempt::Kind::Completed;
    uint64_t id = queued ? ++rp.admitted : 0;
    obs::TraceContext ctx =
        tracer && id ? tracer->admit(id) : obs::TraceContext{};
    // The audit compares timing models, not fault effects: it re-prices
    // the undegraded service time even on a slowed shard.
    if (at.kind == Attempt::Kind::Completed && opts_.auditEvery > 0 &&
        !me.timed && opts_.fidelity != timing::Fidelity::CycleAccurate &&
        rp.seq % opts_.auditEvery == 0)
        auditCheck(rp.seq, req.model, s.group, req.steps,
                   modelServiceMs(req.model, s.group, req.steps));
    serve::AttemptRecord rec(at.seq, id, at.cls, ctx.sampled(),
                             static_cast<uint32_t>(at.res.replica),
                             req.steps, at.dispatchS, at.startS, at.startS,
                             at.doneS, at.latencyMs, at.deadlineMs);
    settle(at, rec, req, cls, rp);
    rp.out.flight(at.shard, rec);
    if (ctx.sampled()) {
        obs::RouteSpan rs;
        rs.trace = ctx.trace;
        rs.admitUs = rec.admitUs;
        rs.doneUs = rec.doneUs;
        rs.engine = at.shard;
        rs.model = req.model;
        rs.outcome = obs::flightClassOutcome(rec.cls);
        recordAttemptTree(ctx.trace, rec, obs::recordRouteSpan(*tracer, rs),
                          req, s.group);
    }
}

[[gnu::always_inline]] inline Cluster::WeightCharge
Cluster::touchWeights(size_t shard, uint32_t model, uint64_t tiles)
{
    Shard &s = *shards_[shard];
    WeightCharge c;
    c.touch = s.cache.touch(model, tiles);
    if (c.touch.hit)
        return c;
    // The DRAM traffic happens even if the attempt later loses a hedge
    // race — reload charges are never rolled back.
    c.ms = reloadMs(s.group, c.touch.loadedTiles);
    c.us = serve::roundUs(c.ms * 1e3);
    s.report.reloadedTiles += c.touch.loadedTiles;
    s.report.reloadMsTotal += c.ms;
    return c;
}

[[gnu::always_inline]] inline Cluster::Attempt
Cluster::runAttempt(unsigned shard, double t, const ClusterRequest &req,
                    ReplayPass &rp)
{
    Shard &s = *shards_[shard];
    const serve::EngineOptions &eo = s.engine->options();
    Attempt at;
    at.shard = shard;
    at.dispatchS = at.startS = at.doneS = at.clientDoneS = t;
    at.seq = ++s.attempt;
    ++s.report.routed;
    if (!s.saw) {
        s.saw = true;
        s.firstArrival = t;
        s.lastDone = t;
    }
    at.deadlineMs =
        req.deadlineMs > 0 ? req.deadlineMs : eo.defaultDeadlineMs;

    // Injected fault effects first, decided at dispatch (forward-only
    // model): a crashed shard errors its callers when the health check
    // notices, a hung shard eats the request until its deadline, and a
    // partition drops a deterministic coin-flip of messages (salted by
    // the submission seq, so replays drop the same ones). A faulted
    // attempt never queues.
    const ShardChaos &cc = shardChaos_[shard];
    FaultClass fault = FaultClass::NumFaultClasses;
    if (cc.down)
        fault = FaultClass::ReplicaCrash;
    else if (cc.hung)
        fault = FaultClass::ReplicaHang; // surfaces as a deadline expiry
    else if (cc.dropping &&
             chaosUniform(chaos_.seed(), cc.fault, rp.seq) < cc.dropProb)
        fault = FaultClass::DroppedMessage;
    if (fault != FaultClass::NumFaultClasses) {
        // A crash surfaces when the health check notices; a hang or a
        // lost message when the deadline (or the fault window) ends.
        double fail_s = fault == FaultClass::ReplicaCrash ? cc.failAtS
                        : at.deadlineMs > 0 ? t + at.deadlineMs / 1e3
                                            : cc.endS;
        at.kind = Attempt::Kind::Faulted;
        at.startS = at.doneS = at.clientDoneS = std::max(t, fail_s);
        at.latencyMs = (at.clientDoneS - t) * 1e3 + eo.networkMs;
        if (fault == FaultClass::ReplicaHang) {
            at.cls = obs::FlightClass::DeadlineExpired;
            ++s.report.expired;
        } else {
            at.cls = obs::FlightClass::Error;
            ++s.report.failed;
        }
        ++s.faults[static_cast<size_t>(fault)];
        incidents_.addAffected(cc.incident);
        return at;
    }

    if (!s.queue.admits(t)) {
        at.kind = Attempt::Kind::Rejected;
        at.cls = obs::FlightClass::Rejected;
        ++s.report.rejected;
        return at;
    }
    // One lookup prices the attempt: service time and weight tiles.
    Price pr = price(req.model, s.group, req.steps, opts_.fidelity);
    WeightCharge wc = touchWeights(shard, req.model, pr.tiles);
    s.reloadUs += wc.us;
    double model_ms = pr.ms;
    if (cc.slow)
        model_ms *= cc.slowFactor; // degraded, not dead: stretched
    static_cast<serve::VirtualShard::Step &>(at) = s.queue.serve(
        t, eo.networkMs, at.deadlineMs, (model_ms + wc.ms) / 1e3);
    if (at.cls == obs::FlightClass::DeadlineExpired) {
        at.kind = Attempt::Kind::Expired;
        ++s.report.expired;
        return at;
    }
    if (cc.slow) {
        ++s.faults[static_cast<size_t>(FaultClass::SlowReplica)];
        incidents_.addAffected(cc.incident);
    }
    at.kind = Attempt::Kind::Completed;
    return at;
}

[[gnu::always_inline]] inline void
Cluster::settle(const Attempt &w, serve::AttemptRecord rec,
                const ClusterRequest &req, uint32_t cls, ReplayPass &rp)
{
    double arrival_s = req.arrivalS;
    // Cluster-level accounting comes from this attempt only — the caller
    // saw exactly one outcome. (Per-shard reports count every attempt.)
    ClusterStats &cs = rp.cs;
    Shard &ws = *shards_[w.shard];
    switch (w.kind) {
    case Attempt::Kind::Completed: {
        // From the arrival: a winning hedge was dispatched later.
        rec.latencyMs = (w.clientDoneS - arrival_s) * 1e3;
        ++ws.report.completed;
        ++cs.completed;
        if (rp.streaming)
            ws.sketch.record(rec.latencyMs);
        else
            ws.latencies.push_back(rec.latencyMs);
        if (w.deadlineMs <= 0 || rec.latencyMs <= w.deadlineMs)
            ++ws.report.good;
        ws.lastDone = std::max(ws.lastDone, w.doneS);
        break;
    }
    case Attempt::Kind::Rejected:
        ++cs.rejected;
        break;
    case Attempt::Kind::Expired:
        ++cs.expired;
        break;
    case Attempt::Kind::Faulted:
    default:
        if (w.cls == obs::FlightClass::DeadlineExpired)
            ++cs.expired;
        else
            ++cs.failed;
        break;
    }
    // The sample's class is the routed one unless the shard's default
    // deadline stood in for a missing one.
    size_t slo_cls = req.deadlineMs > 0 ? cls : ws.defaultClass;
    for (size_t out : {size_t{w.shard}, rp.front})
        rp.out.slo(out, slo_cls, rec.doneUs, rec.latencyMs, rec.available());
}

void
Cluster::recordAttemptTree(obs::TraceId trace,
                           const serve::AttemptRecord &rec,
                           obs::SpanId parent, const ClusterRequest &req,
                           size_t group)
{
    ModelEntry &e = models_[req.model];
    const timing::ProfiledRun *run = nullptr;
    // Compiled models have chain profiles; flat-service ones do not.
    if (!e.timed) {
        auto [it, fresh] =
            chainCache_.try_emplace(chainKey(req.model, group, req.steps));
        if (fresh) {
            auto chains =
                std::make_shared<std::vector<obs::ChainProfile>>();
            it->second.result = e.sessions[group]->timeProfiled(
                req.steps, chains.get(), opts_.fidelity);
            it->second.chains = std::move(chains);
        }
        run = &it->second;
    }
    obs::recordAttemptSpans(*opts_.spanTracer, rec, trace, parent,
                            run ? run->chains.get() : nullptr,
                            run ? run->result.totalCycles : 0);
}

// --- Hedged dispatch (replay) ---

namespace {

/// The least-occupied healthy shard other than @p primary (ties go to
/// the lowest index), or -1: where a hedge goes.
int32_t
hedgeTarget(const std::vector<EngineLoad> &loads, size_t primary)
{
    int32_t alt = -1;
    uint64_t best = UINT64_MAX;
    for (size_t e = 0; e < loads.size(); ++e) {
        if (e == primary || !loads[e].healthy)
            continue;
        uint64_t occ = loads[e].queued + loads[e].inflight;
        if (occ < best) {
            best = occ;
            alt = static_cast<int32_t>(e);
        }
    }
    return alt;
}

} // namespace

void
Cluster::replayHedged(const ClusterRequest &req, uint32_t cls,
                      ReplayPass &rp, unsigned primary)
{
    // A hedged request takes its id up front: both attempts record
    // under it, whatever their fate.
    ClusterStats &cs = rp.cs;
    double a = req.arrivalS;
    obs::SpanTracer *tracer = opts_.spanTracer;
    uint64_t id = ++rp.admitted;
    obs::TraceContext ctx =
        tracer ? tracer->admit(id) : obs::TraceContext{};

    Attempt p = runAttempt(primary, a, req, rp);

    // Hedge when the primary misses the latency budget or fails
    // outright; the duplicate goes to the least-loaded other healthy
    // shard at the moment the budget expires. Chaos state is NOT
    // advanced to t_h: the global fault clock stays monotone with
    // arrivals (advancing it here would leak future fault state into
    // every later request in the window), so the hedge acts on health
    // knowledge as of the arrival — the same detection lag callers
    // already live with.
    bool wantHedge = p.kind != Attempt::Kind::Completed ||
                     p.latencyMs > opts_.hedgeMs;
    Attempt h;
    bool hedged = false;
    if (wantHedge) {
        double t_h = a + std::max(0.0, opts_.hedgeMs) / 1e3;
        int32_t alt = hedgeTarget(virtualLoads(t_h), primary);
        if (alt >= 0) {
            hedged = true;
            ++cs.hedged;
            h = runAttempt(static_cast<unsigned>(alt), t_h, req, rp);
        }
    }

    // First-wins: the earliest completion the caller hears; ties and
    // the nothing-completed case go to the primary.
    bool pWins = true;
    if (hedged) {
        bool pOk = p.kind == Attempt::Kind::Completed;
        bool hOk = h.kind == Attempt::Kind::Completed;
        if (pOk && hOk)
            pWins = p.clientDoneS <= h.clientDoneS;
        else if (hOk)
            pWins = false;
    }
    Attempt &w = pWins ? p : h;
    Attempt *loser = hedged ? (pWins ? &h : &p) : nullptr;
    if (hedged && !pWins)
        ++cs.hedgeWins;

    // Cancel a loser that would still have completed: before service
    // start, the reservation is undone (its queue slot and replica
    // never ran); mid-service, the replica frees at the cancel point.
    if (loser && loser->kind == Attempt::Kind::Completed) {
        Shard &ls = *shards_[loser->shard];
        double c = w.clientDoneS;
        if (loser->startS >= c) {
            ls.queue.cancel(loser->res);
            loser->startS = c;
            loser->doneS = c;
        } else {
            loser->doneS = std::min(loser->doneS, c);
            ls.queue.finish(loser->res, loser->doneS);
        }
        loser->cls = obs::FlightClass::Cancelled;
        loser->latencyMs = (loser->doneS - loser->dispatchS) * 1e3;
        ++ls.report.cancelled;
        ls.lastDone = std::max(ls.lastDone, loser->doneS);
    }
    const Attempt *attempts[2] = {&p, hedged ? &h : nullptr};
    serve::AttemptRecord recs[2];
    for (size_t i = 0; i < 2 && attempts[i]; ++i) {
        const Attempt &at = *attempts[i];
        recs[i] = serve::AttemptRecord(
            at.seq, id, at.cls, ctx.sampled(),
            static_cast<uint32_t>(at.res.replica), req.steps, at.dispatchS,
            at.startS, at.startS, at.doneS, at.latencyMs, at.deadlineMs);
    }
    settle(w, recs[pWins ? 0 : 1], req, cls, rp);

    // Flight records in dispatch order: primary, then hedge.
    for (size_t i = 0; i < 2 && attempts[i]; ++i)
        rp.out.flight(attempts[i]->shard, recs[i]);
    if (!ctx.sampled())
        return;

    // Span tree: route root -> hedge[i] children -> nested request
    // trees. The winner stamps the root's outcome/engine; the loser's
    // hedge span shows the cancellation. hedge[1]'s ids start past
    // hedge[0]'s request tree (4 spans) and its capped chain leaves.
    obs::SpanId stride = std::max<obs::SpanId>(
        512, static_cast<obs::SpanId>(tracer->options().maxChainSpans) + 5);
    obs::RouteSpan root;
    root.trace = ctx.trace;
    root.admitUs = toUs(a);
    root.doneUs = std::max(recs[0].doneUs, root.admitUs);
    if (hedged)
        root.doneUs = std::max(root.doneUs, recs[1].doneUs);
    root.engine = w.shard;
    root.model = req.model;
    root.outcome = obs::flightClassOutcome(w.cls);
    obs::SpanId root_id = obs::recordRouteSpan(*tracer, root);
    for (uint32_t i = 0; i < 2 && attempts[i]; ++i) {
        obs::SpanRecord hs;
        hs.trace = ctx.trace;
        hs.id = 2 + i * stride;
        hs.parent = root_id;
        hs.kind = obs::SpanKind::Hedge;
        hs.outcome = obs::flightClassOutcome(recs[i].cls);
        hs.index = i;                    // hedge ordinal: "hedge[i]"
        hs.chainId = attempts[i]->shard; // the engine this attempt hit
        hs.startUs = recs[i].admitUs;
        hs.endUs = recs[i].doneUs;
        tracer->record(hs);
        recordAttemptTree(ctx.trace, recs[i], hs.id, req,
                          shards_[attempts[i]->shard]->group);
    }
}

ClusterStats
Cluster::replayFinish(ReplayPass &rp)
{
    // Run the incident state machine to completion: every fault that
    // fired past the last arrival still detects, evicts, re-warms and
    // recovers, so the exported timeline pairs every fault with its
    // terminal phase.
    advanceChaos(std::numeric_limits<double>::infinity());
    rp.out.finish();
    ClusterStats cs = std::move(rp.cs);
    // Per-engine and merged summaries. Vector replay reports exact
    // nearest-rank percentiles, merging each shard's sorted run into the
    // fleet's; streaming replay merges the per-shard sketches
    // (counters/mean/max stay exact, percentiles are bucket upper
    // bounds).
    std::vector<double> all;
    LatencySortScratch scratch;
    if (!rp.streaming) {
        size_t total = 0;
        for (const auto &sp : shards_)
            total += sp->latencies.size();
        all.reserve(total);
    }
    LatencySketch merged;
    double first = 0, last = 0;
    bool any = false;
    for (auto &sp : shards_) {
        Shard &s = *sp;
        EngineReport r = s.report;
        r.label = s.label;
        uint64_t n = 0;
        if (rp.streaming) {
            s.sketch.fill(r.stats);
            n = s.sketch.count;
            merged.count += s.sketch.count;
            merged.sumMs += s.sketch.sumMs;
            merged.maxMs = std::max(merged.maxMs, s.sketch.maxMs);
            for (size_t b = 0; b < LatencySketch::kBuckets; ++b)
                merged.buckets[b] += s.sketch.buckets[b];
        } else {
            summarizeLatencies(r.stats, s.latencies, scratch);
            n = s.latencies.size();
            mergeSortedRun(all, s.latencies);
        }
        double span = s.lastDone - s.firstArrival;
        r.stats.throughputRps =
            s.saw && span > 0 ? static_cast<double>(n) / span : 0;
        r.cacheHits = s.cache.hits();
        r.cacheMisses = s.cache.misses();
        r.cacheEvictions = s.cache.evictions();
        cs.goodput += s.report.good;
        if (s.saw) {
            if (!any || s.firstArrival < first)
                first = s.firstArrival;
            if (!any || s.lastDone > last)
                last = s.lastDone;
            any = true;
        }
        cs.engines.push_back(std::move(r));
    }
    double span = any ? last - first : 0;
    if (rp.streaming) {
        merged.fill(cs.overall);
        cs.overall.throughputRps =
            span > 0 ? static_cast<double>(merged.count) / span : 0;
    } else {
        fillLatencyStats(cs.overall, all);
        cs.overall.throughputRps =
            span > 0 ? static_cast<double>(all.size()) / span : 0;
    }
    cs.goodputRps =
        span > 0 ? static_cast<double>(cs.goodput) / span : 0;
    publishReplayCounters(cs, rp);
    return cs;
}

void
Cluster::publishReplayCounters(const ClusterStats &cs, const ReplayPass &rp)
{
    if (!opts_.metricsRegistry)
        return;
    for (size_t i = 0; i < shards_.size(); ++i) {
        const EngineReport &r = cs.engines[i];
        const ShardMetrics &m = shardMetrics_[i];
        m.routed->add(r.routed);
        m.completed->add(r.completed);
        m.rejected->add(r.rejected);
        m.expired->add(r.expired);
        m.cacheHits->add(r.cacheHits);
        m.cacheMisses->add(r.cacheMisses);
        m.cacheEvictions->add(r.cacheEvictions);
        m.reloadUs->add(shards_[i]->reloadUs);
        for (size_t c = 0; c < failureC_[i].size(); ++c)
            failureC_[i][c]->add(shards_[i]->faults[c]);
        hedgeCancelledC_->add(r.cancelled);
    }
    for (size_t m = 0; m < models_.size(); ++m)
        models_[m].requests->add(rp.modelRequests[m]);
    for (size_t c = 0; c < cs.shedByClass.size(); ++c)
        shedByClassC_[c]->add(cs.shedByClass[c]);
    hedgeAttemptsC_->add(cs.hedged);
    hedgeWinsC_->add(cs.hedgeWins);
}

// --- Fidelity audit + span stitching ---

void
Cluster::auditCheck(uint64_t seq, uint32_t model, size_t group,
                    unsigned steps, double fast_ms)
{
    double exact_ms = modelServiceMs(model, group, steps,
                                     timing::Fidelity::CycleAccurate);
    ++auditChecks_;
    if (auditChecksC_)
        auditChecksC_->inc();
    lastCheck_ = AuditSample{seq, model, steps, fast_ms, exact_ms};
    if (fast_ms != exact_ms) {
        ++auditDivergence_;
        if (auditDivergenceC_)
            auditDivergenceC_->inc();
        lastDivergence_ = lastCheck_;
    }
}

Json
Cluster::auditJson() const
{
    Json j = Json::object();
    j.set("schema", "bw.audit/1");
    j.set("sample_every", opts_.auditEvery);
    j.set("fidelity", timing::fidelityName(opts_.fidelity));
    j.set("active",
          opts_.auditEvery > 0 &&
              opts_.fidelity != timing::Fidelity::CycleAccurate);
    j.set("checks", auditChecks_);
    j.set("divergences", auditDivergence_);
    auto sampleJson = [](const AuditSample &s) {
        Json o = Json::object();
        o.set("seq", s.seq);
        o.set("model", static_cast<uint64_t>(s.model));
        o.set("steps", static_cast<uint64_t>(s.steps));
        o.set("fast_ms", s.fastMs);
        o.set("exact_ms", s.exactMs);
        return o;
    };
    if (auditChecks_ > 0)
        j.set("last_check", sampleJson(lastCheck_));
    if (auditDivergence_ > 0)
        j.set("last_divergence", sampleJson(lastDivergence_));
    return j;
}

// --- Live serving ---

void
Cluster::start()
{
    for (auto &s : shards_)
        s->engine->start();
}

Expected<std::future<serve::Response>>
Cluster::submit(uint32_t model, serve::Request req)
{
    if (!req.inputs.empty()) {
        return Status::invalidArgument(
            "cluster requests are timed; functional inputs are served "
            "through a Session, not the cluster front door");
    }
    unsigned steps = req.steps;
    double deadline_ms = req.deadlineMs;
    if (model >= models_.size()) {
        return Status::invalidArgument(
            detail::format("unknown model id %u (have %zu)", model,
                           models_.size()));
    }
    std::lock_guard<std::mutex> lk(liveMu_);
    ++liveSeq_;
    ModelEntry &me = models_[model];
    if (me.requests)
        me.requests->inc();
    uint32_t cls =
        static_cast<uint32_t>(clsMonitor_.classOf(deadline_ms));
    int32_t target =
        router_->route(liveSeq_, model, me.name, cls, liveLoads());
    if (target == -2) {
        return Status::unavailable(detail::format(
            "no healthy shard for model '%s' (every engine evicted)",
            me.name.c_str()));
    }
    if (target < 0) {
        if (metrics::Counter *c = shedCounter(cls))
            c->inc();
        const auto &classes = clsMonitor_.options().classes;
        return Status::unavailable(detail::format(
            "front door shed deadline class '%s' (cluster occupancy "
            "over threshold)",
            classes[std::min<size_t>(cls, classes.size() - 1)]
                .name.c_str()));
    }
    // The model's service time plus any weight-reload charge, folded
    // into the shard's per-request service override.
    auto forward = [&](size_t shard) {
        Shard &s = *shards_[shard];
        WeightCharge wc =
            touchWeights(shard, model, modelTiles(model, s.group));
        if (ShardMetrics *sm = metricsOf(shard)) {
            if (wc.touch.hit) {
                sm->cacheHits->inc();
            } else {
                sm->cacheMisses->inc();
                sm->cacheEvictions->add(wc.touch.evictions);
                sm->reloadUs->add(wc.us);
            }
        }
        double base_ms = req.serviceMsOverride > 0
                             ? req.serviceMsOverride
                             : modelServiceMs(model, s.group, steps);
        return s.engine->submit(
            serve::Request::timed(steps, deadline_ms, base_ms + wc.ms));
    };
    if (ShardMetrics *sm = metricsOf(static_cast<size_t>(target)))
        sm->routed->inc();
    Expected<std::future<serve::Response>> primary =
        forward(static_cast<size_t>(target));
    if (opts_.hedgeMs < 0 || !primary.ok())
        return primary;

    // Hedged duplicate dispatch: tie the request to the least-loaded
    // other healthy shard and let the first response win. Live
    // cancellation is advisory — the loser's service still completes
    // on its engine (and shows in that shard's series); the caller
    // only ever sees the winner.
    int32_t alt = hedgeTarget(liveLoads(), static_cast<size_t>(target));
    if (alt < 0)
        return primary;
    Expected<std::future<serve::Response>> hedge =
        forward(static_cast<size_t>(alt));
    if (!hedge.ok())
        return primary;
    if (ShardMetrics *hsm = metricsOf(static_cast<size_t>(alt)))
        hsm->routed->inc();
    if (hedgeAttemptsC_)
        hedgeAttemptsC_->inc();

    std::future<serve::Response> f1 = std::move(primary.value());
    std::future<serve::Response> f2 = std::move(hedge.value());
    return std::async(
        std::launch::deferred,
        [this, f1 = std::move(f1), f2 = std::move(f2)]() mutable {
            // First-wins poll over both futures; a successful response
            // beats a failed one regardless of arrival order.
            while (true) {
                if (f1.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    serve::Response r1 = f1.get();
                    if (r1.status.ok()) {
                        if (hedgeCancelledC_)
                            hedgeCancelledC_->inc();
                        return r1;
                    }
                    serve::Response r2 = f2.get();
                    if (r2.status.ok()) {
                        if (hedgeWinsC_)
                            hedgeWinsC_->inc();
                        return r2;
                    }
                    return r1;
                }
                if (f2.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    serve::Response r2 = f2.get();
                    if (r2.status.ok()) {
                        if (hedgeWinsC_)
                            hedgeWinsC_->inc();
                        if (hedgeCancelledC_)
                            hedgeCancelledC_->inc();
                        return r2;
                    }
                    serve::Response r1 = f1.get();
                    return r1;
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
            }
        });
}

void
Cluster::drain()
{
    for (auto &s : shards_)
        s->engine->drain();
}

void
Cluster::shutdown()
{
    for (auto &s : shards_)
        s->engine->shutdown();
}

bool
Cluster::accepting() const
{
    for (const auto &s : shards_) {
        if (!s->engine->accepting())
            return false;
    }
    return true;
}

// --- Introspection ---

Json
Cluster::engineSloJson(unsigned engine) const
{
    BW_ASSERT(engine < shards_.size(), "engine %u out of range", engine);
    return shards_[engine]->slo->sloJson();
}

Json
Cluster::engineFlightJson(unsigned engine) const
{
    BW_ASSERT(engine < shards_.size(), "engine %u out of range", engine);
    // No chain-profile source: the shards are model-less engines, so
    // promoted records carry no chain leaves (the Engine::flightJson
    // degeneracy).
    return obs::flightJson(*shards_[engine]->flight);
}

Json
Cluster::engineCacheJson(unsigned engine) const
{
    BW_ASSERT(engine < shards_.size(), "engine %u out of range", engine);
    return shards_[engine]->cache.toJson();
}

Json
Cluster::debugClusterJson() const
{
    Json j = Json::object();
    j.set("engines", static_cast<uint64_t>(shards_.size()));
    j.set("model_count", static_cast<uint64_t>(models_.size()));
    j.set("policy", routePolicyName(router_->options().policy));
    j.set("routed", router_->tally().routed);
    j.set("shed", router_->tally().shed);
    Json groups = Json::array();
    for (const ReplicaGroupSpec &g : opts_.groups) {
        Json gj = Json::object();
        gj.set("name", g.name);
        gj.set("config", g.config.name);
        gj.set("engines", g.engines);
        gj.set("replicas", g.engine.replicas);
        gj.set("queue_depth", static_cast<uint64_t>(g.engine.queueDepth));
        groups.push(std::move(gj));
    }
    j.set("groups", std::move(groups));
    Json shards = Json::array();
    for (const auto &sp : shards_) {
        Json sj = Json::object();
        sj.set("label", sp->label);
        sj.set("group", opts_.groups[sp->group].name);
        sj.set("accepting", sp->engine->accepting());
        sj.set("healthy", sp->healthy);
        sj.set("queued", static_cast<uint64_t>(sp->engine->queueSize()));
        sj.set("cache", sp->cache.toJson());
        shards.push(std::move(sj));
    }
    j.set("shards", std::move(shards));
    Json models = Json::array();
    for (size_t m = 0; m < models_.size(); ++m) {
        Json mj = Json::object();
        mj.set("id", static_cast<uint64_t>(m));
        mj.set("name", models_[m].name);
        mj.set("timed", models_[m].timed);
        Json tiles = Json::array();
        for (size_t gi = 0; gi < opts_.groups.size(); ++gi)
            tiles.push(modelTiles(static_cast<uint32_t>(m), gi));
        mj.set("tiles_per_group", std::move(tiles));
        models.push(std::move(mj));
    }
    j.set("models", std::move(models));
    return j;
}

void
Cluster::exposeDebug(metrics::MetricsHttpServer &srv)
{
    srv.setReadiness([this] { return accepting(); });
    srv.handleJson("/debug/cluster",
                   [this] { return debugClusterJson().dump(2); });
    srv.handleJson("/route.json",
                   [this] { return routeJson().dump(2); });
    srv.handleJson("/slo.json", [this] { return sloJson().dump(2); });
    srv.handleText("/fleet/metrics",
                   "text/plain; version=0.0.4; charset=utf-8",
                   [this] { return fleetMetricsText(); });
    srv.handleJson("/fleet/metrics.json",
                   [this] { return fleetMetricsJson().dump(2); });
    srv.handleJson("/fleet/slo.json",
                   [this] { return fleetSloJson().dump(2); });
    srv.handleJson("/debug/audit",
                   [this] { return auditJson().dump(2); });
    srv.handleJson("/fleet/incidents.json",
                   [this] { return incidentsJson().dump(2); });
    srv.handleJson("/debug/chaos",
                   [this] { return chaos_.toJson().dump(2); });
    srv.handleStream(
        "/fleet/spans.ndjson",
        [this](const metrics::MetricsHttpServer::StreamSink &sink) {
            if (opts_.spanTracer)
                obs::streamSpanTreesNdjson(*opts_.spanTracer, sink);
            else
                obs::streamSpanTreesNdjson({}, 0, sink);
        });
    for (unsigned i = 0; i < shards_.size(); ++i) {
        std::string base = "/engine/" + std::to_string(i);
        srv.handleJson(base + "/slo.json", [this, i] {
            return engineSloJson(i).dump(2);
        });
        srv.handleJson(base + "/flight.json", [this, i] {
            return engineFlightJson(i).dump(2);
        });
        srv.handleJson(base + "/cache.json", [this, i] {
            return engineCacheJson(i).dump(2);
        });
        srv.handleJson(base + "/metrics.json", [this, i] {
            return metrics::metricsJson(*shards_[i]->registry).dump(2);
        });
        srv.handleJson(base + "/debug/config", [this, i] {
            return shards_[i]->engine->debugConfigJson().dump(2);
        });
        srv.handleStream(
            base + "/flight.ndjson",
            [this, i](const metrics::MetricsHttpServer::StreamSink &sink) {
                obs::streamFlightNdjson(*shards_[i]->flight, sink);
            });
    }
}

} // namespace cluster
} // namespace bw
