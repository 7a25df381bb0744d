/**
 * @file
 * Cluster front-door router: pluggable request-to-engine policies plus
 * SLO-aware admission.
 *
 * The paper's Fig. 1 front end routes requests to network-attached
 * accelerators; this router reproduces the three policies that matter
 * for the serving argument:
 *
 *   - consistent_hash: requests for one model always land on the same
 *     engine (a hash ring with virtual nodes), maximizing weight-cache
 *     affinity but blind to load — a hot model melts its engine while
 *     neighbors idle.
 *   - least_loaded: pick the engine with the fewest queued + in-flight
 *     requests (the queue-depth / inflight gauges of the PR 3 metrics
 *     registry under the threaded engine; virtual occupancy under
 *     replay). Spreads hot models at the cost of weight reloads.
 *   - slo_aware: least-loaded placement plus class-aware shedding at
 *     the front door — when cluster occupancy crosses a deadline
 *     class's threshold, that class is shed *before* any engine queue
 *     fills, so best-effort traffic degrades first and interactive
 *     traffic keeps its queue room (instead of the blanket QUEUE_FULL
 *     every class suffers equally).
 *
 * Every decision is appended to a bounded log exportable as a
 * bw.route/1 document; decisions are pure functions of (inputs, ring),
 * so two replays of one trace log byte-identical decisions (tested).
 */

#ifndef BW_CLUSTER_ROUTER_H
#define BW_CLUSTER_ROUTER_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/status.h"
#include "obs/route.h"

namespace bw {
namespace cluster {

inline constexpr const char *kRouteSchema = "bw.route/1";

using obs::RouteDecision;

/// The bw.route/1 document (Router::decisionsJson) over RouteTally t.
#define BW_ROUTE_DOC_FIELDS(N, policy, engines, t, dropped, rows)        \
    BW_ROUTE_HEADER_FIELDS(N, cluster::kRouteSchema, policy, engines)    \
    N("routed", t.routed, Uint, always)                                  \
    N("shed", t.shed, Uint, always)                                      \
    N("unavailable", t.unavailable, Uint, always)                        \
    N("log_dropped", dropped, Uint, always)                              \
    N("shed_by_class", obs::countsJson(t.shedByClass), Counts, always)   \
    N("decisions", rows, Arr, always)

/** Front-door routing policies. */
enum class RoutePolicy : uint8_t
{
    ConsistentHash = 0, //!< hash ring by model: max cache affinity
    LeastLoaded,        //!< fewest queued + inflight requests
    SloAware,           //!< least-loaded + class-aware front-door shed
};

const char *routePolicyName(RoutePolicy p);

/** Parse "consistent_hash" | "least_loaded" | "slo_aware". */
Expected<RoutePolicy> routePolicyFromName(const std::string &name);

/** Router configuration. */
struct RouterOptions
{
    RoutePolicy policy = RoutePolicy::LeastLoaded;

    /** Decision-log capacity; older decisions beyond it are dropped
     *  from the log (counters keep counting). */
    size_t logCapacity = 1u << 16;
};

/** One engine's load as seen by the router at decision time. */
struct EngineLoad
{
    uint64_t queued = 0;        //!< admission-queue occupancy
    uint64_t inflight = 0;      //!< requests in service
    uint64_t queueCapacity = 1; //!< EngineOptions::queueDepth
    /** Health-check verdict: an evicted shard is skipped by every
     *  policy (consistent_hash walks the ring past it). */
    bool healthy = true;
};

/**
 * The front-door router. Not thread-safe: the cluster serializes
 * decisions (replay is single-threaded; live submits take the cluster
 * routing lock).
 */
class Router
{
  public:
    Router(RouterOptions opts, unsigned engines, size_t slo_classes);

    const RouterOptions &options() const { return opts_; }
    unsigned engines() const { return engines_; }

    /**
     * Decide the target engine for one submission. @p model_name feeds
     * the hash ring (stable across runs: FNV-1a over the name);
     * @p loads must have one entry per engine. Returns the engine
     * index, -1 when the slo_aware policy sheds class @p cls at the
     * front door, or -2 when no healthy engine remains (eviction took
     * the whole fleet). Appends to the decision log either way.
     */
    int32_t route(uint64_t seq, uint32_t model,
                  const std::string &model_name, uint32_t cls,
                  const std::vector<EngineLoad> &loads);

    /** Effective shed threshold for class @p cls. */
    double shedThreshold(uint32_t cls) const;

    /** Routed / shed (per class) / unavailable decision counts. */
    const obs::RouteTally &tally() const { return tally_; }
    const std::vector<RouteDecision> &decisions() const
    {
        return log_;
    }

    /**
     * The decision log as a bw.route/1 document: policy, engines,
     * counters, and one row per logged decision. Deterministic for a
     * deterministic decision sequence — the cluster determinism tests
     * compare two replays' documents byte-identically.
     */
    Json decisionsJson() const;

    /** Drop the log and counters (between replays). */
    void clear();

    /** Snapshot of dropped decision-log entries (log overflow). */
    uint64_t logDropped() const { return logDropped_; }

    /**
     * Attach a streaming decision sink: called once per route() with
     * every decision — including front-door sheds — before the bounded
     * log (which may drop) sees it. This is the O(1)-memory export
     * path (obs::RouteStreamWriter); the materialized log stays the
     * introspection window. Pass nullptr to detach.
     */
    void setDecisionSink(std::function<void(const RouteDecision &)> sink)
    {
        sink_ = std::move(sink);
    }

  private:
    struct RingPoint
    {
        uint64_t hash;
        uint32_t engine;
    };

    int32_t leastLoaded(const std::vector<EngineLoad> &loads) const;
    int32_t ringWalk(const std::string &model_name,
                     const std::vector<EngineLoad> &loads) const;

    RouterOptions opts_;
    unsigned engines_;
    obs::RouteTally tally_;
    /** slo_aware per-class shed thresholds: class c is shed when
     *  cluster queue occupancy (total queued / total queue capacity)
     *  reaches shedAt_[c]. */
    std::vector<double> shedAt_;
    std::vector<RingPoint> ring_;
    std::vector<RouteDecision> log_;
    uint64_t logDropped_ = 0;
    std::function<void(const RouteDecision &)> sink_;
};

// route() runs once per replayed request: the decision and every
// load-reading policy are inline, so only consistent_hash's ring walk
// (a hash of the model name) is a call. It is always_inline because
// cluster.cc has no inlining budget left by the time it reaches
// replayOne.

inline double
Router::shedThreshold(uint32_t cls) const
{
    return shedAt_[std::min<size_t>(cls, shedAt_.size() - 1)];
}

inline int32_t
Router::leastLoaded(const std::vector<EngineLoad> &loads) const
{
    uint64_t best = UINT64_MAX;
    int32_t pick = -2; // no healthy engine
    for (size_t e = 0; e < loads.size(); ++e) {
        if (!loads[e].healthy)
            continue; // evicted shards take no new work
        uint64_t occ = loads[e].queued + loads[e].inflight;
        if (occ < best) { // strict: ties go to the lowest index
            best = occ;
            pick = static_cast<int32_t>(e);
        }
    }
    return pick;
}

[[gnu::always_inline]] inline int32_t
Router::route(uint64_t seq, uint32_t model,
              const std::string &model_name, uint32_t cls,
              const std::vector<EngineLoad> &loads)
{
    BW_ASSERT(loads.size() == engines_,
              "router got %zu engine loads, expected %u", loads.size(),
              engines_);
    int32_t engine = -1;
    switch (opts_.policy) {
    case RoutePolicy::ConsistentHash:
        engine = ringWalk(model_name, loads);
        break;
    case RoutePolicy::LeastLoaded:
        engine = leastLoaded(loads);
        break;
    case RoutePolicy::SloAware: {
        // Occupancy over the healthy set only: an evicted shard's
        // capacity is gone, so its empty queue must not mask pressure.
        uint64_t queued = 0, capacity = 0;
        bool anyHealthy = false;
        for (const EngineLoad &l : loads) {
            if (!l.healthy)
                continue;
            anyHealthy = true;
            queued += l.queued;
            capacity += std::max<uint64_t>(l.queueCapacity, 1);
        }
        if (!anyHealthy) {
            engine = -2;
            break;
        }
        double occupancy =
            static_cast<double>(queued) / static_cast<double>(capacity);
        if (occupancy >= shedThreshold(cls))
            engine = -1; // front-door shed: this class yields its slot
        else
            engine = leastLoaded(loads);
        break;
    }
    }

    tally_.add(engine, cls);
    RouteDecision decision{seq, model, cls, engine};
    if (sink_)
        sink_(decision); // streaming export sees every decision
    if (log_.size() < opts_.logCapacity)
        log_.push_back(decision);
    else
        ++logDropped_;
    return engine;
}

/**
 * Structural validator for a bw.route/1 document (decisionsJson):
 * schema tag, counter consistency (routed + shed vs logged + dropped
 * rows), per-decision field ranges against the declared engine count.
 */
Status validateRouteJson(const Json &doc);

} // namespace cluster
} // namespace bw

#endif // BW_CLUSTER_ROUTER_H
