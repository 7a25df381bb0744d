#include "cluster/router.h"

#include <algorithm>

#include "common/logging.h"

namespace bw {
namespace cluster {

namespace {

/// FNV-1a over a byte string — stable across platforms and runs, which
/// is what keeps the hash ring (and therefore consistent_hash routing)
/// reproducible between replays and between builds.
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnv1aMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

const char *
routePolicyName(RoutePolicy p)
{
    switch (p) {
    case RoutePolicy::ConsistentHash:
        return "consistent_hash";
    case RoutePolicy::LeastLoaded:
        return "least_loaded";
    case RoutePolicy::SloAware:
        return "slo_aware";
    }
    return "unknown";
}

Expected<RoutePolicy>
routePolicyFromName(const std::string &name)
{
    if (name == "consistent_hash")
        return RoutePolicy::ConsistentHash;
    if (name == "least_loaded")
        return RoutePolicy::LeastLoaded;
    if (name == "slo_aware")
        return RoutePolicy::SloAware;
    return Status::invalidArgument(
        detail::format("unknown route policy '%s' (want consistent_hash, "
                       "least_loaded or slo_aware)",
                       name.c_str()));
}

std::vector<double>
RouterOptions::defaultShedAt(size_t classes)
{
    // The most urgent class is never shed at the front door (occupancy
    // cannot reach 2.0); each class below it sheds earlier, so under
    // saturation the tail classes degrade first.
    std::vector<double> at(classes, 2.0);
    for (size_t c = 1; c < classes; ++c)
        at[c] = std::max(0.5, 0.9 - 0.2 * static_cast<double>(c - 1));
    return at;
}

Router::Router(RouterOptions opts, unsigned engines, size_t slo_classes)
    : opts_(std::move(opts)),
      engines_(engines > 0 ? engines : 1),
      shedByClass_(slo_classes > 0 ? slo_classes : 1, 0)
{
    shedAt_ = opts_.shedAt.empty()
                  ? RouterOptions::defaultShedAt(shedByClass_.size())
                  : opts_.shedAt;
    shedAt_.resize(shedByClass_.size(), shedAt_.back());

    unsigned vnodes = std::max(1u, opts_.virtualNodes);
    ring_.reserve(static_cast<size_t>(engines_) * vnodes);
    for (uint32_t e = 0; e < engines_; ++e) {
        for (unsigned v = 0; v < vnodes; ++v) {
            uint64_t h = fnv1aMix(fnv1aMix(14695981039346656037ull, e),
                                  v + 1);
            ring_.push_back(RingPoint{h, e});
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const RingPoint &a, const RingPoint &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.engine < b.engine;
              });
}

double
Router::shedThreshold(uint32_t cls) const
{
    return shedAt_[std::min<size_t>(cls, shedAt_.size() - 1)];
}

int32_t
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

int32_t
Router::ringWalk(const std::string &model_name,
                 const std::vector<EngineLoad> &loads) const
{
    uint64_t h = fnv1a(model_name);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const RingPoint &p, uint64_t v) { return p.hash < v; });
    // Walk the ring forward past evicted engines — the rehash is a
    // pure function of (ring, health set), so replays and the
    // determinism tests see identical re-placements.
    for (size_t step = 0; step < ring_.size(); ++step, ++it) {
        if (it == ring_.end())
            it = ring_.begin(); // wrap around the ring
        if (loads[it->engine].healthy)
            return static_cast<int32_t>(it->engine);
    }
    return -2; // every engine evicted
}

int32_t
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

    if (engine == -2) {
        ++unavailable_;
    } else if (engine < 0) {
        ++shed_;
        ++shedByClass_[std::min<size_t>(cls, shedByClass_.size() - 1)];
    } else {
        ++routed_;
    }
    RouteDecision decision{seq, model, cls, engine};
    if (sink_)
        sink_(decision); // streaming export sees every decision
    if (log_.size() < opts_.logCapacity)
        log_.push_back(decision);
    else
        ++logDropped_;
    return engine;
}

Json
Router::decisionsJson() const
{
    Json j = Json::object();
    j.set("schema", "bw.route/1");
    j.set("policy", routePolicyName(opts_.policy));
    j.set("engines", engines_);
    j.set("routed", routed_);
    j.set("shed", shed_);
    j.set("unavailable", unavailable_);
    j.set("log_dropped", logDropped_);
    Json by_class = Json::array();
    for (uint64_t c : shedByClass_)
        by_class.push(c);
    j.set("shed_by_class", std::move(by_class));
    Json rows = Json::array();
    rows.reserve(log_.size());
    for (const RouteDecision &d : log_) {
        Json r = Json::object();
        r.reserve(4);
        r.set("seq", d.seq);
        r.set("model", d.model);
        r.set("class", d.cls);
        r.set("engine", d.engine);
        rows.push(std::move(r));
    }
    j.set("decisions", std::move(rows));
    return j;
}

void
Router::clear()
{
    log_.clear();
    routed_ = 0;
    shed_ = 0;
    unavailable_ = 0;
    logDropped_ = 0;
    std::fill(shedByClass_.begin(), shedByClass_.end(), 0);
}

Status
validateRouteJson(const Json &doc)
{
    const Json *schema = doc.find("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != "bw.route/1")
        return Status::invalidArgument("schema tag is not bw.route/1");
    for (const char *key :
         {"policy", "engines", "routed", "shed", "unavailable",
          "log_dropped", "shed_by_class", "decisions"}) {
        if (!doc.contains(key))
            return Status::invalidArgument(
                detail::format("missing field '%s'", key));
    }
    if (!routePolicyFromName(doc.find("policy")->asString()).ok())
        return Status::invalidArgument(
            detail::format("unknown policy '%s'",
                           doc.find("policy")->asString().c_str()));
    int64_t engines = doc.find("engines")->asInt();
    if (engines < 1)
        return Status::invalidArgument("engines must be >= 1");
    uint64_t routed = 0, shed = 0, unavailable = 0;
    const Json *rows = doc.find("decisions");
    for (size_t i = 0; i < rows->size(); ++i) {
        const Json &r = rows->at(i);
        for (const char *key : {"seq", "model", "class", "engine"}) {
            if (!r.contains(key))
                return Status::invalidArgument(detail::format(
                    "decision %zu missing field '%s'", i, key));
        }
        int64_t engine = r.find("engine")->asInt();
        if (engine < -2 || engine >= engines)
            return Status::invalidArgument(detail::format(
                "decision %zu engine %lld out of range [-2, %lld)", i,
                static_cast<long long>(engine),
                static_cast<long long>(engines)));
        if (engine == -2)
            ++unavailable;
        else if (engine < 0)
            ++shed;
        else
            ++routed;
    }
    uint64_t dropped =
        static_cast<uint64_t>(doc.find("log_dropped")->asInt());
    uint64_t logged_total = routed + shed + unavailable + dropped;
    uint64_t counted =
        static_cast<uint64_t>(doc.find("routed")->asInt()) +
        static_cast<uint64_t>(doc.find("shed")->asInt()) +
        static_cast<uint64_t>(doc.find("unavailable")->asInt());
    if (logged_total != counted)
        return Status::invalidArgument(detail::format(
            "decision rows (%llu) + dropped (%llu) != routed + shed + "
            "unavailable (%llu)",
            static_cast<unsigned long long>(routed + shed + unavailable),
            static_cast<unsigned long long>(dropped),
            static_cast<unsigned long long>(counted)));
    uint64_t by_class = 0;
    const Json *bc = doc.find("shed_by_class");
    for (size_t i = 0; i < bc->size(); ++i)
        by_class += static_cast<uint64_t>(bc->at(i).asInt());
    if (by_class != static_cast<uint64_t>(doc.find("shed")->asInt()))
        return Status::invalidArgument(
            "shed_by_class does not sum to shed");
    return Status();
}

} // namespace cluster
} // namespace bw
