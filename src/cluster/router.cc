#include "cluster/router.h"

#include <algorithm>

#include "common/logging.h"

namespace bw {
namespace cluster {

namespace {

/// Virtual nodes per engine on the consistent-hash ring.
constexpr unsigned kVirtualNodes = 16;

/// slo_aware shed thresholds, one per deadline class: class c is shed
/// when cluster queue occupancy reaches at[c]. The most urgent class is
/// never shed at the front door (occupancy cannot reach 2.0); each
/// class below it sheds earlier (0.9, 0.7, ... down to 0.5), so under
/// saturation the tail classes degrade first.
std::vector<double>
shedThresholds(size_t classes)
{
    std::vector<double> at(classes, 2.0);
    for (size_t c = 1; c < classes; ++c)
        at[c] = std::max(0.5, 0.9 - 0.2 * static_cast<double>(c - 1));
    return at;
}

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

Router::Router(RouterOptions opts, unsigned engines, size_t slo_classes)
    : opts_(std::move(opts)),
      engines_(engines > 0 ? engines : 1),
      tally_(slo_classes),
      shedAt_(shedThresholds(tally_.shedByClass.size()))
{
    ring_.reserve(static_cast<size_t>(engines_) * kVirtualNodes);
    for (uint32_t e = 0; e < engines_; ++e) {
        for (unsigned v = 0; v < kVirtualNodes; ++v) {
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

Json
Router::decisionsJson() const
{
    Json rows = Json::array();
    rows.reserve(log_.size());
    for (const RouteDecision &d : log_) {
        Json out = Json::object();
        out.reserve(4);
        BW_ROUTE_ROW_FIELDS(BW_FIELD_SET, d)
        rows.push(std::move(out));
    }
    return BW_FIELDS_JSON(BW_ROUTE_DOC_FIELDS, routePolicyName(opts_.policy),
                          engines_, tally_, logDropped_, std::move(rows));
}

void
Router::clear()
{
    log_.clear();
    tally_ = obs::RouteTally(tally_.shedByClass.size());
    logDropped_ = 0;
}

Status
validateRouteJson(const Json &doc)
{
    Status st = BW_CHECK_FIELDS(doc, BW_ROUTE_DOC_FIELDS, _, _, _, _, _);
    if (!st.ok())
        return st;
    const std::string &policy = doc.find("policy")->asString();
    if (!routePolicyFromName(policy).ok())
        return Status::invalidArgument(
            detail::format("unknown policy '%s'", policy.c_str()));
    const Json &rows = *doc.find("decisions");
    obs::RouteTally logged;
    for (size_t i = 0; i < rows.size(); ++i) {
        st = obs::tallyRouteRow(rows.at(i), doc.find("engines")->asInt(),
                                &logged);
        if (!st.ok())
            return obs::prefixed(detail::format("decision %zu", i), st);
    }
    auto count = [&doc](const char *key) {
        return static_cast<uint64_t>(doc.find(key)->asInt());
    };
    uint64_t dropped = count("log_dropped");
    uint64_t counted = count("routed") + count("shed") + count("unavailable");
    if (logged.total() + dropped != counted)
        return Status::invalidArgument(detail::format(
            "decision rows (%llu) + dropped (%llu) != routed + shed + "
            "unavailable (%llu)",
            static_cast<unsigned long long>(logged.total()),
            static_cast<unsigned long long>(dropped),
            static_cast<unsigned long long>(counted)));
    uint64_t by_class = 0;
    const Json &bc = *doc.find("shed_by_class");
    for (size_t i = 0; i < bc.size(); ++i)
        by_class += static_cast<uint64_t>(bc.at(i).asInt());
    if (by_class != count("shed"))
        return Status::invalidArgument(
            "shed_by_class does not sum to shed");
    return Status();
}

} // namespace cluster
} // namespace bw
