/**
 * @file
 * The front-door routing record, shared by the cluster router's
 * bw.route/1 document and the streamed bw.routestream/1 log: one
 * decision, the tally every writer and validator counts decisions with,
 * and the field tables (obs/fields.h) of the header and the decision row.
 */

#ifndef BW_OBS_ROUTE_H
#define BW_OBS_ROUTE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/fields.h"

namespace bw {
namespace obs {

/** One logged routing decision. */
struct RouteDecision
{
    uint64_t seq = 0;   //!< cluster-wide submission number (1-based)
    uint32_t model = 0;
    uint32_t cls = 0;   //!< deadline class index (SloMonitor ladder)
    /** Target engine; -1 = shed at the front door, -2 = no healthy
     *  engine left (the request is unavailable, not load-shed). */
    int32_t engine = -1;
};

/**
 * The one counting rule for decisions: engine -2 is unavailable, any
 * other negative engine a front-door shed (also counted per class, the
 * last class absorbing larger indices), every other engine routed.
 */
struct RouteTally
{
    explicit RouteTally(size_t classes = 1)
        : shedByClass(std::max<size_t>(classes, 1), 0)
    {
    }

    void
    add(int32_t engine, uint32_t cls)
    {
        if (engine == -2) {
            ++unavailable;
        } else if (engine < 0) {
            ++shed;
            ++shedByClass[std::min<size_t>(cls, shedByClass.size() - 1)];
        } else {
            ++routed;
        }
    }

    uint64_t total() const { return routed + shed + unavailable; }

    uint64_t routed = 0;
    uint64_t shed = 0;
    uint64_t unavailable = 0;
    std::vector<uint64_t> shedByClass;
};

/// The bw.route/1 document head and the bw.routestream/1 header line.
#define BW_ROUTE_HEADER_FIELDS(N, tag, policy, engines)                  \
    N("schema", tag, Tag(tag), always)                                   \
    N("policy", policy, Str, always)                                     \
    N("engines", engines, Pos, always)

/// One decision: a bw.route/1 decisions[i] entry, a bw.routestream/1 row.
#define BW_ROUTE_ROW_FIELDS(N, d)                                        \
    N("seq", d.seq, Uint, always)                                        \
    N("model", d.model, Uint, always)                                    \
    N("class", d.cls, Uint, always)                                      \
    N("engine", d.engine, Int, always)

/**
 * Check one decision row against BW_ROUTE_ROW_FIELDS and the engine
 * range [-2, @p engines), then add it to @p tally.
 */
Status tallyRouteRow(const Json &row, int64_t engines, RouteTally *tally);

} // namespace obs
} // namespace bw

#endif // BW_OBS_ROUTE_H
