/**
 * @file
 * Incident timelines: the failure-domain counterpart of the flight
 * recorder.
 *
 * The chaos plane (cluster/chaos.h) injects faults into the cluster in
 * virtual time; this layer records what the serving side did about each
 * one as an ordered phase timeline —
 *
 *   fault_injected -> detected -> evicted -> rewarm_started -> recovered
 *
 * — every stamp in microseconds of the replay clock, never a wall
 * clock. An incident is a pure function of (chaos seed, virtual time):
 * the fault fires at its scheduled instant, detection lags by the
 * configured health-check interval, eviction is immediate on detection,
 * and recovery lands when the fault window closes plus (for crashes)
 * the weight-cache re-warm charged through the DRAM reload model. Two
 * replays under one schedule therefore export byte-identical
 * bw.incident/1 documents — the same determinism contract as the
 * bw.route/1 and bw.flight/1 exports.
 *
 * Shards and fault classes are plain strings here, not cluster types:
 * the obs layer sits below bw_cluster and must not look upward.
 */

#ifndef BW_OBS_INCIDENT_H
#define BW_OBS_INCIDENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "obs/fields.h"

namespace bw {
namespace obs {

inline constexpr const char *kIncidentSchema = "bw.incident/1";

/** Lifecycle phases of one incident, in canonical order. Not every
 *  incident visits every phase: a slow-replica fault is never evicted
 *  (fault_injected -> recovered), and only crashes re-warm. */
enum class IncidentPhase : uint8_t
{
    FaultInjected = 0, //!< the chaos schedule fired the fault
    Detected,          //!< health checking noticed (fault + detect lag)
    Evicted,           //!< the router stopped placing work on the shard
    RewarmStarted,     //!< weight-cache reload began (crash only)
    Recovered,         //!< the shard rejoined the healthy set
    NumIncidentPhases
};

const char *incidentPhaseName(IncidentPhase p);

namespace field {
inline constexpr FieldType PhaseName = Name([](const std::string &s) {
    return knownName(s, incidentPhaseName, IncidentPhase::NumIncidentPhases);
});
} // namespace field

/** One phase stamp of an incident timeline. */
struct IncidentEvent
{
    IncidentPhase phase = IncidentPhase::FaultInjected;
    uint64_t tUs = 0; //!< virtual-time stamp, microseconds
};

#define BW_INCIDENT_EVENT_FIELDS(N, e)                                   \
    N("phase", incidentPhaseName(e.phase), PhaseName, always)            \
    N("t_us", e.tUs, Uint, always)

/** One fault's full story: identity, phase timeline, blast radius. */
struct Incident
{
    uint64_t id = 0;     //!< 1-based, assigned by IncidentLog::open
    std::string cls;     //!< fault class name ("crash", "hang", ...)
    std::string shard;   //!< shard label ("s10/0")
    std::string group;   //!< replica-group name ("s10")
    uint64_t affected = 0;    //!< requests that hit the faulted shard
    uint64_t reloadTiles = 0; //!< weight tiles re-streamed on re-warm
    uint64_t reloadUs = 0;    //!< simulated re-warm DRAM time
    std::vector<IncidentEvent> events;

    /** Stamp of the first / last recorded phase (0 when empty). */
    uint64_t openedUs() const
    {
        return events.empty() ? 0 : events.front().tUs;
    }
    uint64_t closedUs() const
    {
        return events.empty() ? 0 : events.back().tUs;
    }
    /** Fault-to-terminal-phase gap: the MTTR numerator. */
    uint64_t mttrUs() const { return closedUs() - openedUs(); }
};

#define BW_INCIDENT_FIELDS(N, inc, events)                               \
    N("id", inc.id, Uint, always)                                        \
    N("class", inc.cls, Str, always)                                     \
    N("shard", inc.shard, Str, always)                                   \
    N("group", inc.group, Str, always)                                   \
    N("affected", inc.affected, Uint, always)                            \
    N("reload_tiles", inc.reloadTiles, Uint, always)                     \
    N("reload_us", inc.reloadUs, Uint, always)                           \
    N("mttr_us", inc.mttrUs(), Uint, always)                             \
    N("events", events, Arr, always)

/// The bw.incident/1 document.
#define BW_INCIDENT_DOC_FIELDS(N, faults, incidents)                     \
    N("schema", obs::kIncidentSchema, Tag(obs::kIncidentSchema), always) \
    N("faults", faults, Uint, always)                                    \
    N("incidents", incidents, Arr, always)

/**
 * Append-only incident journal. Not thread-safe: the cluster records
 * incidents from its single-threaded replay loop (live serving takes
 * the routing lock). clear() restarts it between replays so two
 * replays of one schedule export byte-identically.
 */
class IncidentLog
{
  public:
    /** Open a new incident at its fault_injected stamp; returns the
     *  1-based incident id. */
    uint64_t open(std::string cls, std::string shard, std::string group,
                  uint64_t t_us);

    /** Append a phase stamp to incident @p id. */
    void event(uint64_t id, IncidentPhase phase, uint64_t t_us);

    /** Count one request caught by incident @p id's fault window. */
    void addAffected(uint64_t id) { ++at(id).affected; }

    /** Record the re-warm charge of incident @p id (crash faults). */
    void setReload(uint64_t id, uint64_t tiles, uint64_t us)
    {
        at(id).reloadTiles = tiles;
        at(id).reloadUs = us;
    }

    const std::vector<Incident> &incidents() const { return log_; }
    size_t faults() const { return log_.size(); }

    /** Drop everything (between replays). */
    void clear() { log_.clear(); }

  private:
    Incident &at(uint64_t id);

    std::vector<Incident> log_;
};

/**
 * The log as a bw.incident/1 document (BW_INCIDENT_DOC_FIELDS, one
 * BW_INCIDENT_FIELDS entry per incident). Deterministic for a
 * deterministic log.
 */
Json incidentJson(const IncidentLog &log);

/**
 * Structural validator for a bw.incident/1 document: the field tables,
 * faults equal to the incident count, every incident's first phase is
 * fault_injected, stamps are monotonically non-decreasing, the
 * terminal phase is recovered or evicted (every fault is paired with a
 * resolution), and mttr_us equals the first-to-last stamp gap. Returns OK or
 * InvalidArgument naming the first violation.
 */
Status validateIncidentJson(const Json &doc);

} // namespace obs
} // namespace bw

#endif // BW_OBS_INCIDENT_H
