/**
 * @file
 * Fleet observability plane: cross-shard metric federation, a
 * cluster-level SLO rollup, and bounded-memory NDJSON streaming exports.
 *
 * The paper's deployment (Section II, Fig. 1) is operated as one
 * system: hyperscale services are monitored at fleet granularity, not
 * per-FPGA. Below this layer every engine shard keeps its own metrics
 * registry, flight recorder and SLO monitor precisely so that the
 * unlabeled bw_serve_* series of two engines never collide; the fleet
 * plane is where they are allowed to meet again, with the identity that
 * was implicit in the shard made explicit as labels:
 *
 *   - FleetRegistry federates the per-shard registries (PR 3) plus the
 *     cluster-level registry into one snapshot stream: every shard
 *     series gains {shard="s10/0", group="s10"} labels, cluster series
 *     (bw_cluster_*, already labeled by engine/model/class) pass
 *     through untouched. Families are regrouped by first appearance so
 *     the merged exposition stays valid Prometheus text (one # TYPE
 *     per family). Served at /fleet/metrics and /fleet/metrics.json.
 *   - sloRollupJson() aggregates every shard monitor's bw.slo/1
 *     evaluation per deadline class — lifetime counters and window
 *     good/bad counts are summed, then serve::finishClassEval and the
 *     bw.slo/1 writer (serve/slo.h) finish and write the fleet sums —
 *     so the multi-window page alert fires on fleet-wide burn, not on
 *     one noisy shard. Each
 *     shard is evaluated at its own high-water mark (shard clocks are
 *     independent); the rollup's evaluated_at_us is the fleet maximum.
 *   - Streaming exports replace the materialized in-memory logs for
 *     multi-million-request replays: RouteStreamWriter emits one
 *     bw.routestream/1 NDJSON line per routing decision as it is made
 *     (O(1) memory regardless of trace length), and the span/flight
 *     streamers render one trace/record per line from the bounded
 *     rings. Every stream ends in a summary line whose counters the
 *     validators check — a truncated stream is detected, not silently
 *     accepted.
 *
 * Everything here is deterministic for deterministic input: federation
 * order is registration order x collect() order, the rollup is a pure
 * function of shard snapshots, and stream lines are compact dumps of
 * ordered Json objects.
 */

#ifndef BW_OBS_FLEET_H
#define BW_OBS_FLEET_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "obs/flight.h"
#include "obs/route.h"
#include "obs/span.h"
#include "serve/slo.h"

namespace bw {
namespace obs {

inline constexpr const char *kRouteStreamSchema = "bw.routestream/1";
inline constexpr const char *kSpanStreamSchema = "bw.spanstream/1";
inline constexpr const char *kFlightStreamSchema = "bw.flightstream/1";

/// The member that marks a stream's summary trailer line.
#define BW_STREAM_SUMMARY_FIELDS(N) N("summary", true, Bool, always)

/// The bw.routestream/1 trailer over RouteTally t.
#define BW_ROUTE_TRAILER_FIELDS(N, t)                                    \
    BW_STREAM_SUMMARY_FIELDS(N)                                          \
    N("rows", t.total(), Uint, always)                                   \
    N("routed", t.routed, Uint, always)                                  \
    N("shed", t.shed, Uint, always)                                      \
    N("shed_by_class", countsJson(t.shedByClass), Counts, always)        \
    N("unavailable", t.unavailable, Uint, when(t.unavailable > 0))

/// The bw.spanstream/1 header line and trailer.
#define BW_SPAN_STREAM_HEADER_FIELDS(N)                                  \
    N("schema", obs::kSpanStreamSchema, Tag(obs::kSpanStreamSchema), always)
#define BW_SPAN_STREAM_TRAILER_FIELDS(N, counts, dropped)                \
    BW_STREAM_SUMMARY_FIELDS(N)                                          \
    N("traces", counts.traces, Uint, always)                             \
    BW_SPAN_TALLY_FIELDS(N, counts, dropped)

/// A bw.flightstream/1 row's member after the record's own, and the
/// stream's trailer.
#define BW_FLIGHT_ROW_FIELDS(N, spans) N("spans", spans, Obj, always)
#define BW_FLIGHT_STREAM_TRAILER_FIELDS(N, promoted, recorded, dropped)  \
    BW_STREAM_SUMMARY_FIELDS(N)                                          \
    N("promoted", promoted, Uint, always)                                \
    BW_FLIGHT_TALLY_FIELDS(N, recorded, dropped)

/** One engine shard's observability sources (all non-owning). */
struct FleetShardSource
{
    std::string shard; //!< shard label, e.g. "s10/0"
    std::string group; //!< replica-group label, e.g. "s10"
    const metrics::Registry *registry = nullptr;
    const serve::SloMonitor *slo = nullptr;
};

/**
 * Cross-shard metric federation. Registration order is export order;
 * register once at cluster construction, then federate at scrape time
 * (snapshots are taken live, so the fleet view is as fresh as the
 * per-shard views it merges).
 */
class FleetRegistry
{
  public:
    /** Cluster-level registry (bw_cluster_* series), passed through
     *  without extra labels (non-owning; may be null). */
    void setClusterRegistry(const metrics::Registry *registry);

    /** Register one shard's registry + SLO monitor under its labels. */
    void addShard(std::string shard, std::string group,
                  const metrics::Registry *registry,
                  const serve::SloMonitor *slo = nullptr);

    size_t shardCount() const { return shards_.size(); }

    /**
     * The federated snapshot: cluster series first, then every shard's
     * series with {shard, group} labels appended, regrouped family-
     * major (order of first appearance) so prometheusText() emits one
     * # HELP / # TYPE pair per family.
     */
    std::vector<metrics::MetricSnapshot> federate() const;

    /** federate() rendered as Prometheus text (/fleet/metrics). */
    std::string prometheus() const;

    /** federate() rendered as ordered Json (/fleet/metrics.json). */
    Json metricsJson() const;

    /**
     * Fleet SLO rollup, schema bw.slo/1 (validateSloJson-clean):
     * per-class lifetime counters and window good/bad sums across every
     * registered shard monitor, finished by serve::finishClassEval and
     * written by serve::sloDocJson with a "shards" member after
     * evaluated_at_us. Objectives, windows and the class
     * ladder come from the first shard monitor (the cluster shares one
     * SloOptions across shards). evaluated_at_us is the fleet-wide
     * high-water mark.
     */
    Json sloRollupJson() const;

  private:
    const metrics::Registry *cluster_ = nullptr;
    std::vector<FleetShardSource> shards_;
};

// --- Streaming NDJSON exports ---

/**
 * Chunk sink for streaming exports: return false to abort the stream
 * (client hung up, disk full) — the writer stops producing. Chunks are
 * whole NDJSON lines, terminated with '\n'.
 */
using StreamSink = std::function<bool(const std::string &chunk)>;

/**
 * Streaming router-decision log, schema bw.routestream/1. Wire format,
 * one JSON object per line:
 *
 *   {"schema":"bw.routestream/1","policy":"...","engines":N}   header
 *   {"seq":1,"model":0,"class":0,"engine":2}                   per row
 *   {"summary":true,"rows":R,"routed":...,"shed":...,
 *    "shed_by_class":[...][,"unavailable":U]}                  trailer
 *
 * Engine -1 is a front-door shed, counted in shed and shed_by_class;
 * engine -2 (no healthy shard left) is unavailable, not a shed, as the
 * Router counts it. The trailer writes unavailable only when some row
 * was, so a stream without any keeps its bytes.
 *
 * The writer holds O(1) state (counters and a reused row buffer) no
 * matter how many decisions flow through it — this is the export that
 * replaces the materialized Router decision log for multi-million-
 * request replays. Attach it to Cluster::setDecisionSink().
 */
class RouteStreamWriter
{
  public:
    /** Writes the header line immediately. @p classes sizes the
     *  shed_by_class summary vector (the SLO class ladder). */
    RouteStreamWriter(StreamSink sink, std::string policy,
                      unsigned engines, size_t classes);

    /** Emit one decision row (engine -1 = front-door shed, -2 =
     *  unavailable). Returns false once the sink has aborted; further
     *  calls are no-ops. */
    bool decision(uint64_t seq, uint32_t model, uint32_t cls,
                  int32_t engine);

    /** Emit the summary trailer. Idempotent; returns false when the
     *  sink aborted earlier. */
    bool finish();

    uint64_t rows() const { return tally_.total(); }
    uint64_t bytes() const { return bytes_; }
    bool failed() const { return failed_; }

  private:
    bool emit(const std::string &line);

    StreamSink sink_;
    std::string row_; //!< decision()'s line, reused row to row
    RouteTally tally_;
    uint64_t bytes_ = 0;
    bool failed_ = false;
    bool finished_ = false;
};

/**
 * Validate a bw.routestream/1 NDJSON stream in O(1) memory (line by
 * line): header schema and engine count, per-row required fields and
 * engine range, and the summary trailer's counters against the counted
 * rows. A stream that ends without the trailer — or whose final line is
 * a truncated JSON fragment — is invalid.
 */
Status validateRouteStreamJson(std::istream &in);

/**
 * Stream the span-tree export as NDJSON, schema bw.spanstream/1: a
 * header line, then one complete trace tree per line (the traces[i]
 * object of spanTreeJson), then a summary trailer {"summary":true,
 * "traces":T,"spans":S,"dropped":D}. Memory is bounded by the largest
 * single trace, not the export size.
 */
Status streamSpanTreesNdjson(const std::vector<SpanRecord> &spans,
                             uint64_t dropped, const StreamSink &sink);

/** streamSpanTreesNdjson(tracer.collect(), tracer.dropped(), sink). */
Status streamSpanTreesNdjson(const SpanTracer &tracer,
                             const StreamSink &sink);

/** Line-by-line validator for a bw.spanstream/1 stream: header tag,
 *  one object per line with ascending trace ids and a root object,
 *  and the summary trailer's counts against the counted lines. */
Status validateSpanStreamJson(std::istream &in);

/**
 * Stream the promoted flight log as NDJSON, schema bw.flightstream/1: a
 * header line, then one promoted record per line (the flightJson record
 * fields plus an embedded single-trace "spans" document), then a
 * summary trailer {"summary":true,"promoted":P,"recorded":R,
 * "dropped":D}. Memory is bounded by one record's span tree.
 */
Status streamFlightNdjson(const FlightRecorder &recorder,
                          const StreamSink &sink);

/** Line-by-line validator for a bw.flightstream/1 stream. */
Status validateFlightStreamJson(std::istream &in);

/** Dispatch on an NDJSON stream's header schema tag (bw.routestream/1,
 *  bw.spanstream/1 or bw.flightstream/1) and run the matching
 *  validator. The bw_spans `validate-stream` mode. */
Status validateStreamFile(const std::string &path);

} // namespace obs
} // namespace bw

#endif // BW_OBS_FLEET_H
