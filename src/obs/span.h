/**
 * @file
 * Request-scoped span tracing: follow one inference from Session/Engine
 * admission to retired instruction chains.
 *
 * The event trace (obs/trace.h) answers "what did the simulated
 * hardware do" and the metrics registry answers "what are the
 * distributions" — neither can explain why request #4711 took 9 ms when
 * p50 is 2 ms. A SpanTracer assigns each admitted request a trace id
 * and records a span tree:
 *
 *   request                       admission -> completion
 *   +-- queue_wait                admission -> dequeue
 *   +-- dispatch                  dequeue -> service start
 *   +-- execute (replica r)       service start -> completion
 *       +-- chain[i]              per retired chain, from the timing
 *                                 simulator's ChainProfile, each leaf
 *                                 carrying the chain's stall breakdown
 *
 * Context propagates explicitly: a TraceContext rides on the queued
 * request (no thread-local magic), so spans survive the hop from the
 * submitting thread to the worker that serves the request. Head
 * sampling (SpanTracerOptions::sampleEvery, env BW_SPAN_SAMPLE) decides
 * at admission whether a request is traced at all; the decision is a
 * pure function of the deterministic request sequence number, so
 * virtual-time replays reproduce byte-identical exports.
 *
 * Recording takes one uncontended per-shard lock on the hot path: spans
 * land in per-thread ring buffers (common/shard_ring.h, shared with the
 * flight recorder and the metrics registry's thread slots) that are
 * merged and sorted at export time. Like the engine's event trace,
 * collect()/exports are complete once the producers have quiesced
 * (engine drained or shut down).
 *
 * Three exports: Chrome/Perfetto async ("ph":"b"/"e") events that
 * overlay the event-trace timeline, ordered JSON span trees (validated
 * by validateSpanTreeJson), and — via the serving engine — histogram
 * exemplars: the slowest trace id per latency bucket in /metrics.json.
 */

#ifndef BW_OBS_SPAN_H
#define BW_OBS_SPAN_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/json.h"
#include "common/shard_ring.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/fields.h"
#include "obs/trace.h"

namespace bw {
namespace obs {

inline constexpr const char *kSpansSchema = "bw.spans/1";

using TraceId = uint64_t;
using SpanId = uint32_t;

/** Node kinds of the canonical request span tree. */
enum class SpanKind : uint8_t
{
    Request = 0, //!< whole request: admission -> completion
    QueueWait,   //!< admission -> dequeue
    Dispatch,    //!< dequeue -> service start (batch admin, expiry)
    Execute,     //!< service on one accelerator replica
    Chain,       //!< one retired instruction chain within execute
    Route,       //!< cluster front-door routing decision (tree root)
    Hedge,       //!< one hedged dispatch attempt under a route span
    NumSpanKinds
};

const char *spanKindName(SpanKind k);

/** How the request span ended. */
enum class SpanOutcome : uint8_t
{
    Ok = 0,
    DeadlineExpired, //!< waited out its deadline in the queue
    Cancelled,       //!< abandoned by shutdown()
    Rejected,        //!< refused admission (QUEUE_FULL)
    Error,           //!< served, but service reported an error
};

const char *spanOutcomeName(SpanOutcome o);

namespace field {
inline constexpr FieldType SpanOutcomeName = Name([](const std::string &s) {
    return knownName(s, spanOutcomeName,
                     static_cast<SpanOutcome>(int(SpanOutcome::Error) + 1));
});
} // namespace field

/**
 * Trace context carried on a queued request. Propagated explicitly —
 * the submitting thread stamps it at admission, the worker thread reads
 * it at service — never through thread-local state.
 */
struct TraceContext
{
    TraceId trace = 0; //!< 0 = not sampled (tracing off for this request)

    bool sampled() const { return trace != 0; }
};

/**
 * One recorded span. Flat and POD-sized so the hot path can write it
 * into a preallocated ring slot without allocating; trees are
 * reassembled from (trace, parent) at export.
 */
struct SpanRecord
{
    TraceId trace = 0;
    SpanId id = 0;     //!< 1-based, unique within the trace
    SpanId parent = 0; //!< 0 = root
    SpanKind kind = SpanKind::Request;
    SpanOutcome outcome = SpanOutcome::Ok; //!< request spans only
    char chainKind = 0;                    //!< 'M'/'V' on chain spans
    uint32_t index = 0;   //!< replica (execute) / chain ordinal (chain)
    uint32_t chainId = 0; //!< chain spans: first-instruction index
    /** Execute spans: chain profiles available for the request's step
     *  count (larger than the recorded children when truncated). */
    uint32_t chainCount = 0;
    uint64_t startUs = 0; //!< microseconds on the owning clock
    uint64_t endUs = 0;

    // Chain spans: the cycle-domain interval and stall breakdown from
    // the timing simulator's ChainProfile (obs/trace.h).
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    Cycles dispatchCycles = 0; //!< control-processor streaming
    Cycles decodeCycles = 0;   //!< schedule + hierarchical decode
    Cycles dataStallCycles = 0;
    Cycles inputStallCycles = 0;
    Cycles structStallCycles = 0;
    Cycles computeCycles = 0; //!< remainder: useful work
};

/// Every span node's members, then its kind's own, then its children.
#define BW_SPAN_NODE_FIELDS(N, s)                                        \
    N("name", spanName(s), Str, always)                                  \
    N("id", s.id, Pos, always)                                           \
    N("start_us", s.startUs, Uint, always)                               \
    N("end_us", s.endUs, Uint, always)                                   \
    N("dur_us", s.endUs - s.startUs, Uint, always)
#define BW_REQUEST_SPAN_FIELDS(N, s)                                     \
    N("outcome", spanOutcomeName(s.outcome), SpanOutcomeName, always)
#define BW_ROUTE_SPAN_FIELDS(N, s)                                       \
    BW_REQUEST_SPAN_FIELDS(N, s)                                         \
    N("engine", s.index, Uint, always)                                   \
    N("model", s.chainId, Uint, always)
#define BW_HEDGE_SPAN_FIELDS(N, s)                                       \
    BW_REQUEST_SPAN_FIELDS(N, s)                                         \
    N("engine", s.chainId, Uint, always)
#define BW_EXECUTE_SPAN_FIELDS(N, s, kids)                               \
    N("replica", s.index, Uint, always)                                  \
    N("chains", s.chainCount, Pos, when(s.chainCount > 0))               \
    N("chains_truncated", true, Bool, when(s.chainCount > kids))
#define BW_CHAIN_SPAN_FIELDS(N, s)                                       \
    N("chain", s.chainId, Uint, always)                                  \
    N("kind", std::string(1, s.chainKind ? s.chainKind : '?'), Str,      \
      always)                                                            \
    N("start_cycle", s.startCycle, Uint, always)                         \
    N("end_cycle", s.endCycle, Uint, always)                             \
    N("stalls", stallsJson(s), Obj, always)
#define BW_CHAIN_STALL_FIELDS(N, s)                                      \
    N("dispatch", s.dispatchCycles, Uint, always)                        \
    N("decode", s.decodeCycles, Uint, always)                            \
    N("data", s.dataStallCycles, Uint, always)                           \
    N("input", s.inputStallCycles, Uint, always)                         \
    N("struct", s.structStallCycles, Uint, always)                       \
    N("compute", s.computeCycles, Uint, always)
#define BW_SPAN_CHILDREN_FIELDS(N, children)                             \
    N("children", children, Arr, when(children.size() > 0))

/** SpanTracer configuration. */
struct SpanTracerOptions
{
    /** Ring capacity per shard (per recording thread slot); the oldest
     *  spans of a shard are overwritten once its ring is full. */
    size_t shardCapacity = 1u << 14;

    /**
     * Head sampling: trace 1 in every @p sampleEvery admitted requests
     * (1 = every request, 0 = none). Decided at admission from the
     * request's deterministic sequence number, so the same arrival
     * schedule always samples the same requests.
     */
    unsigned sampleEvery = 1;

    /** Cap on chain child spans recorded under one execute span (the
     *  execute span's chainCount still reports the full total). */
    unsigned maxChainSpans = 256;

    /** Apply BW_SPAN_SAMPLE (sampleEvery) on top of @p base. */
    static SpanTracerOptions fromEnv(SpanTracerOptions base);
    static SpanTracerOptions fromEnv();
};

/**
 * Span recorder over a ShardedRing (common/shard_ring.h). record()
 * locks the calling thread's ring shard, claims a slot and writes the
 * POD record in place — no allocation once that shard's ring exists
 * (each shard allocates on its first record), and engine workers on
 * distinct shards never contend. collect() merges the shards; call it
 * after producers have quiesced for a complete view (the same read
 * discipline as Engine::trace()).
 */
class SpanTracer
{
  public:
    explicit SpanTracer(SpanTracerOptions opts = {});

    const SpanTracerOptions &options() const { return opts_; }

    /**
     * Head-sampling decision for the request with deterministic
     * sequence number @p seq (1-based). Returns a context whose trace
     * id equals @p seq when sampled, 0 otherwise.
     */
    TraceContext admit(uint64_t seq) const
    {
        TraceContext ctx;
        if (opts_.sampleEvery > 0 && seq > 0 &&
            (seq - 1) % opts_.sampleEvery == 0)
            ctx.trace = seq;
        return ctx;
    }

    /** Record one span (see class comment). */
    void record(const SpanRecord &s) { ring_.record(s); }

    /** Merged spans, sorted by (trace, id). Safe after quiescence. */
    std::vector<SpanRecord> collect() const;

    /** Total spans offered to record() (including overwritten). */
    uint64_t recorded() const { return ring_.recorded(); }
    /** Spans lost to ring overwrite. */
    uint64_t dropped() const { return ring_.dropped(); }

    /** Drop all recorded spans (e.g. between a live run and a
     *  deterministic replay sharing one tracer). */
    void clear() { ring_.clear(); }

  private:
    SpanTracerOptions opts_;
    ShardedRing<SpanRecord> ring_;
};

struct FlightRecord;

/**
 * The one writer of an attempt's request span tree, under trace id
 * @p trace (nothing when 0). A served record (Ok or Error) records
 * request + queue_wait + dispatch + execute, a never-served one
 * (expired, rejected, cancelled) request + queue_wait only. Each span
 * takes its bounds from the record's microsecond stamps, so the
 * request's direct children partition it exactly: queue_wait +
 * dispatch + execute == request, to the microsecond.
 *
 * @p parent nests the tree under an already recorded span (a cluster
 * route or hedge span): span ids shift by @p parent and the request
 * span's parent becomes @p parent instead of being the root.
 *
 * With @p chains and an Ok record (an errored one gets none) the
 * execute span carries their count (rendered "chains", with
 * "chains_truncated" once the tracer's maxChainSpans caps the leaves)
 * and one chain[i] leaf per profile. Chain cycle intervals over
 * @p total_cycles map proportionally into the execute span's
 * [serviceUs, doneUs] window; the cycle-exact interval and the stall
 * breakdown ride along as attributes. Engine, cluster and
 * flight-export trees are all written here.
 */
void recordAttemptSpans(SpanTracer &tracer, const FlightRecord &r,
                        TraceId trace, SpanId parent = 0,
                        const std::vector<ChainProfile> *chains = nullptr,
                        Cycles total_cycles = 0);

/**
 * One cluster routing decision wrapped around a request: the span
 * covers [admitUs, doneUs] and carries the chosen engine and the
 * resident-model id. Recorded as the trace root (id 1, parentless) —
 * nest the request tree under it via recordAttemptSpans(..., parent).
 */
struct RouteSpan
{
    TraceId trace = 0;
    uint64_t admitUs = 0;
    uint64_t doneUs = 0;
    uint32_t engine = 0; //!< target engine index within the cluster
    uint32_t model = 0;  //!< resident-model id the request named
    SpanOutcome outcome = SpanOutcome::Ok;
};

/** Record a route root span; returns its id (0 when unsampled). */
SpanId recordRouteSpan(SpanTracer &tracer, const RouteSpan &rs);

/** Tallies of one span-tree rendering. */
struct SpanTreeCounts
{
    uint64_t traces = 0;     //!< rooted traces rendered
    uint64_t spans = 0;      //!< spans rendered under those roots
    uint64_t incomplete = 0; //!< rootless traces, left out
};

/// One traces[i] entry of a bw.spans/1 document (a bw.spanstream/1 row).
#define BW_SPAN_TRACE_FIELDS(N, trace, incomplete, root)                 \
    N("trace", trace, Pos, always)                                       \
    N("incomplete", true, Bool, when(incomplete))                        \
    N("root", root, Obj, always)

/// Tallies of a bw.spans/1 document and the bw.spanstream/1 trailer.
#define BW_SPAN_TALLY_FIELDS(N, counts, dropped)                         \
    N("spans", counts.spans, Uint, always)                               \
    N("dropped", dropped, Uint, always)                                  \
    N("incomplete_traces", counts.incomplete, Pos,                       \
      when(counts.incomplete > 0))

/// The bw.spans/1 document.
#define BW_SPAN_DOC_FIELDS(N, counts, dropped, traces)                   \
    N("schema", obs::kSpansSchema, Tag(obs::kSpansSchema), always)       \
    BW_SPAN_TALLY_FIELDS(N, counts, dropped)                             \
    N("traces", traces, Arr, always)

/**
 * The one span-tree formatter: group @p spans (any order) by trace and
 * hand each rooted trace, ascending by trace id, to @p emit as the
 * traces[i] object of spanTreeJson — {trace, [incomplete: true,]
 * root: {name, id, start_us, end_us, dur_us, ..., children: [...]}},
 * children ascending by (start, id). Spans whose parent was lost to
 * ring overwrite are left out and their trace marked incomplete; a
 * trace whose root was lost is counted in @p counts->incomplete and
 * not emitted. Stops, returning false, when @p emit returns false.
 * spanTreeJson, the bw.spanstream/1 rows and both flight exports are
 * built from these objects.
 */
bool forEachSpanTree(const std::vector<SpanRecord> &spans,
                     const std::function<bool(Json &tree)> &emit,
                     SpanTreeCounts *counts);

/** The bw.spans/1 document around forEachSpanTree() @p traces:
 *  {schema, spans, dropped, [incomplete_traces,] traces}. */
Json spanTreeDoc(Json traces, const SpanTreeCounts &counts,
                 uint64_t dropped);

/**
 * Ordered span-tree JSON document, schema bw.spans/1: every
 * forEachSpanTree() trace in a spanTreeDoc(). Deterministic for
 * deterministic input.
 */
Json spanTreeJson(const std::vector<SpanRecord> &spans,
                  uint64_t dropped = 0);

/** spanTreeJson(tracer.collect(), tracer.dropped()). */
Json spanTreeJson(const SpanTracer &tracer);

/**
 * Validate one traces[i] object of a bw.spans/1 document (or one
 * bw.spanstream/1 row): BW_SPAN_TRACE_FIELDS, every node's fields by
 * its kind (named by the node), a request- or route-named root, ids
 * unique within the trace, end >= start, dur consistent, every child
 * interval inside its parent. Returns OK or InvalidArgument naming the
 * first violation.
 */
Status validateSpanTrace(const Json &trace);

/**
 * Validate a spanTreeJson() document against the bw.spans/1 schema:
 * BW_SPAN_DOC_FIELDS and validateSpanTrace() on each entry.
 */
Status validateSpanTreeJson(const Json &doc);

/**
 * Append a spanTreeJson() document's spans as Chrome async events
 * ("ph":"b"/"e", cat "bw.span", id = trace id, args = the tree node's
 * attributes) to @p chrome_doc's traceEvents — the request waterfall
 * then overlays the event-trace/counter timeline in Perfetto.
 * @p chrome_doc may be a chromeTraceJson() document or any object with
 * (or without) a traceEvents array. Validates @p span_doc first and
 * leaves @p chrome_doc untouched when it is rejected. Used by
 * serve_engine's trace export and `bw_trace merge`.
 */
Status appendSpanTreeDocEvents(Json &chrome_doc, const Json &span_doc);

} // namespace obs
} // namespace bw

#endif // BW_OBS_SPAN_H
