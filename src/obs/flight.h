/**
 * @file
 * Tail-sampled flight recorder: full span evidence for exactly the
 * requests head sampling misses.
 *
 * Head sampling (obs/span.h, BW_SPAN_SAMPLE) keeps 1-in-N requests —
 * the right selector for steady-state overhead, the wrong one for tail
 * debugging. The p99 outlier, the deadline-expired request, and the
 * QUEUE_FULL reject are precisely the requests a 1-in-1000 head sample
 * is overwhelmingly likely to drop. The paper's whole argument lives in
 * that tail (batch-1 serving to hold p99 under hard SLOs, Fig. 8), so
 * the flight recorder inverts the selection:
 *
 *   1. Record *every* request's flight record — admission, dequeue,
 *      service, completion boundaries plus outcome class — into a
 *      bounded per-thread ring (cache-line-padded shards, each behind
 *      an uncontended lock — the SpanTracer discipline). Recording
 *      never perturbs simulated cycle counts.
 *   2. *Tail-promote* to durable export only the anomalous records:
 *      every non-Ok outcome (deadline-expired, rejected, errored,
 *      cancelled) plus the slowest-K per virtual-time window of the Ok
 *      ones. Promotion is a pure function of the deterministic
 *      submission sequence numbers and virtual-time stamps, so
 *      Engine::replay() exports byte-identical flight logs.
 *   3. The export (schema bw.flight/1) embeds a full bw.spans/1 span
 *      tree per promoted record — request / queue_wait / dispatch /
 *      execute, with chain[i] leaves reconstructed from the engine's
 *      cached retired-chain profiles — so a request that head sampling
 *      dropped still has complete span evidence after the fact.
 */

#ifndef BW_OBS_FLIGHT_H
#define BW_OBS_FLIGHT_H

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "common/json.h"
#include "common/shard_ring.h"
#include "common/status.h"
#include "common/units.h"
#include "obs/fields.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace bw {
namespace obs {

inline constexpr const char *kFlightSchema = "bw.flight/1";

/** Anomaly class of one recorded request (why it may be promoted). */
enum class FlightClass : uint8_t
{
    Ok = 0,          //!< served successfully (promoted only if slow)
    DeadlineExpired, //!< waited out its deadline in the queue
    Rejected,        //!< refused admission (QUEUE_FULL)
    Error,           //!< served, but service reported an error
    Cancelled,       //!< abandoned by shutdown()
    NumFlightClasses
};

const char *flightClassName(FlightClass c);

namespace field {
inline constexpr FieldType FlightClassName = Name([](const std::string &s) {
    return knownName(s, flightClassName, FlightClass::NumFlightClasses);
});
} // namespace field

/** SpanOutcome rendered on the record's reconstructed span tree. */
SpanOutcome flightClassOutcome(FlightClass c);

/**
 * One request's flight record: POD-sized so the hot path writes it into
 * a preallocated ring slot without allocating. Timestamps are
 * microseconds on the owning engine's clock (virtual time under
 * replay(), wall time under the threaded engine).
 */
struct FlightRecord
{
    /** Deterministic submission sequence number, 1-based over *all*
     *  submission attempts — rejected submissions consume one too (the
     *  promotion key must exist for requests that never got an id). */
    uint64_t seq = 0;
    /** Admitted request id (the span-tracing trace id namespace);
     *  0 for submissions rejected before admission. */
    uint64_t id = 0;
    FlightClass cls = FlightClass::Ok;
    /** Whether the head-sampling span tracer also kept this request
     *  (links the flight export to the bw.spans/1 export). */
    bool sampled = false;
    uint32_t replica = 0;
    uint32_t steps = 0;
    uint64_t admitUs = 0;
    uint64_t dequeueUs = 0; //!< == admitUs for rejected submissions
    uint64_t serviceUs = 0; //!< service start (== dequeueUs if none)
    uint64_t doneUs = 0;
    /** End-to-end latency in microseconds as the engine reported it
     *  (includes configured network time); the slowest-K ranking key. */
    uint64_t latencyUs = 0;
};

/// One promoted record: a bw.flight/1 promoted[i] entry, and the head
/// of a bw.flightstream/1 row.
#define BW_FLIGHT_RECORD_FIELDS(N, r)                                    \
    N("seq", r.seq, Uint, always)                                        \
    N("id", r.id, Uint, always)                                          \
    N("class", flightClassName(r.cls), FlightClassName, always)          \
    N("sampled", r.sampled, Bool, always)                                \
    N("replica", r.replica, Uint, always)                                \
    N("steps", r.steps, Uint, always)                                    \
    N("admit_us", r.admitUs, Uint, always)                               \
    N("dequeue_us", r.dequeueUs, Uint, always)                           \
    N("service_us", r.serviceUs, Uint, always)                           \
    N("done_us", r.doneUs, Uint, always)                                 \
    N("latency_us", r.latencyUs, Uint, always)

/** FlightRecorder configuration. */
struct FlightRecorderOptions
{
    /** Ring capacity per shard (per recording thread slot); the oldest
     *  records of a shard are overwritten once its ring is full. */
    size_t shardCapacity = 1u << 12;

    /** Virtual-time window for slowest-K promotion, microseconds.
     *  Window index is admitUs / windowUs — a pure function of the
     *  record, so replays promote identically. */
    uint64_t windowUs = 1000000;

    /** Ok records promoted per window (the slowest K by latency;
     *  ties broken by ascending sequence number). 0 promotes only
     *  anomalous records. */
    unsigned slowestK = 4;

    /** Apply BW_FLIGHT_WINDOW_MS (windowUs), BW_FLIGHT_SLOWEST_K
     *  (slowestK) and BW_FLIGHT_RING (shardCapacity) on @p base. */
    static FlightRecorderOptions fromEnv(FlightRecorderOptions base);
    static FlightRecorderOptions fromEnv();
};

/**
 * Flight recorder over a ShardedRing (common/shard_ring.h). record()
 * locks the calling thread's ring shard, claims a slot and writes the
 * POD record in place — no allocation once that shard's ring exists
 * (each shard allocates on its first record). collect()/promoted()
 * merge the shards; call them after producers have quiesced (engine
 * drained or shut down) for a complete view, the same read discipline
 * as SpanTracer.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(FlightRecorderOptions opts = {});

    const FlightRecorderOptions &options() const { return opts_; }

    /** Record one request's flight record. */
    void record(const FlightRecord &r) { ring_.record(r); }

    /** Merged records, sorted by seq. Safe after quiescence. */
    std::vector<FlightRecord> collect() const;

    /** The tail-promoted subset: promote(collect(), options()). */
    std::vector<FlightRecord> promoted() const;

    /** Total records offered to record() (including overwritten). */
    uint64_t recorded() const { return ring_.recorded(); }
    /** Records lost to ring overwrite. */
    uint64_t dropped() const { return ring_.dropped(); }

    /** Drop all records (e.g. between a live run and a deterministic
     *  replay sharing one recorder). */
    void clear() { ring_.clear(); }

    /** Clear, and hand the calling thread's ring to a single-threaded
     *  writer (a replay pass) until restore(): ShardedRing::take. */
    Ring<FlightRecord> take() { return ring_.take(); }
    void restore(Ring<FlightRecord> ring) { ring_.restore(std::move(ring)); }

  private:
    FlightRecorderOptions opts_;
    ShardedRing<FlightRecord> ring_;
};

/**
 * The tail-promotion rule, as a pure function: every record whose class
 * is not Ok, plus the slowest @p opts.slowestK Ok records per
 * @p opts.windowUs virtual-time window (window = admitUs / windowUs;
 * within a window ranked by latencyUs descending, then seq ascending).
 * Input may be in any order; output ascends by seq. Deterministic
 * input produces deterministic output — no clocks, no randomness.
 */
std::vector<FlightRecord> promoteFlightRecords(
    std::vector<FlightRecord> records, const FlightRecorderOptions &opts);

/// The recorder options heading a bw.flight/1 document or a
/// bw.flightstream/1 header line, and the recorder tallies both carry.
#define BW_FLIGHT_HEADER_FIELDS(N, tag, opts)                            \
    N("schema", tag, Tag(tag), always)                                   \
    N("window_us", opts.windowUs, Uint, always)                          \
    N("slowest_k", opts.slowestK, Uint, always)
#define BW_FLIGHT_TALLY_FIELDS(N, recorded, dropped)                     \
    N("recorded", recorded, Uint, always)                                \
    N("dropped", dropped, Uint, always)

/// The bw.flight/1 document.
#define BW_FLIGHT_DOC_FIELDS(N, opts, recorded, dropped, promoted, spans) \
    BW_FLIGHT_HEADER_FIELDS(N, obs::kFlightSchema, opts)                 \
    BW_FLIGHT_TALLY_FIELDS(N, recorded, dropped)                         \
    N("promoted", promoted, Arr, always)                                 \
    N("spans", spans, Obj, always)

/**
 * Supplies retired-chain profiles for a promoted record's span tree:
 * given the record's step count, returns the profiles and total cycles,
 * or false when none are available (model-less engines, rejected
 * requests). The serving engine binds this to its per-step-count
 * timing-profile cache.
 */
using ChainProfileFn = std::function<bool(
    uint32_t steps, const std::vector<ChainProfile> **chains,
    Cycles *total_cycles)>;

/**
 * The one writer of a promoted record, shared by flightJson() and
 * streamFlightNdjson(): the record's bw.flight/1 members (seq, id,
 * class, sampled, replica, steps, admit_us, dequeue_us, service_us,
 * done_us, latency_us) plus its span tree. The tree — request /
 * queue_wait, plus dispatch / execute for served records and chain[i]
 * leaves (via the ChainProfileFn) for completed ones, trace id = seq —
 * is recorded into a scratch tracer the writer reuses record to record
 * and rendered by forEachSpanTree().
 */
class FlightRecordWriter
{
  public:
    explicit FlightRecordWriter(ChainProfileFn chains_for = {});

    /** Return @p r's members; push its tree onto @p traces and add its
     *  tallies to @p counts (the pieces of a spanTreeDoc()). */
    Json write(const FlightRecord &r, Json *traces,
               SpanTreeCounts *counts);

  private:
    ChainProfileFn chainsFor_;
    SpanTracer scratch_;
};

/**
 * Flight-log export, schema bw.flight/1:
 *
 *   {schema: "bw.flight/1", window_us, slowest_k, recorded, dropped,
 *    promoted: [{seq, id, class, sampled, replica, steps, admit_us,
 *                dequeue_us, service_us, done_us, latency_us}],
 *    spans: <bw.spans/1 document>}
 *
 * The embedded spans document holds one full span tree per promoted
 * record, keyed by the record's sequence number as the trace id:
 * request / queue_wait for never-served outcomes, plus dispatch /
 * execute / chain[i] leaves (via @p chains_for) for served ones.
 * Deterministic for deterministic input.
 */
Json flightJson(const std::vector<FlightRecord> &promoted,
                const FlightRecorderOptions &opts, uint64_t recorded,
                uint64_t dropped, const ChainProfileFn &chains_for = {});

/** flightJson(recorder.promoted(), recorder.options(), ...). */
Json flightJson(const FlightRecorder &recorder,
                const ChainProfileFn &chains_for = {});

/**
 * Validate one promoted record — a bw.flight/1 promoted entry or a
 * bw.flightstream/1 row: BW_FLIGHT_RECORD_FIELDS, and admit <= dequeue
 * <= service <= done. Stores the record's seq in @p seq. Returns OK or
 * InvalidArgument naming the first violation.
 */
Status validateFlightRecordJson(const Json &record, int64_t *seq);

/**
 * Validate an embedded bw.spans/1 document: valid under
 * validateSpanTreeJson with exactly one trace per promoted record,
 * trace id == seq, for the records whose seqs are @p seqs.
 */
Status validateFlightSpans(const Json &spans, const std::set<int64_t> &seqs);

/**
 * Validate a flightJson() document: BW_FLIGHT_DOC_FIELDS,
 * validateFlightRecordJson() on each promoted record, records ascending
 * by seq, and validateFlightSpans() on the embedded spans document.
 * Returns OK or InvalidArgument naming the first violation.
 */
Status validateFlightJson(const Json &doc);

} // namespace obs
} // namespace bw

#endif // BW_OBS_FLIGHT_H
