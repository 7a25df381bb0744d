/**
 * @file
 * SLO burn-rate monitoring for the serving engine.
 *
 * The paper's serving contract is a hard real-time SLO: batch-1
 * execution exists to keep the 99th percentile inside the deadline
 * (Section VI, Fig. 8). A latency histogram says what the distribution
 * was; it does not say whether the *objective* — "99% of interactive
 * requests finish within 10 ms, 99.9% are served at all" — is currently
 * being violated, or how fast the error budget is burning.
 *
 * SloMonitor tracks two SLIs per deadline class:
 *
 *   - latency:      served requests whose end-to-end latency met the
 *                   class target, over served requests;
 *   - availability: requests that were served successfully, over all
 *                   submissions (rejects, deadline expiries, errors and
 *                   cancellations all consume availability budget).
 *
 * Each SLI is aggregated into fixed virtual-time buckets and evaluated
 * over a fast and a slow trailing window (the classic multi-window
 * burn-rate alert: page when *both* the 5-minute and the 1-hour burn
 * rate exceed the threshold, so one spike doesn't page but a sustained
 * burn does). burn rate = (bad fraction in window) / (1 - objective);
 * a burn rate of 1.0 consumes the budget exactly at the sustainable
 * rate, 14.4 consumes a 30-day budget in ~2 days.
 *
 * All time is the caller's clock — the engine feeds wall microseconds
 * live and virtual microseconds under replay(), and every export is
 * evaluated at the monitor's high-water mark rather than "now", so two
 * replays of one schedule produce byte-identical /slo.json documents.
 */

#ifndef BW_SERVE_SLO_H
#define BW_SERVE_SLO_H

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "obs/fields.h"

namespace bw {
namespace serve {

inline constexpr const char *kSloSchema = "bw.slo/1";

/** One deadline class and its SLO targets. */
struct SloClassSpec
{
    std::string name;
    /** Requests whose deadline is <= this bound (ms) fall in this
     *  class; 0 = catch-all (also takes requests with no deadline). */
    double maxDeadlineMs = 0;
    /** Latency SLI threshold: a served request is "good" when its
     *  end-to-end latency is <= this many milliseconds. */
    double latencyTargetMs = 0;
};

/** SloMonitor configuration. */
struct SloOptions
{
    /**
     * Deadline classes, ascending by maxDeadlineMs with the catch-all
     * (maxDeadlineMs 0) last. Default: interactive (deadline <= 10 ms,
     * target 5 ms), standard (<= 100 ms, target 50 ms), best_effort
     * (everything else, target 500 ms).
     */
    std::vector<SloClassSpec> classes;

    /** Latency objective: target fraction of served requests meeting
     *  the class latency target. */
    double latencyObjective = 0.99;

    /** Availability objective: target fraction of submissions served
     *  successfully. */
    double availabilityObjective = 0.999;

    /** Fast / slow trailing windows, microseconds of the feeding
     *  clock (5 minutes / 1 hour of virtual time by default). */
    uint64_t fastWindowUs = 300ull * 1000 * 1000;
    uint64_t slowWindowUs = 3600ull * 1000 * 1000;

    /** Aggregation bucket width, microseconds (bounds memory: the
     *  monitor keeps slowWindowUs / bucketUs buckets per class). */
    uint64_t bucketUs = 1000 * 1000;

    /** Multi-window alert threshold: a class's SLI is "firing" when
     *  both window burn rates exceed this. */
    double pageBurnRate = 14.4;

    /** The default three-class ladder (see classes). */
    static std::vector<SloClassSpec> defaultClasses();
};

/** Burn-rate evaluation of one SLI over one trailing window. */
struct SloWindowEval
{
    uint64_t good = 0;
    uint64_t bad = 0;
    double badFraction = 0; //!< bad / (good + bad), 0 when empty
    double burnRate = 0;    //!< badFraction / (1 - objective)
};

/** One SLI's two trailing windows and its multi-window alert. */
struct SloSliEval
{
    SloWindowEval fast, slow;
    bool firing = false; //!< both windows burn above pageBurnRate
};

/** One class's full evaluation (both SLIs, both windows). */
struct SloClassEval
{
    std::string name;
    uint64_t requests = 0;             //!< lifetime submissions
    uint64_t latencyBreaches = 0;      //!< lifetime latency misses
    uint64_t availabilityBreaches = 0; //!< lifetime unserved requests
    SloSliEval latency, availability;
};

/**
 * The burn-rate rule: from each window's good/bad counts fill its
 * badFraction and burnRate (against the SLI's objective in @p opts),
 * then set both multi-window firing flags against opts.pageBurnRate.
 * SloMonitor applies it to one shard's window scan, the fleet rollup to
 * the shard sums, and validateSloJson to a document's counts.
 */
void finishClassEval(SloClassEval &ev, const SloOptions &opts);

/// The bw.slo/1 document; shards is written by the fleet rollup only.
#define BW_SLO_DOC_FIELDS(N, opts, at_us, shards, classes)               \
    N("schema", serve::kSloSchema, Tag(serve::kSloSchema), always)       \
    N("objectives", objectivesJson(opts), Obj, always)                   \
    N("windows", windowsJson(opts), Obj, always)                         \
    N("page_burn_rate", opts.pageBurnRate, PosNum, always)               \
    N("evaluated_at_us", at_us, Uint, always)                            \
    N("shards", shards, Pos, when(shards > 0))                           \
    N("classes", classes, Arr, always)
#define BW_SLO_OBJECTIVE_FIELDS(N, opts)                                 \
    N("latency", opts.latencyObjective, Frac, always)                    \
    N("availability", opts.availabilityObjective, Frac, always)
#define BW_SLO_WINDOWS_FIELDS(N, opts)                                   \
    N("fast_us", opts.fastWindowUs, Pos, always)                         \
    N("slow_us", opts.slowWindowUs, Pos, always)                         \
    N("bucket_us", opts.bucketUs, Pos, always)

/// One classes[i] entry: class @p spec's evaluation @p ev.
#define BW_SLO_CLASS_FIELDS(N, spec, ev)                                 \
    N("name", ev.name, Str, always)                                      \
    N("max_deadline_ms", spec.maxDeadlineMs, PosNum,                     \
      when(spec.maxDeadlineMs > 0))                                      \
    N("latency_target_ms", spec.latencyTargetMs, PosNum, always)         \
    N("requests", ev.requests, Uint, always)                             \
    N("latency_breaches", ev.latencyBreaches, Uint, always)              \
    N("availability_breaches", ev.availabilityBreaches, Uint, always)    \
    N("latency", sliJson(ev.latency), Obj, always)                       \
    N("availability", sliJson(ev.availability), Obj, always)
#define BW_SLO_SLI_FIELDS(N, sli)                                        \
    N("fast", windowJson(sli.fast), Obj, always)                         \
    N("slow", windowJson(sli.slow), Obj, always)                         \
    N("firing", sli.firing, Bool, always)
#define BW_SLO_WINDOW_FIELDS(N, w)                                       \
    N("good", w.good, Uint, always)                                      \
    N("bad", w.bad, Uint, always)                                        \
    N("bad_fraction", w.badFraction, Num, always)                        \
    N("burn_rate", w.burnRate, Num, always)

/**
 * The bw.slo/1 document (BW_SLO_DOC_FIELDS) evaluated at
 * @p evaluated_at_us: one classes entry per opts.classes entry, from the
 * matching finished evaluation in @p evals. A nonzero @p shards is
 * written after evaluated_at_us (the fleet rollup).
 */
Json sloDocJson(const SloOptions &opts, uint64_t evaluated_at_us,
                const std::vector<SloClassEval> &evals, uint64_t shards = 0);

/**
 * The recorded state of one SLO monitor, with no lock: per-class bucket
 * rings over the slow window, lifetime counters and the high-water mark
 * of recorded time. SloMonitor is one of these behind a mutex; a replay
 * pass owns one outright between SloMonitor::take() and restore(). A
 * default-constructed SloBuckets holds nothing and evaluates to zeros.
 */
class SloBuckets
{
  public:
    /** What record() counted the submission as. */
    enum class Sample : uint8_t
    {
        Good,          //!< served inside the class latency target
        LatencyBreach, //!< served, but slower than the target
        Unavailable,   //!< not served successfully
    };

    SloBuckets() = default;

    /** Empty buckets for @p opts (as SloMonitor normalizes them). */
    explicit SloBuckets(const SloOptions &opts);

    /**
     * Record one finished submission of deadline class @p cls at
     * @p t_us on the feeding clock. @p available = the request was
     * served successfully; @p latency_ms is consulted for the latency
     * SLI only when available.
     */
    Sample record(size_t cls, uint64_t t_us, double latency_ms,
                  bool available);

    /** Evaluate every class of @p opts at the high-water time. */
    std::vector<SloClassEval> evaluate(const SloOptions &opts) const;

    uint64_t highWaterUs() const { return highWaterUs_; }

    /** False for a default-constructed SloBuckets, which records
     *  nothing. */
    bool holdsRings() const { return !classes_.empty(); }

    /** Drop every recorded submission; the rings are kept. */
    void clear();

  private:
    struct Bucket
    {
        uint64_t latGood = 0, latBad = 0;
        uint64_t availGood = 0, availBad = 0;
    };

    struct ClassState
    {
        std::vector<Bucket> ring;  //!< slowWindow / bucket slots
        std::vector<uint64_t> tag; //!< absolute bucket number per slot
        double latencyTargetMs = 0;
        /** The last bucket recorded into: its slot and time range. */
        size_t curSlot = 0;
        uint64_t curLoUs = 0, curHiUs = 0;
        uint64_t requests = 0;
        uint64_t latencyBreaches = 0;
        uint64_t availabilityBreaches = 0;
    };

    SloWindowEval evalWindow(const ClassState &cs, uint64_t window_us,
                             bool latency) const;

    uint64_t bucketUs_ = 1;
    std::vector<ClassState> classes_;
    uint64_t highWaterUs_ = 0;
};

// record() runs twice per replayed request (its shard and the front
// door); out of line it measurably slowed replay.

inline SloBuckets::Sample
SloBuckets::record(size_t cls, uint64_t t_us, double latency_ms,
                   bool available)
{
    ClassState &cs = classes_[cls];
    if (t_us < cs.curLoUs || t_us >= cs.curHiUs) {
        // Into another bucket: the only path that divides.
        uint64_t bucket = t_us / bucketUs_;
        cs.curSlot = static_cast<size_t>(bucket % cs.ring.size());
        cs.curLoUs = bucket * bucketUs_;
        cs.curHiUs = cs.curLoUs + bucketUs_;
        if (cs.tag[cs.curSlot] != bucket) {
            cs.ring[cs.curSlot] = Bucket{};
            cs.tag[cs.curSlot] = bucket;
        }
    }
    Bucket &b = cs.ring[cs.curSlot];
    ++cs.requests;
    highWaterUs_ = std::max(highWaterUs_, t_us);
    if (!available) {
        ++b.availBad;
        ++cs.availabilityBreaches;
        return Sample::Unavailable;
    }
    ++b.availGood;
    if (latency_ms <= cs.latencyTargetMs) {
        ++b.latGood;
        return Sample::Good;
    }
    ++b.latBad;
    ++cs.latencyBreaches;
    return Sample::LatencyBreach;
}

/**
 * Multi-window SLO burn-rate monitor: SloBuckets behind a mutex.
 * record() holds it for one tiny critical section per completed
 * request; snapshot()/sloJson() may be called concurrently with
 * recording.
 */
class SloMonitor
{
  public:
    explicit SloMonitor(SloOptions opts = {});

    const SloOptions &options() const { return opts_; }

    /**
     * Bind bw_slo_* metrics into @p registry (non-owning; must outlive
     * the monitor): bw_slo_requests_total / bw_slo_latency_breach_total
     * / bw_slo_availability_breach_total counters per class, updated on
     * record() and, for a replay pass, once at restore(); bw_slo_burn_rate
     * gauges per (class, slo, window) and bw_slo_firing gauges per
     * (class, slo), refreshed on every snapshot()/sloJson().
     */
    void bindMetrics(metrics::Registry *registry);

    /** Deadline class index of a request submitted with @p deadline_ms
     *  (0 = no deadline). */
    size_t classOf(double deadline_ms) const
    {
        size_t catch_all = opts_.classes.size() - 1;
        for (size_t c = 0; c < opts_.classes.size(); ++c) {
            double bound = opts_.classes[c].maxDeadlineMs;
            if (bound <= 0) {
                catch_all = c; // explicit catch-all
                continue;
            }
            if (deadline_ms > 0 && deadline_ms <= bound)
                return c;
        }
        return catch_all;
    }

    /**
     * Record one finished submission at time @p t_us on the feeding
     * clock (SloBuckets::record, in class classOf(@p deadline_ms)).
     * Dropped while a replay pass holds the buckets.
     */
    void record(uint64_t t_us, double deadline_ms, double latency_ms,
                bool available);

    /** Evaluate every class at the monitor's high-water time. */
    std::vector<SloClassEval> snapshot() const;

    /** High-water mark of recorded time on the feeding clock, in
     *  microseconds (0 before the first record()) — the evaluated_at_us
     *  every export is pinned to. */
    uint64_t highWaterUs() const;

    /** Drop all recorded state (e.g. between a live run and a
     *  deterministic replay sharing one monitor). */
    void clear();

    /**
     * Clear the monitor and hand its buckets to a single-threaded
     * writer (a replay pass) under one lock. Until restore() the
     * monitor holds nothing: concurrent exports stay race-free and
     * evaluate to zeros, and no second set of rings is allocated.
     */
    SloBuckets take();

    /** Take back buckets from take() under one lock, adding what they
     *  recorded to the bound counters. */
    void restore(SloBuckets buckets);

    /**
     * The /slo.json document, schema bw.slo/1: objectives, windows,
     * and per-class lifetime counters plus fast/slow burn-rate
     * evaluations for both SLIs. Evaluated at the high-water mark of
     * recorded time — deterministic for deterministic input. Also
     * refreshes the bound gauges.
     */
    Json sloJson() const;

  private:
    struct Counters
    {
        metrics::Counter *requests = nullptr;
        metrics::Counter *latencyBreach = nullptr;
        metrics::Counter *availBreach = nullptr;
    };

    SloOptions opts_;
    mutable std::mutex mu_;
    SloBuckets state_;
    std::vector<Counters> counters_; //!< per class, empty when unbound
    metrics::Registry *registry_ = nullptr;
};

/**
 * Validate a sloJson() document against the bw.slo/1 schema: the
 * BW_SLO_*_FIELDS tables, a slow window no shorter than the fast one, at
 * least one class, and bad_fraction, burn_rate and firing members equal
 * to what finishClassEval derives from each window's counts. Returns OK
 * or InvalidArgument naming the first violation.
 */
Status validateSloJson(const Json &doc);

} // namespace serve
} // namespace bw

#endif // BW_SERVE_SLO_H
