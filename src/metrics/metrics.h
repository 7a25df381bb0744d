/**
 * @file
 * Live metrics for the serving stack: a typed registry of Counters,
 * Gauges and Histograms designed for the serve::Engine hot path.
 *
 * The paper's headline numbers — effective TFLOPS, utilization (Fig. 7),
 * millisecond-scale tail latency under live traffic — are steady-state
 * operational signals. Traces and one-shot stats snapshots only show a
 * run after it ends; this registry exposes the same quantities *while*
 * the engine is under load, in formats standard tooling can scrape
 * (Prometheus text, the repo's ordered Json, Chrome trace counter
 * events).
 *
 * Hot-path design:
 *  - Counters and histograms are sharded per thread: each recording
 *    thread owns a cache-line-padded slot (assigned round-robin on
 *    first use), so engine workers never contend on a shared atomic.
 *    Reads merge the shards.
 *  - Histograms are log-bucketed (geometric bucket boundaries) and
 *    mergeable; p50/p95/p99 are estimated from the buckets and are
 *    guaranteed to land in the same bucket as the exact nearest-rank
 *    value (within one bucket width — tested against ServeStats).
 *  - Recording is wait-free (relaxed atomics, one CAS loop for the
 *    histogram sum); registration takes a mutex and returns stable
 *    references that live as long as the Registry.
 */

#ifndef BW_METRICS_METRICS_H
#define BW_METRICS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/shard_ring.h"

namespace bw {
namespace metrics {

/** Metric kinds, matching the Prometheus exposition TYPE names. */
enum class MetricType : uint8_t
{
    Counter = 0, //!< monotonically increasing count
    Gauge,       //!< instantaneous value, may go up or down
    Histogram,   //!< log-bucketed sample distribution
};

const char *metricTypeName(MetricType t);

/** Ordered label set attached to one metric instance. */
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/** Shard count: distinct recording threads (up to kShards) never share
 *  a cache line. More threads than shards wrap around — still correct,
 *  merely contended. */
constexpr size_t kShards = 16;

/** Shard of the calling thread (stable per thread). */
inline size_t
shardSlot()
{
    return threadSlot() % kShards;
}

/** A cache-line-padded atomic counter cell. */
struct alignas(64) PaddedCount
{
    std::atomic<uint64_t> v{0};
};

/** Wait-free add on an atomic double (CAS loop). */
inline void
atomicAdd(std::atomic<double> &a, double delta)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
    }
}

/** Raise an atomic double to at least @p v (CAS loop). */
inline void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** A per-bucket exemplar cell: lock-free, max-value-wins. */
struct ExemplarCell
{
    std::atomic<double> value{0.0};
    std::atomic<uint64_t> trace{0};
};

} // namespace detail

/** One histogram exemplar: the largest sample its bucket has seen and
 *  the span-tracing trace id of the request that produced it. */
struct Exemplar
{
    double value = 0;
    uint64_t traceId = 0; //!< 0 = the bucket has no exemplar
};

/**
 * Monotonic counter, sharded per thread: add() touches only the calling
 * thread's cache-line-padded slot; value() sums the shards.
 */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        shards_[detail::shardSlot()].v.fetch_add(
            delta, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    uint64_t
    value() const
    {
        uint64_t sum = 0;
        for (const auto &s : shards_)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    std::array<detail::PaddedCount, detail::kShards> shards_;
};

/** Instantaneous value; set/add are lock-free, last-writer-wins. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    void add(double delta) { detail::atomicAdd(value_, delta); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Histogram bucket layout: geometric (log-spaced) boundaries. */
struct HistogramOptions
{
    /** Lowest finite bucket boundary; samples <= lowest land in the
     *  underflow bucket (upper bound = lowest). */
    double lowest = 1e-3;
    /** Samples above the last boundary >= highest land in the overflow
     *  (+Inf) bucket. */
    double highest = 1e4;
    /** Buckets per decade: boundaries at lowest * 10^(i / perDecade),
     *  i.e. a growth factor of 10^(1/perDecade) (~1.26 at 10). */
    unsigned bucketsPerDecade = 10;
};

/**
 * Read-only merged view of a Histogram (or of one run of samples).
 * Bucket i (0-based) counts samples in (bound(i-1), bound(i)], where
 * bound(-1) = 0 conceptually; the final slot counts overflow (+Inf).
 */
struct HistogramSnapshot
{
    /** Finite upper bounds, ascending; counts has one extra slot for
     *  the +Inf (overflow) bucket. */
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    /** Parallel to counts: the slowest exemplar recorded per bucket
     *  (traceId 0 where none; exported into /metrics.json). */
    std::vector<Exemplar> exemplars;
    uint64_t count = 0;
    double sum = 0;
    double maxValue = 0; //!< largest sample observed (0 when empty)

    /**
     * Nearest-rank quantile estimate from the buckets: the upper bound
     * of the bucket holding the rank-th sample (the max observed value
     * for the overflow bucket). Within one bucket width of the exact
     * nearest-rank value by construction. Zero when empty.
     */
    double quantile(double pct) const;

    /** Width of the bucket whose upper bound is @p upper (for
     *  tolerance checks against exact percentiles). */
    double bucketWidthBelow(double upper) const;
};

/**
 * Log-bucketed, mergeable latency histogram. record() is wait-free and
 * sharded per thread; snapshot() merges the shards (the merged result
 * equals a single-threaded recording of the same samples — tested).
 */
class Histogram
{
  public:
    explicit Histogram(HistogramOptions opts = {});

    /** Record one sample (values <= 0 land in the underflow bucket). */
    void record(double v);

    /**
     * As record(v), additionally offering (v, @p trace_id) as the
     * bucket's exemplar — kept when v is the largest exemplar the
     * bucket has seen, so each bucket remembers its slowest traced
     * request. Wait-free; the cell update is a benign racy max (two
     * racing writers may briefly pair one's value with the other's
     * id — exemplars are forensic hints, not accounting). trace_id 0
     * degenerates to record(v).
     */
    void recordExemplar(double v, uint64_t trace_id);

    /** Merged view of all shards. */
    HistogramSnapshot snapshot() const;

    /** Finite bucket upper bounds (ascending). */
    const std::vector<double> &bounds() const { return bounds_; }

    /** Index of the bucket @p v lands in (== bounds().size() for
     *  overflow): the first bucket whose upper bound is >= v. */
    size_t bucketIndex(double v) const;

    const HistogramOptions &options() const { return opts_; }

  private:
    struct alignas(64) Shard
    {
        std::vector<std::atomic<uint64_t>> counts;
        std::vector<detail::ExemplarCell> exemplars;
        std::atomic<double> sum{0.0};
        std::atomic<double> maxValue{0.0};
    };

    HistogramOptions opts_;
    std::vector<double> bounds_;
    std::array<Shard, detail::kShards> shards_;
};

/** One metric instance flattened for exposition. */
struct MetricSnapshot
{
    std::string name;
    std::string help;
    MetricType type = MetricType::Counter;
    Labels labels;
    double value = 0;       //!< counter / gauge
    HistogramSnapshot hist; //!< histogram only
};

/**
 * Named, labeled metric registry. Registration is get-or-create: the
 * same (name, labels) returns the same instance, so producers can
 * re-register idempotently. Instances within one name form a family
 * sharing a type and help string (grouped in the exposition).
 * Registration takes a mutex; returned references stay valid for the
 * registry's lifetime. collect() may run concurrently with recording.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Get or create. @p name must match [a-zA-Z_:][a-zA-Z0-9_:]*
     *  (throws bw::Error otherwise, as does a type conflict). */
    Counter &counter(const std::string &name, const std::string &help,
                     Labels labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 Labels labels = {});
    Histogram &histogram(const std::string &name, const std::string &help,
                         HistogramOptions opts = {}, Labels labels = {});

    /** Flattened snapshots, family-major in registration order. */
    std::vector<MetricSnapshot> collect() const;

    /** Registered instance count (all families). */
    size_t size() const;

  private:
    struct Instance
    {
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    struct Family
    {
        std::string name;
        std::string help;
        MetricType type = MetricType::Counter;
        std::vector<std::unique_ptr<Instance>> instances;
    };

    Family &family(const std::string &name, const std::string &help,
                   MetricType type);
    Instance &instance(Family &f, Labels labels);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Family>> families_;
};

/** True when @p name is a valid Prometheus metric name. */
bool validMetricName(const std::string &name);

/** True when @p name is a valid Prometheus label name. */
bool validLabelName(const std::string &name);

} // namespace metrics
} // namespace bw

#endif // BW_METRICS_METRICS_H
