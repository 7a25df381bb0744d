/**
 * @file
 * Cloud serving model (Sections II, VII-B3).
 *
 * The BW system serves DNN requests as hardware microservices reached
 * directly over the datacenter network: requests are processed one at a
 * time as they arrive (no batching queue), so latency is network time
 * plus any head-of-line wait plus a single-request service time. A GPU
 * service instead accumulates a batch (up to a size cap or a timeout)
 * before launching, trading latency for utilization — the contrast the
 * paper draws in Section VII-B3 and Fig. 8.
 */

#ifndef BW_RUNTIME_SERVING_H
#define BW_RUNTIME_SERVING_H

#include <algorithm>
#include <cmath>
#include <vector>

#include "baseline/gpu_model.h"
#include "common/json.h"
#include "common/rng.h"

namespace bw {

/** Latency/throughput summary of one simulated serving run. */
struct ServeStats
{
    uint64_t requests = 0;
    double meanLatencyMs = 0;
    double p50LatencyMs = 0;
    double p95LatencyMs = 0;
    double p99LatencyMs = 0;
    double maxLatencyMs = 0;
    double throughputRps = 0; //!< completed requests per second
    double meanBatch = 1.0;   //!< average formed batch size (GPU)

    /** Machine-readable summary (the repo's toJson() convention). */
    Json toJson() const;
};

/**
 * Nearest-rank percentile of an ascending-sorted sample set: the
 * smallest value such that at least @p pct percent of the samples are
 * <= it. Zero for an empty set; the sole element for a single-element
 * set at any pct. @p pct outside [0, 100] is clamped (pct <= 0 yields
 * the minimum, pct >= 100 the maximum) — in particular a negative pct
 * never indexes out of range.
 */
inline double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/**
 * The three tail quantiles every latency summary in the repo reports
 * (ServeStats, serve::StatsCollector, the metrics histograms'
 * validation tests), computed in one place from one sorted pass.
 */
struct LatencyQuantiles
{
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
};

/** Nearest-rank p50/p95/p99 of an ascending-sorted sample set. */
inline LatencyQuantiles
quantilesSorted(const std::vector<double> &sorted)
{
    LatencyQuantiles q;
    q.p50 = percentileSorted(sorted, 50);
    q.p95 = percentileSorted(sorted, 95);
    q.p99 = percentileSorted(sorted, 99);
    return q;
}

/** Fill the latency summary fields from an ascending-sorted sample set. */
inline void
fillLatencyStats(ServeStats &stats, const std::vector<double> &sorted)
{
    stats.requests = sorted.size();
    if (sorted.empty())
        return;
    double sum = 0;
    for (double l : sorted)
        sum += l;
    stats.meanLatencyMs = sum / static_cast<double>(sorted.size());
    LatencyQuantiles q = quantilesSorted(sorted);
    stats.p50LatencyMs = q.p50;
    stats.p95LatencyMs = q.p95;
    stats.p99LatencyMs = q.p99;
    stats.maxLatencyMs = sorted.back();
}

/** Caller-owned scratch for sortLatencies, reused across calls. */
struct LatencySortScratch
{
    std::vector<uint64_t> keys;
    std::vector<uint32_t> counts;
};

/** sortLatencies hands inputs shorter than this to std::sort. */
constexpr size_t kLatencyRadixMinSize = 512;

/**
 * Sort @p v ascending: an LSD radix sort over the order-preserving
 * IEEE-754 bit key (11-bit digits; a digit every key shares is skipped).
 * Without NaNs and without both signed zeros the result equals
 * std::sort's bit for bit — which matters, because fillLatencyStats sums
 * the mean in ascending order. (-0.0 sorts before +0.0; std::sort leaves
 * their order unspecified.)
 */
void sortLatencies(std::vector<double> &v, LatencySortScratch &scratch);

/**
 * Merge the ascending run @p run into the ascending @p sorted, stably
 * and without a temporary buffer: a fleet summary built from sorted
 * shard runs without re-sorting the whole.
 */
void mergeSortedRun(std::vector<double> &sorted,
                    const std::vector<double> &run);

/** Sort @p latencies (sortLatencies) and fill @p stats from them: every
 *  exact latency summary goes through here. */
void summarizeLatencies(ServeStats &stats, std::vector<double> &latencies,
                        LatencySortScratch &scratch);

/** summarizeLatencies with a scratch of its own. */
void summarizeLatencies(ServeStats &stats, std::vector<double> &latencies);

/** Poisson request arrivals at @p rate_rps for @p duration_s seconds. */
std::vector<double> poissonArrivals(double rate_rps, double duration_s,
                                    Rng &rng);

/**
 * Serve requests one at a time (the BW microservice discipline): each
 * request costs @p service_ms on the accelerator plus @p network_ms of
 * datacenter network round trip; queued requests wait FIFO.
 */
ServeStats serveUnbatched(const std::vector<double> &arrivals_s,
                          double service_ms, double network_ms);

/**
 * Serve requests through a batching queue (the GPU discipline): wait
 * until @p max_batch requests are queued or @p timeout_ms passed since
 * the oldest queued request, then serve the batch in
 * @p batch_service_ms(batch) milliseconds.
 */
template <typename BatchServiceFn>
ServeStats
serveBatched(const std::vector<double> &arrivals_s, unsigned max_batch,
             double timeout_ms, BatchServiceFn batch_service_ms)
{
    ServeStats stats;
    if (arrivals_s.empty())
        return stats;

    std::vector<double> latencies;
    latencies.reserve(arrivals_s.size());
    double device_free_s = 0.0;
    size_t i = 0;
    uint64_t batches = 0;
    stats.meanBatch = 0.0;
    while (i < arrivals_s.size()) {
        // Form a batch: requests arriving before the trigger time.
        double oldest = arrivals_s[i];
        double trigger = oldest + timeout_ms / 1e3;
        size_t j = i;
        while (j < arrivals_s.size() && j - i < max_batch &&
               arrivals_s[j] <= trigger) {
            ++j;
        }
        unsigned batch = static_cast<unsigned>(j - i);
        double launch = std::max(device_free_s,
                                 batch == max_batch ? arrivals_s[j - 1]
                                                    : trigger);
        double service_s = batch_service_ms(batch) / 1e3;
        double done = launch + service_s;
        device_free_s = done;
        for (size_t k = i; k < j; ++k)
            latencies.push_back((done - arrivals_s[k]) * 1e3);
        stats.meanBatch += batch;
        ++batches;
        i = j;
    }
    stats.meanBatch = batches ? stats.meanBatch / batches : 1.0;

    summarizeLatencies(stats, latencies);
    double span = device_free_s - arrivals_s.front();
    stats.throughputRps = span > 0 ? latencies.size() / span : 0;
    return stats;
}

} // namespace bw

#endif // BW_RUNTIME_SERVING_H
