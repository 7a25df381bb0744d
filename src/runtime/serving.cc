#include "runtime/serving.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace bw {

Json
ServeStats::toJson() const
{
    Json j = Json::object();
    j.set("requests", requests);
    j.set("mean_latency_ms", meanLatencyMs);
    j.set("p50_latency_ms", p50LatencyMs);
    j.set("p95_latency_ms", p95LatencyMs);
    j.set("p99_latency_ms", p99LatencyMs);
    j.set("max_latency_ms", maxLatencyMs);
    j.set("throughput_rps", throughputRps);
    j.set("mean_batch", meanBatch);
    return j;
}

std::vector<double>
poissonArrivals(double rate_rps, double duration_s, Rng &rng)
{
    BW_ASSERT(rate_rps > 0 && duration_s > 0);
    std::vector<double> out;
    double t = 0.0;
    while (true) {
        t += rng.exponential(rate_rps);
        if (t >= duration_s)
            break;
        out.push_back(t);
    }
    return out;
}

ServeStats
serveUnbatched(const std::vector<double> &arrivals_s, double service_ms,
               double network_ms)
{
    ServeStats stats;
    if (arrivals_s.empty())
        return stats;

    std::vector<double> latencies;
    latencies.reserve(arrivals_s.size());
    double device_free_s = 0.0;
    double service_s = service_ms / 1e3;
    double net_s = network_ms / 1e3;
    for (double a : arrivals_s) {
        double start = std::max(a + net_s / 2, device_free_s);
        double done = start + service_s;
        device_free_s = done;
        latencies.push_back((done + net_s / 2 - a) * 1e3);
    }

    summarizeLatencies(stats, latencies);
    double span = device_free_s - arrivals_s.front();
    stats.throughputRps = span > 0 ? latencies.size() / span : 0;
    return stats;
}

namespace {

constexpr unsigned kDigitBits = 11;
constexpr size_t kDigitBuckets = size_t{1} << kDigitBits;
constexpr unsigned kDigits = (64 + kDigitBits - 1) / kDigitBits;

/// Unsigned key whose order is the doubles' order: flip every bit of a
/// negative value, only the sign bit of a positive one.
uint64_t
sortKey(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u & (uint64_t{1} << 63) ? ~u : u | (uint64_t{1} << 63);
}

double
fromSortKey(uint64_t k)
{
    uint64_t u = k & (uint64_t{1} << 63) ? k & ~(uint64_t{1} << 63) : ~k;
    double d;
    std::memcpy(&d, &u, sizeof d);
    return d;
}

size_t
digitOf(uint64_t key, unsigned digit)
{
    return static_cast<size_t>(key >> (digit * kDigitBits)) &
           (kDigitBuckets - 1);
}

} // namespace

void
sortLatencies(std::vector<double> &v, LatencySortScratch &scratch)
{
    size_t n = v.size();
    if (n < kLatencyRadixMinSize || n > UINT32_MAX) {
        std::sort(v.begin(), v.end());
        return;
    }
    // One counting pass fills every digit's histogram.
    std::vector<uint64_t> &keys = scratch.keys;
    std::vector<uint32_t> &counts = scratch.counts;
    keys.resize(n);
    counts.assign(kDigits * kDigitBuckets, 0);
    for (size_t i = 0; i < n; ++i) {
        uint64_t k = sortKey(v[i]);
        keys[i] = k;
        for (unsigned d = 0; d < kDigits; ++d)
            ++counts[d * kDigitBuckets + digitOf(k, d)];
    }
    // Scatter passes ping-pong between keys and v's own storage, which
    // holds raw key bits (copied with memcpy) between passes.
    bool inKeys = true;
    for (unsigned d = 0; d < kDigits; ++d) {
        uint32_t *c = &counts[d * kDigitBuckets];
        if (c[digitOf(keys[0], d)] == n)
            continue; // every key shares this digit: the pass is a no-op
        uint32_t sum = 0;
        for (size_t b = 0; b < kDigitBuckets; ++b) {
            uint32_t here = c[b];
            c[b] = sum;
            sum += here;
        }
        if (inKeys) {
            for (size_t i = 0; i < n; ++i) {
                uint64_t k = keys[i];
                std::memcpy(&v[c[digitOf(k, d)]++], &k, sizeof k);
            }
        } else {
            for (size_t i = 0; i < n; ++i) {
                uint64_t k;
                std::memcpy(&k, &v[i], sizeof k);
                keys[c[digitOf(k, d)]++] = k;
            }
        }
        inKeys = !inKeys;
    }
    for (size_t i = 0; i < n; ++i) {
        uint64_t k;
        if (inKeys)
            k = keys[i];
        else
            std::memcpy(&k, &v[i], sizeof k);
        v[i] = fromSortKey(k);
    }
}

void
mergeSortedRun(std::vector<double> &sorted, const std::vector<double> &run)
{
    // Merge from the back into the grown vector: every write lands past
    // the next unread element of sorted's old prefix, so no buffer is
    // needed. Ties take run's element first, from the back, which keeps
    // the merge stable.
    size_t i = sorted.size(), j = run.size();
    sorted.resize(i + j);
    size_t out = sorted.size();
    while (j > 0) {
        if (i > 0 && run[j - 1] < sorted[i - 1])
            sorted[--out] = sorted[--i];
        else
            sorted[--out] = run[--j];
    }
}

void
summarizeLatencies(ServeStats &stats, std::vector<double> &latencies,
                   LatencySortScratch &scratch)
{
    sortLatencies(latencies, scratch);
    fillLatencyStats(stats, latencies);
}

void
summarizeLatencies(ServeStats &stats, std::vector<double> &latencies)
{
    LatencySortScratch scratch;
    summarizeLatencies(stats, latencies, scratch);
}

} // namespace bw
