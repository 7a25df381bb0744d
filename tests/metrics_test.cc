/**
 * @file
 * Live-metrics subsystem: counter/gauge/histogram semantics (sharded
 * recording merges exactly, bucket boundaries, quantile accuracy vs
 * the exact nearest-rank percentile), registry family rules,
 * Prometheus/Json exposition and the format checker, the background
 * sampler and its Chrome counter events, the HTTP endpoint, and the
 * producers: serve::Engine counters agreeing with its StatsCollector
 * and timing::NpuTiming publishing without perturbing simulated
 * cycles.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bw/bw.h"

using namespace bw;
using namespace bw::metrics;

// --- Counter ---

TEST(Counter, AddAndValue)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsSumExactly)
{
    Counter c;
    constexpr unsigned kThreads = 8, kPerThread = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), uint64_t(kThreads) * kPerThread);
}

TEST(Gauge, SetAndAdd)
{
    Gauge g;
    g.set(3.5);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.set(0.0);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// --- Histogram ---

TEST(Histogram, BucketBoundaries)
{
    HistogramOptions opts;
    opts.lowest = 1.0;
    opts.highest = 1000.0;
    opts.bucketsPerDecade = 1; // bounds 1, 10, 100, 1000
    Histogram h(opts);
    ASSERT_EQ(h.bounds().size(), 4u);
    EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
    EXPECT_DOUBLE_EQ(h.bounds()[3], 1000.0);

    // Bucket i covers (bound(i-1), bound(i)]: a boundary value lands
    // in the bucket it bounds, not the next one.
    EXPECT_EQ(h.bucketIndex(0.5), 0u);
    EXPECT_EQ(h.bucketIndex(1.0), 0u);
    EXPECT_EQ(h.bucketIndex(1.0001), 1u);
    EXPECT_EQ(h.bucketIndex(10.0), 1u);
    EXPECT_EQ(h.bucketIndex(1000.0), 3u);
    EXPECT_EQ(h.bucketIndex(1000.1), 4u); // overflow slot

    h.record(0.5);    // underflow -> bucket 0
    h.record(10.0);   // boundary -> bucket 1
    h.record(5000.0); // overflow
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.counts[0], 1u);
    EXPECT_EQ(s.counts[1], 1u);
    EXPECT_EQ(s.counts[4], 1u);
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.sum, 5010.5);
    EXPECT_DOUBLE_EQ(s.maxValue, 5000.0);
}

TEST(Histogram, ConcurrentShardsMergeToSingleThreadedResult)
{
    // The same sample stream recorded by 8 threads and by 1 thread
    // must produce identical snapshots (counts, sum, max).
    std::vector<double> samples;
    Rng rng(11);
    for (int i = 0; i < 8000; ++i)
        samples.push_back(0.01 + 200.0 * rng.uniform());

    Histogram multi, single;
    constexpr unsigned kThreads = 8;
    size_t chunk = samples.size() / kThreads;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = t * chunk; i < (t + 1) * chunk; ++i)
                multi.record(samples[i]);
        });
    }
    for (auto &t : threads)
        t.join();
    for (double v : samples)
        single.record(v);

    HistogramSnapshot a = multi.snapshot(), b = single.snapshot();
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.count, b.count);
    EXPECT_NEAR(a.sum, b.sum, 1e-6 * b.sum); // float add order differs
    EXPECT_DOUBLE_EQ(a.maxValue, b.maxValue);
}

TEST(Histogram, QuantileWithinOneBucketOfExactNearestRank)
{
    Histogram h; // defaults: 1e-3 .. 1e4, 10 buckets/decade
    std::vector<double> samples;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        // Latency-shaped: bulk around 1-10ms with a heavy tail.
        double u = rng.uniform();
        samples.push_back(u < 0.95 ? 1.0 + 9.0 * rng.uniform()
                                   : 10.0 + 500.0 * rng.uniform());
    }
    for (double v : samples)
        h.record(v);
    std::sort(samples.begin(), samples.end());

    HistogramSnapshot s = h.snapshot();
    for (double pct : {50.0, 95.0, 99.0}) {
        double exact = percentileSorted(samples, pct);
        double est = s.quantile(pct);
        // The estimate is the upper bound of the exact value's bucket:
        // exact <= est < exact + bucket width.
        EXPECT_GE(est, exact) << "pct " << pct;
        EXPECT_LE(est - exact, s.bucketWidthBelow(est)) << "pct " << pct;
    }
}

TEST(Histogram, EmptyAndSingleSampleQuantiles)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.snapshot().quantile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.snapshot().quantile(99), 0.0);
    h.record(3.0);
    HistogramSnapshot s = h.snapshot();
    // Any quantile of one sample is that sample's bucket bound.
    double q50 = s.quantile(50), q99 = s.quantile(99);
    EXPECT_EQ(q50, q99);
    EXPECT_GE(q50, 3.0);
    EXPECT_LE(q50 - 3.0, s.bucketWidthBelow(q50));
}

// --- Histogram exemplars (span-tracing trace ids per bucket) ---

TEST(HistogramExemplar, BucketPlacementAndMaxWins)
{
    HistogramOptions opts;
    opts.lowest = 1.0;
    opts.highest = 1000.0;
    opts.bucketsPerDecade = 1; // bounds 1, 10, 100, 1000
    Histogram h(opts);

    h.recordExemplar(5.0, 41);  // bucket 1
    h.recordExemplar(7.0, 42);  // same bucket, larger: wins
    h.recordExemplar(6.0, 43);  // smaller: ignored
    h.recordExemplar(0.5, 44);  // underflow bucket
    h.recordExemplar(50.0, 0);  // trace 0: counts, no exemplar

    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 5u); // recordExemplar still records the sample
    ASSERT_EQ(s.exemplars.size(), s.counts.size());
    EXPECT_EQ(s.exemplars[0].traceId, 44u);
    EXPECT_DOUBLE_EQ(s.exemplars[0].value, 0.5);
    EXPECT_EQ(s.exemplars[1].traceId, 42u);
    EXPECT_DOUBLE_EQ(s.exemplars[1].value, 7.0);
    EXPECT_EQ(s.exemplars[2].traceId, 0u); // trace 0 left no exemplar
}

TEST(HistogramExemplar, ShardMergeKeepsSlowestAcrossThreads)
{
    Histogram h;
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // All samples land in one bucket; thread t's slowest is
            // 5.0 + t with trace id 100 + t.
            for (int i = 0; i < 50; ++i)
                h.recordExemplar(5.0 + t, 100 + t);
        });
    }
    for (auto &t : threads)
        t.join();

    HistogramSnapshot s = h.snapshot();
    size_t b = h.bucketIndex(5.0 + kThreads - 1);
    EXPECT_EQ(s.exemplars[b].traceId, 100u + kThreads - 1);
    EXPECT_DOUBLE_EQ(s.exemplars[b].value, 5.0 + kThreads - 1);
}

TEST(HistogramExemplar, JsonExpositionEmitsExemplarsAndOverflow)
{
    Registry reg;
    Histogram &h = reg.histogram("bw_lat_ms", "latency");
    h.recordExemplar(2.5, 7);
    h.recordExemplar(1e9, 9); // overflow bucket

    Json doc = metricsJson(reg);
    std::string s = doc.dump(2);
    EXPECT_NE(s.find("\"exemplar\""), std::string::npos);
    EXPECT_NE(s.find("\"trace\": 7"), std::string::npos);
    // The +Inf bucket's exemplar is a separate key so every bucket
    // object keeps a numeric "le".
    EXPECT_NE(s.find("\"overflow_exemplar\""), std::string::npos);
    EXPECT_NE(s.find("\"trace\": 9"), std::string::npos);

    // A histogram with no exemplars emits neither key.
    Registry plain;
    plain.histogram("bw_plain_ms", "latency").record(2.5);
    std::string p = metricsJson(plain).dump(2);
    EXPECT_EQ(p.find("exemplar"), std::string::npos);
}

// --- percentileSorted hardening (shared quantile helper) ---

TEST(PercentileSorted, EmptySingleAndClamping)
{
    EXPECT_DOUBLE_EQ(percentileSorted({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentileSorted({7.0}, 0), 7.0);
    EXPECT_DOUBLE_EQ(percentileSorted({7.0}, 50), 7.0);
    EXPECT_DOUBLE_EQ(percentileSorted({7.0}, 100), 7.0);
    // Out-of-range pct clamps instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 2.0}, -10), 1.0);
    EXPECT_DOUBLE_EQ(percentileSorted({1.0, 2.0}, 250), 2.0);
}

TEST(PercentileSorted, NearestRankAndQuantilesStruct)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 95), 95.0);
    EXPECT_DOUBLE_EQ(percentileSorted(v, 99), 99.0);
    LatencyQuantiles q = quantilesSorted(v);
    EXPECT_DOUBLE_EQ(q.p50, 50.0);
    EXPECT_DOUBLE_EQ(q.p95, 95.0);
    EXPECT_DOUBLE_EQ(q.p99, 99.0);
}

TEST(PercentileSorted, AllEqualSamplesCollapseEveryQuantile)
{
    // The degenerate tail the bw_spans differential-attribution report
    // hits when a run is perfectly uniform: every percentile is the
    // common value and the p50/p99 cohorts coincide.
    std::vector<double> v(64, 3.25);
    for (double pct : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(percentileSorted(v, pct), 3.25);
    LatencyQuantiles q = quantilesSorted(v);
    EXPECT_DOUBLE_EQ(q.p50, q.p99);
}

TEST(HistogramExemplar, SingleOccupiedBucketQuantilesAndExemplar)
{
    // Every sample (and therefore every exemplar) in one bucket: all
    // quantile estimates collapse to that bucket's upper bound, and
    // the lone exemplar pairs the bucket's largest value with the
    // trace that produced it.
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.recordExemplar(5.0 + 0.0001 * i, 1000 + i);

    HistogramSnapshot s = h.snapshot();
    size_t occupied = 0;
    for (uint64_t c : s.counts)
        occupied += c > 0;
    ASSERT_EQ(occupied, 1u);
    double q50 = s.quantile(50), q99 = s.quantile(99);
    EXPECT_EQ(q50, q99);
    EXPECT_GE(q50, 5.0);
    size_t b = h.bucketIndex(5.0);
    EXPECT_EQ(s.exemplars[b].traceId, 1099u);
    EXPECT_DOUBLE_EQ(s.exemplars[b].value, 5.0 + 0.0001 * 99);
}

// --- Registry ---

TEST(Registry, GetOrCreateReturnsSameInstance)
{
    Registry reg;
    Counter &a = reg.counter("bw_test_total", "help");
    Counter &b = reg.counter("bw_test_total", "help");
    EXPECT_EQ(&a, &b);
    Counter &c = reg.counter("bw_test_total", "help", {{"k", "v"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, TypeConflictAndBadNamesThrow)
{
    Registry reg;
    reg.counter("bw_dual", "help");
    EXPECT_THROW(reg.gauge("bw_dual", "help"), Error);
    EXPECT_THROW(reg.counter("0bad", "help"), Error);
    EXPECT_THROW(reg.counter("has space", "help"), Error);
    EXPECT_THROW(reg.counter("ok_name", "help", {{"0bad", "v"}}), Error);
}

TEST(Registry, CollectIsFamilyMajorInRegistrationOrder)
{
    Registry reg;
    reg.counter("bw_a_total", "a");
    reg.gauge("bw_b", "b");
    reg.counter("bw_a_total", "a", {{"k", "v"}}); // joins family a
    auto snaps = reg.collect();
    ASSERT_EQ(snaps.size(), 3u);
    EXPECT_EQ(snaps[0].name, "bw_a_total");
    EXPECT_EQ(snaps[1].name, "bw_a_total");
    EXPECT_EQ(snaps[2].name, "bw_b");
}

// --- Exposition ---

namespace {

/** A registry with one of each type, some labeled. */
void
populate(Registry &reg)
{
    reg.counter("bw_reqs_total", "requests").add(5);
    reg.counter("bw_reqs_total", "requests", {{"replica", "0"}}).add(2);
    reg.gauge("bw_depth", "queue depth").set(3);
    Histogram &h = reg.histogram("bw_lat_ms", "latency");
    for (double v : {0.5, 1.0, 2.0, 5.0, 50.0, 20000.0})
        h.record(v);
}

} // namespace

TEST(Exposition, PrometheusTextPassesValidator)
{
    Registry reg;
    populate(reg);
    std::string text = prometheusText(reg);
    Status st = validatePrometheusText(text);
    EXPECT_TRUE(st.ok()) << st.toString() << "\n" << text;
    // Spot checks.
    EXPECT_NE(text.find("# TYPE bw_reqs_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("bw_reqs_total{replica=\"0\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("bw_lat_ms_bucket{le=\"+Inf\"} 6"),
              std::string::npos);
    EXPECT_NE(text.find("bw_lat_ms_count 6"), std::string::npos);
}

TEST(Exposition, ValidatorRejectsMalformedDocuments)
{
    // Sample without a TYPE.
    EXPECT_FALSE(validatePrometheusText("bw_x 1\n").ok());
    // Bad metric name.
    EXPECT_FALSE(
        validatePrometheusText("# TYPE 0bad counter\n0bad 1\n").ok());
    // Bad value.
    EXPECT_FALSE(validatePrometheusText(
                     "# TYPE bw_x counter\nbw_x banana\n")
                     .ok());
    // Histogram without +Inf.
    EXPECT_FALSE(validatePrometheusText("# TYPE bw_h histogram\n"
                                        "bw_h_bucket{le=\"1\"} 1\n"
                                        "bw_h_sum 1\nbw_h_count 1\n")
                     .ok());
    // Non-cumulative buckets.
    EXPECT_FALSE(validatePrometheusText("# TYPE bw_h histogram\n"
                                        "bw_h_bucket{le=\"1\"} 5\n"
                                        "bw_h_bucket{le=\"2\"} 3\n"
                                        "bw_h_bucket{le=\"+Inf\"} 5\n")
                     .ok());
    // _count disagreeing with the +Inf bucket.
    EXPECT_FALSE(validatePrometheusText("# TYPE bw_h histogram\n"
                                        "bw_h_bucket{le=\"+Inf\"} 5\n"
                                        "bw_h_count 4\n")
                     .ok());
    // le out of order.
    EXPECT_FALSE(validatePrometheusText("# TYPE bw_h histogram\n"
                                        "bw_h_bucket{le=\"2\"} 1\n"
                                        "bw_h_bucket{le=\"1\"} 2\n"
                                        "bw_h_bucket{le=\"+Inf\"} 2\n")
                     .ok());
    // A valid document for contrast.
    EXPECT_TRUE(validatePrometheusText("# TYPE bw_x counter\nbw_x 1\n")
                    .ok());
}

TEST(Exposition, JsonGroupsFamiliesAndEstimatesQuantiles)
{
    Registry reg;
    populate(reg);
    Json doc = metricsJson(reg);
    std::string s = doc.dump(2);
    EXPECT_NE(s.find("\"bw_reqs_total\""), std::string::npos);
    EXPECT_NE(s.find("\"type\": \"counter\""), std::string::npos);
    EXPECT_NE(s.find("\"p99\""), std::string::npos);
    EXPECT_NE(s.find("\"replica\": \"0\""), std::string::npos);
    // Histogram instance carries count and max.
    EXPECT_NE(s.find("\"count\": 6"), std::string::npos);
    EXPECT_NE(s.find("\"max\": 20000"), std::string::npos);
}

// --- Sampler ---

TEST(Sampler, SampleOnceAndCounterEvents)
{
    Registry reg;
    Gauge &depth = reg.gauge("bw_depth", "queue depth");
    Counter &reqs = reg.counter("bw_reqs_total", "requests",
                                {{"replica", "1"}});
    Sampler sampler(reg, 5.0);
    depth.set(4);
    reqs.add(2);
    sampler.sampleOnce();
    depth.set(7);
    sampler.sampleOnce();

    auto samples = sampler.samples();
    ASSERT_EQ(samples.size(), 4u); // 2 instruments x 2 samples
    EXPECT_GE(samples[2].tUs, samples[0].tUs);

    Json events = counterTraceEvents(samples);
    std::string s = events.dump(2);
    EXPECT_NE(s.find("\"ph\": \"C\""), std::string::npos);
    // Labels fold into the counter-track name.
    EXPECT_NE(s.find("bw_reqs_total[replica=1]"), std::string::npos);

    Json doc = Json::object();
    doc.set("traceEvents", Json::array());
    appendCounterEvents(doc, samples);
    EXPECT_NE(doc.dump(2).find("\"ph\": \"C\""), std::string::npos);
}

TEST(Sampler, BackgroundThreadCollectsOverTime)
{
    Registry reg;
    reg.gauge("bw_depth", "queue depth").set(1);
    Sampler sampler(reg, 2.0);
    sampler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sampler.stop(); // takes a final sample
    EXPECT_GE(sampler.samples().size(), 2u);
}

// --- HTTP endpoint ---

TEST(HttpServer, RoutesWithoutSockets)
{
    Registry reg;
    populate(reg);
    MetricsHttpServer srv(reg);

    std::string ok = srv.respond("GET /metrics HTTP/1.1");
    EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(ok.find("bw_reqs_total"), std::string::npos);

    std::string json = srv.respond("GET /metrics.json HTTP/1.1");
    EXPECT_NE(json.find("application/json"), std::string::npos);

    EXPECT_NE(srv.respond("GET /healthz HTTP/1.1").find("200"),
              std::string::npos);
    EXPECT_NE(srv.respond("GET /nope HTTP/1.1").find("404"),
              std::string::npos);
    EXPECT_NE(srv.respond("POST /metrics HTTP/1.1").find("405"),
              std::string::npos);
    // Query strings are stripped before routing.
    EXPECT_NE(srv.respond("GET /metrics?x=1 HTTP/1.1").find("200"),
              std::string::npos);
}

TEST(HttpServer, ReadinessProbeGatesHealthz)
{
    Registry reg;
    MetricsHttpServer srv(reg);
    // No probe installed: /healthz is plain liveness.
    EXPECT_NE(srv.respond("GET /healthz HTTP/1.1").find("200 OK"),
              std::string::npos);

    bool ready = false;
    srv.setReadiness([&] { return ready; });
    std::string resp = srv.respond("GET /healthz HTTP/1.1");
    EXPECT_NE(resp.find("503"), std::string::npos);
    EXPECT_NE(resp.find("\"draining\": true"), std::string::npos);
    EXPECT_NE(resp.find("application/json"), std::string::npos);

    ready = true;
    EXPECT_NE(srv.respond("GET /healthz HTTP/1.1").find("200 OK"),
              std::string::npos);
    // An unready server still serves /metrics (liveness vs readiness).
    ready = false;
    EXPECT_NE(srv.respond("GET /metrics HTTP/1.1").find("200 OK"),
              std::string::npos);
}

TEST(HttpServer, JsonHandlersRouteAndReplace)
{
    Registry reg;
    MetricsHttpServer srv(reg);
    srv.handleJson("/debug/x", [] { return std::string("{\"v\": 1}\n"); });
    std::string resp = srv.respond("GET /debug/x HTTP/1.1");
    EXPECT_NE(resp.find("200 OK"), std::string::npos);
    EXPECT_NE(resp.find("application/json"), std::string::npos);
    EXPECT_NE(resp.find("{\"v\": 1}"), std::string::npos);
    EXPECT_NE(srv.respond("GET /debug/y HTTP/1.1").find("404"),
              std::string::npos);

    // Re-registering the same path replaces the handler.
    srv.handleJson("/debug/x", [] { return std::string("{\"v\": 2}\n"); });
    EXPECT_NE(srv.respond("GET /debug/x HTTP/1.1").find("{\"v\": 2}"),
              std::string::npos);
    // Query strings are stripped for registered handlers too.
    EXPECT_NE(srv.respond("GET /debug/x?pretty HTTP/1.1").find("{\"v\": 2}"),
              std::string::npos);
}

TEST(HttpServer, StreamHandlersRouteWithoutSockets)
{
    Registry reg;
    MetricsHttpServer srv(reg);
    std::string out;
    MetricsHttpServer::StreamSink sink = [&out](const std::string &c) {
        out += c;
        return true;
    };
    // Unregistered paths and non-GET methods fall through to respond().
    EXPECT_FALSE(srv.respondStream("GET /stream/x HTTP/1.1", sink));
    srv.handleStream("/stream/x",
                     [](const MetricsHttpServer::StreamSink &s) {
                         s("{\"a\":1}\n");
                         s("{\"b\":2}\n");
                     });
    EXPECT_FALSE(srv.respondStream("POST /stream/x HTTP/1.1", sink));
    ASSERT_TRUE(srv.respondStream("GET /stream/x HTTP/1.1", sink));
    EXPECT_NE(out.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(out.find("application/x-ndjson"), std::string::npos);
    // Connection-delimited body: the handler may produce chunks it
    // never holds at once, so there is no Content-Length to lie about.
    EXPECT_EQ(out.find("Content-Length"), std::string::npos);
    EXPECT_NE(out.find("{\"a\":1}\n{\"b\":2}\n"), std::string::npos);

    // Query strings are stripped; re-registering replaces the handler.
    out.clear();
    EXPECT_TRUE(srv.respondStream("GET /stream/x?q=1 HTTP/1.1", sink));
    EXPECT_NE(out.find("{\"a\":1}"), std::string::npos);
    srv.handleStream("/stream/x",
                     [](const MetricsHttpServer::StreamSink &s) {
                         s("{\"c\":3}\n");
                     });
    out.clear();
    ASSERT_TRUE(srv.respondStream("GET /stream/x HTTP/1.1", sink));
    EXPECT_NE(out.find("{\"c\":3}"), std::string::npos);
    EXPECT_EQ(out.find("{\"a\":1}"), std::string::npos);

    // A sink that refuses the header short-circuits the handler.
    size_t calls = 0;
    MetricsHttpServer::StreamSink refuse = [&calls](const std::string &) {
        ++calls;
        return false;
    };
    bool handler_ran = false;
    srv.handleStream("/stream/y",
                     [&handler_ran](const MetricsHttpServer::StreamSink &s) {
                         handler_ran = true;
                         s("{\"z\":0}\n");
                     });
    EXPECT_TRUE(srv.respondStream("GET /stream/y HTTP/1.1", refuse));
    EXPECT_EQ(calls, 1u);
    EXPECT_FALSE(handler_ran);
}

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

TEST(HttpServer, ServesMetricsOverARealSocket)
{
    Registry reg;
    populate(reg);
    MetricsHttpServer srv(reg);
    Status st = srv.start(0); // ephemeral port
    ASSERT_TRUE(st.ok()) << st.toString();
    ASSERT_NE(srv.port(), 0);

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(srv.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char req[] = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<size_t>(n));
    ::close(fd);
    srv.stop();

    EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    size_t body = resp.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos);
    Status v = validatePrometheusText(resp.substr(body + 4));
    EXPECT_TRUE(v.ok()) << v.toString();
}

namespace {

int
connectTo(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    auto *sa = reinterpret_cast<sockaddr *>(&addr);
    int rc = ::connect(fd, sa, sizeof(addr));
    // An interrupted connect() keeps connecting in the background: wait
    // for the socket to turn writable and ask again until it settles.
    while (rc != 0 && (errno == EINTR || errno == EALREADY)) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 1000);
        rc = ::connect(fd, sa, sizeof(addr));
    }
    if (rc != 0 && errno != EISCONN) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sigusr1Noop(int)
{
}

/**
 * While alive, sends this process SIGUSR1 every 200 us under a no-op
 * handler installed WITHOUT SA_RESTART, so any send() or recv() blocked
 * when a signal lands returns EINTR instead of restarting. Destruction
 * stops and joins the thread and restores the old handler, on every exit
 * path: a failed ASSERT can leave neither a joinable thread
 * (std::terminate) nor the handler behind.
 */
class SigusrPinger
{
  public:
    SigusrPinger()
    {
        struct sigaction sa {};
        sa.sa_handler = sigusr1Noop;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0;
        installed_ = sigaction(SIGUSR1, &sa, &old_) == 0;
        if (!installed_)
            return;
        thread_ = std::thread([this] {
            while (!done_.load()) {
                ::kill(::getpid(), SIGUSR1);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        });
    }

    ~SigusrPinger()
    {
        done_.store(true);
        if (thread_.joinable())
            thread_.join();
        if (installed_)
            sigaction(SIGUSR1, &old_, nullptr);
    }

    SigusrPinger(const SigusrPinger &) = delete;
    SigusrPinger &operator=(const SigusrPinger &) = delete;

    bool installed() const { return installed_; }

  private:
    struct sigaction old_ {};
    bool installed_ = false;
    std::atomic<bool> done_{false};
    std::thread thread_;
};

} // namespace

TEST(HttpServer, StreamsNdjsonOverSocketDespiteEintr)
{
    Registry reg;
    MetricsHttpServer srv(reg);
    const size_t kRows = 20000;
    std::string row(120, 'x');
    row += '\n';
    srv.handleStream("/stream/big",
                     [&](const MetricsHttpServer::StreamSink &sink) {
                         for (size_t i = 0; i < kRows; ++i)
                             if (!sink(row))
                                 return;
                         sink("{\"summary\":true}\n");
                     });
    ASSERT_TRUE(srv.start(0).ok());

    // Connect and send the request before any signal flies, so only the
    // streaming itself runs under the pinger.
    int fd = connectTo(srv.port());
    ASSERT_GE(fd, 0);
    const char req[] = "GET /stream/big HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);

    // Stream under a storm of signals. The server's write loop must
    // absorb the EINTRs (and short writes: the body far exceeds a socket
    // buffer) without corrupting or truncating the stream.
    std::string resp;
    {
        SigusrPinger pinger;
        ASSERT_TRUE(pinger.installed());
        char buf[8192];
        for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            resp.append(buf, static_cast<size_t>(n));
        }
    }
    ::close(fd);
    srv.stop();

    ASSERT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
    size_t body = resp.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos);
    std::string payload = resp.substr(body + 4);
    // Every row arrived, in order, and the trailer closed the stream.
    EXPECT_EQ(payload.size(), kRows * row.size() +
                                  std::string("{\"summary\":true}\n").size());
    EXPECT_EQ(payload.compare(0, row.size(), row), 0);
    EXPECT_NE(payload.rfind("{\"summary\":true}\n"), std::string::npos);
}

TEST(HttpServer, ClientHangupAbortsStreamAndServerSurvives)
{
    Registry reg;
    MetricsHttpServer srv(reg);
    const uint64_t kMaxRows = 1000000;
    std::atomic<uint64_t> produced{0};
    std::atomic<bool> aborted{false};
    std::string row(256, 'y');
    row += '\n';
    srv.handleStream("/stream/endless",
                     [&](const MetricsHttpServer::StreamSink &sink) {
                         for (uint64_t i = 0; i < kMaxRows; ++i) {
                             if (!sink(row)) {
                                 aborted.store(true);
                                 return;
                             }
                             produced.fetch_add(1);
                         }
                     });
    ASSERT_TRUE(srv.start(0).ok());

    int fd = connectTo(srv.port());
    ASSERT_GE(fd, 0);
    const char req[] = "GET /stream/endless HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
    // Read a little, then hang up mid-stream: the server's next writes
    // hit EPIPE/ECONNRESET, the sink reports failure, and the handler
    // stops producing instead of spinning through the remaining rows.
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    ::close(fd);
    for (int i = 0; i < 500 && !aborted.load(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(aborted.load());
    EXPECT_LT(produced.load(), kMaxRows);

    // The accept loop survived the hangup: a fresh connection is served.
    int fd2 = connectTo(srv.port());
    ASSERT_GE(fd2, 0);
    const char req2[] = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_GT(::send(fd2, req2, sizeof(req2) - 1, 0), 0);
    std::string resp;
    while ((n = ::recv(fd2, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<size_t>(n));
    ::close(fd2);
    srv.stop();
    EXPECT_NE(resp.find("200 OK"), std::string::npos);
}
#endif

// --- Producer: serve::Engine ---

TEST(EngineMetrics, CountersAgreeWithStatsCollector)
{
    Registry reg;
    serve::EngineOptions opts;
    opts.replicas = 2;
    opts.queueDepth = 4096;
    opts.serviceMsOverride = 0.01;
    opts.timeScale = 0.0;
    opts.metricsRegistry = &reg;
    serve::Engine engine(opts);
    engine.start();

    constexpr unsigned kThreads = 4, kPerThread = 50;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                auto fut = engine.submit(serve::Request::timed(1));
                ASSERT_TRUE(fut.ok());
                fut.take().wait();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    engine.drain();

    constexpr uint64_t kTotal = uint64_t(kThreads) * kPerThread;
    EXPECT_EQ(reg.counter("bw_serve_admitted_total", "").value(), kTotal);
    EXPECT_EQ(reg.counter("bw_serve_completed_total", "").value(),
              kTotal);
    EXPECT_EQ(reg.counter("bw_serve_rejected_total", "").value(),
              engine.collector().count(obs::FlightClass::Rejected));
    EXPECT_DOUBLE_EQ(reg.gauge("bw_serve_queue_depth", "").value(), 0.0);
    EXPECT_DOUBLE_EQ(reg.gauge("bw_serve_inflight", "").value(), 0.0);

    // Histogram tails agree with ServeStats within one bucket width.
    ServeStats s = engine.stats();
    HistogramSnapshot lat =
        reg.histogram("bw_serve_latency_ms", "").snapshot();
    EXPECT_EQ(lat.count, kTotal);
    for (auto [pct, exact] :
         {std::pair{95.0, s.p95LatencyMs}, {99.0, s.p99LatencyMs}}) {
        double est = lat.quantile(pct);
        EXPECT_GE(est, exact) << "pct " << pct;
        EXPECT_LE(est - exact, lat.bucketWidthBelow(est))
            << "pct " << pct;
    }

    // Replica busy time landed somewhere.
    uint64_t busy =
        reg.counter("bw_serve_replica_busy_us_total", "",
                    {{"replica", "0"}})
            .value() +
        reg.counter("bw_serve_replica_busy_us_total", "",
                    {{"replica", "1"}})
            .value();
    EXPECT_GT(busy, 0u);

    // The whole registry exports cleanly.
    Status v = validatePrometheusText(prometheusText(reg));
    EXPECT_TRUE(v.ok()) << v.toString();
}

TEST(EngineMetrics, RejectionsAndCancellationsCount)
{
    Registry reg;
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    serve::EngineOptions opts;
    opts.replicas = 1;
    opts.queueDepth = 1;
    opts.serviceMsOverride = 0.01;
    opts.timeScale = 0.0;
    opts.metricsRegistry = &reg;
    opts.serviceHook = [&](uint64_t) {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return release; });
    };
    serve::Engine engine(opts);
    engine.start();

    // The first request occupies the replica, the second fills the
    // depth-1 queue.
    auto gate = engine.submit(serve::Request::timed(1));
    ASSERT_TRUE(gate.ok());
    // Wait until it is actually in service so the queue is empty.
    while (engine.queueSize() > 0)
        std::this_thread::yield();
    auto queued = engine.submit(serve::Request::timed(1));
    ASSERT_TRUE(queued.ok());
    auto rejected = engine.submit(serve::Request::timed(1));
    EXPECT_FALSE(rejected.ok());
    EXPECT_EQ(reg.counter("bw_serve_rejected_total", "").value(), 1u);

    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    engine.shutdown(); // abandons whatever is still queued
    uint64_t done = reg.counter("bw_serve_completed_total", "").value();
    uint64_t cancelled =
        reg.counter("bw_serve_cancelled_total", "").value();
    EXPECT_EQ(done + cancelled, 2u);
    EXPECT_DOUBLE_EQ(reg.gauge("bw_serve_queue_depth", "").value(), 0.0);
}

// --- Producer: timing::NpuTiming ---

namespace {

NpuConfig
tinyConfig()
{
    NpuConfig c = NpuConfig::bwS10();
    c.name = "tiny";
    c.nativeDim = 40;
    c.lanes = 10;
    c.tileEngines = 2;
    c.mrfSize = 64;
    c.mrfIndexSpace = 256;
    c.initialVrfSize = 128;
    c.addSubVrfSize = 128;
    c.multiplyVrfSize = 128;
    return c;
}

} // namespace

TEST(NpuTimingMetrics, PublishesUtilizationWithoutPerturbingCycles)
{
    NpuConfig cfg = tinyConfig();
    ProgramBuilder b;
    b.vRd(MemId::InitialVrf, 0).mvMul(0).vWr(MemId::InitialVrf, 1);
    Program p = b.build();

    timing::NpuTiming plain(cfg);
    auto base = plain.run(p, 4);

    Registry reg;
    timing::NpuTiming instrumented(cfg);
    instrumented.setMetricsRegistry(&reg);
    auto measured = instrumented.run(p, 4);

    // Publishing is purely observational.
    EXPECT_EQ(measured.totalCycles, base.totalCycles);
    EXPECT_EQ(measured.chainsExecuted, base.chainsExecuted);

    EXPECT_EQ(reg.counter("bw_npu_runs_total", "").value(), 1u);
    EXPECT_EQ(reg.counter("bw_npu_cycles_total", "").value(),
              base.totalCycles);
    double mvm_util =
        reg.gauge("bw_npu_utilization", "",
                  {{"resource", "mvm_tile_engines"}})
            .value();
    EXPECT_GT(mvm_util, 0.0);
    EXPECT_LE(mvm_util, 1.0);

    // A second run accumulates counters and refreshes gauges.
    instrumented.run(p, 4);
    EXPECT_EQ(reg.counter("bw_npu_runs_total", "").value(), 2u);
    EXPECT_EQ(reg.counter("bw_npu_cycles_total", "").value(),
              2 * base.totalCycles);

    Status v = validatePrometheusText(prometheusText(reg));
    EXPECT_TRUE(v.ok()) << v.toString();
}
