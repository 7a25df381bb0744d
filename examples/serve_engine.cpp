/**
 * @file
 * The concurrent serving engine end to end: a GRU compiled into a
 * bw::Session and served by a pool of accelerator replicas behind a
 * bounded request queue, driven by multi-threaded clients. Each
 * replica serves one request at a time as it arrives (batch 1). Shows
 * admission control (queue-full rejections), per-request deadlines,
 * graceful drain, the thread-safe stats collector, and the
 * deterministic virtual-time replay that ties the engine to the
 * paper-validated analytic serving model.
 *
 * Environment: BW_SERVE_REPLICAS, BW_SERVE_QUEUE_DEPTH and
 * BW_SERVE_TIMESCALE override the engine options (a value that is not
 * a number of the option's kind warns once and is ignored, as for
 * every numeric BW_* variable); BW_STATS_JSON=<path>
 * writes the stats document; BW_SERVE_TRACE=<path> writes a
 * Perfetto-loadable Chrome trace of queue wait vs. service per worker,
 * overlaid with sampled metric counter tracks.
 *
 * Live metrics: the engine and the timing simulator publish into a
 * metrics::Registry. BW_METRICS_PORT=<port> serves it over HTTP
 * (GET /metrics Prometheus text, /metrics.json; port 0 picks an
 * ephemeral port, printed on stdout); BW_METRICS_PERIOD_MS sets the
 * background sampler period (default 25 ms); BW_METRICS_LINGER_S keeps
 * the endpoint up for that many seconds after the run so scrapers
 * can't race the exit; BW_METRICS_JSON=<path> writes the JSON
 * exposition; BW_BENCH_JSON=<path> overrides the machine-readable
 * BENCH_serve_engine.json artifact.
 *
 * Span tracing: every request is head-sampled at admission
 * (BW_SPAN_SAMPLE traces 1 in N; default every request) and records a
 * request/queue_wait/dispatch/execute/chain[i] span tree.
 * BW_SPANS_JSON=<path> writes the span-tree export (analyze with
 * bw_spans; merge into the Perfetto timeline with bw_trace merge), and
 * sampled trace ids appear as latency-histogram exemplars in
 * /metrics.json.
 *
 * Flight recorder + SLO: every submission attempt lands in the
 * tail-sampling flight recorder (BW_FLIGHT_WINDOW_MS /
 * BW_FLIGHT_SLOWEST_K / BW_FLIGHT_RING tune promotion); anomalies plus
 * the slowest-K per window export via BW_FLIGHT_JSON=<path> with full
 * reconstructed span trees (analyze with bw_spans flight). An SLO
 * burn-rate monitor (default SloOptions objectives and windows)
 * classifies requests by deadline and serves /slo.json;
 * BW_SLO_JSON=<path> writes the same document. With BW_METRICS_PORT
 * set, Engine::exposeDebug also mounts /debug/queue, /debug/replicas,
 * /debug/config, /debug/errors and /debug/flight, and /healthz turns
 * 503 {"draining":true} once the engine drains.
 *
 *   $ ./serve_engine [clients] [requests_per_client]
 *   $ ./serve_engine --help
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bw/bw.h"

using namespace bw;

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::printf(
            "usage: serve_engine [clients] [requests_per_client]\n"
            "\n"
            "Drive the concurrent serving engine with multi-threaded\n"
            "clients, then replay a fixed Poisson schedule in virtual\n"
            "time against the analytic model.\n"
            "\n"
            "Environment variables (shared across all bw binaries):\n%s",
            renderEnvVarHelp().c_str());
        return 0;
    }
    unsigned clients = argc > 1 ? std::atoi(argv[1]) : 4;
    unsigned per_client = argc > 2 ? std::atoi(argv[2]) : 16;

    // A small GRU so functional service is fast enough to stress the
    // queue from many client threads.
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(3);
    const unsigned hidden = 128, steps = 10;
    Session session =
        Session::compile(makeGru(randomGruWeights(hidden, hidden, rng)),
                         cfg);

    // Live metrics: the engine, the timing simulator, and a background
    // sampler all publish into one registry.
    metrics::Registry registry;
    session.timer().setMetricsRegistry(&registry);

    // Span tracing: head-sampled per request (BW_SPAN_SAMPLE), span
    // trees exported via BW_SPANS_JSON, exemplars into /metrics.json.
    obs::SpanTracer spans(obs::SpanTracerOptions::fromEnv());

    // Tail sampling: every request lands in the flight recorder; only
    // anomalies and the slowest-K per window are promoted to export.
    obs::FlightRecorder flight(obs::FlightRecorderOptions::fromEnv());

    // SLO burn-rate monitor: per-deadline-class latency/availability
    // SLIs over fast and slow windows, bw_slo_* metrics + /slo.json.
    serve::SloMonitor slo(serve::SloOptions{});
    slo.bindMetrics(&registry);

    serve::EngineOptions opts;
    opts.replicas = 2;
    opts.queueDepth = 32;
    opts.networkMs = 0.05;
    opts = serve::EngineOptions::fromEnv(opts);
    opts.metricsRegistry = &registry;
    opts.spanTracer = &spans;
    opts.flightRecorder = &flight;
    opts.sloMonitor = &slo;
    auto engine = session.serve(opts);

    std::printf("Engine: %u replicas, queue depth %zu, batch-1 dispatch, "
                "model %s\n",
                opts.replicas, opts.queueDepth,
                session.model().name.c_str());

    metrics::MetricsHttpServer http(registry);
    engine->exposeDebug(http); // /slo.json + /debug + readiness probe
    if (const char *port_env = std::getenv("BW_METRICS_PORT")) {
        Status st = http.start(
            static_cast<uint16_t>(std::atoi(port_env)));
        if (st.ok())
            std::printf("Metrics endpoint: http://127.0.0.1:%u/metrics\n",
                        http.port());
        else
            std::printf("Metrics endpoint unavailable: %s\n",
                        st.message().c_str());
    }

    double period_ms = 25.0;
    if (const char *p = std::getenv("BW_METRICS_PERIOD_MS"))
        period_ms = std::atof(p);
    metrics::Sampler sampler(registry, period_ms, engine->epoch());
    sampler.start();

    // --- Concurrent clients submitting functional requests. ---
    std::vector<std::thread> threads;
    std::atomic<unsigned> rejected{0};
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Rng crng(100 + c);
            std::vector<std::future<serve::Response>> futs;
            for (unsigned i = 0; i < per_client; ++i) {
                std::vector<FVec> xs(steps, FVec(hidden));
                for (FVec &x : xs)
                    fillUniform(x, crng, -0.5f, 0.5f);
                auto r = engine->submit(
                    serve::Request::functional(std::move(xs)));
                if (r.ok())
                    futs.push_back(r.take());
                else
                    ++rejected;
            }
            for (auto &f : futs)
                f.wait();
        });
    }
    for (auto &t : threads)
        t.join();
    engine->drain();
    sampler.stop();

    ServeStats s = engine->stats();
    TextTable t({"metric", "value"});
    t.addRow({"completed", fmtI(s.requests)});
    t.addRow({"rejected (QUEUE_FULL)", fmtI(rejected.load())});
    t.addRow({"mean latency ms", fmtF(s.meanLatencyMs, 3)});
    t.addRow({"p99 latency ms", fmtF(s.p99LatencyMs, 3)});
    t.addRow({"throughput req/s", fmtF(s.throughputRps, 0)});
    std::printf("\n%u clients x %u requests (functional, wall-clock):\n%s\n",
                clients, per_client, t.render().c_str());

    // --- Deterministic virtual-time replay: the same engine machinery
    //     on a fixed Poisson trace, reproducing the analytic model. ---
    Rng arr_rng(7);
    auto arrivals = poissonArrivals(400.0, 10.0, arr_rng);
    double service_ms = session.serviceMs(steps);

    serve::EngineOptions vopts;
    vopts.serviceMsOverride = service_ms;
    vopts.networkMs = 0.05;
    vopts.queueDepth = arrivals.size();
    serve::Engine virt(vopts);
    ServeStats replayed = virt.replay(arrivals, steps);
    ServeStats analytic = serveUnbatched(arrivals, service_ms, 0.05);

    std::printf("Virtual-time replay vs analytic serveUnbatched() "
                "(%zu requests, %.3f ms service):\n",
                arrivals.size(), service_ms);
    std::printf("  replay:   mean %.4f ms  p99 %.4f ms\n",
                replayed.meanLatencyMs, replayed.p99LatencyMs);
    std::printf("  analytic: mean %.4f ms  p99 %.4f ms\n",
                analytic.meanLatencyMs, analytic.p99LatencyMs);

    if (const char *path = std::getenv("BW_STATS_JSON")) {
        Json doc = engine->statsJson();
        doc.set("replay", replayed.toJson());
        doc.set("analytic", analytic.toJson());
        writeJsonFile(path, doc);
        std::printf("\nStats JSON written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_SPANS_JSON")) {
        Json span_doc = obs::spanTreeJson(spans);
        writeJsonFile(path, span_doc);
        std::printf("Span trees (%lld traces) written to %s\n",
                    static_cast<long long>(
                        span_doc.find("traces")->size()),
                    path);
    }
    // Flight export: the engine is drained, so the recorder rings are
    // quiescent and safe to collect.
    {
        std::vector<obs::FlightRecord> promoted = flight.promoted();
        std::printf("Flight recorder: %llu recorded, %zu promoted "
                    "(%llu dropped to ring wrap)\n",
                    static_cast<unsigned long long>(flight.recorded()),
                    promoted.size(),
                    static_cast<unsigned long long>(flight.dropped()));
        if (const char *path = std::getenv("BW_FLIGHT_JSON")) {
            Expected<Json> doc = engine->flightJson();
            if (doc.ok()) {
                writeJsonFile(path, doc.value());
                std::printf("Flight JSON written to %s\n", path);
            }
        }
    }
    if (const char *path = std::getenv("BW_SLO_JSON")) {
        writeJsonFile(path, slo.sloJson());
        std::printf("SLO JSON written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_SERVE_TRACE")) {
        // Engine timestamps are microseconds; clock 1.0 keeps them so.
        // Sampled metrics overlay the waterfall as counter tracks, and
        // sampled requests as async span events.
        Json trace_doc = obs::chromeTraceJson(engine->trace(), 1.0);
        metrics::appendCounterEvents(trace_doc, sampler.samples());
        Status st =
            obs::appendSpanTreeDocEvents(trace_doc, obs::spanTreeJson(spans));
        if (!st.ok())
            std::fprintf(stderr, "span overlay: %s\n",
                         st.toString().c_str());
        writeJsonFile(path, trace_doc);
        std::printf("Chrome trace written to %s\n", path);
    }
    if (const char *path = std::getenv("BW_METRICS_JSON")) {
        writeJsonFile(path, metrics::metricsJson(registry));
        std::printf("Metrics JSON written to %s\n", path);
    }

    // Machine-readable artifact (BW_BENCH_JSON overrides the path).
    {
        const char *env = std::getenv("BW_BENCH_JSON");
        std::string path = env ? env : "BENCH_serve_engine.json";
        Json doc = Json::object();
        doc.set("harness", "serve_engine");
        doc.set("clients", clients);
        doc.set("requests_per_client", per_client);
        doc.set("completed", s.requests);
        doc.set("rejected", rejected.load());
        doc.set("mean_latency_ms", s.meanLatencyMs);
        doc.set("p99_latency_ms", s.p99LatencyMs);
        doc.set("throughput_rps", s.throughputRps);
        doc.set("replay", replayed.toJson());
        doc.set("analytic", analytic.toJson());
        doc.set("metrics", metrics::metricsJson(registry));
        writeJsonFile(path, doc);
        std::printf("Bench JSON written to %s\n", path.c_str());
    }

    // Hold the endpoint open so external scrapers can't race our exit.
    if (const char *linger = std::getenv("BW_METRICS_LINGER_S")) {
        if (http.running()) {
            double hold_s = std::atof(linger);
            std::printf("Metrics endpoint lingering %.1f s...\n", hold_s);
            std::fflush(stdout);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(hold_s));
        }
    }
    return 0;
}
