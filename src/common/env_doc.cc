#include "common/env_doc.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace bw {

namespace {

/// One BW_WARN for a rejected value, once per variable and value.
void
reject(const char *name, const char *text, const std::string &want)
{
    static std::mutex mu;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lk(mu);
    if (warned.insert(std::string(name) + "=" + text).second)
        BW_WARN("%s=%s ignored (want %s)", name, text, want.c_str());
}

} // namespace

const char *
envText(const char *name)
{
    return std::getenv(name);
}

bool
parseUnsigned(const char *text, uint64_t lo, uint64_t hi, uint64_t *out)
{
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    errno = 0;
    char *end;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

void
envDouble(const char *name, double *field, double lo, double hi)
{
    const char *text = envText(name);
    if (!text || !*text)
        return;
    char *end;
    double v = std::strtod(text, &end);
    if (!*end && std::isfinite(v) && v >= lo && v <= hi) {
        *field = v;
        return;
    }
    reject(name, text,
           lo == -DBL_MAX && hi == DBL_MAX
               ? std::string("a finite number")
               : detail::format("a number in [%g, %g]", lo, hi));
}

namespace detail {

bool
envUnsigned(const char *name, uint64_t lo, uint64_t hi, uint64_t *out)
{
    const char *text = envText(name);
    if (!text || !*text)
        return false;
    if (parseUnsigned(text, lo, hi, out))
        return true;
    reject(name, text,
           format("an integer in [%llu, %llu]",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi)));
    return false;
}

} // namespace detail

const std::vector<EnvVarDoc> &
envVarDocs()
{
    static const std::vector<EnvVarDoc> docs = {
        {"BW_TIMING_MODE",
         "Timing-fidelity tier wherever a fromEnv()/Session default is "
         "consulted: 'cycle' (exact NpuTiming pipeline model, the "
         "default), 'fast' (event-driven steady-state extrapolation "
         "with exact fallback), or 'cached' (memoized cycle-accurate; "
         "repeat runs replay bit-identically in O(1))."},
        {"BW_SCORECARD_JSON",
         "Output path for repro_scorecard's machine-readable artifact "
         "(default BENCH_scorecard.json in the working directory)."},
        {"BW_SERVE_REPLICAS",
         "Override serve::EngineOptions::replicas wherever "
         "EngineOptions::fromEnv() is used (the serve_engine example)."},
        {"BW_SERVE_QUEUE_DEPTH",
         "Override serve::EngineOptions::queueDepth (bounded admission "
         "queue; submissions beyond it are rejected QUEUE_FULL)."},
        {"BW_SERVE_TIMESCALE",
         "Wall-clock seconds a worker really sleeps per simulated "
         "second of timed service (1.0 = real time, 0 = instantaneous; "
         "reported service times are always unscaled)."},
        {"BW_STATS_JSON",
         "Output path for the machine-readable serving-stats document "
         "written by speech_service and serve_engine alongside their "
         "tables."},
        {"BW_SERVE_TRACE",
         "Output path for serve_engine's Chrome trace (queue wait vs. "
         "service per worker, overlaid with sampled metric counter "
         "tracks and, when span tracing is on, per-request span "
         "events)."},
        {"BW_SPAN_SAMPLE",
         "Span-tracing head sampling: trace 1 in every N admitted "
         "requests (default 1 = every request, 0 = none). The decision "
         "is a pure function of the deterministic request sequence "
         "number."},
        {"BW_SPANS_JSON",
         "Output path for serve_engine's span-tree JSON export "
         "(schema bw.spans/1): one tree per sampled request — request / "
         "queue_wait / dispatch / execute / chain[i] with per-chain "
         "stall breakdowns. Feed it to the bw_spans analyzer or merge "
         "into a Perfetto trace with bw_trace merge."},
        {"BW_METRICS_PORT",
         "Serve serve_engine's metrics registry over HTTP (/metrics "
         "Prometheus text, /metrics.json, /healthz). Port 0 binds an "
         "ephemeral port, printed on stdout."},
        {"BW_METRICS_PERIOD_MS",
         "Background metrics sampler period in serve_engine (default "
         "25 ms)."},
        {"BW_METRICS_LINGER_S",
         "Keep serve_engine's metrics endpoint alive that many seconds "
         "after the run, so external scrapers can't race process "
         "exit."},
        {"BW_METRICS_JSON",
         "Output path for serve_engine's JSON metrics exposition "
         "(includes per-bucket latency exemplars naming slowest trace "
         "ids when span tracing is on)."},
        {"BW_BENCH_JSON",
         "Override the output path of a harness's machine-readable "
         "artifact (BENCH_fig7_utilization.json, "
         "BENCH_table5_deepbench.json, BENCH_serve_engine.json)."},
        {"BW_FLIGHT_WINDOW_MS",
         "Flight-recorder tail-promotion window in milliseconds of the "
         "engine's clock (default 1000): the slowest-K ranking runs "
         "per window of admission time."},
        {"BW_FLIGHT_SLOWEST_K",
         "Ok flight records promoted per promotion window, ranked by "
         "latency (default 4; 0 promotes only anomalies — expiries, "
         "rejects, errors, cancellations)."},
        {"BW_FLIGHT_RING",
         "Flight-recorder ring capacity per shard (default 4096 "
         "records); the oldest records of a full shard are overwritten "
         "and counted as dropped."},
        {"BW_FLIGHT_JSON",
         "Output path for serve_engine's promoted flight-record export "
         "(schema bw.flight/1, embedding one bw.spans/1 tree per "
         "promoted record). Inspect with 'bw_spans flight', check with "
         "'bw_spans validate'."},
        {"BW_SLO_JSON",
         "Output path for serve_engine's SLO evaluation document "
         "(schema bw.slo/1): per-class lifetime counters plus "
         "fast/slow burn rates for both SLIs, as served on "
         "/slo.json."},
        {"BW_CLUSTER_MIX",
         "Replica-group mix for cluster::ClusterOptions::fromEnv() as "
         "'preset:count' pairs, e.g. 's5:2,a10:1,s10:1' (presets s5 / "
         "a10 / s10 = the Table III configurations). Replaces the "
         "configured groups; the first configured group's engine "
         "options carry over as the template."},
        {"BW_CLUSTER_POLICY",
         "Front-door routing policy for the cluster: "
         "'consistent_hash' (hash ring by model, max weight-cache "
         "affinity), 'least_loaded' (fewest queued + in-flight), or "
         "'slo_aware' (least-loaded plus class-ordered admission "
         "shedding)."},
        {"BW_CLUSTER_CACHE_TILES",
         "Per-engine LRU weight-cache capacity in native matrix tiles "
         "(0 = each engine's NpuConfig::mrfSize). Requests for "
         "non-resident models are charged a DRAM weight-stream reload "
         "in their service time."},
        {"BW_CLUSTER_SEED",
         "Seed for the cluster traffic generator (cluster_serve's "
         "open-loop Poisson + diurnal + burst trace). Same seed, same "
         "trace, byte-identical replay exports."},
        {"BW_CLUSTER_RPS",
         "Base arrival rate in requests/second for the cluster traffic "
         "generator, before diurnal and burst modulation."},
        {"BW_CLUSTER_DURATION_S",
         "Generated cluster trace duration in virtual seconds."},
        {"BW_CLUSTER_ROUTE_JSON",
         "Output path for cluster_serve's router decision log (schema "
         "bw.route/1): policy, shed counters by deadline class, and "
         "one row per routing decision. Check with 'bw_spans "
         "validate'."},
        {"BW_ROUTE_LOG_MAX",
         "Bounded capacity of the router's materialized in-memory "
         "decision log (default 65536; older rows are dropped and "
         "counted). For unbounded traces attach the O(1) streaming "
         "export (BW_FLEET_STREAM) instead of growing this."},
        {"BW_DEBUG_RING",
         "Per-engine error-ring capacity for /debug/errors (default "
         "64 entries; 0 disables retention). The ring holds the most "
         "recent rejected/expired/errored submissions with their "
         "status strings."},
        {"BW_AUDIT_SAMPLE",
         "Fidelity-audit sampling period N for clusters on a fast or "
         "cached timing tier: every Nth completed compiled-model "
         "request is re-priced against the cycle-accurate model "
         "(bw_timing_audit_{checks,divergence}_total, /debug/audit). "
         "0 (default) disables the audit."},
        {"BW_AUDIT_JSON",
         "Output path for cluster_serve's fidelity-audit document "
         "(schema bw.audit/1): sampling config, check/divergence "
         "counters, and the last checked/diverged samples, as served "
         "on /debug/audit."},
        {"BW_FLEET_STREAM",
         "Output path for cluster_serve's streaming router-decision "
         "log (schema bw.routestream/1, NDJSON): one line per "
         "decision written as it is made, O(1) memory at any trace "
         "length, summary trailer last. Check with 'bw_spans "
         "validate-stream'."},
        {"BW_FLEET_METRICS_JSON",
         "Output path for cluster_serve's federated fleet metrics "
         "document: every shard registry's series labeled {shard, "
         "group} plus the cluster-level series, as served on "
         "/fleet/metrics.json."},
        {"BW_FLEET_SLO_JSON",
         "Output path for cluster_serve's fleet SLO rollup (schema "
         "bw.slo/1): per-class window sums across every shard monitor "
         "with burn rates recomputed on the aggregate, as served on "
         "/fleet/slo.json."},
        {"BW_FLEET_SPANS_NDJSON",
         "Output path for cluster_serve's streaming span-tree export "
         "(schema bw.spanstream/1, NDJSON): one stitched "
         "router->engine->chain trace tree per line, as served on "
         "/fleet/spans.ndjson. Check with 'bw_spans validate-stream'."},
        {"BW_CHAOS_RATE",
         "Chaos-plane fault arrivals per virtual second (Poisson, "
         "cluster-wide). 0 (default) disables fault injection; with "
         "BW_CHAOS_HORIZON_S > 0 the cluster generates a seeded "
         "ChaosSchedule at construction and replays inject "
         "crash/hang/slow/drop faults deterministically."},
        {"BW_CHAOS_HORIZON_S",
         "Chaos-plane schedule horizon: faults are generated in [0, "
         "horizon) virtual seconds. 0 (default) disables injection."},
        {"BW_CHAOS_SEED",
         "Seed for the generated fault schedule and for per-request "
         "drop decisions (default 1). The schedule is a pure function "
         "of (seed, options, shard count), so two replays under one "
         "seed export byte-identical incident timelines."},
        {"BW_HEDGE_MS",
         "Hedged-request latency budget in virtual milliseconds: a "
         "routed request whose primary attempt exceeds this (or fails "
         "outright) dispatches a duplicate to the least-loaded other "
         "healthy shard; first completion wins and the loser is "
         "cancelled. Negative (default) disables hedging; 0 hedges "
         "every request. Hedged attempts appear as hedge[i] span "
         "children under the route span."},
        {"BW_HEALTH_DETECT_MS",
         "Virtual milliseconds between a crash/hang fault firing and "
         "health-check detection (default 5). Detection immediately "
         "evicts the shard from routing; crashes then re-warm their "
         "weight cache before rejoining."},
        {"BW_FLEET_INCIDENTS_JSON",
         "Output path for cluster_serve's incident-timeline export "
         "(schema bw.incident/1): one incident per injected fault with "
         "fault/detect/evict/rewarm/recover phase stamps in virtual "
         "microseconds, blast radius, and re-warm charges, as served "
         "on /fleet/incidents.json. Check with 'bw_spans incidents'."},
    };
    return docs;
}

std::string
renderEnvVarHelp(unsigned width)
{
    std::ostringstream out;
    const std::string indent = "      ";
    for (const EnvVarDoc &d : envVarDocs()) {
        out << "  " << d.name << "\n";
        // Greedy word wrap of the description under the name.
        std::istringstream words(d.help);
        std::string word, line = indent;
        while (words >> word) {
            if (line.size() > indent.size() &&
                line.size() + 1 + word.size() > width) {
                out << line << "\n";
                line = indent;
            }
            if (line.size() > indent.size())
                line += " ";
            line += word;
        }
        if (line.size() > indent.size())
            out << line << "\n";
    }
    return out.str();
}

} // namespace bw
