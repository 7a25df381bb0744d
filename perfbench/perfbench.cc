/**
 * @file
 * Host-time benchmark of the Brainwave reproduction: one process, one
 * thread, three workloads. Each calls every layer (graph, compiler,
 * critpath, timing, cluster, obs, metrics); they differ in where the
 * time goes.
 *
 *   deepbench_sweep     each pass builds the Table V DeepBench layers on
 *                       BW_S10 from seeded weights, compiles them, runs
 *                       the SDM critical-path analysis and times them on
 *                       the cycle-accurate, fast and memoized tiers, then
 *                       serves the swept layers for a short seeded trace
 *                       on a two-shard BW_S10 cluster with the replay
 *                       exports.
 *   fleet_replay        set-up sweeps the fleet's three Table V layers
 *                       the same way and registers them on a
 *                       heterogeneous S10 + S5 fleet; each pass runs
 *                       Cluster::replay over a materialized seeded trace,
 *                       then performs the exports a replay user reads
 *                       (route doc, every shard's flight doc, fleet SLO
 *                       rollup, span trees, one /fleet/metrics scrape).
 *   fleet_stream_chaos  the same set-up; each pass streams a longer trace
 *                       through Cluster::replayStream under a seeded
 *                       fault schedule with hedging, every decision
 *                       through obs::RouteStreamWriter into a
 *                       byte-counting sink, then the span and flight
 *                       NDJSON streams and one scrape.
 *
 * Set-up runs several times and reports its median; one warm-up pass
 * follows and is excluded; measured passes then repeat until the time
 * budget is spent. Throughputs are the work of all measured passes over
 * their summed time (the mean pass), not the median pass: on a shared
 * host, pass times fall into two or three speed regimes that last
 * seconds to minutes, and the median snaps from one regime to the next
 * run to run while the mean moves only with the mix. End-to-end host
 * times are also expressed in reference seconds (HostSpeed) so that
 * those regimes largely cancel.
 * Simulated outcomes are deterministic and are checked to repeat. Every
 * correctness check counts as one attempted operation; a failed check
 * is a failed operation. Every workload reports every metric that
 * BENCHMARK.json declares.
 *
 * With --trace 1 the run records a host span around every library call
 * (host_trace.h), times per-request callbacks, and reports per-layer
 * metrics; half its budget runs untraced passes so the tracing overhead
 * is measured in the same process. The spans are written at exit as a
 * Chrome trace with a per-layer self-time table.
 *
 * Usage (from the repository root, normally through perfbench/run.py):
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--trace-out PATH]
 * The last stdout line is the result object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bw/bw.h"
#include "host_trace.h"

using namespace bw;
using namespace bw::cluster;
using perfbench::HostTracer;
using perfbench::mean;
using perfbench::median;
using perfbench::nowNs;

namespace {

constexpr const char *kBaselinePath =
    "bench/baselines/BENCH_table5_deepbench.json";

/** splitmix64: independent sub-seeds from the one workload seed. */
uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
secondsSince(int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e9;
}

/**
 * Host speed at the moment, for turning measured seconds into reference
 * seconds. On a shared host the same pass runs up to ~1.7x slower while
 * a neighbour loads the physical core, for seconds to minutes at a time.
 * A fixed probe (hashing, string formatting and sorting, no library
 * code) timed right before and right after an interval slows down with
 * it, so scaling the interval by kRefS / probe cancels most of the
 * swing: on six 20 s runs of fleet_stream_chaos the run-to-run spread
 * of the mean pass was 18.2% in seconds and 9.0% in reference seconds.
 * kRefS is the probe's typical duration on a 4-vCPU Xeon VM, so
 * reference seconds read close to seconds there.
 */
class HostSpeed
{
  public:
    static constexpr double kRefS = 0.012;

    /** Run the probe once; returns its duration in seconds. */
    static double
    probe()
    {
        int64_t t0 = nowNs();
        std::unordered_map<uint64_t, std::string> map;
        std::vector<std::string> keys;
        char buf[48];
        uint64_t x = 0x2545F4914F6CDD1Dull;
        for (int i = 0; i < 20000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            std::snprintf(buf, sizeof(buf), "k%llu-%d",
                          static_cast<unsigned long long>(x >> 40), i);
            map.emplace(x >> 20, buf);
            keys.emplace_back(buf);
        }
        std::sort(keys.begin(), keys.end());
        size_t hits = 0;
        for (int i = 0; i < 20000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            hits += map.count(x >> 20);
        }
        sink_ = hits + keys.size();
        return secondsSince(t0);
    }

  private:
    static inline volatile size_t sink_ = 0;
};

/**
 * Times a sequence of intervals with a host-speed probe before the
 * first and after each one, so every interval is bracketed by two. A
 * long interval can be split into parts, each bracketed by its own
 * probes (run outside the timed parts): the probe then follows the
 * host's speed within the interval too. On ten 30 s runs of
 * deepbench_sweep (~4.7 s passes) the spread of the mean pass was
 * 11.4% with one part per pass and 5.6% with one part per layer.
 */
class RefTimer
{
  public:
    /** Call before each interval (the probe ending the previous one
     *  also starts this one). */
    void
    begin()
    {
        if (probes_.empty())
            probes_.push_back(HostSpeed::probe());
        sec_ = ref_ = 0;
        t0_ = nowNs();
    }

    /** End the running part of the interval and start the next. */
    void
    split()
    {
        closePart();
        t0_ = nowNs();
    }

    /** Call after each interval. */
    void
    end()
    {
        closePart();
        seconds_.push_back(sec_);
        refSeconds_.push_back(ref_);
    }

    size_t count() const { return seconds_.size(); }
    const std::vector<double> &seconds() const { return seconds_; }
    /** Each interval in reference seconds: every part scaled by
     *  kRefS over the mean of the two probes around it. */
    const std::vector<double> &refSeconds() const { return refSeconds_; }
    double meanProbe() const { return mean(probes_); }

  private:
    void
    closePart()
    {
        double part = secondsSince(t0_);
        double before = probes_.back();
        probes_.push_back(HostSpeed::probe());
        sec_ += part;
        ref_ += part * HostSpeed::kRefS / (0.5 * (before + probes_.back()));
    }

    int64_t t0_ = 0;
    double sec_ = 0, ref_ = 0;
    std::vector<double> seconds_, refSeconds_;
    std::vector<double> probes_;
};

/** Correctness bookkeeping: every check is one attempted operation. */
class Checker
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failed_ <= 20)
                std::fprintf(stderr, "perfbench: check failed: %s\n",
                             what.c_str());
        }
    }

    void
    checkStatus(const Status &st, const std::string &what)
    {
        check(st.ok(), what + (st.ok() ? "" : ": " + st.toString()));
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------------
// Table V sweep: graph, compiler, critpath and timing
// ---------------------------------------------------------------------

/** One Table V row with its committed baseline. */
struct SweepRow
{
    paper::TableFiveRow paper;
    Cycles expectCycles = 0;
    double expectSdmMs = 0;
};

/** @p wanted with the baseline cycles and SDM latency of each row. */
std::vector<SweepRow>
loadRows(const std::vector<paper::TableFiveRow> &wanted)
{
    std::ifstream in(kBaselinePath);
    if (!in)
        BW_FATAL("cannot read %s", kBaselinePath);
    std::stringstream ss;
    ss << in.rdbuf();
    Json base = Json::parse(ss.str());
    const Json *layers = base.find("layers");
    std::vector<SweepRow> rows;
    for (const paper::TableFiveRow &row : wanted) {
        SweepRow r;
        r.paper = row;
        for (size_t i = 0; layers && i < layers->size(); ++i) {
            const Json &l = layers->at(i);
            if (l.find("layer")->asString() != row.layer.label())
                continue;
            r.expectCycles = static_cast<Cycles>(
                l.find("bw")->find("total_cycles")->asInt());
            r.expectSdmMs = l.find("sdm_latency_ms")->asDouble();
        }
        rows.push_back(r);
    }
    return rows;
}

/** What one sweep over some rows simulated. */
struct SweepOut
{
    struct Layer
    {
        Cycles cycleCycles = 0, fastCycles = 0;
        Cycles memoMissCycles = 0, memoHitCycles = 0;
        double sdmMs = 0, simMs = 0;
    };
    std::vector<Layer> layers;
    double paperErrPct = 0;
    uint64_t packedTiles = 0, simCycles = 0;
    uint64_t extrapolated = 0, fallbacks = 0;
};

/**
 * Build each row's layer on BW_S10 from seeded weights, compile it, run
 * the SDM critical-path analysis and time it on the cycle-accurate tier
 * (the table5_deepbench step count), the fast tier (same count and full
 * timesteps) and the memoized tier (a miss, then a hit). The graphs are
 * moved into @p graphs when it is given, else freed; @p timer, when
 * given, is split after each layer.
 */
SweepOut
sweepLayers(HostTracer &tr, const std::vector<SweepRow> &rows,
            uint64_t weight_seed, std::vector<GirGraph> *graphs,
            RefTimer *timer)
{
    const NpuConfig cfg = NpuConfig::bwS10();
    SweepOut out;
    double err = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const RnnLayerSpec &layer = rows[i].paper.layer;
        unsigned input = layer.inputDim ? layer.inputDim : layer.hidden;
        // The table5_deepbench step count, which the committed baseline
        // cycles were simulated at.
        unsigned short_steps = std::min(layer.timeSteps, 60u);
        SweepOut::Layer lo;

        GirGraph g;
        {
            auto sp = tr.scope("graph.build");
            Rng rng(weight_seed + i);
            g = layer.kind == RnnKind::Lstm
                    ? makeLstm(randomLstmWeights(layer.hidden, input, rng))
                    : makeGru(randomGruWeights(layer.hidden, input, rng));
        }
        CompileOptions opts;
        opts.pipelineInputProjections = layer.kind == RnnKind::Gru;
        CompiledModel m;
        {
            auto sp = tr.scope("compiler.compile");
            m = compileGir(g, cfg, opts);
        }
        for (const WeightPlacement &w : m.weights)
            out.packedTiles += uint64_t{w.rowTiles} * w.colTiles;
        {
            auto sp = tr.scope("critpath.analyze");
            CritPathResult cp = analyzeCritPath(g, cfg.macCount());
            lo.sdmMs = cyclesToMs(sdmTotal(cp, layer.timeSteps),
                                  cfg.clockMhz);
        }
        {
            auto sp = tr.scope("timing.cycle");
            timing::CycleAccurateModel cyc(cfg);
            cyc.setTileBeats(m.tileBeats);
            lo.cycleCycles =
                cyc.run(m.prologue, m.step, short_steps).totalCycles;
        }
        out.simCycles += lo.cycleCycles;
        {
            auto sp = tr.scope("timing.fast");
            timing::EventDrivenModel fast(cfg);
            fast.setTileBeats(m.tileBeats);
            lo.fastCycles =
                fast.run(m.prologue, m.step, short_steps).totalCycles;
            Cycles full =
                fast.run(m.prologue, m.step, layer.timeSteps).totalCycles;
            lo.simMs = cyclesToMs(full, cfg.clockMhz);
            out.extrapolated += fast.extrapolatedRuns();
            out.fallbacks += fast.exactFallbacks();
        }
        {
            timing::MemoTimingModel memo(
                std::make_unique<timing::CycleAccurateModel>(cfg));
            memo.setTileBeats(m.tileBeats);
            {
                auto sp = tr.scope("timing.memo_miss");
                lo.memoMissCycles =
                    memo.run(m.prologue, m.step, short_steps).totalCycles;
            }
            auto sp = tr.scope("timing.memo_hit");
            lo.memoHitCycles =
                memo.run(m.prologue, m.step, short_steps).totalCycles;
        }
        double paper_ms = rows[i].paper.bwMs;
        err += std::fabs(lo.simMs - paper_ms) / paper_ms;
        auto sp = tr.scope("release");
        m = CompiledModel();
        if (graphs)
            graphs->push_back(std::move(g));
        else
            g = GirGraph();
        out.layers.push_back(lo);
        if (timer)
            timer->split();
    }
    out.paperErrPct = 100.0 * err / static_cast<double>(rows.size());
    return out;
}

/** A sweep's outputs against the baseline and the cycle-accurate tier. */
void
checkSweep(Checker &ck, const std::vector<SweepRow> &rows,
           const SweepOut &out)
{
    ck.check(out.layers.size() == rows.size(), "sweep skipped a layer");
    for (size_t i = 0; i < out.layers.size() && i < rows.size(); ++i) {
        const SweepOut::Layer &l = out.layers[i];
        const SweepRow &r = rows[i];
        std::string lbl = r.paper.layer.label();
        ck.check(r.expectCycles > 0 && l.cycleCycles == r.expectCycles,
                 lbl + ": cycle-accurate total_cycles " +
                     std::to_string(l.cycleCycles) + " != baseline " +
                     std::to_string(r.expectCycles));
        ck.check(l.fastCycles == l.cycleCycles,
                 lbl + ": fast tier differs from cycle-accurate");
        ck.check(l.memoMissCycles == l.cycleCycles &&
                     l.memoHitCycles == l.cycleCycles,
                 lbl + ": memo tier differs from cycle-accurate");
        ck.check(std::fabs(l.sdmMs - r.expectSdmMs) <=
                     1e-9 * std::max(1.0, r.expectSdmMs),
                 lbl + ": SDM latency differs from baseline");
    }
}

// ---------------------------------------------------------------------
// Serving: cluster, obs and metrics
// ---------------------------------------------------------------------

/** Counters that must repeat exactly pass over pass. */
struct FleetCounters
{
    uint64_t submitted = 0, shed = 0, unavailable = 0, rejected = 0;
    uint64_t expired = 0, failed = 0, hedged = 0, hedgeWins = 0;
    uint64_t completed = 0, goodput = 0;
    uint64_t cacheHits = 0, cacheMisses = 0, reloadedTiles = 0;
    double p99Ms = 0;

    static FleetCounters
    of(const ClusterStats &s)
    {
        FleetCounters c;
        c.submitted = s.submitted;
        c.shed = s.shed;
        c.unavailable = s.unavailable;
        c.rejected = s.rejected;
        c.expired = s.expired;
        c.failed = s.failed;
        c.hedged = s.hedged;
        c.hedgeWins = s.hedgeWins;
        c.completed = s.completed;
        c.goodput = s.goodput;
        for (const EngineReport &e : s.engines) {
            c.cacheHits += e.cacheHits;
            c.cacheMisses += e.cacheMisses;
            c.reloadedTiles += e.reloadedTiles;
        }
        c.p99Ms = s.overall.p99LatencyMs;
        return c;
    }

    bool
    operator==(const FleetCounters &o) const
    {
        return submitted == o.submitted && shed == o.shed &&
               unavailable == o.unavailable && rejected == o.rejected &&
               expired == o.expired && failed == o.failed &&
               hedged == o.hedged && hedgeWins == o.hedgeWins &&
               completed == o.completed && goodput == o.goodput &&
               cacheHits == o.cacheHits && cacheMisses == o.cacheMisses &&
               reloadedTiles == o.reloadedTiles && p99Ms == o.p99Ms;
    }
};

/** The traffic shape every workload serves: Poisson arrivals with a
 *  +/-30% diurnal swing over the trace and one 1.5x burst. */
TrafficOptions
trafficShape(uint64_t seed, double base_rps, double duration_s)
{
    TrafficOptions t;
    t.seed = seed;
    t.baseRps = base_rps;
    t.durationS = duration_s;
    t.diurnalAmplitude = 0.3;
    t.diurnalPeriodS = duration_s;
    t.bursts.push_back(BurstPhase{0.6 * duration_s, 0.05 * duration_s, 1.5});
    return t;
}

/**
 * A cluster with its own metrics registry and span tracer, the
 * materialized replay, and the exports a replay user reads: the route
 * doc, every shard's flight doc, the fleet SLO rollup, the span trees
 * and one /fleet/metrics scrape.
 */
class Fleet
{
  public:
    /** Build from scratch, dropping the previous cluster. */
    void
    build(HostTracer &tr, ClusterOptions co, obs::SpanTracerOptions so)
    {
        cluster_.reset();
        registry_ = std::make_unique<metrics::Registry>();
        spans_ = std::make_unique<obs::SpanTracer>(so);
        co.metricsRegistry = registry_.get();
        co.spanTracer = spans_.get();
        auto sp = tr.scope("cluster.construct");
        cluster_ = std::make_unique<Cluster>(std::move(co));
    }

    Cluster &cluster() { return *cluster_; }
    const obs::SpanTracer &spans() const { return *spans_; }

    void
    replayAndExport(HostTracer &tr, const std::vector<ClusterRequest> &trace)
    {
        {
            auto sp = tr.scope("cluster.replay");
            stats_ = cluster_->replay(trace);
        }
        {
            auto sp = tr.scope("obs.route_json");
            route_ = cluster_->routeJson();
        }
        {
            auto sp = tr.scope("obs.flight_json");
            flights_.clear();
            for (unsigned i = 0; i < cluster_->engineCount(); ++i)
                flights_.push_back(cluster_->engineFlightJson(i));
        }
        {
            auto sp = tr.scope("obs.slo_json");
            slo_ = cluster_->fleetSloJson();
        }
        {
            auto sp = tr.scope("obs.span_json");
            spanDoc_ = obs::spanTreeJson(*spans_);
        }
        scrape(tr);
    }

    void
    scrape(HostTracer &tr)
    {
        auto sp = tr.scope("metrics.scrape");
        scrape_ = cluster_->fleetMetricsText();
    }

    /** Validate the last replayAndExport(), then free its documents. */
    void
    checkReplay(Checker &ck, size_t trace_len)
    {
        checkCounters(ck, stats_);
        ck.check(stats_.submitted == trace_len,
                 "replay submitted count != trace length");
        ck.checkStatus(validateRouteJson(route_), "route doc");
        for (const Json &f : flights_)
            ck.checkStatus(obs::validateFlightJson(f), "flight doc");
        ck.checkStatus(serve::validateSloJson(slo_), "fleet SLO rollup");
        ck.checkStatus(obs::validateSpanTreeJson(spanDoc_), "span trees");
        checkScrape(ck);
        route_ = Json();
        flights_.clear();
        slo_ = Json();
        spanDoc_ = Json();
    }

    void
    checkScrape(Checker &ck)
    {
        ck.checkStatus(metrics::validatePrometheusText(scrape_),
                       "fleet metrics scrape");
        scrape_.clear();
    }

    /** The counters equal the first checked pass's; the audit is clean. */
    void
    checkCounters(Checker &ck, const ClusterStats &s)
    {
        FleetCounters c = FleetCounters::of(s);
        if (!haveFirst_) {
            first_ = c;
            haveFirst_ = true;
        }
        ck.check(c == first_, "ClusterStats differ from the first pass");
        ck.check(c.submitted > 0 && c.completed > 0,
                 "replay completed no requests");
        ck.check(cluster_->auditDivergences() == 0,
                 "fast tier diverged from cycle-accurate in the audit");
    }

    const FleetCounters &first() const { return first_; }

  private:
    std::unique_ptr<metrics::Registry> registry_;
    std::unique_ptr<obs::SpanTracer> spans_;
    std::unique_ptr<Cluster> cluster_;
    ClusterStats stats_;
    Json route_, slo_, spanDoc_;
    std::vector<Json> flights_;
    std::string scrape_;
    FleetCounters first_;
    bool haveFirst_ = false;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** A workload's simulated outputs; they repeat exactly pass over pass. */
struct SimOutcome
{
    size_t sweptLayers = 0;
    double paperErrPct = 0;
    uint64_t packedTiles = 0, simCycles = 0;
    uint64_t extrapolated = 0, fallbacks = 0;
    FleetCounters fleet;
    uint64_t incidents = 0;
};

/** The interface the pass loop drives. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Times set-up runs; the median is setup_s. */
    virtual int setupReps() const = 0;
    /** Build every input from scratch (discarding the previous). */
    virtual void setup(HostTracer &tr) = 0;
    /** One pass of timed work; outputs are kept for check(). A pass
     *  made of long steps splits @p timer (when given) between them. */
    virtual void pass(HostTracer &tr, bool warmup, RefTimer *timer) = 0;
    /** Validate the last pass's outputs (outside the timed region). The
     *  warm-up pass is checked first, with the last set-up's outputs. */
    virtual void check(Checker &ck, bool warmup) = 0;
    /** Units of work in one pass: layers, requests or NDJSON rows. */
    virtual double workPerPass() const = 0;
    /** The simulated outputs (of the warm-up pass and last set-up). */
    virtual SimOutcome outcome() const = 0;
    /** One summary line. */
    virtual std::string summary() const = 0;

  protected:
    static SimOutcome
    outcomeOf(const SweepOut &s, const FleetCounters &f)
    {
        SimOutcome o;
        o.sweptLayers = s.layers.size();
        o.paperErrPct = s.paperErrPct;
        o.packedTiles = s.packedTiles;
        o.simCycles = s.simCycles;
        o.extrapolated = s.extrapolated;
        o.fallbacks = s.fallbacks;
        o.fleet = f;
        return o;
    }

    static std::string
    fleetSummary(const char *name, const FleetCounters &f)
    {
        char buf[240];
        std::snprintf(
            buf, sizeof(buf),
            "%s: %llu submitted, goodput %llu, simulated p99 %.4f ms over "
            "%llu completed requests",
            name, static_cast<unsigned long long>(f.submitted),
            static_cast<unsigned long long>(f.goodput), f.p99Ms,
            static_cast<unsigned long long>(f.completed));
        return buf;
    }
};

/**
 * deepbench_sweep: each pass sweeps the Table V layers (graph, compiler,
 * critpath, timing), then serves them for a short seeded trace on a
 * two-shard BW_S10 cluster, each layer a tenant priced at its simulated
 * full-timestep latency, and performs the replay exports.
 */
class DeepbenchSweep : public Workload
{
  public:
    DeepbenchSweep(uint64_t seed, bool tiny)
        : seed_(seed), weightSeed_(subSeed(seed, 1)), tiny_(tiny)
    {
    }

    int setupReps() const override { return 7; }

    void
    setup(HostTracer &tr) override
    {
        {
            auto sp = tr.scope("setup.baseline");
            std::vector<paper::TableFiveRow> wanted;
            // The tiny self-test size keeps the three smallest layers.
            for (const paper::TableFiveRow &row : paper::tableFive())
                if (!tiny_ || row.layer.hidden <= 512)
                    wanted.push_back(row);
            rows_ = loadRows(wanted);
        }
        TrafficOptions t =
            trafficShape(subSeed(seed_, 2), kServeRps, tiny_ ? 0.5 : 4.0);
        for (uint32_t i = 0; i < rows_.size(); ++i)
            t.mix.push_back(ModelMix{i, 1.0, rows_[i].paper.layer.timeSteps,
                                     kServeDeadlineMs});
        auto sp = tr.scope("cluster.traffic_gen");
        trace_ = generateTraffic(t);
    }

    void
    pass(HostTracer &tr, bool, RefTimer *timer) override
    {
        sweep_ = sweepLayers(tr, rows_, weightSeed_, nullptr, timer);
        ClusterOptions co;
        ReplicaGroupSpec s10;
        s10.name = "s10";
        s10.config = NpuConfig::bwS10();
        s10.engines = 2;
        s10.engine.queueDepth = 32;
        s10.engine.networkMs = 0.05;
        co.groups = {s10};
        co.router.policy = RoutePolicy::SloAware;
        obs::SpanTracerOptions so;
        so.sampleEvery = kSpanSampleEvery;
        fleet_.build(tr, co, so);
        for (size_t i = 0; i < rows_.size(); ++i) {
            // Weights pinned on chip, as Table V measures them.
            auto sp = tr.scope("cluster.add_model");
            fleet_.cluster().addTimedModel(rows_[i].paper.layer.label(),
                                           sweep_.layers[i].simMs);
        }
        fleet_.replayAndExport(tr, trace_);
    }

    void
    check(Checker &ck, bool warmup) override
    {
        checkSweep(ck, rows_, sweep_);
        if (warmup)
            first_ = sweep_;
        ck.check(sweep_.paperErrPct == first_.paperErrPct &&
                     sweep_.packedTiles == first_.packedTiles &&
                     sweep_.simCycles == first_.simCycles,
                 "simulated sweep outputs changed between passes");
        fleet_.checkReplay(ck, trace_.size());
    }

    double
    workPerPass() const override
    {
        return static_cast<double>(rows_.size());
    }

    SimOutcome
    outcome() const override
    {
        return outcomeOf(first_, fleet_.first());
    }

    std::string
    summary() const override
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "deepbench_sweep: %zu layers per pass, mean |sim - "
                      "paper| / paper = %.4f%%; ",
                      rows_.size(), first_.paperErrPct);
        return buf + fleetSummary("served", fleet_.first());
    }

  private:
    /** About 70% of the two shards' capacity at the equal layer mix. */
    static constexpr double kServeRps = 1600.0;
    static constexpr double kServeDeadlineMs = 10.0;
    static constexpr unsigned kSpanSampleEvery = 64;

    uint64_t seed_;
    uint64_t weightSeed_;
    bool tiny_;
    std::vector<SweepRow> rows_;
    std::vector<ClusterRequest> trace_;
    SweepOut sweep_, first_;
    Fleet fleet_;
};

/** One fleet model: a Table V layer and its traffic share. */
struct FleetModel
{
    RnnKind kind;
    unsigned hidden;
    unsigned steps;
    double weight;
    double deadlineMs;
};

/**
 * The heterogeneous fleet both fleet workloads serve: two BW_S10 and
 * two BW_S5 shards, slo_aware routing, the fast timing tier with a
 * 1-in-997 cycle-accurate audit, spans at 1/2048, and the default
 * flight, SLO and route-log planes. The models are three Table V rows in
 * a skewed mix; their S5 footprints (216 + 72 + 288 tiles) exceed the
 * 306-tile weight cache, so S5 shards miss and reload from DRAM.
 */
const std::vector<FleetModel> &
fleetModels()
{
    static const std::vector<FleetModel> models = {
        {RnnKind::Gru, 512, 1, 6.0, 10.0},
        {RnnKind::Lstm, 256, 150, 3.0, 40.0},
        {RnnKind::Lstm, 512, 25, 1.0, 80.0},
    };
    return models;
}

/**
 * Set-up shared by both fleet workloads: sweep the fleet's Table V rows
 * (graph, compiler, critpath, timing, checked like deepbench_sweep's),
 * then build the cluster and register each swept graph on it.
 */
class FleetWorkload : public Workload
{
  public:
    FleetWorkload(uint64_t seed, bool tiny, bool chaos)
        : seed_(seed), tiny_(tiny), chaos_(chaos)
    {
    }

    int setupReps() const override { return 5; }

    SimOutcome
    outcome() const override
    {
        return outcomeOf(sweep_, fleet_.first());
    }

  protected:
    void
    setupFleet(HostTracer &tr)
    {
        std::vector<paper::TableFiveRow> wanted;
        for (const FleetModel &fm : fleetModels())
            for (const paper::TableFiveRow &row : paper::tableFive())
                if (row.layer.kind == fm.kind &&
                    row.layer.hidden == fm.hidden &&
                    row.layer.timeSteps == fm.steps)
                    wanted.push_back(row);
        if (wanted.size() != fleetModels().size())
            BW_FATAL("fleet models are not all Table V rows");
        {
            auto sp = tr.scope("setup.baseline");
            rows_ = loadRows(wanted);
        }
        std::vector<GirGraph> graphs;
        sweep_ = sweepLayers(tr, rows_, subSeed(seed_, 1), &graphs, nullptr);
        obs::SpanTracerOptions so;
        so.sampleEvery = kSpanSampleEvery;
        so.maxChainSpans = kMaxChainSpans;
        fleet_.build(tr, clusterOptions(), so);
        Cluster &c = fleet_.cluster();
        for (size_t i = 0; i < graphs.size(); ++i) {
            auto sp = tr.scope("cluster.add_model");
            std::string name = rows_[i].paper.layer.label();
            Expected<uint32_t> id = c.addModel(name, graphs[i]);
            if (!id.ok())
                BW_FATAL("fleet model %s: %s", name.c_str(),
                         id.status().toString().c_str());
            for (size_t grp = 0; grp < c.options().groups.size(); ++grp)
                c.modelServiceMs(id.value(), grp, fleetModels()[i].steps);
        }
    }

    /** The set-up sweep's checks, made once, with the warm-up pass. */
    void
    checkSetup(Checker &ck)
    {
        checkSweep(ck, rows_, sweep_);
    }

    TrafficOptions
    traffic() const
    {
        TrafficOptions t = trafficShape(subSeed(seed_, 2), kBaseRps,
                                        tiny_ ? 2.0 : chaos_ ? 48.0 : 24.0);
        const std::vector<FleetModel> &ms = fleetModels();
        for (uint32_t i = 0; i < ms.size(); ++i)
            t.mix.push_back(
                ModelMix{i, ms[i].weight, ms[i].steps, ms[i].deadlineMs});
        return t;
    }

    /** Near the fleet's knee at this mix: p99 is rising and slo_aware
     *  routing starts to shed (see README.md). */
    static constexpr double kBaseRps = 18000.0;
    /** Span trees: ~215 sampled requests per fleet_replay pass, each
     *  with at most 32 chain spans. At the default 256 chain spans,
     *  spanTreeJson's cost is quadratic in a tree's children, so which
     *  models the few affordable samples hit set the pass time: at
     *  1/65536 the span export took 7% to 26% of a pass depending on
     *  the seed. */
    static constexpr unsigned kSpanSampleEvery = 2048;
    static constexpr unsigned kMaxChainSpans = 32;

    uint64_t seed_;
    bool tiny_;
    bool chaos_;
    std::vector<SweepRow> rows_;
    SweepOut sweep_;
    Fleet fleet_;

  private:
    ClusterOptions
    clusterOptions() const
    {
        ClusterOptions co;
        ReplicaGroupSpec s10;
        s10.name = "s10";
        s10.config = NpuConfig::bwS10();
        s10.engines = 2;
        ReplicaGroupSpec s5;
        s5.name = "s5";
        s5.config = NpuConfig::bwS5();
        s5.engines = 2;
        for (ReplicaGroupSpec *g : {&s10, &s5}) {
            g->engine.queueDepth = 32;
            g->engine.networkMs = 0.05;
            g->engine.defaultDeadlineMs = 50.0;
        }
        co.groups = {s10, s5};
        co.router.policy = RoutePolicy::SloAware;
        co.fidelity = timing::Fidelity::Fast;
        co.auditEvery = 997;
        if (chaos_) {
            co.chaos.seed = subSeed(seed_, 3);
            co.chaos.faultRate = 2.0;
            co.chaos.horizonS = traffic().durationS;
            co.chaos.meanDurationS = 0.08;
            co.hedgeMs = 6.0;
        }
        return co;
    }
};

/** fleet_replay: Cluster::replay of a materialized trace plus exports. */
class FleetReplay : public FleetWorkload
{
  public:
    FleetReplay(uint64_t seed, bool tiny) : FleetWorkload(seed, tiny, false)
    {
    }

    void
    setup(HostTracer &tr) override
    {
        {
            auto sp = tr.scope("cluster.traffic_gen");
            trace_ = generateTraffic(traffic());
        }
        setupFleet(tr);
    }

    void
    pass(HostTracer &tr, bool, RefTimer *) override
    {
        fleet_.replayAndExport(tr, trace_);
    }

    void
    check(Checker &ck, bool warmup) override
    {
        if (warmup)
            checkSetup(ck);
        fleet_.checkReplay(ck, trace_.size());
    }

    double
    workPerPass() const override
    {
        return static_cast<double>(trace_.size());
    }

    std::string
    summary() const override
    {
        return fleetSummary("fleet_replay", fleet_.first());
    }

  private:
    std::vector<ClusterRequest> trace_;
};

/** Byte- and line-counting NDJSON sink; optionally keeps the bytes. */
struct CountingSink
{
    uint64_t bytes = 0;
    uint64_t lines = 0;
    std::string *capture = nullptr;

    obs::StreamSink
    sink()
    {
        return [this](const std::string &chunk) {
            bytes += chunk.size();
            lines += static_cast<uint64_t>(
                std::count(chunk.begin(), chunk.end(), '\n'));
            if (capture)
                capture->append(chunk);
            return true;
        };
    }
};

/**
 * fleet_stream_chaos: Cluster::replayStream under seeded faults with
 * hedging, every decision through obs::RouteStreamWriter, then the span
 * and flight NDJSON streams and one /fleet/metrics scrape.
 */
class FleetStreamChaos : public FleetWorkload
{
  public:
    FleetStreamChaos(uint64_t seed, bool tiny)
        : FleetWorkload(seed, tiny, true)
    {
    }

    void setup(HostTracer &tr) override { setupFleet(tr); }

    void
    pass(HostTracer &tr, bool warmup, RefTimer *timer) override
    {
        Cluster &c = fleet_.cluster();
        out_ = PassOut();
        CountingSink route, spans, flight;
        if (warmup) {
            route.capture = &routeCapture_;
            spans.capture = &spanCapture_;
        }
        // Per-request timers run only in the traced run's measured passes.
        const bool timers = tr.on() && !warmup;
        obs::RouteStreamWriter writer(
            route.sink(), routePolicyName(c.router().options().policy),
            c.engineCount(), c.sloClassCount());
        c.setDecisionSink([&](const RouteDecision &d) {
            if (!timers) {
                writer.decision(d.seq, d.model, d.cls, d.engine);
                return;
            }
            int64_t t0 = nowNs();
            writer.decision(d.seq, d.model, d.cls, d.engine);
            tr.charge("obs.route_row", nowNs() - t0);
        });
        TrafficStream stream(traffic());
        uint64_t pulled = 0;
        std::function<bool(ClusterRequest *)> next =
            [&](ClusterRequest *r) {
                // The replay pulls through here, so a long pass can
                // split its timer (the probe runs between the parts).
                if (timer && ++pulled % kSplitEvery == 0)
                    timer->split();
                if (!timers)
                    return stream.next(r);
                int64_t t0 = nowNs();
                bool more = stream.next(r);
                tr.charge("cluster.traffic_next", nowNs() - t0);
                return more;
            };
        {
            auto sp = tr.scope("cluster.replay");
            stats_ = c.replayStream(next);
        }
        {
            auto sp = tr.scope("obs.route_finish");
            writer.finish();
        }
        c.setDecisionSink({});
        out_.routeRows = writer.rows();
        {
            auto sp = tr.scope("obs.spanstream");
            out_.spanStatus =
                obs::streamSpanTreesNdjson(fleet_.spans(), spans.sink());
        }
        {
            auto sp = tr.scope("obs.flightstream");
            flightCapture_.assign(warmup ? c.engineCount() : 0,
                                  std::string());
            for (unsigned i = 0; i < c.engineCount(); ++i) {
                const obs::FlightRecorder *rec =
                    c.engine(i).options().flightRecorder;
                if (warmup)
                    flight.capture = &flightCapture_[i];
                out_.flightStatus.push_back(
                    rec ? obs::streamFlightNdjson(*rec, flight.sink())
                        : Status::invalidArgument("shard has no flight "
                                                  "recorder"));
            }
        }
        fleet_.scrape(tr);
        out_.bytes = route.bytes + spans.bytes + flight.bytes;
        out_.rows = route.lines + spans.lines + flight.lines;
    }

    void
    check(Checker &ck, bool warmup) override
    {
        fleet_.checkCounters(ck, stats_);
        fleet_.checkScrape(ck);
        ck.check(out_.routeRows == stats_.submitted,
                 "streamed route rows != requests submitted");
        ck.checkStatus(out_.spanStatus, "span stream");
        for (const Status &st : out_.flightStatus)
            ck.checkStatus(st, "flight stream");
        if (warmup) {
            checkSetup(ck);
            // The warm-up pass captured its streams; every measured pass
            // must then emit exactly as many rows and bytes.
            std::istringstream r(routeCapture_), s(spanCapture_);
            ck.checkStatus(obs::validateRouteStreamJson(r), "route stream");
            ck.checkStatus(obs::validateSpanStreamJson(s), "span stream");
            for (const std::string &f : flightCapture_) {
                std::istringstream one(f);
                ck.checkStatus(obs::validateFlightStreamJson(one),
                               "flight stream");
            }
            routeCapture_ = spanCapture_ = std::string();
            flightCapture_.clear();
            warm_ = out_;
            incidents_ = fleet_.cluster().incidents().faults();
        } else {
            ck.check(out_.rows == warm_.rows && out_.bytes == warm_.bytes,
                     "stream exports differ from the validated warm-up "
                     "pass");
        }
    }

    double
    workPerPass() const override
    {
        return static_cast<double>(warm_.rows);
    }

    SimOutcome
    outcome() const override
    {
        SimOutcome o = FleetWorkload::outcome();
        o.incidents = incidents_;
        return o;
    }

    std::string
    summary() const override
    {
        return fleetSummary("fleet_stream_chaos", fleet_.first()) +
               " (p99 is a sketch bucket bound), " +
               std::to_string(warm_.rows) + " NDJSON rows per pass";
    }

  private:
    /** Pulled requests per timed part of a measured pass (~13 parts). */
    static constexpr uint64_t kSplitEvery = 65536;

    struct PassOut
    {
        uint64_t routeRows = 0, rows = 0, bytes = 0;
        Status spanStatus;
        std::vector<Status> flightStatus;
    };

    ClusterStats stats_;
    PassOut out_, warm_;
    std::string routeCapture_, spanCapture_;
    std::vector<std::string> flightCapture_;
    uint64_t incidents_ = 0;
};

/**
 * Host milliseconds a layer's spans take in one set-up (median over the
 * repetitions) plus one measured pass (mean over the traced passes):
 * every workload calls every layer, some only in set-up.
 */
double
layerMs(const HostTracer &tr, const char *name, int passes)
{
    return median(tr.perSetupMs(name)) + mean(tr.perPassMs(name, passes));
}

/** Mean per traced pass of a per-request accumulator, in ms. */
double
accumMs(const HostTracer &tr, const char *name, int passes)
{
    auto it = tr.accumulators().find(name);
    return it == tr.accumulators().end() || passes <= 0
               ? 0.0
               : static_cast<double>(it->second.ns) / 1e6 / passes;
}

/** The end-to-end metrics, in BENCHMARK.json order. */
void
endToEnd(Metrics &out, const Workload &w, double setup_s, double pass_s,
         double max_rss_mib)
{
    SimOutcome o = w.outcome();
    out.push_back({"setup_s", setup_s, "s"});
    out.push_back({"max_rss_mb", max_rss_mib, "MiB"});
    out.push_back({"work_per_s", w.workPerPass() / pass_s, "1/s"});
    out.push_back({"paper_err_pct", o.paperErrPct, "%"});
    out.push_back({"sim_goodput_pct",
                   100.0 * static_cast<double>(o.fleet.goodput) /
                       static_cast<double>(o.fleet.submitted),
                   "%"});
}

/** The per-layer metrics, in BENCHMARK.json order, over the traced
 *  passes [0, passes) and the set-up repetitions. */
void
perLayer(Metrics &out, const Workload &w, const HostTracer &tr, int passes)
{
    SimOutcome o = w.outcome();
    auto count = [&out](const char *name, uint64_t v) {
        out.push_back({name, static_cast<double>(v), "count"});
    };
    out.push_back({"graph.build_ms", layerMs(tr, "graph.build", passes),
                   "ms"});
    out.push_back({"compiler.compile_ms",
                   layerMs(tr, "compiler.compile", passes), "ms"});
    count("compiler.packed_tiles", o.packedTiles);
    out.push_back({"critpath.analyze_ms",
                   layerMs(tr, "critpath.analyze", passes), "ms"});
    double cycle_ms = layerMs(tr, "timing.cycle", passes);
    out.push_back({"timing.cycle_ms", cycle_ms, "ms"});
    out.push_back({"timing.fast_ms", layerMs(tr, "timing.fast", passes),
                   "ms"});
    out.push_back({"timing.memo_hit_us",
                   1e3 * layerMs(tr, "timing.memo_hit", passes) /
                       static_cast<double>(o.sweptLayers),
                   "us"});
    out.push_back({"timing.sim_cycles_per_s",
                   static_cast<double>(o.simCycles) / (cycle_ms / 1e3),
                   "1/s"});
    count("timing.fast_extrapolated", o.extrapolated);
    count("timing.fast_fallbacks", o.fallbacks);
    out.push_back({"cluster.add_model_ms",
                   layerMs(tr, "cluster.construct", passes) +
                       layerMs(tr, "cluster.add_model", passes),
                   "ms"});
    out.push_back({"cluster.traffic_ms",
                   layerMs(tr, "cluster.traffic_gen", passes) +
                       accumMs(tr, "cluster.traffic_next", passes),
                   "ms"});
    out.push_back({"cluster.replay_ms", layerMs(tr, "cluster.replay", passes),
                   "ms"});
    const FleetCounters &f = o.fleet;
    uint64_t touches = f.cacheHits + f.cacheMisses;
    out.push_back({"cluster.cache_hit_pct",
                   touches ? 100.0 * static_cast<double>(f.cacheHits) /
                                 static_cast<double>(touches)
                           : 100.0,
                   "%"});
    count("cluster.reloaded_tiles", f.reloadedTiles);
    count("cluster.shed", f.shed);
    count("cluster.rejected", f.rejected);
    count("cluster.expired", f.expired);
    count("cluster.failed", f.failed);
    count("cluster.hedged", f.hedged);
    count("cluster.incidents", o.incidents);
    double obs_ms = 0;
    for (const char *name :
         {"obs.route_json", "obs.flight_json", "obs.slo_json",
          "obs.span_json", "obs.route_finish", "obs.spanstream",
          "obs.flightstream"})
        obs_ms += layerMs(tr, name, passes);
    out.push_back({"obs.export_ms", obs_ms, "ms"});
    out.push_back({"metrics.scrape_ms",
                   layerMs(tr, "metrics.scrape", passes), "ms"});
}

// ---------------------------------------------------------------------
// Pass loop and entry point
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "deepbench_sweep|fleet_replay|fleet_stream_chaos --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (k == "--trace")
            a.trace = value() == "1";
        else if (k == "--tiny")
            a.tiny = true;
        else if (k == "--trace-out")
            a.traceOut = value();
        else
            usage(("unknown argument " + k).c_str());
    }
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "deepbench_sweep")
        return std::make_unique<DeepbenchSweep>(a.seed, a.tiny);
    if (a.workload == "fleet_replay")
        return std::make_unique<FleetReplay>(a.seed, a.tiny);
    if (a.workload == "fleet_stream_chaos")
        return std::make_unique<FleetStreamChaos>(a.seed, a.tiny);
    usage(("unknown workload '" + a.workload + "'").c_str());
}

/**
 * Run measured passes for about @p budget_s seconds (at least
 * @p min_passes; no pass starts that would end more than half a pass
 * past the budget), numbering traced passes from 0, and print their
 * times. Passes split their timer only when @p split is set: the
 * traced run does not, so its two halves time alike.
 */
RefTimer
measure(Workload &w, HostTracer &tr, Checker &ck, double budget_s,
        int min_passes, bool split, const char *label)
{
    RefTimer passes;
    int64_t start = nowNs();
    while (static_cast<int>(passes.count()) < min_passes ||
           secondsSince(start) + 0.5 * mean(passes.seconds()) < budget_s) {
        tr.setPass(static_cast<int>(passes.count()));
        passes.begin();
        {
            auto sp = tr.scope("pass");
            w.pass(tr, false, split ? &passes : nullptr);
        }
        passes.end();
        tr.setPass(-1);
        w.check(ck, false);
    }
    std::printf("%s: %zu passes, mean %.6f s, %.6f reference s (probe "
                "mean %.6f s); pass seconds:",
                label, passes.count(), mean(passes.seconds()),
                mean(passes.refSeconds()), passes.meanProbe());
    for (double s : passes.seconds())
        std::printf(" %.4f", s);
    std::printf("\n%s: pass reference seconds:", label);
    for (double s : passes.refSeconds())
        std::printf(" %.4f", s);
    std::printf("\n");
    return passes;
}

double
maxRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(args);
    HostTracer tr(args.trace);
    Checker ck;

    RefTimer setups;
    for (int r = 0; r < w->setupReps(); ++r) {
        tr.setPass(-2 - r);
        setups.begin();
        {
            auto sp = tr.scope("setup");
            w->setup(tr);
        }
        setups.end();
    }
    tr.setPass(-1);
    {
        auto sp = tr.scope("warmup");
        w->pass(tr, true, nullptr);
    }
    w->check(ck, true);

    Metrics metrics;
    if (!args.trace) {
        RefTimer passes =
            measure(*w, tr, ck, args.seconds, 3, true, "measured");
        std::printf("set-up: median %.6f s, %.6f reference s\n",
                    median(setups.seconds()), median(setups.refSeconds()));
        endToEnd(metrics, *w, median(setups.refSeconds()),
                 mean(passes.refSeconds()), maxRssMiB());
    } else {
        // Half the budget untraced, half traced: the gap between the two
        // means is the tracing overhead.
        tr.setEnabled(false);
        double bare =
            mean(measure(*w, tr, ck, args.seconds / 2, 2, false, "untraced")
                     .refSeconds());
        tr.setEnabled(true);
        RefTimer traced = measure(*w, tr, ck, args.seconds / 2, 2, false,
                                 "traced");
        double pass_self_pct = 0;
        Json table = tr.selfTimeTable(&pass_self_pct);
        perLayer(metrics, *w, tr, static_cast<int>(traced.count()));
        double overhead = 100.0 * (mean(traced.refSeconds()) / bare - 1.0);
        metrics.push_back({"trace.overhead_pct", overhead, "%"});
        metrics.push_back({"trace.unattributed_pct", pass_self_pct, "%"});
        std::printf("tracing overhead %+.2f%% (traced over untraced mean "
                    "pass, reference seconds)\n",
                    overhead);
        std::printf("self time over the traced passes:\n");
        for (size_t i = 0; i < table.size(); ++i) {
            const Json &r = table.at(i);
            std::printf("  %-26s %10llu calls %12.3f ms %7.2f%%\n",
                        r.find("layer")->asString().c_str(),
                        static_cast<unsigned long long>(
                            r.find("calls")->asInt()),
                        r.find("self_ms")->asDouble(),
                        r.find("share_pct")->asDouble());
        }
        if (!args.traceOut.empty()) {
            writeJsonFile(args.traceOut, tr.chromeTrace(table));
            std::printf("chrome trace written to %s\n",
                        args.traceOut.c_str());
        }
    }
    std::printf("%s\n", w->summary().c_str());

    std::string out = "{\"correct\": ";
    out += ck.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ck.attempted());
    out += ", \"failed\": " + std::to_string(ck.failed());
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + num + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
