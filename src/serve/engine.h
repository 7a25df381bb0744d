/**
 * @file
 * Concurrent serving engine (Sections II, VII-B3): the BW NPU as a
 * hardware microservice behind live traffic.
 *
 * serve::Engine owns a pool of worker threads — one per simulated
 * accelerator replica — fed from a bounded mutex+condvar request queue
 * with admission control (reject-on-full with StatusCode::QueueFull
 * rather than unbounded growth). Each worker serves one request at a
 * time, FIFO, as it arrives: the BW NPU's batch-1 discipline. The
 * GPU's batch-or-timeout queue it is contrasted with (Section VII-B3 /
 * Fig. 8) is the analytic serveBatched() in runtime/serving.h.
 * Requests carry optional deadlines checked at dequeue; expired
 * requests complete with DEADLINE_EXCEEDED without consuming service.
 *
 * Two request flavors ground latency in the simulators rather than a
 * scalar service time: functional requests run the real FuncMachine
 * (bit-accurate arithmetic, outputs returned), and timed requests
 * charge NpuTiming-derived service milliseconds for the model at the
 * requested step count. Completed requests feed a thread-safe stats
 * collector and emit obs trace events (queue wait vs. service, one
 * track per worker) exportable as a Chrome trace.
 *
 * Engine::replay() is the deterministic virtual-time mode: it pushes a
 * fixed arrival vector through the same admission/deadline machinery
 * with no threads, and reproduces the analytic serveUnbatched()
 * latencies exactly — tying the threaded engine to the
 * paper-validated queueing model.
 */

#ifndef BW_SERVE_ENGINE_H
#define BW_SERVE_ENGINE_H

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "compiler/compiled_model.h"
#include "metrics/metrics.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "runtime/serving.h"
#include "timing/timing_model.h"

namespace bw {
namespace metrics {
class MetricsHttpServer;
}
namespace serve {

class SloMonitor;
struct AttemptRecord;
class OutcomeSink;

using RequestId = uint64_t;

/**
 * One serving request — the single submission currency of Engine,
 * Cluster and the Session::serve path. A request is *functional* when
 * @p inputs is non-empty (the real FuncMachine runs and outputs are
 * returned) and *timed* otherwise (the request charges the timing
 * model's service milliseconds for @p steps timesteps).
 */
struct Request
{
    /** Input sequence; empty = timed request. */
    std::vector<FVec> inputs;

    /** Timesteps a timed request charges (ignored for functional
     *  requests, which take their step count from inputs.size()). */
    unsigned steps = 1;

    /** Deadline checked at dequeue (0 = EngineOptions'
     *  defaultDeadlineMs). */
    double deadlineMs = 0;

    /** Per-request simulated service milliseconds (timed requests
     *  only; <= 0 = the engine's timing model / serviceMsOverride).
     *  The cluster front door uses this to charge model service plus
     *  weight-reload cost on a shared, model-less engine. */
    double serviceMsOverride = 0;

    /** Timed request for @p steps timesteps. */
    static Request
    timed(unsigned steps, double deadline_ms = 0, double service_ms = 0)
    {
        Request r;
        r.steps = steps;
        r.deadlineMs = deadline_ms;
        r.serviceMsOverride = service_ms;
        return r;
    }

    /** Functional request over @p xs. */
    static Request
    functional(std::vector<FVec> xs, double deadline_ms = 0)
    {
        Request r;
        r.inputs = std::move(xs);
        r.deadlineMs = deadline_ms;
        return r;
    }
};

/** Engine configuration. */
struct EngineOptions
{
    /** Worker threads == simulated accelerator replicas. */
    unsigned replicas = 1;

    /** Bounded queue depth; submissions beyond it are rejected with
     *  QUEUE_FULL (admission control, not unbounded growth). */
    size_t queueDepth = 64;

    /** Datacenter network round trip added to each reported latency
     *  (the bump-in-the-wire NIC neighbor of Section II-A). */
    double networkMs = 0.0;

    /** Deadline applied to requests submitted without one (0 = none);
     *  checked when the request is dequeued for service. */
    double defaultDeadlineMs = 0.0;

    /** When > 0, timed requests charge this many milliseconds instead
     *  of running the timing simulator (analytic-model equivalence). */
    double serviceMsOverride = 0.0;

    /**
     * Timing-fidelity tier of the engine's internal service-time
     * simulation (timing_model.h): CycleAccurate is exact,
     * Fast extrapolates the steady state, Cached memoizes
     * cycle-accurate runs bit-identically. fromEnv() applies
     * BW_TIMING_MODE.
     */
    timing::Fidelity fidelity = timing::Fidelity::CycleAccurate;

    /** Replica-group label stamped on /debug/config, so the engines of
     *  a multi-engine cluster are distinguishable when scraping their
     *  debug endpoints (e.g. "s10/0"). Purely informational. */
    std::string groupLabel;

    /** /debug/errors keeps the last this-many failed requests (ring;
     *  older entries are evicted). fromEnv() applies BW_DEBUG_RING. */
    size_t errorRingCapacity = 64;

    /**
     * Wall-clock seconds a worker occupies itself per simulated second
     * of timed service (1.0 = real time, 0.0 = instantaneous). Timed
     * requests always *report* the unscaled simulated service time.
     */
    double timeScale = 1.0;

    /** Test/fault-injection hook, invoked on the worker thread for
     *  each request as its service begins. */
    std::function<void(RequestId)> serviceHook;

    /**
     * Live-metrics registry (non-owning; must outlive the engine).
     * When set, the engine publishes: bw_serve_queue_depth and
     * bw_serve_inflight gauges; bw_serve_{admitted, completed,
     * rejected, deadline_expired, cancelled}_total counters; a
     * bw_serve_replica_busy_us_total{replica=...} counter per worker;
     * and bw_serve_latency_ms / bw_serve_queue_wait_ms histograms over
     * completed requests. Counters and histograms are per-thread
     * sharded, so workers never contend on a shared atomic; enabling
     * metrics does not change served-request outcomes (tested).
     */
    metrics::Registry *metricsRegistry = nullptr;

    /**
     * Span tracer (non-owning; must outlive the engine). When set, the
     * engine head-samples at admission (the tracer's sampleEvery /
     * BW_SPAN_SAMPLE over the deterministic request id), carries the
     * TraceContext on the queued request, and records the canonical
     * span tree per sampled request — request / queue_wait / dispatch /
     * execute plus chain[i] leaves from the timing simulator's retired-
     * chain profiles at the request's step count. Completed sampled
     * requests also attach their trace id as a latency-histogram
     * exemplar when a metricsRegistry is bound. Recording takes one
     * uncontended per-shard lock; enabling it does not change request
     * outcomes or simulated cycle counts (tested).
     */
    obs::SpanTracer *spanTracer = nullptr;

    /**
     * Flight recorder (non-owning; must outlive the engine). When set,
     * the engine records *every* submission attempt's flight record —
     * completions, deadline expiries, QUEUE_FULL rejects, service
     * errors and shutdown cancellations — keyed by a deterministic
     * submission sequence number (rejects consume one too; admitted
     * request ids / span trace ids are unaffected). Recording takes
     * one uncontended per-shard lock and does not change request
     * outcomes or simulated cycle counts; under replay() the recorder
     * is cleared and fed virtual time, so two replays of one schedule
     * export byte-identical flight logs (tested).
     */
    obs::FlightRecorder *flightRecorder = nullptr;

    /**
     * SLO burn-rate monitor (non-owning; must outlive the engine).
     * When set, every finished submission attempt is recorded against
     * its deadline class — completions count toward the latency SLI,
     * rejects / expiries / errors / cancellations burn availability
     * budget. Fed engine-clock microseconds live and virtual
     * microseconds under replay() (which clears it first).
     */
    SloMonitor *sloMonitor = nullptr;

    /**
     * Apply BW_SERVE_* environment overrides to @p base:
     * BW_SERVE_REPLICAS, BW_SERVE_QUEUE_DEPTH, BW_SERVE_TIMESCALE,
     * BW_DEBUG_RING, and BW_TIMING_MODE ("cycle" | "fast" | "cached").
     */
    static EngineOptions fromEnv(EngineOptions base);
    static EngineOptions fromEnv();
};

inline EngineOptions
EngineOptions::fromEnv()
{
    return fromEnv(EngineOptions{});
}

/** Outcome of one request. */
struct Response
{
    RequestId id = 0;
    Status status;             //!< OK, DEADLINE_EXCEEDED, CANCELLED
    std::vector<FVec> outputs; //!< functional requests: one per step
    double queueMs = 0;        //!< admission -> dequeue
    double serviceMs = 0;      //!< service span (simulated ms if timed)
    double latencyMs = 0;      //!< admission -> done, plus networkMs
    unsigned worker = 0;       //!< replica that served it
};

/**
 * Thread-safe collector of per-request outcomes. Engine workers feed
 * it; snapshot() and toJson() may be called concurrently at any time.
 */
class StatsCollector
{
  public:
    /** @p admit_s / @p done_s are seconds on the engine's clock (used
     *  for the throughput window). Counts one Ok outcome. */
    void recordCompleted(const Response &r, double admit_s, double done_s);
    /** Count one unserved outcome (rejected, expired, cancelled). */
    void record(obs::FlightClass outcome);

    /** Latency summary of completed requests so far. */
    ServeStats snapshot() const;

    /** Requests that ended with @p outcome (Ok = completed). */
    uint64_t count(obs::FlightClass outcome) const;

    /** snapshot() plus rejection/expiry counters and queue-wait
     *  percentiles, in the repo's toJson() convention. */
    Json toJson() const;

  private:
    mutable std::mutex mu_;
    std::vector<double> latenciesMs_;
    std::vector<double> queueWaitsMs_;
    std::vector<double> serviceMs_;
    std::array<uint64_t, static_cast<size_t>(
                             obs::FlightClass::NumFlightClasses)>
        outcomes_{};
    double firstAdmitS_ = 0;
    double lastDoneS_ = 0;
    bool sawRequest_ = false;
};

/** Multi-threaded serving engine over simulated accelerator replicas. */
class Engine
{
  public:
    /** Serve @p model (shared, not copied) with @p opts. */
    Engine(std::shared_ptr<const CompiledModel> model, EngineOptions opts);

    /** Convenience: copies @p model into shared ownership. */
    Engine(const CompiledModel &model, EngineOptions opts);

    /** Model-less engine: timed requests and replay() only, with
     *  serviceMsOverride supplying the service time. */
    explicit Engine(EngineOptions opts);

    /** Shuts down (cancelling queued requests) if still running. */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const EngineOptions &options() const { return opts_; }
    const CompiledModel *model() const { return model_.get(); }

    /**
     * Spawn the worker pool (idempotent; the first submit() also
     * starts it). Each worker builds and installs its own FuncMachine
     * replica when the engine has a model; start() returns once every
     * worker has and waits for work.
     */
    void start();

    /**
     * Submit one request (functional when req.inputs is non-empty,
     * timed otherwise — see serve::Request). Fails fast — without
     * enqueueing — with QUEUE_FULL when the queue is at depth,
     * UNAVAILABLE after drain()/shutdown(), INVALID_ARGUMENT on
     * malformed input, or FAILED_PRECONDITION when the engine lacks
     * what the request needs (a model for functional requests; a
     * model, serviceMsOverride or req.serviceMsOverride for timed
     * ones). req.deadlineMs (0 = options().defaultDeadlineMs) is
     * checked when the request is dequeued.
     */
    Expected<std::future<Response>> submit(Request req);

    /**
     * Graceful drain: stop admitting, then block until every queued
     * and in-flight request has completed. The worker pool stays up
     * (shutdown() or the destructor joins it).
     */
    void drain();

    /**
     * Stop admitting, cancel still-queued requests (their futures
     * complete with CANCELLED), finish in-flight service, and join the
     * workers. Idempotent. Call drain() first for a graceful stop.
     */
    void shutdown();

    /** Requests currently queued (racy snapshot). */
    size_t queueSize() const;

    /** Whether the engine still admits requests (false once drain() or
     *  shutdown() has begun — the /healthz readiness signal). */
    bool accepting() const;

    /**
     * Mount the engine's introspection endpoints on @p srv:
     * /debug/queue, /debug/replicas, /debug/config, /debug/errors and
     * /debug/flight, plus /slo.json when a SloMonitor is attached; and
     * register the readiness probe so /healthz turns 503
     * {"draining":true} once drain()/shutdown() has begun. The server
     * must not outlive the engine.
     */
    void exposeDebug(metrics::MetricsHttpServer &srv);

    /** Admission-queue snapshot: engine lifecycle flags, occupancy,
     *  and one entry per queued request (id, age, deadline). */
    Json debugQueueJson() const;

    /** Per-replica worker state: serving/idle, in-flight request ids,
     *  served/expired/error counts, last served id. */
    Json debugReplicasJson() const;

    /** Effective configuration: EngineOptions, the model's NpuConfig,
     *  and every documented BW_* variable currently set. */
    Json debugConfigJson() const;

    /** The last-N non-OK outcomes (rejects, expiries, service errors,
     *  cancellations), newest last. */
    Json debugErrorsJson() const;

    /** Promoted flight-record index: one compact row per promoted
     *  record linking its flight seq to the admitted request id and
     *  (when head-sampled) the live span-export trace id. */
    Json debugFlightJson() const;

    /**
     * The full bw.flight/1 export of the attached flight recorder,
     * with chain[i] span leaves reconstructed from the engine's cached
     * timing profiles. Collect after quiescence (drained, shut down, or
     * after replay()) — before it, the recorder rings hold only the
     * records written so far. Fails FailedPrecondition without a
     * recorder.
     */
    Expected<Json> flightJson();

    /** Latency summary of completed requests so far (thread-safe). */
    ServeStats stats() const { return collector_.snapshot(); }

    const StatsCollector &collector() const { return collector_; }

    /** stats + counters + engine configuration, machine-readable. */
    Json statsJson() const;

    /**
     * Per-request trace events (QueueWait on the serve_queue track,
     * Service on one serve_worker track per replica), timestamped in
     * microseconds since engine construction. Export with
     * obs::chromeTraceJson(trace, 1.0). Only safe to read once the
     * engine is drained or shut down.
     */
    const obs::EventTrace &trace() const { return trace_; }

    /**
     * Deterministic virtual-time mode: replay @p arrivals_s (seconds,
     * ascending) through the engine's admission control and deadline
     * machinery with service times from the timing simulator at
     * @p steps (or serviceMsOverride). No threads, bit-reproducible;
     * with one replica, no deadline and an unbounded queue this
     * reproduces serveUnbatched() exactly. With a spanTracer attached
     * the replay clears the tracer and records span trees on the
     * virtual clock with ids from a replay-local counter, so two
     * replays of the same schedule export byte-identical span-tree
     * JSON (tested).
     */
    ServeStats replay(const std::vector<double> &arrivals_s,
                      unsigned steps = 1);

    /** Simulated single-request service time at @p steps timesteps:
     *  serviceMsOverride when set, else an NpuTiming run (cached). */
    double serviceMsFor(unsigned steps);

    /** Seconds since engine construction began (the clock trace event
     *  and metrics-sampler timestamps are measured on). */
    std::chrono::steady_clock::time_point epoch() const
    {
        return epoch_;
    }

  private:
    struct Pending
    {
        RequestId id = 0;
        /** Submission-attempt sequence number (flight-recorder key);
         *  unlike id, rejected submissions consume one. */
        uint64_t seq = 0;
        std::vector<FVec> xs;  //!< empty for timed requests
        unsigned steps = 1;
        bool timed = false;
        /** Per-request simulated service override, milliseconds
         *  (0 = the engine's model / serviceMsOverride). */
        double serviceMsReq = 0;
        double deadlineMs = 0; //!< 0 = none
        double admitS = 0;     //!< engine-clock seconds at admission
        /** Span-tracing context, stamped at admission and carried to
         *  the serving worker (explicit propagation, no TLS). */
        obs::TraceContext ctx;
        std::promise<Response> promise;
    };

    /** Resolved handles into options().metricsRegistry (absent when no
     *  registry is attached; all updates null-check through live_). */
    struct LiveMetrics
    {
        metrics::Gauge *queueDepth = nullptr;
        metrics::Gauge *inflight = nullptr;
        metrics::Counter *admitted = nullptr;
        metrics::Counter *completed = nullptr;
        metrics::Counter *rejected = nullptr;
        metrics::Counter *expired = nullptr;
        metrics::Counter *cancelled = nullptr;
        std::vector<metrics::Counter *> replicaBusyUs;
        metrics::Histogram *latencyMs = nullptr;
        metrics::Histogram *queueWaitMs = nullptr;
    };

    /** One /debug/errors ring entry. */
    struct ErrorRecord
    {
        uint64_t seq = 0;
        RequestId id = 0;   //!< 0 for pre-admission rejects
        uint64_t timeUs = 0;
        StatusCode code = StatusCode::Ok;
        std::string message;
    };

    /** Per-replica live state for /debug/replicas. */
    struct ReplicaDebug
    {
        bool busy = false;
        uint64_t served = 0;
        uint64_t expired = 0;
        uint64_t errors = 0;
        RequestId lastId = 0;
        std::vector<RequestId> inflight;
    };

    Expected<std::future<Response>> enqueue(Pending p);
    void bindMetrics();
    void startLocked(std::unique_lock<std::mutex> &lk);
    void workerLoop(unsigned index);
    /** Replica @p index's batch-1 step for @p p, dequeued at
     *  @p dequeue_s: expire it or serve it, then record and answer it. */
    void serveOne(unsigned index, FuncMachine *machine, Pending p,
                  double dequeue_s);

    /** Seconds since engine construction (steady clock). */
    double nowS() const;

    void emitTrace(obs::EventKind kind, obs::ResClass res,
                   uint16_t res_index, RequestId id, double start_s,
                   double end_s);

    std::shared_ptr<const CompiledModel> model_;
    EngineOptions opts_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; //!< workers wait for requests
    std::condition_variable idleCv_; //!< drain() waits for quiescence
    std::condition_variable readyCv_; //!< start() waits for the workers
    std::deque<Pending> queue_;
    bool accepting_ = true;
    bool draining_ = false;
    bool stopping_ = false;
    bool started_ = false;
    unsigned inFlight_ = 0;
    unsigned ready_ = 0; //!< workers whose machine is installed
    RequestId nextId_ = 1;
    std::vector<std::thread> workers_;

    /** The model's timing run at @p steps (cached per step count):
     *  service time plus, when a span tracer or flight recorder is
     *  attached, the retired-chain profiles behind chain[i] leaves. */
    const timing::ProfiledRun &profiledRun(unsigned steps);

    /** profiledRun(@p steps) when it can carry chain profiles (a
     *  compiled model, no serviceMsOverride, steps > 0), else null. */
    const timing::ProfiledRun *chainRun(unsigned steps);

    /** Feed one finished submission attempt (stamps on the engine's
     *  clock, virtual under replay) to the replay @p pass in deadline
     *  class @p cls or, live, to the flight recorder and the SLO
     *  monitor, either may be absent; and write its span tree under
     *  @p trace (0 = none) to the span tracer. */
    void recordAttempt(const AttemptRecord &rec, obs::TraceId trace,
                       OutcomeSink *pass = nullptr, size_t cls = 0);

    /** Append to the /debug/errors ring (bounded; oldest evicted). */
    void noteError(uint64_t seq, RequestId id, uint64_t time_us,
                   StatusCode code, std::string message);

    /** Binds the flight export's chain-leaf reconstruction to the
     *  engine's per-step-count timing-profile cache. */
    obs::ChainProfileFn chainProfileFn();

    std::mutex serviceMsMu_;
    /** Thin per-step-count front over the timing model: keeps one
     *  result + shared chain vector per steps value so workers share
     *  one immutable profile per step count. The actual simulation
     *  (and, under Fidelity::Cached, the cross-run memo) lives in
     *  timingModel_. */
    std::unordered_map<unsigned, timing::ProfiledRun> serviceCache_;
    /** Lazily built at the options' fidelity tier (under
     *  serviceMsMu_). */
    std::unique_ptr<timing::TimingModel> timingModel_;

    StatsCollector collector_;
    std::mutex traceMu_;
    obs::EventTrace trace_;
    std::unique_ptr<LiveMetrics> live_;

    /** Next submission-attempt seq (guarded by mu_; rejects consume
     *  one, unlike nextId_ — see Pending::seq). */
    uint64_t nextSeq_ = 1;

    mutable std::mutex debugMu_;
    std::deque<ErrorRecord> errors_; //!< newest at the back
    uint64_t errorsTotal_ = 0;
    std::vector<ReplicaDebug> replicaDebug_;
};

} // namespace serve
} // namespace bw

#endif // BW_SERVE_ENGINE_H
