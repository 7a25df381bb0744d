#include "serve/engine.h"

#include <algorithm>
#include <cmath>

#include "common/env_doc.h"
#include "common/logging.h"
#include "metrics/http_server.h"
#include "serve/slo.h"
#include "serve/virtual_shard.h"
#include "timing/npu_timing.h"

namespace bw {
namespace serve {

EngineOptions
EngineOptions::fromEnv(EngineOptions base)
{
    envUnsigned("BW_SERVE_REPLICAS", &base.replicas);
    envUnsigned("BW_SERVE_QUEUE_DEPTH", &base.queueDepth);
    envDouble("BW_SERVE_TIMESCALE", &base.timeScale);
    envUnsigned("BW_DEBUG_RING", &base.errorRingCapacity);
    base.fidelity = timing::fidelityFromEnv(base.fidelity);
    return base;
}

// --- StatsCollector ---

void
StatsCollector::recordCompleted(const Response &r, double admit_s,
                                double done_s)
{
    std::lock_guard<std::mutex> lk(mu_);
    latenciesMs_.push_back(r.latencyMs);
    queueWaitsMs_.push_back(r.queueMs);
    serviceMs_.push_back(r.serviceMs);
    ++outcomes_[static_cast<size_t>(obs::FlightClass::Ok)];
    if (!sawRequest_ || admit_s < firstAdmitS_)
        firstAdmitS_ = admit_s;
    if (!sawRequest_ || done_s > lastDoneS_)
        lastDoneS_ = done_s;
    sawRequest_ = true;
}

void
StatsCollector::record(obs::FlightClass outcome)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++outcomes_[static_cast<size_t>(outcome)];
}

ServeStats
StatsCollector::snapshot() const
{
    uint64_t completed = count(obs::FlightClass::Ok);
    std::lock_guard<std::mutex> lk(mu_);
    ServeStats s;
    std::vector<double> sorted = latenciesMs_;
    summarizeLatencies(s, sorted);
    double span = lastDoneS_ - firstAdmitS_;
    s.throughputRps =
        span > 0 ? static_cast<double>(completed) / span : 0.0;
    return s;
}

uint64_t
StatsCollector::count(obs::FlightClass outcome) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return outcomes_[static_cast<size_t>(outcome)];
}

Json
StatsCollector::toJson() const
{
    Json j = snapshot().toJson();
    j.set("rejected", count(obs::FlightClass::Rejected));
    j.set("expired", count(obs::FlightClass::DeadlineExpired));
    j.set("cancelled", count(obs::FlightClass::Cancelled));
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> waits = queueWaitsMs_;
    std::sort(waits.begin(), waits.end());
    auto mean = [](const std::vector<double> &v) {
        double sum = 0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    j.set("mean_queue_ms", mean(waits));
    LatencyQuantiles wq = quantilesSorted(waits);
    j.set("p50_queue_ms", wq.p50);
    j.set("p95_queue_ms", wq.p95);
    j.set("p99_queue_ms", wq.p99);
    j.set("mean_service_ms", mean(serviceMs_));
    return j;
}

// --- Engine ---

Engine::Engine(std::shared_ptr<const CompiledModel> model,
               EngineOptions opts)
    : model_(std::move(model)), opts_(std::move(opts)),
      epoch_(std::chrono::steady_clock::now())
{
    opts_.replicas = std::max(1u, opts_.replicas);
    opts_.queueDepth = std::max<size_t>(1, opts_.queueDepth);
    replicaDebug_.resize(opts_.replicas);
    if (opts_.metricsRegistry)
        bindMetrics();
}

void
Engine::recordAttempt(const AttemptRecord &rec, obs::TraceId trace,
                      OutcomeSink *pass, size_t cls)
{
    if (pass) {
        pass->flight(0, rec);
        pass->slo(0, cls, rec.doneUs, rec.latencyMs, rec.available());
    } else {
        if (opts_.flightRecorder)
            opts_.flightRecorder->record(rec);
        if (opts_.sloMonitor)
            opts_.sloMonitor->record(rec.doneUs, rec.deadlineMs,
                                     rec.latencyMs, rec.available());
    }
    if (!opts_.spanTracer || trace == 0)
        return;
    const timing::ProfiledRun *run = chainRun(rec.steps);
    obs::recordAttemptSpans(*opts_.spanTracer, rec, trace, 0,
                            run ? run->chains.get() : nullptr,
                            run ? run->result.totalCycles : 0);
}

void
Engine::noteError(uint64_t seq, RequestId id, uint64_t time_us,
                  StatusCode code, std::string message)
{
    std::lock_guard<std::mutex> lk(debugMu_);
    ++errorsTotal_;
    if (opts_.errorRingCapacity == 0)
        return; // counted, not retained
    while (errors_.size() >= opts_.errorRingCapacity)
        errors_.pop_front();
    ErrorRecord e;
    e.seq = seq;
    e.id = id;
    e.timeUs = time_us;
    e.code = code;
    e.message = std::move(message);
    errors_.push_back(std::move(e));
}

void
Engine::bindMetrics()
{
    metrics::Registry &reg = *opts_.metricsRegistry;
    live_ = std::make_unique<LiveMetrics>();
    live_->queueDepth = &reg.gauge(
        "bw_serve_queue_depth",
        "Requests waiting in the engine's bounded admission queue");
    live_->inflight = &reg.gauge(
        "bw_serve_inflight",
        "Requests currently in service across accelerator replicas");
    live_->admitted = &reg.counter(
        "bw_serve_admitted_total",
        "Requests accepted into the queue since engine construction");
    live_->completed = &reg.counter(
        "bw_serve_completed_total",
        "Requests that finished service successfully");
    live_->rejected = &reg.counter(
        "bw_serve_rejected_total",
        "Submissions rejected by admission control (QUEUE_FULL)");
    live_->expired = &reg.counter(
        "bw_serve_deadline_expired_total",
        "Requests whose deadline passed while queued (expired at "
        "dequeue, no service consumed)");
    live_->cancelled = &reg.counter(
        "bw_serve_cancelled_total",
        "Queued requests abandoned by shutdown()");
    live_->replicaBusyUs.reserve(opts_.replicas);
    for (unsigned i = 0; i < opts_.replicas; ++i) {
        live_->replicaBusyUs.push_back(&reg.counter(
            "bw_serve_replica_busy_us_total",
            "Wall-clock microseconds each replica spent serving",
            {{"replica", std::to_string(i)}}));
    }
    live_->latencyMs = &reg.histogram(
        "bw_serve_latency_ms",
        "End-to-end latency of completed requests, milliseconds "
        "(admission to completion plus network)");
    live_->queueWaitMs = &reg.histogram(
        "bw_serve_queue_wait_ms",
        "Queue wait of completed requests, milliseconds (admission to "
        "dequeue)");
}

Engine::Engine(const CompiledModel &model, EngineOptions opts)
    : Engine(std::make_shared<CompiledModel>(model), std::move(opts))
{
}

Engine::Engine(EngineOptions opts) : Engine(nullptr, std::move(opts)) {}

Engine::~Engine()
{
    shutdown();
}

double
Engine::nowS() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Engine::emitTrace(obs::EventKind kind, obs::ResClass res,
                  uint16_t res_index, RequestId id, double start_s,
                  double end_s)
{
    obs::TraceEvent e;
    e.start = toUs(start_s);
    e.end = std::max(toUs(end_s), e.start);
    e.kind = kind;
    e.res = res;
    e.resIndex = res_index;
    e.chain = static_cast<uint32_t>(id);
    std::lock_guard<std::mutex> lk(traceMu_);
    trace_.event(e);
}

void
Engine::start()
{
    std::unique_lock<std::mutex> lk(mu_);
    startLocked(lk);
}

void
Engine::startLocked(std::unique_lock<std::mutex> &lk)
{
    if (!started_ && !stopping_) {
        started_ = true;
        workers_.reserve(opts_.replicas);
        for (unsigned i = 0; i < opts_.replicas; ++i)
            workers_.emplace_back(&Engine::workerLoop, this, i);
    }
    // Return once every replica has installed its machine and waits for
    // work, so no request's queue wait pays for the pool's start-up.
    readyCv_.wait(lk, [&] { return !started_ || ready_ == opts_.replicas; });
}

Expected<std::future<Response>>
Engine::submit(Request req)
{
    Pending p;
    p.deadlineMs =
        req.deadlineMs > 0 ? req.deadlineMs : opts_.defaultDeadlineMs;
    if (!req.inputs.empty()) {
        if (!model_) {
            return Status::failedPrecondition(
                "functional request on a model-less engine (construct "
                "the engine with a CompiledModel, or submit a timed "
                "Request)");
        }
        Status valid = model_->validateSequenceInput(req.inputs);
        if (!valid.ok())
            return valid;
        p.xs = std::move(req.inputs);
        p.steps = static_cast<unsigned>(p.xs.size());
        p.timed = false;
        return enqueue(std::move(p));
    }
    if (!model_ && opts_.serviceMsOverride <= 0 &&
        req.serviceMsOverride <= 0) {
        return Status::failedPrecondition(
            "timed request needs a CompiledModel (for the timing "
            "model), EngineOptions::serviceMsOverride, or a "
            "Request::serviceMsOverride");
    }
    if (req.steps == 0)
        return Status::invalidArgument("timed request with steps == 0");
    p.steps = req.steps;
    p.timed = true;
    p.serviceMsReq =
        req.serviceMsOverride > 0 ? req.serviceMsOverride : 0.0;
    return enqueue(std::move(p));
}

Expected<std::future<Response>>
Engine::enqueue(Pending p)
{
    std::future<Response> fut = p.promise.get_future();
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (accepting_)
            startLocked(lk);
        if (!accepting_) {
            return Status::unavailable(
                "engine is draining or shut down");
        }
        if (queue_.size() >= opts_.queueDepth) {
            // The reject consumes a submission-attempt seq (the flight
            // promotion key) but never a request id — span trace ids
            // stay dense over admitted requests only.
            uint64_t seq = nextSeq_++;
            collector_.record(obs::FlightClass::Rejected);
            if (live_)
                live_->rejected->inc();
            Status st = Status::queueFull(detail::format(
                "queue at depth %zu; request rejected (admission "
                "control)", opts_.queueDepth));
            double now_s = nowS();
            AttemptRecord rec(seq, 0, obs::FlightClass::Rejected, false, 0,
                              p.steps, now_s, now_s, now_s, now_s, 0.0,
                              p.deadlineMs);
            recordAttempt(rec, 0);
            noteError(seq, 0, rec.doneUs, st.code(), st.message());
            return st;
        }
        p.id = nextId_++;
        p.seq = nextSeq_++;
        p.admitS = nowS();
        if (opts_.spanTracer)
            p.ctx = opts_.spanTracer->admit(p.id);
        queue_.push_back(std::move(p));
        if (live_) {
            live_->admitted->inc();
            live_->queueDepth->set(static_cast<double>(queue_.size()));
        }
    }
    workCv_.notify_one();
    return fut;
}

void
Engine::workerLoop(unsigned index)
{
    // Each worker is one accelerator replica: its own functional
    // machine with the model's weights and preloads installed.
    std::unique_ptr<FuncMachine> machine;
    if (model_) {
        machine = std::make_unique<FuncMachine>(model_->cfg);
        model_->install(*machine);
    }

    std::unique_lock<std::mutex> lk(mu_);
    ++ready_;
    readyCv_.notify_all();
    for (;;) {
        workCv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and nothing left to serve

        Pending p = std::move(queue_.front());
        queue_.pop_front();
        double dequeue_s = nowS();
        ++inFlight_;
        if (live_) {
            live_->queueDepth->set(static_cast<double>(queue_.size()));
            live_->inflight->set(static_cast<double>(inFlight_));
        }
        lk.unlock();

        serveOne(index, machine.get(), std::move(p), dequeue_s);

        lk.lock();
        --inFlight_;
        if (live_)
            live_->inflight->set(static_cast<double>(inFlight_));
        if (queue_.empty() && inFlight_ == 0)
            idleCv_.notify_all();
    }
}

void
Engine::serveOne(unsigned index, FuncMachine *machine, Pending p,
                 double dequeue_s)
{
    {
        std::lock_guard<std::mutex> lk(debugMu_);
        ReplicaDebug &rd = replicaDebug_[index];
        rd.busy = true;
        rd.inflight.assign(1, p.id);
    }
    emitTrace(obs::EventKind::QueueWait, obs::ResClass::ServeQueue, 0,
              p.id, p.admitS, dequeue_s);

    Response r;
    r.id = p.id;
    r.queueMs = (dequeue_s - p.admitS) * 1e3;
    r.worker = index;
    double service_start_s = dequeue_s;
    double done_s = dequeue_s;
    // On-dequeue deadline expiry: a request that waited out its
    // deadline completes at once, consuming no service.
    bool expired = VirtualShard::expires(p.admitS, dequeue_s, p.deadlineMs);
    if (expired) {
        r.status = Status::deadlineExceeded(detail::format(
            "request waited %.3f ms in queue, deadline %.3f ms", r.queueMs,
            p.deadlineMs));
        collector_.record(obs::FlightClass::DeadlineExpired);
        if (live_)
            live_->expired->inc();
    } else {
        if (opts_.serviceHook)
            opts_.serviceHook(p.id);
        // Dispatch ends and service begins here: the service hook above
        // is charged to the dispatch span.
        service_start_s = nowS();
        if (p.timed) {
            // Timed requests charge simulated service milliseconds.
            r.serviceMs = p.serviceMsReq > 0 ? p.serviceMsReq
                                             : serviceMsFor(p.steps);
            if (opts_.timeScale > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        r.serviceMs * opts_.timeScale));
            }
        } else {
            // Functional requests run the replica's real machine.
            try {
                model_->resetRequestState(*machine);
                r.outputs = model_->runSequence(*machine, p.xs);
            } catch (const Error &e) {
                r.status = Status::invalidArgument(e.what());
            }
        }
        done_s = nowS();
        if (!p.timed)
            r.serviceMs = (done_s - dequeue_s) * 1e3;
        emitTrace(obs::EventKind::Service, obs::ResClass::ServeWorker,
                  static_cast<uint16_t>(index), p.id, dequeue_s, done_s);
        if (live_) {
            live_->replicaBusyUs[index]->add(toUs(done_s - dequeue_s));
        }
    }
    r.latencyMs = r.queueMs + r.serviceMs + opts_.networkMs;

    obs::FlightClass cls = expired        ? obs::FlightClass::DeadlineExpired
                           : r.status.ok() ? obs::FlightClass::Ok
                                           : obs::FlightClass::Error;
    AttemptRecord rec(p.seq, p.id, cls, p.ctx.sampled(), index, p.steps,
                      p.admitS, dequeue_s, service_start_s, done_s,
                      r.latencyMs, p.deadlineMs);
    recordAttempt(rec, p.ctx.trace);
    if (!r.status.ok()) {
        noteError(p.seq, p.id, rec.doneUs, r.status.code(),
                  r.status.message());
    }
    if (!expired) {
        collector_.recordCompleted(r, p.admitS, done_s);
        if (live_) {
            live_->completed->inc();
            // Sampled requests attach their trace id as a bucket
            // exemplar: /metrics.json then names a slowest trace per
            // latency bucket for tail forensics.
            if (p.ctx.sampled())
                live_->latencyMs->recordExemplar(r.latencyMs, p.ctx.trace);
            else
                live_->latencyMs->record(r.latencyMs);
            live_->queueWaitMs->record(r.queueMs);
        }
    }
    {
        std::lock_guard<std::mutex> lk(debugMu_);
        ReplicaDebug &rd = replicaDebug_[index];
        rd.busy = false;
        rd.inflight.clear();
        if (expired) {
            ++rd.expired;
        } else {
            rd.lastId = p.id;
            if (r.status.ok())
                ++rd.served;
            else
                ++rd.errors;
        }
    }
    p.promise.set_value(std::move(r));
}

void
Engine::drain()
{
    std::unique_lock<std::mutex> lk(mu_);
    accepting_ = false;
    draining_ = true;
    idleCv_.wait(lk, [&] { return queue_.empty() && inFlight_ == 0; });
}

void
Engine::shutdown()
{
    std::deque<Pending> abandoned;
    {
        std::lock_guard<std::mutex> lk(mu_);
        accepting_ = false;
        stopping_ = true;
        abandoned.swap(queue_);
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    double now_s = nowS();
    for (Pending &p : abandoned) {
        Response r;
        r.id = p.id;
        r.status = Status::cancelled("engine shut down before service");
        r.queueMs = (now_s - p.admitS) * 1e3;
        r.latencyMs = r.queueMs + opts_.networkMs;
        collector_.record(obs::FlightClass::Cancelled);
        if (live_)
            live_->cancelled->inc();
        // A cancelled request keeps its flight record; only served and
        // expired requests write span trees.
        AttemptRecord rec(p.seq, p.id, obs::FlightClass::Cancelled,
                          p.ctx.sampled(), 0, p.steps, p.admitS, now_s,
                          now_s, now_s, r.latencyMs, p.deadlineMs);
        recordAttempt(rec, 0);
        noteError(p.seq, p.id, rec.doneUs, r.status.code(),
                  r.status.message());
        p.promise.set_value(std::move(r));
    }
    if (live_)
        live_->queueDepth->set(0);
}

size_t
Engine::queueSize() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

bool
Engine::accepting() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return accepting_;
}

Json
Engine::statsJson() const
{
    Json j = Json::object();
    Json cfg = Json::object();
    cfg.set("replicas", opts_.replicas);
    cfg.set("queue_depth", static_cast<uint64_t>(opts_.queueDepth));
    cfg.set("network_ms", opts_.networkMs);
    cfg.set("time_scale", opts_.timeScale);
    cfg.set("model", model_ ? model_->name : "");
    j.set("engine", std::move(cfg));
    j.set("stats", collector_.toJson());
    return j;
}

// --- /debug introspection ---

Json
Engine::debugQueueJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Json j = Json::object();
    j.set("accepting", accepting_);
    j.set("draining", draining_);
    j.set("stopping", stopping_);
    j.set("depth", static_cast<uint64_t>(queue_.size()));
    j.set("capacity", static_cast<uint64_t>(opts_.queueDepth));
    j.set("inflight", inFlight_);
    j.set("next_id", nextId_);
    j.set("next_seq", nextSeq_);
    double now_s = nowS();
    Json list = Json::array();
    for (const Pending &p : queue_) {
        Json e = Json::object();
        e.set("id", p.id);
        e.set("seq", p.seq);
        e.set("timed", p.timed);
        e.set("steps", p.steps);
        e.set("deadline_ms", p.deadlineMs);
        e.set("queued_ms", (now_s - p.admitS) * 1e3);
        e.set("sampled", p.ctx.sampled());
        list.push(std::move(e));
    }
    j.set("queue", std::move(list));
    return j;
}

Json
Engine::debugReplicasJson() const
{
    std::lock_guard<std::mutex> lk(debugMu_);
    Json j = Json::object();
    j.set("replicas", opts_.replicas);
    Json list = Json::array();
    for (size_t i = 0; i < replicaDebug_.size(); ++i) {
        const ReplicaDebug &rd = replicaDebug_[i];
        Json e = Json::object();
        e.set("replica", static_cast<uint64_t>(i));
        e.set("state", rd.busy ? "serving" : "idle");
        e.set("served", rd.served);
        e.set("expired", rd.expired);
        e.set("errors", rd.errors);
        e.set("last_id", rd.lastId);
        Json ids = Json::array();
        for (RequestId id : rd.inflight)
            ids.push(id);
        e.set("inflight_ids", std::move(ids));
        list.push(std::move(e));
    }
    j.set("workers", std::move(list));
    return j;
}

Json
Engine::debugConfigJson() const
{
    Json j = Json::object();
    Json eng = Json::object();
    eng.set("group", opts_.groupLabel);
    eng.set("replicas", opts_.replicas);
    eng.set("queue_depth", static_cast<uint64_t>(opts_.queueDepth));
    eng.set("network_ms", opts_.networkMs);
    eng.set("default_deadline_ms", opts_.defaultDeadlineMs);
    eng.set("service_ms_override", opts_.serviceMsOverride);
    eng.set("timing_mode", timing::fidelityName(opts_.fidelity));
    eng.set("time_scale", opts_.timeScale);
    eng.set("metrics", opts_.metricsRegistry != nullptr);
    eng.set("span_tracer", opts_.spanTracer != nullptr);
    eng.set("flight_recorder", opts_.flightRecorder != nullptr);
    eng.set("slo_monitor", opts_.sloMonitor != nullptr);
    j.set("engine", std::move(eng));
    if (model_) {
        const NpuConfig &cfg = model_->cfg;
        Json npu = Json::object();
        npu.set("name", cfg.name);
        npu.set("native_dim", cfg.nativeDim);
        npu.set("lanes", cfg.lanes);
        npu.set("tile_engines", cfg.tileEngines);
        npu.set("precision", cfg.precision.toString());
        npu.set("mrf_size", cfg.mrfSize);
        npu.set("initial_vrf_size", cfg.initialVrfSize);
        npu.set("mfus", cfg.mfus);
        npu.set("clock_mhz", cfg.clockMhz);
        npu.set("peak_tflops", cfg.peakTflops());
        j.set("npu", std::move(npu));
    }
    if (opts_.flightRecorder) {
        const obs::FlightRecorderOptions &fo =
            opts_.flightRecorder->options();
        Json f = Json::object();
        f.set("shard_capacity", static_cast<uint64_t>(fo.shardCapacity));
        f.set("window_us", fo.windowUs);
        f.set("slowest_k", fo.slowestK);
        j.set("flight", std::move(f));
    }
    // The resolved BW_* environment: every documented variable that is
    // actually set in this process, from the same single-source list
    // the README table renders from.
    Json env = Json::object();
    for (const EnvVarDoc &d : envVarDocs()) {
        if (const char *v = envText(d.name))
            env.set(d.name, v);
    }
    j.set("env", std::move(env));
    return j;
}

Json
Engine::debugErrorsJson() const
{
    std::lock_guard<std::mutex> lk(debugMu_);
    Json j = Json::object();
    j.set("capacity", static_cast<uint64_t>(opts_.errorRingCapacity));
    j.set("total", errorsTotal_);
    Json list = Json::array();
    for (const ErrorRecord &e : errors_) {
        Json r = Json::object();
        r.set("seq", e.seq);
        r.set("id", e.id);
        r.set("time_us", e.timeUs);
        r.set("code", statusCodeName(e.code));
        r.set("message", e.message);
        list.push(std::move(r));
    }
    j.set("errors", std::move(list));
    return j;
}

Json
Engine::debugFlightJson() const
{
    Json j = Json::object();
    j.set("attached", opts_.flightRecorder != nullptr);
    if (!opts_.flightRecorder) {
        j.set("promoted", Json::array());
        return j;
    }
    const obs::FlightRecorder &fr = *opts_.flightRecorder;
    j.set("recorded", fr.recorded());
    j.set("dropped", fr.dropped());
    j.set("window_us", fr.options().windowUs);
    j.set("slowest_k", fr.options().slowestK);
    Json list = Json::array();
    for (const obs::FlightRecord &r : fr.promoted()) {
        Json e = Json::object();
        e.set("seq", r.seq);
        e.set("id", r.id);
        e.set("class", obs::flightClassName(r.cls));
        // The flight export keys its span trees by seq; a head-sampled
        // request additionally has a live bw.spans/1 trace under its id.
        e.set("trace", r.seq);
        e.set("head_trace", r.sampled ? r.id : 0);
        e.set("latency_us", r.latencyUs);
        e.set("admit_us", r.admitUs);
        list.push(std::move(e));
    }
    j.set("promoted", std::move(list));
    return j;
}

obs::ChainProfileFn
Engine::chainProfileFn()
{
    if (!model_ || opts_.serviceMsOverride > 0)
        return {};
    return [this](uint32_t steps,
                  const std::vector<obs::ChainProfile> **chains,
                  Cycles *total_cycles) {
        const timing::ProfiledRun *run = chainRun(steps);
        if (!run || !run->chains || run->chains->empty())
            return false;
        *chains = run->chains.get();
        *total_cycles = run->result.totalCycles;
        return true;
    };
}

Expected<Json>
Engine::flightJson()
{
    if (!opts_.flightRecorder) {
        return Status::failedPrecondition(
            "no flight recorder attached "
            "(EngineOptions::flightRecorder)");
    }
    return obs::flightJson(*opts_.flightRecorder, chainProfileFn());
}

void
Engine::exposeDebug(metrics::MetricsHttpServer &srv)
{
    srv.setReadiness([this] { return accepting(); });
    srv.handleJson("/debug/queue", [this] {
        return debugQueueJson().dump(2) + "\n";
    });
    srv.handleJson("/debug/replicas", [this] {
        return debugReplicasJson().dump(2) + "\n";
    });
    srv.handleJson("/debug/config", [this] {
        return debugConfigJson().dump(2) + "\n";
    });
    srv.handleJson("/debug/errors", [this] {
        return debugErrorsJson().dump(2) + "\n";
    });
    srv.handleJson("/debug/flight", [this] {
        return debugFlightJson().dump(2) + "\n";
    });
    if (opts_.sloMonitor) {
        SloMonitor *slo = opts_.sloMonitor;
        srv.handleJson("/slo.json", [slo] {
            return slo->sloJson().dump(2) + "\n";
        });
    }
}

double
Engine::serviceMsFor(unsigned steps)
{
    if (opts_.serviceMsOverride > 0)
        return opts_.serviceMsOverride;
    return profiledRun(steps).result.latencyMs(model_->cfg);
}

const timing::ProfiledRun *
Engine::chainRun(unsigned steps)
{
    if (!model_ || opts_.serviceMsOverride > 0 || steps == 0)
        return nullptr;
    return &profiledRun(steps);
}

const timing::ProfiledRun &
Engine::profiledRun(unsigned steps)
{
    if (!model_) {
        BW_FATAL("serviceMsFor(%u): no model and no serviceMsOverride",
                 steps);
    }
    // References into the cache stay valid after unlock: entries are
    // never erased and unordered_map references survive rehash.
    std::lock_guard<std::mutex> lk(serviceMsMu_);
    auto it = serviceCache_.find(steps);
    if (it != serviceCache_.end())
        return it->second;
    // The simulation runs at the options' fidelity tier; the per-steps
    // map above stays as a thin front handing workers one immutable
    // shared profile per step count.
    if (!timingModel_) {
        timingModel_ = timing::makeTimingModel(opts_.fidelity,
                                               model_->cfg);
        timingModel_->setTileBeats(model_->tileBeats);
    }
    // Both consumers of chain profiles — live span trees and the
    // flight export's reconstructed leaves — need the profiled run
    // (cycle-identical to run(), tested).
    timing::ProfiledRun run;
    if (opts_.spanTracer || opts_.flightRecorder)
        run = timingModel_->runShared(model_->prologue, model_->step, steps);
    else
        run.result = timingModel_->run(model_->prologue, model_->step, steps);
    return serviceCache_.emplace(steps, std::move(run)).first->second;
}

// --- Deterministic virtual-time replay ---

ServeStats
Engine::replay(const std::vector<double> &arrivals_s, unsigned steps)
{
    for (size_t i = 1; i < arrivals_s.size(); ++i) {
        BW_ASSERT(arrivals_s[i] >= arrivals_s[i - 1],
                  "replay: arrivals must be ascending");
    }
    double service_s = serviceMsFor(steps) / 1e3;
    // Each replay restarts the tracer, the flight recorder and the SLO
    // monitor alongside their replay-local sequence counters, so two
    // replays of one schedule export byte-identically. The pass sink
    // holds the recorder's and the monitor's storage until it returns.
    obs::SpanTracer *tracer = opts_.spanTracer;
    if (tracer)
        tracer->clear();
    OutcomeSink pass;
    pass.add(opts_.flightRecorder, opts_.sloMonitor);
    if (arrivals_s.empty())
        return {};

    uint64_t seq = 0;     // admitted requests only (span trace ids)
    uint64_t attempt = 0; // every submission attempt (flight seq)
    double deadline_ms = opts_.defaultDeadlineMs;
    size_t cls = opts_.sloMonitor ? opts_.sloMonitor->classOf(deadline_ms)
                                  : 0;
    VirtualShard shard(opts_.replicas, opts_.queueDepth);
    std::vector<double> latencies;
    latencies.reserve(arrivals_s.size());
    double last_done = arrivals_s.front();

    for (double a : arrivals_s) {
        ++attempt; // flight key: rejected arrivals consume one too
        shard.prune(a);
        if (!shard.admits(a)) {
            collector_.record(obs::FlightClass::Rejected);
            recordAttempt(AttemptRecord(attempt, 0,
                                        obs::FlightClass::Rejected, false,
                                        0, steps, a, a, a, a, 0.0,
                                        deadline_ms),
                          0, &pass, cls);
            continue;
        }
        VirtualShard::Step st =
            shard.serve(a, opts_.networkMs, deadline_ms, service_s);
        ++seq; // rejected arrivals never consumed a sequence number
        obs::TraceContext ctx =
            tracer ? tracer->admit(seq) : obs::TraceContext{};
        if (st.cls == obs::FlightClass::Ok) {
            last_done = std::max(last_done, st.doneS);
            latencies.push_back(st.latencyMs);
        } else {
            // Expires at dequeue; no service.
            collector_.record(obs::FlightClass::DeadlineExpired);
        }
        // Virtual time dequeues straight into service: the dispatch
        // span is zero-width at the service start.
        recordAttempt(AttemptRecord(attempt, seq, st.cls, ctx.sampled(),
                                    static_cast<uint32_t>(st.res.replica),
                                    steps, a, st.startS, st.startS,
                                    st.doneS, st.latencyMs, deadline_ms),
                      ctx.trace, &pass, cls);
    }

    ServeStats stats;
    summarizeLatencies(stats, latencies);
    double span = last_done - arrivals_s.front();
    stats.throughputRps =
        span > 0 ? static_cast<double>(latencies.size()) / span : 0;
    return stats;
}

} // namespace serve
} // namespace bw
