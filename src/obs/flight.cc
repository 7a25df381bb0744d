#include "obs/flight.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "common/logging.h"

namespace bw {
namespace obs {

namespace {

/** Stable per-thread shard index (modulo taken at use). */
size_t
threadSlot()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

constexpr const char *kSchema = "bw.flight/1";

} // namespace

const char *
flightClassName(FlightClass c)
{
    switch (c) {
      case FlightClass::Ok: return "ok";
      case FlightClass::DeadlineExpired: return "deadline_expired";
      case FlightClass::Rejected: return "rejected";
      case FlightClass::Error: return "error";
      case FlightClass::Cancelled: return "cancelled";
      default: BW_PANIC("bad FlightClass %d", static_cast<int>(c));
    }
}

SpanOutcome
flightClassOutcome(FlightClass c)
{
    switch (c) {
      case FlightClass::Ok: return SpanOutcome::Ok;
      case FlightClass::DeadlineExpired:
        return SpanOutcome::DeadlineExpired;
      case FlightClass::Rejected: return SpanOutcome::Rejected;
      case FlightClass::Error: return SpanOutcome::Error;
      case FlightClass::Cancelled: return SpanOutcome::Cancelled;
      default: BW_PANIC("bad FlightClass %d", static_cast<int>(c));
    }
}

FlightRecorderOptions
FlightRecorderOptions::fromEnv(FlightRecorderOptions base)
{
    if (const char *v = std::getenv("BW_FLIGHT_WINDOW_MS")) {
        double ms = std::atof(v);
        if (ms > 0)
            base.windowUs = static_cast<uint64_t>(ms * 1e3);
    }
    if (const char *v = std::getenv("BW_FLIGHT_SLOWEST_K")) {
        if (*v)
            base.slowestK = static_cast<unsigned>(std::atoi(v));
    }
    if (const char *v = std::getenv("BW_FLIGHT_RING")) {
        long n = std::atol(v);
        if (n > 0)
            base.shardCapacity = static_cast<size_t>(n);
    }
    return base;
}

FlightRecorderOptions
FlightRecorderOptions::fromEnv()
{
    return fromEnv(FlightRecorderOptions{});
}

// --- FlightRecorder ---

FlightRecorder::FlightRecorder(FlightRecorderOptions opts) : opts_(opts)
{
    opts_.shardCapacity = std::max<size_t>(1, opts_.shardCapacity);
    opts_.windowUs = std::max<uint64_t>(1, opts_.windowUs);
    for (Shard &s : shards_)
        s.ring.resize(opts_.shardCapacity);
}

void
FlightRecorder::record(const FlightRecord &r)
{
    Shard &sh = shards_[threadSlot() % kShards];
    uint64_t n = sh.count.fetch_add(1, std::memory_order_relaxed);
    sh.ring[n % sh.ring.size()] = r;
    // Publish: collect() loads with acquire after quiescence, so the
    // record write above is visible once the count is.
    std::atomic_thread_fence(std::memory_order_release);
}

std::vector<FlightRecord>
FlightRecorder::collect() const
{
    std::atomic_thread_fence(std::memory_order_acquire);
    std::vector<FlightRecord> out;
    for (const Shard &sh : shards_) {
        uint64_t n = sh.count.load(std::memory_order_acquire);
        size_t kept = static_cast<size_t>(
            std::min<uint64_t>(n, sh.ring.size()));
        for (size_t i = 0; i < kept; ++i)
            out.push_back(sh.ring[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::vector<FlightRecord>
FlightRecorder::promoted() const
{
    return promoteFlightRecords(collect(), opts_);
}

uint64_t
FlightRecorder::recorded() const
{
    uint64_t n = 0;
    for (const Shard &sh : shards_)
        n += sh.count.load(std::memory_order_relaxed);
    return n;
}

uint64_t
FlightRecorder::dropped() const
{
    uint64_t d = 0;
    for (const Shard &sh : shards_) {
        uint64_t n = sh.count.load(std::memory_order_relaxed);
        if (n > sh.ring.size())
            d += n - sh.ring.size();
    }
    return d;
}

void
FlightRecorder::clear()
{
    for (Shard &sh : shards_)
        sh.count.store(0, std::memory_order_relaxed);
}

// --- Tail promotion ---

std::vector<FlightRecord>
promoteFlightRecords(std::vector<FlightRecord> records,
                     const FlightRecorderOptions &opts)
{
    std::sort(records.begin(), records.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });

    std::vector<FlightRecord> out;
    uint64_t window_us = std::max<uint64_t>(1, opts.windowUs);

    // Ok records grouped by virtual-time window; each window keeps its
    // slowest K (latency descending, seq ascending on ties).
    std::vector<size_t> ok_indices;
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].cls != FlightClass::Ok)
            out.push_back(records[i]); // every anomaly is promoted
        else
            ok_indices.push_back(i);
    }
    size_t w = 0;
    while (w < ok_indices.size() && opts.slowestK > 0) {
        uint64_t window = records[ok_indices[w]].admitUs / window_us;
        size_t e = w;
        while (e < ok_indices.size() &&
               records[ok_indices[e]].admitUs / window_us == window)
            ++e;
        std::vector<size_t> in_window(ok_indices.begin() + w,
                                      ok_indices.begin() + e);
        std::sort(in_window.begin(), in_window.end(),
                  [&](size_t a, size_t b) {
                      if (records[a].latencyUs != records[b].latencyUs)
                          return records[a].latencyUs >
                                 records[b].latencyUs;
                      return records[a].seq < records[b].seq;
                  });
        size_t keep = std::min<size_t>(in_window.size(), opts.slowestK);
        for (size_t i = 0; i < keep; ++i)
            out.push_back(records[in_window[i]]);
        w = e;
    }

    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    return out;
}

// --- Export ---

Json
flightRecordJson(const FlightRecord &r)
{
    Json e = Json::object();
    e.set("seq", r.seq);
    e.set("id", r.id);
    e.set("class", flightClassName(r.cls));
    e.set("sampled", r.sampled);
    e.set("replica", r.replica);
    e.set("steps", r.steps);
    e.set("admit_us", r.admitUs);
    e.set("dequeue_us", r.dequeueUs);
    e.set("service_us", r.serviceUs);
    e.set("done_us", r.doneUs);
    e.set("latency_us", r.latencyUs);
    return e;
}

SpanTracerOptions
flightScratchOptions()
{
    SpanTracerOptions o;
    o.shardCapacity = 4 + o.maxChainSpans;
    return o;
}

std::vector<SpanRecord>
flightSpans(SpanTracer &scratch, const FlightRecord &r,
            const ChainProfileFn &chains_for)
{
    scratch.clear();
    RequestSpans rs{.trace = r.seq,
                    .admitUs = r.admitUs,
                    .dequeueUs = r.dequeueUs,
                    .serviceUs = r.serviceUs,
                    .doneUs = r.doneUs,
                    .replica = r.replica,
                    .outcome = flightClassOutcome(r.cls)};
    const std::vector<ChainProfile> *chains = nullptr;
    Cycles total = 0;
    bool served = r.cls == FlightClass::Ok || r.cls == FlightClass::Error;
    if (served && chains_for && chains_for(r.steps, &chains, &total) &&
        chains) {
        rs.chainCount = static_cast<uint32_t>(chains->size());
    }
    SpanId exec = recordRequestTree(scratch, rs);
    if (exec != 0 && chains && !chains->empty()) {
        recordChainSpans(scratch, rs.trace, exec, r.serviceUs, r.doneUs,
                         *chains, total);
    }
    return scratch.collect();
}

Json
flightJson(const std::vector<FlightRecord> &promoted,
           const FlightRecorderOptions &opts, uint64_t recorded,
           uint64_t dropped, const ChainProfileFn &chains_for)
{
    Json doc = Json::object();
    doc.set("schema", kSchema);
    doc.set("window_us", opts.windowUs);
    doc.set("slowest_k", opts.slowestK);
    doc.set("recorded", recorded);
    doc.set("dropped", dropped);

    // One span tree per promoted record (trace id = seq) in a bw.spans/1
    // document: the span evidence head sampling would have dropped.
    Json list = Json::array();
    std::vector<SpanRecord> spans;
    SpanTracer scratch(flightScratchOptions());
    for (const FlightRecord &r : promoted) {
        list.push(flightRecordJson(r));
        std::vector<SpanRecord> one = flightSpans(scratch, r, chains_for);
        spans.insert(spans.end(), one.begin(), one.end());
    }
    doc.set("promoted", std::move(list));
    doc.set("spans", spanTreeJson(spans, 0));
    return doc;
}

Json
flightJson(const FlightRecorder &recorder, const ChainProfileFn &chains_for)
{
    return flightJson(recorder.promoted(), recorder.options(),
                      recorder.recorded(), recorder.dropped(),
                      chains_for);
}

// --- Validation ---

namespace {

Status
failFlight(const std::string &why)
{
    return Status::invalidArgument("flight document: " + why);
}

const char *const kClassNames[] = {"ok", "deadline_expired", "rejected",
                                   "error", "cancelled"};

bool
knownClass(const std::string &s)
{
    for (const char *k : kClassNames) {
        if (s == k)
            return true;
    }
    return false;
}

/** Fetch a non-negative integer member or fail. */
Status
intMember(const Json &obj, const char *key, int64_t *out)
{
    const Json *v = obj.find(key);
    if (!v || v->type() != Json::Type::Int || v->asInt() < 0)
        return failFlight(std::string("record missing non-negative "
                                      "integer '") + key + "'");
    *out = v->asInt();
    return Status();
}

} // namespace

Status
validateFlightJson(const Json &doc)
{
    if (doc.type() != Json::Type::Object)
        return failFlight("not an object");
    const Json *schema = doc.find("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kSchema) {
        return failFlight(std::string("schema is not '") + kSchema + "'");
    }
    for (const char *key : {"window_us", "recorded", "dropped"}) {
        const Json *v = doc.find(key);
        if (!v || v->type() != Json::Type::Int || v->asInt() < 0)
            return failFlight(std::string("missing non-negative "
                                          "integer '") + key + "'");
    }
    const Json *promoted = doc.find("promoted");
    if (!promoted || promoted->type() != Json::Type::Array)
        return failFlight("missing promoted array");

    std::set<int64_t> seqs;
    int64_t prev_seq = 0;
    for (size_t i = 0; i < promoted->size(); ++i) {
        const Json &r = promoted->at(i);
        if (r.type() != Json::Type::Object)
            return failFlight("promoted entry is not an object");
        int64_t seq = 0, admit = 0, dequeue = 0, service = 0, done = 0;
        Status st;
        if (!(st = intMember(r, "seq", &seq)).ok())
            return st;
        if (seq <= prev_seq)
            return failFlight("promoted seqs not strictly ascending");
        prev_seq = seq;
        seqs.insert(seq);
        const Json *cls = r.find("class");
        if (!cls || cls->type() != Json::Type::String ||
            !knownClass(cls->asString()))
            return failFlight("record missing known class name");
        if (!(st = intMember(r, "admit_us", &admit)).ok())
            return st;
        if (!(st = intMember(r, "dequeue_us", &dequeue)).ok())
            return st;
        if (!(st = intMember(r, "service_us", &service)).ok())
            return st;
        if (!(st = intMember(r, "done_us", &done)).ok())
            return st;
        if (admit > dequeue || dequeue > service || service > done)
            return failFlight(detail::format(
                "record seq %lld timestamps out of order",
                static_cast<long long>(seq)));
        int64_t ignored;
        if (!(st = intMember(r, "latency_us", &ignored)).ok())
            return st;
    }

    const Json *spans = doc.find("spans");
    if (!spans)
        return failFlight("missing embedded spans document");
    Status st = validateSpanTreeJson(*spans);
    if (!st.ok())
        return st;
    const Json *traces = spans->find("traces");
    std::set<int64_t> span_traces;
    for (size_t i = 0; i < traces->size(); ++i)
        span_traces.insert(traces->at(i).find("trace")->asInt());
    if (span_traces != seqs)
        return failFlight("span-tree traces do not match promoted "
                          "record seqs one-for-one");
    return Status();
}

} // namespace obs
} // namespace bw
