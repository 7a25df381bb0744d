#include "obs/flight.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "common/logging.h"

namespace bw {
namespace obs {

namespace {

constexpr const char *kSchema = "bw.flight/1";

constexpr auto seqOrder = [](const FlightRecord &a, const FlightRecord &b) {
    return a.seq < b.seq;
};

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

FlightRecorder::FlightRecorder(FlightRecorderOptions opts)
    : opts_(opts), ring_(opts.shardCapacity)
{
    opts_.shardCapacity = ring_.capacity();
    opts_.windowUs = std::max<uint64_t>(1, opts_.windowUs);
}

std::vector<FlightRecord>
FlightRecorder::collect() const
{
    return ring_.collect(seqOrder);
}

std::vector<FlightRecord>
FlightRecorder::promoted() const
{
    return promoteFlightRecords(collect(), opts_);
}

// --- Tail promotion ---

std::vector<FlightRecord>
promoteFlightRecords(std::vector<FlightRecord> records,
                     const FlightRecorderOptions &opts)
{
    std::sort(records.begin(), records.end(), seqOrder);

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

    std::sort(out.begin(), out.end(), seqOrder);
    return out;
}

// --- Export ---

namespace {

/** One promoted record's bw.flight/1 members, in export order. */
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

/** Room for one record's tree: request, queue_wait, dispatch, execute
 *  and the capped chain leaves. */
SpanTracerOptions
scratchOptions()
{
    SpanTracerOptions o;
    o.shardCapacity = 4 + o.maxChainSpans;
    return o;
}

} // namespace

FlightRecordWriter::FlightRecordWriter(ChainProfileFn chains_for)
    : chainsFor_(std::move(chains_for)), scratch_(scratchOptions())
{
}

Json
FlightRecordWriter::write(const FlightRecord &r, Json *traces,
                          SpanTreeCounts *counts)
{
    scratch_.clear();
    const std::vector<ChainProfile> *chains = nullptr;
    Cycles total = 0;
    if (chainsFor_ && !chainsFor_(r.steps, &chains, &total))
        chains = nullptr;
    recordAttemptSpans(scratch_, r, r.seq, 0, chains, total);
    forEachSpanTree(
        scratch_.collect(),
        [traces](Json &tree) {
            traces->push(std::move(tree));
            return true;
        },
        counts);
    return flightRecordJson(r);
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
    Json traces = Json::array();
    SpanTreeCounts counts;
    FlightRecordWriter writer(chains_for);
    for (const FlightRecord &r : promoted)
        list.push(writer.write(r, &traces, &counts));
    doc.set("promoted", std::move(list));
    doc.set("spans", spanTreeDoc(std::move(traces), counts, 0));
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

bool
knownClass(const std::string &s)
{
    for (int c = 0; c < static_cast<int>(FlightClass::NumFlightClasses);
         ++c) {
        if (s == flightClassName(static_cast<FlightClass>(c)))
            return true;
    }
    return false;
}

} // namespace

Status
validateFlightRecordJson(const Json &r, int64_t *seq)
{
    if (r.type() != Json::Type::Object)
        return failFlight("promoted entry is not an object");
    // seq, id, replica, steps, admit, dequeue, service, done, latency.
    const char *const keys[] = {"seq",        "id",         "replica",
                                "steps",      "admit_us",   "dequeue_us",
                                "service_us", "done_us",    "latency_us"};
    int64_t v[std::size(keys)];
    for (size_t i = 0; i < std::size(keys); ++i) {
        const Json *m = r.find(keys[i]);
        if (!m || m->type() != Json::Type::Int || m->asInt() < 0)
            return failFlight(std::string("record missing non-negative "
                                          "integer '") + keys[i] + "'");
        v[i] = m->asInt();
    }
    const Json *cls = r.find("class");
    if (!cls || cls->type() != Json::Type::String ||
        !knownClass(cls->asString()))
        return failFlight("record missing known class name");
    if (v[4] > v[5] || v[5] > v[6] || v[6] > v[7])
        return failFlight(detail::format(
            "record seq %lld timestamps out of order",
            static_cast<long long>(v[0])));
    *seq = v[0];
    return Status();
}

Status
validateFlightSpans(const Json *spans, const std::set<int64_t> &seqs)
{
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
        int64_t seq = 0;
        Status st = validateFlightRecordJson(promoted->at(i), &seq);
        if (!st.ok())
            return st;
        if (seq <= prev_seq)
            return failFlight("promoted seqs not strictly ascending");
        prev_seq = seq;
        seqs.insert(seq);
    }
    return validateFlightSpans(doc.find("spans"), seqs);
}

} // namespace obs
} // namespace bw
