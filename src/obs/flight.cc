#include "obs/flight.h"

#include <algorithm>

#include "common/env_doc.h"
#include "common/logging.h"

namespace bw {
namespace obs {

namespace {

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
    // 0 keeps the base; the bound keeps windowUs within 64 bits.
    double ms = 0;
    envDouble("BW_FLIGHT_WINDOW_MS", &ms, 0, 1.8e16);
    if (ms > 0)
        base.windowUs = static_cast<uint64_t>(ms * 1e3);
    envUnsigned("BW_FLIGHT_SLOWEST_K", &base.slowestK);
    envUnsigned("BW_FLIGHT_RING", &base.shardCapacity, 1);
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
    return BW_FIELDS_JSON(BW_FLIGHT_RECORD_FIELDS, r);
}

Json
flightJson(const std::vector<FlightRecord> &promoted,
           const FlightRecorderOptions &opts, uint64_t recorded,
           uint64_t dropped, const ChainProfileFn &chains_for)
{
    // One span tree per promoted record (trace id = seq) in a bw.spans/1
    // document: the span evidence head sampling would have dropped.
    Json list = Json::array();
    Json traces = Json::array();
    SpanTreeCounts counts;
    FlightRecordWriter writer(chains_for);
    for (const FlightRecord &r : promoted)
        list.push(writer.write(r, &traces, &counts));
    return BW_FIELDS_JSON(BW_FLIGHT_DOC_FIELDS, opts, recorded, dropped,
                          std::move(list),
                          spanTreeDoc(std::move(traces), counts, 0));
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

} // namespace

Status
validateFlightRecordJson(const Json &r, int64_t *seq)
{
    Status st = BW_CHECK_FIELDS(r, BW_FLIGHT_RECORD_FIELDS, _);
    if (!st.ok())
        return failFlight("record: " + st.message());
    auto at = [&r](const char *key) { return r.find(key)->asInt(); };
    *seq = at("seq");
    if (at("admit_us") > at("dequeue_us") ||
        at("dequeue_us") > at("service_us") ||
        at("service_us") > at("done_us"))
        return failFlight(detail::format(
            "record seq %lld timestamps out of order",
            static_cast<long long>(*seq)));
    return Status();
}

Status
validateFlightSpans(const Json &spans, const std::set<int64_t> &seqs)
{
    Status st = validateSpanTreeJson(spans);
    if (!st.ok())
        return st;
    const Json *traces = spans.find("traces");
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
    Status st = BW_CHECK_FIELDS(doc, BW_FLIGHT_DOC_FIELDS, _, _, _, _, _);
    if (!st.ok())
        return failFlight(st.message());
    const Json &promoted = *doc.find("promoted");
    std::set<int64_t> seqs;
    int64_t prev_seq = 0;
    for (size_t i = 0; i < promoted.size(); ++i) {
        int64_t seq = 0;
        st = validateFlightRecordJson(promoted.at(i), &seq);
        if (!st.ok())
            return st;
        if (seq <= prev_seq)
            return failFlight("promoted seqs not strictly ascending");
        prev_seq = seq;
        seqs.insert(seq);
    }
    return validateFlightSpans(*doc.find("spans"), seqs);
}

} // namespace obs
} // namespace bw
