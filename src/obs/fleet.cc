#include "obs/fleet.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <unordered_map>

#include "common/logging.h"
#include "metrics/exposition.h"

namespace bw {
namespace obs {

// --- FleetRegistry ---

void
FleetRegistry::setClusterRegistry(const metrics::Registry *registry)
{
    cluster_ = registry;
}

void
FleetRegistry::addShard(std::string shard, std::string group,
                        const metrics::Registry *registry,
                        const serve::SloMonitor *slo)
{
    shards_.push_back({std::move(shard), std::move(group), registry, slo});
}

std::vector<metrics::MetricSnapshot>
FleetRegistry::federate() const
{
    std::vector<metrics::MetricSnapshot> raw;
    if (cluster_) {
        std::vector<metrics::MetricSnapshot> c = cluster_->collect();
        raw.insert(raw.end(), std::make_move_iterator(c.begin()),
                   std::make_move_iterator(c.end()));
    }
    for (const FleetShardSource &s : shards_) {
        if (!s.registry)
            continue;
        for (metrics::MetricSnapshot m : s.registry->collect()) {
            m.labels.emplace_back("shard", s.shard);
            m.labels.emplace_back("group", s.group);
            raw.push_back(std::move(m));
        }
    }

    // Regroup family-major in order of first appearance: the text
    // exposition emits one # HELP / # TYPE pair per run of one name,
    // and the format forbids a family appearing twice — which it
    // would, interleaved, once several shards export the same series.
    std::vector<std::vector<metrics::MetricSnapshot>> buckets;
    std::unordered_map<std::string, size_t> family;
    for (metrics::MetricSnapshot &m : raw) {
        auto it = family.find(m.name);
        if (it == family.end()) {
            it = family.emplace(m.name, buckets.size()).first;
            buckets.emplace_back();
        }
        buckets[it->second].push_back(std::move(m));
    }
    std::vector<metrics::MetricSnapshot> out;
    out.reserve(raw.size());
    for (std::vector<metrics::MetricSnapshot> &b : buckets) {
        for (metrics::MetricSnapshot &m : b)
            out.push_back(std::move(m));
    }
    return out;
}

std::string
FleetRegistry::prometheus() const
{
    return metrics::prometheusText(federate());
}

Json
FleetRegistry::metricsJson() const
{
    return metrics::metricsJson(federate());
}

namespace {

/// @p j as one NDJSON line (stream headers, trailers and tree rows).
std::string
ndjsonLine(const Json &j)
{
    return j.dump() + '\n';
}

} // namespace

Json
FleetRegistry::sloRollupJson() const
{
    const serve::SloMonitor *first = nullptr;
    for (const FleetShardSource &s : shards_) {
        if (s.slo) {
            first = s.slo;
            break;
        }
    }
    BW_ASSERT(first, "fleet SLO rollup: no shard SLO monitors "
                     "registered");
    const serve::SloOptions &opts = first->options();
    size_t nclasses = opts.classes.size();

    std::vector<serve::SloClassEval> agg(nclasses);
    for (size_t c = 0; c < nclasses; ++c)
        agg[c].name = opts.classes[c].name;
    uint64_t high_us = 0;
    for (const FleetShardSource &s : shards_) {
        if (!s.slo)
            continue;
        high_us = std::max(high_us, s.slo->highWaterUs());
        std::vector<serve::SloClassEval> evals = s.slo->snapshot();
        BW_ASSERT(evals.size() == nclasses,
                  "fleet SLO rollup: shard '%s' has %zu classes, "
                  "expected %zu (the cluster shares one ladder)",
                  s.shard.c_str(), evals.size(), nclasses);
        for (size_t c = 0; c < nclasses; ++c) {
            const serve::SloClassEval &ev = evals[c];
            serve::SloClassEval &a = agg[c];
            a.requests += ev.requests;
            a.latencyBreaches += ev.latencyBreaches;
            a.availabilityBreaches += ev.availabilityBreaches;
            for (auto [into, from] :
                 {std::pair{&a.latency.fast, &ev.latency.fast},
                  {&a.latency.slow, &ev.latency.slow},
                  {&a.availability.fast, &ev.availability.fast},
                  {&a.availability.slow, &ev.availability.slow}}) {
                into->good += from->good;
                into->bad += from->bad;
            }
        }
    }
    for (serve::SloClassEval &a : agg)
        serve::finishClassEval(a, opts);

    return serve::sloDocJson(opts, high_us, agg, shards_.size());
}

// --- RouteStreamWriter ---

RouteStreamWriter::RouteStreamWriter(StreamSink sink, std::string policy,
                                     unsigned engines, size_t classes)
    : sink_(std::move(sink)), tally_(classes)
{
    emit(ndjsonLine(BW_FIELDS_JSON(BW_ROUTE_HEADER_FIELDS,
                                   kRouteStreamSchema, std::move(policy),
                                   engines)));
}

bool
RouteStreamWriter::emit(const std::string &line)
{
    if (failed_)
        return false;
    bytes_ += line.size();
    if (!sink_ || !sink_(line)) {
        failed_ = true;
        return false;
    }
    return true;
}

bool
RouteStreamWriter::decision(uint64_t seq, uint32_t model, uint32_t cls,
                            int32_t engine)
{
    const RouteDecision d{seq, model, cls, engine};
    tally_.add(engine, cls);
    // The bytes Json::dump writes for the row's members (a seq above
    // INT64_MAX wraps as Json(uint64_t) wraps it).
#define BW_ROUTE_ROW_APPEND(key, value, type, presence)                  \
    row_ += ",\"" key "\":";                                             \
    appendJsonInt(row_, static_cast<int64_t>(value));
    row_.clear();
    BW_ROUTE_ROW_FIELDS(BW_ROUTE_ROW_APPEND, d)
#undef BW_ROUTE_ROW_APPEND
    row_[0] = '{';
    row_ += "}\n";
    return emit(row_);
}

bool
RouteStreamWriter::finish()
{
    if (finished_)
        return !failed_;
    finished_ = true;
    return emit(ndjsonLine(BW_FIELDS_JSON(BW_ROUTE_TRAILER_FIELDS, tally_)));
}

// --- Stream validators ---

namespace {

/// Pull the next NDJSON line; distinguishes "clean end of stream" from
/// "trailing junk". A final line without '\n' is still returned (the
/// validators then reject it on content, not on framing).
bool
nextLine(std::istream &in, std::string *line)
{
    while (std::getline(in, *line)) {
        if (!line->empty())
            return true;
    }
    return false;
}

Status
parseLine(const std::string &line, size_t lineno, Json *out)
{
    try {
        *out = Json::parse(line);
    } catch (const std::exception &e) {
        return Status::invalidArgument(detail::format(
            "line %zu is not valid JSON (truncated stream?): %s",
            lineno, e.what()));
    }
    if (out->type() != Json::Type::Object)
        return Status::invalidArgument(
            detail::format("line %zu is not a JSON object", lineno));
    return Status();
}

/** @p st, its message prefixed with the stream line it came from. */
Status
atLine(size_t lineno, const Status &st)
{
    return prefixed(detail::format("line %zu", lineno), st);
}

/// Walk a stream line by line: @p header checks the header line,
/// @p row each row and @p trailer the summary trailer. A stream that
/// ends without the trailer, or carries data after it, is invalid.
template <typename Header, typename Row, typename Trailer>
Status
walkStream(std::istream &in, Header header, Row row, Trailer trailer)
{
    size_t lineno = 0;
    bool summary = false;
    std::string line;
    while (nextLine(in, &line)) {
        if (summary)
            return Status::invalidArgument(
                "trailing data after the summary trailer");
        Json j;
        Status st = parseLine(line, ++lineno, &j);
        summary = lineno > 1 && j.contains("summary");
        if (st.ok())
            st = atLine(lineno, lineno == 1 ? header(j)
                                : summary   ? trailer(j)
                                            : row(j));
        if (!st.ok())
            return st;
    }
    if (lineno == 0)
        return Status::invalidArgument("empty stream (no header line)");
    return summary ? Status()
                   : Status::invalidArgument("stream ended without a "
                                             "summary trailer (truncated?)");
}

/// Move @p last to row key @p key's @p value, which must exceed it.
Status
ascend(const char *key, int64_t value, uint64_t *last)
{
    if (static_cast<uint64_t>(value) <= *last)
        return Status::invalidArgument(detail::format(
            "%s %lld is not ascending", key, static_cast<long long>(value)));
    *last = static_cast<uint64_t>(value);
    return Status();
}

/// A trailer count @p key (0 when left out) that must equal the
/// @p counted rows.
Status
matches(const Json &trailer, const char *key, uint64_t counted)
{
    const Json *v = trailer.find(key);
    int64_t declared = v ? v->asInt() : 0;
    if (static_cast<uint64_t>(declared) == counted)
        return Status();
    return Status::invalidArgument(detail::format(
        "summary declares %lld %s, stream carried %llu",
        static_cast<long long>(declared), key,
        static_cast<unsigned long long>(counted)));
}

} // namespace

Status
validateRouteStreamJson(std::istream &in)
{
    int64_t engines = 0;
    RouteTally streamed;
    uint64_t last_seq = 0;
    auto header = [&engines](const Json &h) {
        Status st = BW_CHECK_FIELDS(h, BW_ROUTE_HEADER_FIELDS,
                                    kRouteStreamSchema, _, _);
        engines = st.ok() ? h.find("engines")->asInt() : 0;
        return st;
    };
    auto trailer = [&](const Json &row) {
        Status st = BW_CHECK_FIELDS(row, BW_ROUTE_TRAILER_FIELDS, _);
        for (auto [key, counted] :
             {std::pair<const char *, uint64_t>{"rows", streamed.total()},
              {"routed", streamed.routed},
              {"shed", streamed.shed},
              {"unavailable", streamed.unavailable}}) {
            if (st.ok())
                st = matches(row, key, counted);
        }
        if (!st.ok())
            return st;
        uint64_t by_class = 0;
        const Json &bc = *row.find("shed_by_class");
        for (size_t i = 0; i < bc.size(); ++i)
            by_class += static_cast<uint64_t>(bc.at(i).asInt());
        if (by_class != streamed.shed)
            return Status::invalidArgument(
                "summary shed_by_class does not sum to shed");
        return Status();
    };
    auto rowCheck = [&](const Json &row) {
        Status st = tallyRouteRow(row, engines, &streamed);
        return st.ok() ? ascend("seq", row.find("seq")->asInt(), &last_seq)
                       : st;
    };
    return walkStream(in, header, rowCheck, trailer);
}

// --- Span streaming ---

Status
streamSpanTreesNdjson(const std::vector<SpanRecord> &spans,
                      uint64_t dropped, const StreamSink &sink)
{
    if (!sink)
        return Status::invalidArgument("span stream: null sink");
    if (!sink(ndjsonLine(BW_FIELDS_JSON(BW_SPAN_STREAM_HEADER_FIELDS))))
        return Status::unavailable("span stream: sink aborted");

    // One trace per line, from the formatter behind spanTreeJson —
    // memory is bounded by the largest single trace.
    SpanTreeCounts counts;
    if (!forEachSpanTree(
            spans,
            [&sink](Json &tree) { return sink(ndjsonLine(tree)); },
            &counts))
        return Status::unavailable("span stream: sink aborted");

    if (!sink(ndjsonLine(
            BW_FIELDS_JSON(BW_SPAN_STREAM_TRAILER_FIELDS, counts, dropped))))
        return Status::unavailable("span stream: sink aborted");
    return Status();
}

Status
streamSpanTreesNdjson(const SpanTracer &tracer, const StreamSink &sink)
{
    return streamSpanTreesNdjson(tracer.collect(), tracer.dropped(),
                                 sink);
}

Status
validateSpanStreamJson(std::istream &in)
{
    auto header = [](const Json &h) {
        return BW_CHECK_FIELDS(h, BW_SPAN_STREAM_HEADER_FIELDS);
    };
    uint64_t traces = 0, last_trace = 0;
    auto trailer = [&](const Json &row) {
        Status st = BW_CHECK_FIELDS(row, BW_SPAN_STREAM_TRAILER_FIELDS, _, _);
        return st.ok() ? matches(row, "traces", traces) : st;
    };
    auto rowCheck = [&](const Json &row) {
        Status st = validateSpanTrace(row);
        if (!st.ok())
            return st;
        ++traces;
        return ascend("trace", row.find("trace")->asInt(), &last_trace);
    };
    return walkStream(in, header, rowCheck, trailer);
}

// --- Flight streaming ---

Status
streamFlightNdjson(const FlightRecorder &recorder, const StreamSink &sink)
{
    if (!sink)
        return Status::invalidArgument("flight stream: null sink");
    if (!sink(ndjsonLine(BW_FIELDS_JSON(BW_FLIGHT_HEADER_FIELDS,
                                        kFlightStreamSchema,
                                        recorder.options()))))
        return Status::unavailable("flight stream: sink aborted");

    // One record per line: the record as flightJson writes it, with
    // its own tree in a single-trace bw.spans/1 document.
    std::vector<FlightRecord> promoted = recorder.promoted();
    FlightRecordWriter writer;
    for (const FlightRecord &r : promoted) {
        Json traces = Json::array();
        SpanTreeCounts counts;
        Json out = writer.write(r, &traces, &counts);
        BW_FLIGHT_ROW_FIELDS(BW_FIELD_SET,
                             spanTreeDoc(std::move(traces), counts, 0))
        if (!sink(ndjsonLine(out)))
            return Status::unavailable("flight stream: sink aborted");
    }

    if (!sink(ndjsonLine(BW_FIELDS_JSON(
            BW_FLIGHT_STREAM_TRAILER_FIELDS, promoted.size(),
            recorder.recorded(), recorder.dropped()))))
        return Status::unavailable("flight stream: sink aborted");
    return Status();
}

Status
validateFlightStreamJson(std::istream &in)
{
    auto header = [](const Json &h) {
        return BW_CHECK_FIELDS(h, BW_FLIGHT_HEADER_FIELDS,
                               kFlightStreamSchema, _);
    };
    uint64_t promoted = 0, last_seq = 0;
    auto trailer = [&](const Json &row) {
        Status st =
            BW_CHECK_FIELDS(row, BW_FLIGHT_STREAM_TRAILER_FIELDS, _, _, _);
        return st.ok() ? matches(row, "promoted", promoted) : st;
    };
    auto rowCheck = [&](const Json &row) {
        int64_t seq = 0;
        Status st = validateFlightRecordJson(row, &seq);
        if (st.ok())
            st = BW_CHECK_FIELDS(row, BW_FLIGHT_ROW_FIELDS, _);
        if (st.ok())
            st = validateFlightSpans(*row.find("spans"), {seq});
        if (!st.ok())
            return st;
        ++promoted;
        return ascend("seq", seq, &last_seq);
    };
    return walkStream(in, header, rowCheck, trailer);
}

Status
validateStreamFile(const std::string &path)
{
    std::ifstream probe(path);
    if (!probe)
        return Status::invalidArgument(
            detail::format("cannot read %s", path.c_str()));
    std::string first;
    if (!nextLine(probe, &first))
        return Status::invalidArgument("empty stream (no header line)");
    Json header;
    Status st = parseLine(first, 1, &header);
    if (!st.ok())
        return st;
    const Json *tag = header.find("schema");
    std::string schema = tag && tag->type() == Json::Type::String
                             ? tag->asString()
                             : "";
    const struct
    {
        const char *tag;
        Status (*validate)(std::istream &);
    } streams[] = {{kRouteStreamSchema, validateRouteStreamJson},
                   {kSpanStreamSchema, validateSpanStreamJson},
                   {kFlightStreamSchema, validateFlightStreamJson}};
    for (const auto &s : streams) {
        if (schema != s.tag)
            continue;
        std::ifstream in(path); // validators consume from the header on
        return s.validate(in);
    }
    return Status::invalidArgument(detail::format(
        "unknown stream schema tag '%s' (want %s, %s or %s)",
        schema.c_str(), streams[0].tag, streams[1].tag, streams[2].tag));
}

} // namespace obs
} // namespace bw
