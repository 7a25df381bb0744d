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
    FleetShardSource s;
    s.shard = std::move(shard);
    s.group = std::move(group);
    s.registry = registry;
    s.slo = slo;
    shards_.push_back(std::move(s));
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
            auto sum = [](serve::SloWindowEval &into,
                          const serve::SloWindowEval &from) {
                into.good += from.good;
                into.bad += from.bad;
            };
            sum(a.latencyFast, ev.latencyFast);
            sum(a.latencySlow, ev.latencySlow);
            sum(a.availFast, ev.availFast);
            sum(a.availSlow, ev.availSlow);
        }
    }
    for (serve::SloClassEval &a : agg)
        serve::finishClassEval(a, opts);

    Json doc = serve::sloHeaderJson(opts, high_us);
    doc.set("shards", static_cast<uint64_t>(shards_.size()));
    doc.set("classes", serve::sloClassesJson(opts, agg));
    return doc;
}

// --- RouteStreamWriter ---

RouteStreamWriter::RouteStreamWriter(StreamSink sink, std::string policy,
                                     unsigned engines, size_t classes)
    : sink_(std::move(sink)), engines_(engines),
      shedByClass_(classes > 0 ? classes : 1, 0)
{
    Json h = Json::object();
    h.set("schema", "bw.routestream/1");
    h.set("policy", std::move(policy));
    h.set("engines", engines_);
    emit(ndjsonLine(h));
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
    if (engine == -2) {
        ++unavailable_;
    } else if (engine < 0) {
        ++shed_;
        ++shedByClass_[std::min<size_t>(cls, shedByClass_.size() - 1)];
    } else {
        ++routed_;
    }
    // The bytes Json::dump writes for the same four members (a seq
    // above INT64_MAX wraps as Json(uint64_t) wraps it).
    row_.assign("{\"seq\":");
    appendJsonInt(row_, static_cast<int64_t>(seq));
    row_ += ",\"model\":";
    appendJsonInt(row_, model);
    row_ += ",\"class\":";
    appendJsonInt(row_, cls);
    row_ += ",\"engine\":";
    appendJsonInt(row_, engine);
    row_ += "}\n";
    return emit(row_);
}

bool
RouteStreamWriter::finish()
{
    if (finished_)
        return !failed_;
    finished_ = true;
    Json s = Json::object();
    s.set("summary", true);
    s.set("rows", rows());
    s.set("routed", routed_);
    s.set("shed", shed_);
    Json by_class = Json::array();
    for (uint64_t c : shedByClass_)
        by_class.push(c);
    s.set("shed_by_class", std::move(by_class));
    if (unavailable_ > 0)
        s.set("unavailable", unavailable_);
    return emit(ndjsonLine(s));
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

Status
requireInt(const Json &obj, const char *key, size_t lineno,
           int64_t *out = nullptr)
{
    const Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return Status::invalidArgument(detail::format(
            "line %zu missing numeric field '%s'", lineno, key));
    if (out)
        *out = v->asInt();
    return Status();
}

/** @p st, its message prefixed with the stream line it came from. */
Status
atLine(size_t lineno, const Status &st)
{
    return Status::invalidArgument(
        detail::format("line %zu: %s", lineno, st.message().c_str()));
}

Status
streamHeader(std::istream &in, const char *schema, Json *header)
{
    std::string line;
    if (!nextLine(in, &line))
        return Status::invalidArgument("empty stream (no header line)");
    Status st = parseLine(line, 1, header);
    if (!st.ok())
        return st;
    const Json *tag = header->find("schema");
    if (!tag || tag->type() != Json::Type::String ||
        tag->asString() != schema)
        return Status::invalidArgument(
            detail::format("header schema tag is not %s", schema));
    return Status();
}

/// The rows after a stream's header: @p row checks each row and
/// @p trailer the summary trailer, both given the line number. A stream
/// that ends without the trailer, or carries data after it, is invalid.
template <typename Row, typename Trailer>
Status
walkRows(std::istream &in, Row row, Trailer trailer)
{
    size_t lineno = 1;
    std::string line;
    while (nextLine(in, &line)) {
        ++lineno;
        Json j;
        Status st = parseLine(line, lineno, &j);
        if (st.ok())
            st = j.contains("summary") ? trailer(j, lineno) : row(j, lineno);
        if (!st.ok())
            return st;
        if (!j.contains("summary"))
            continue;
        if (nextLine(in, &line))
            return Status::invalidArgument(
                "trailing data after the summary trailer");
        return Status();
    }
    return Status::invalidArgument(
        "stream ended without a summary trailer (truncated?)");
}

/// Move @p last to row key @p key's @p value, which must exceed it.
Status
ascend(const char *key, int64_t value, uint64_t *last, size_t lineno)
{
    if (static_cast<uint64_t>(value) <= *last)
        return Status::invalidArgument(
            detail::format("line %zu %s %lld is not ascending", lineno, key,
                           static_cast<long long>(value)));
    *last = static_cast<uint64_t>(value);
    return Status();
}

} // namespace

Status
validateRouteStreamJson(std::istream &in)
{
    Json header;
    Status st = streamHeader(in, "bw.routestream/1", &header);
    if (!st.ok())
        return st;
    int64_t engines = 0;
    st = requireInt(header, "engines", 1, &engines);
    if (!st.ok())
        return st;
    if (engines < 1)
        return Status::invalidArgument("header engines must be >= 1");
    const Json *policy = header.find("policy");
    if (!policy || policy->type() != Json::Type::String)
        return Status::invalidArgument("header missing policy");

    uint64_t routed = 0, shed = 0, unavailable = 0, last_seq = 0;
    auto trailer = [&](const Json &row, size_t lineno) {
        for (const char *key : {"rows", "routed", "shed"}) {
            Status st = requireInt(row, key, lineno);
            if (!st.ok())
                return st;
        }
        // unavailable is written only when nonzero.
        int64_t sunavail = 0;
        if (row.contains("unavailable")) {
            Status st = requireInt(row, "unavailable", lineno, &sunavail);
            if (!st.ok())
                return st;
        }
        int64_t rows = row.find("rows")->asInt();
        int64_t srouted = row.find("routed")->asInt();
        int64_t sshed = row.find("shed")->asInt();
        if (static_cast<uint64_t>(srouted) != routed ||
            static_cast<uint64_t>(sshed) != shed ||
            static_cast<uint64_t>(sunavail) != unavailable ||
            static_cast<uint64_t>(rows) != routed + shed + unavailable)
            return Status::invalidArgument(detail::format(
                "summary counters (rows %lld, routed %lld, shed "
                "%lld, unavailable %lld) do not match the %llu "
                "routed + %llu shed + %llu unavailable rows streamed",
                static_cast<long long>(rows),
                static_cast<long long>(srouted),
                static_cast<long long>(sshed),
                static_cast<long long>(sunavail),
                static_cast<unsigned long long>(routed),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(unavailable)));
        const Json *bc = row.find("shed_by_class");
        if (!bc || bc->type() != Json::Type::Array)
            return Status::invalidArgument(
                "summary missing shed_by_class array");
        uint64_t by_class = 0;
        for (size_t i = 0; i < bc->size(); ++i)
            by_class += static_cast<uint64_t>(bc->at(i).asInt());
        if (by_class != shed)
            return Status::invalidArgument(
                "summary shed_by_class does not sum to shed");
        return Status();
    };
    auto rowCheck = [&](const Json &row, size_t lineno) {
        for (const char *key : {"seq", "model", "class", "engine"}) {
            Status st = requireInt(row, key, lineno);
            if (!st.ok())
                return st;
        }
        Status st = ascend("seq", row.find("seq")->asInt(), &last_seq,
                           lineno);
        if (!st.ok())
            return st;
        int64_t engine = row.find("engine")->asInt();
        // -1 = front-door shed, -2 = no healthy shard (unavailable).
        if (engine < -2 || engine >= engines)
            return Status::invalidArgument(detail::format(
                "line %zu engine %lld out of range [-2, %lld)", lineno,
                static_cast<long long>(engine),
                static_cast<long long>(engines)));
        if (engine == -2)
            ++unavailable;
        else if (engine < 0)
            ++shed;
        else
            ++routed;
        return Status();
    };
    return walkRows(in, rowCheck, trailer);
}

// --- Span streaming ---

Status
streamSpanTreesNdjson(const std::vector<SpanRecord> &spans,
                      uint64_t dropped, const StreamSink &sink)
{
    if (!sink)
        return Status::invalidArgument("span stream: null sink");
    Json header = Json::object();
    header.set("schema", "bw.spanstream/1");
    if (!sink(ndjsonLine(header)))
        return Status::unavailable("span stream: sink aborted");

    // One trace per line, from the formatter behind spanTreeJson —
    // memory is bounded by the largest single trace.
    SpanTreeCounts counts;
    if (!forEachSpanTree(
            spans,
            [&sink](Json &tree) { return sink(ndjsonLine(tree)); },
            &counts))
        return Status::unavailable("span stream: sink aborted");

    Json summary = Json::object();
    summary.set("summary", true);
    summary.set("traces", counts.traces);
    summary.set("spans", counts.spans);
    summary.set("dropped", dropped);
    if (counts.incomplete > 0)
        summary.set("incomplete_traces", counts.incomplete);
    if (!sink(ndjsonLine(summary)))
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
    Json header;
    Status st = streamHeader(in, "bw.spanstream/1", &header);
    if (!st.ok())
        return st;
    uint64_t traces = 0, last_trace = 0;
    auto trailer = [&](const Json &row, size_t lineno) {
        int64_t n = 0;
        Status st = requireInt(row, "traces", lineno, &n);
        if (!st.ok())
            return st;
        if (static_cast<uint64_t>(n) != traces)
            return Status::invalidArgument(detail::format(
                "summary declares %lld traces, stream carried %llu",
                static_cast<long long>(n),
                static_cast<unsigned long long>(traces)));
        return requireInt(row, "spans", lineno);
    };
    auto rowCheck = [&](const Json &row, size_t lineno) {
        Status st = validateSpanTrace(row);
        if (!st.ok())
            return atLine(lineno, st);
        ++traces;
        return ascend("trace", row.find("trace")->asInt(), &last_trace,
                      lineno);
    };
    return walkRows(in, rowCheck, trailer);
}

// --- Flight streaming ---

Status
streamFlightNdjson(const FlightRecorder &recorder, const StreamSink &sink)
{
    if (!sink)
        return Status::invalidArgument("flight stream: null sink");
    Json header = Json::object();
    header.set("schema", "bw.flightstream/1");
    header.set("window_us", recorder.options().windowUs);
    header.set("slowest_k", recorder.options().slowestK);
    if (!sink(ndjsonLine(header)))
        return Status::unavailable("flight stream: sink aborted");

    // One record per line: the record as flightJson writes it, with
    // its own tree in a single-trace bw.spans/1 document.
    std::vector<FlightRecord> promoted = recorder.promoted();
    FlightRecordWriter writer;
    for (const FlightRecord &r : promoted) {
        Json traces = Json::array();
        SpanTreeCounts counts;
        Json row = writer.write(r, &traces, &counts);
        row.set("spans", spanTreeDoc(std::move(traces), counts, 0));
        if (!sink(ndjsonLine(row)))
            return Status::unavailable("flight stream: sink aborted");
    }

    Json summary = Json::object();
    summary.set("summary", true);
    summary.set("promoted", static_cast<uint64_t>(promoted.size()));
    summary.set("recorded", recorder.recorded());
    summary.set("dropped", recorder.dropped());
    if (!sink(ndjsonLine(summary)))
        return Status::unavailable("flight stream: sink aborted");
    return Status();
}

Status
validateFlightStreamJson(std::istream &in)
{
    Json header;
    Status st = streamHeader(in, "bw.flightstream/1", &header);
    if (!st.ok())
        return st;
    for (const char *key : {"window_us", "slowest_k"}) {
        st = requireInt(header, key, 1);
        if (!st.ok())
            return st;
    }
    uint64_t promoted = 0, last_seq = 0;
    auto trailer = [&](const Json &row, size_t lineno) {
        int64_t n = 0;
        Status st = requireInt(row, "promoted", lineno, &n);
        if (!st.ok())
            return st;
        if (static_cast<uint64_t>(n) != promoted)
            return Status::invalidArgument(detail::format(
                "summary declares %lld promoted records, stream "
                "carried %llu",
                static_cast<long long>(n),
                static_cast<unsigned long long>(promoted)));
        for (const char *key : {"recorded", "dropped"}) {
            st = requireInt(row, key, lineno);
            if (!st.ok())
                return st;
        }
        return Status();
    };
    auto rowCheck = [&](const Json &row, size_t lineno) {
        int64_t seq = 0;
        Status st = validateFlightRecordJson(row, &seq);
        if (st.ok())
            st = validateFlightSpans(row.find("spans"), {seq});
        if (!st.ok())
            return atLine(lineno, st);
        ++promoted;
        return ascend("seq", seq, &last_seq, lineno);
    };
    return walkRows(in, rowCheck, trailer);
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
    std::ifstream in(path); // validators consume from the header on
    if (schema == "bw.routestream/1")
        return validateRouteStreamJson(in);
    if (schema == "bw.spanstream/1")
        return validateSpanStreamJson(in);
    if (schema == "bw.flightstream/1")
        return validateFlightStreamJson(in);
    return Status::invalidArgument(detail::format(
        "unknown stream schema tag '%s' (want bw.routestream/1, "
        "bw.spanstream/1 or bw.flightstream/1)",
        schema.c_str()));
}

} // namespace obs
} // namespace bw
