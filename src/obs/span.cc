#include "obs/span.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "obs/flight.h"

namespace bw {
namespace obs {

namespace {

constexpr const char *kSchema = "bw.spans/1";

constexpr auto spanOrder = [](const SpanRecord &a, const SpanRecord &b) {
    return a.trace != b.trace ? a.trace < b.trace : a.id < b.id;
};

} // namespace

const char *
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::Request: return "request";
      case SpanKind::QueueWait: return "queue_wait";
      case SpanKind::Dispatch: return "dispatch";
      case SpanKind::Execute: return "execute";
      case SpanKind::Chain: return "chain";
      case SpanKind::Route: return "route";
      case SpanKind::Hedge: return "hedge";
      default: BW_PANIC("bad SpanKind %d", static_cast<int>(k));
    }
}

const char *
spanOutcomeName(SpanOutcome o)
{
    switch (o) {
      case SpanOutcome::Ok: return "ok";
      case SpanOutcome::DeadlineExpired: return "deadline_expired";
      case SpanOutcome::Cancelled: return "cancelled";
      case SpanOutcome::Rejected: return "rejected";
      case SpanOutcome::Error: return "error";
      default: BW_PANIC("bad SpanOutcome %d", static_cast<int>(o));
    }
}

SpanTracerOptions
SpanTracerOptions::fromEnv(SpanTracerOptions base)
{
    if (const char *v = std::getenv("BW_SPAN_SAMPLE")) {
        if (*v)
            base.sampleEvery = static_cast<unsigned>(std::atoi(v));
    }
    return base;
}

SpanTracerOptions
SpanTracerOptions::fromEnv()
{
    return fromEnv(SpanTracerOptions{});
}

// --- SpanTracer ---

SpanTracer::SpanTracer(SpanTracerOptions opts)
    : opts_(opts), ring_(opts.shardCapacity)
{
    opts_.shardCapacity = ring_.capacity();
}

TraceContext
SpanTracer::admit(uint64_t seq) const
{
    TraceContext ctx;
    if (opts_.sampleEvery > 0 && seq > 0 &&
        (seq - 1) % opts_.sampleEvery == 0) {
        ctx.trace = seq;
    }
    return ctx;
}

std::vector<SpanRecord>
SpanTracer::collect() const
{
    return ring_.collect(spanOrder);
}

// --- Canonical request tree ---

namespace {

/// One chain[i] leaf per profile (capped at the tracer's
/// maxChainSpans) under execute span @p execute, mapped into
/// [@p service_us, @p done_us].
void
recordChainSpans(SpanTracer &tracer, TraceId trace, SpanId execute,
                 uint64_t service_us, uint64_t done_us,
                 const std::vector<ChainProfile> &chains,
                 Cycles total_cycles)
{
    uint64_t window = done_us > service_us ? done_us - service_us : 0;
    auto map_cycle = [&](Cycles c) -> uint64_t {
        if (total_cycles == 0 || window == 0)
            return service_us;
        c = std::min(c, total_cycles);
        // 128-bit intermediate: cycles * window can pass 2^64, and the
        // deterministic-replay exports must not round differently per
        // platform, so no floating point here.
        return service_us +
               static_cast<uint64_t>(
                   static_cast<unsigned __int128>(c) * window /
                   total_cycles);
    };
    size_t take =
        std::min<size_t>(chains.size(), tracer.options().maxChainSpans);
    for (size_t i = 0; i < take; ++i) {
        const ChainProfile &p = chains[i];
        SpanRecord s;
        s.trace = trace;
        s.id = static_cast<SpanId>(execute + 1 + i);
        s.parent = execute;
        s.kind = SpanKind::Chain;
        s.chainKind = p.kind;
        s.index = static_cast<uint32_t>(i);
        s.chainId = p.chain;
        s.startCycle = p.dispatchStart;
        s.endCycle = p.done;
        s.startUs = map_cycle(p.dispatchStart);
        s.endUs = std::max(map_cycle(p.done), s.startUs);
        ChainCycles cc = chainCycles(p);
        s.dispatchCycles = cc.dispatch;
        s.decodeCycles = cc.decode;
        s.dataStallCycles = p.dataStall;
        s.inputStallCycles = p.inputStall;
        s.structStallCycles = p.structStall;
        s.computeCycles = cc.compute;
        tracer.record(s);
    }
}

} // namespace

void
recordAttemptSpans(SpanTracer &tracer, const FlightRecord &fr,
                   TraceId trace, SpanId parent,
                   const std::vector<ChainProfile> *chains,
                   Cycles total_cycles)
{
    if (trace == 0)
        return;
    // Chain leaves hang under completed requests only: an errored
    // service did not retire the chains the profile describes.
    if (fr.cls != FlightClass::Ok)
        chains = nullptr;
    SpanOutcome outcome = flightClassOutcome(fr.cls);
    SpanRecord r;
    r.trace = trace;
    r.id = parent + 1;
    r.parent = parent;
    r.kind = SpanKind::Request;
    r.outcome = outcome;
    r.startUs = fr.admitUs;
    r.endUs = fr.doneUs;
    tracer.record(r);

    SpanRecord q;
    q.trace = trace;
    q.id = parent + 2;
    q.parent = r.id;
    q.kind = SpanKind::QueueWait;
    q.startUs = fr.admitUs;
    q.endUs = fr.dequeueUs;
    tracer.record(q);

    // Errored requests consumed service; only never-served outcomes
    // (expired in queue, rejected, cancelled) stop at queue_wait.
    if (outcome != SpanOutcome::Ok && outcome != SpanOutcome::Error)
        return; // never reached service: queue_wait is the story

    SpanRecord d;
    d.trace = trace;
    d.id = parent + 3;
    d.parent = r.id;
    d.kind = SpanKind::Dispatch;
    d.startUs = fr.dequeueUs;
    d.endUs = fr.serviceUs;
    tracer.record(d);

    SpanRecord e;
    e.trace = trace;
    e.id = parent + 4;
    e.parent = r.id;
    e.kind = SpanKind::Execute;
    e.index = fr.replica;
    e.chainCount = chains ? static_cast<uint32_t>(chains->size()) : 0;
    e.startUs = fr.serviceUs;
    e.endUs = fr.doneUs;
    tracer.record(e);
    if (chains)
        recordChainSpans(tracer, trace, e.id, fr.serviceUs, fr.doneUs,
                         *chains, total_cycles);
}

SpanId
recordRouteSpan(SpanTracer &tracer, const RouteSpan &rs)
{
    if (rs.trace == 0)
        return 0;
    SpanRecord r;
    r.trace = rs.trace;
    r.id = 1;
    r.parent = 0;
    r.kind = SpanKind::Route;
    r.outcome = rs.outcome;
    r.index = rs.engine;
    r.chainId = rs.model;
    r.startUs = rs.admitUs;
    r.endUs = rs.doneUs;
    tracer.record(r);
    return r.id;
}

// --- Span-tree JSON export ---

namespace {

std::string
spanName(const SpanRecord &s)
{
    if (s.kind == SpanKind::Chain)
        return "chain[" + std::to_string(s.index) + "]";
    if (s.kind == SpanKind::Hedge)
        return "hedge[" + std::to_string(s.index) + "]";
    return spanKindName(s.kind);
}

Json
spanNode(const SpanRecord &s, const std::vector<const SpanRecord *> &kids)
{
    Json n = Json::object();
    n.set("name", spanName(s));
    n.set("id", s.id);
    n.set("start_us", s.startUs);
    n.set("end_us", s.endUs);
    n.set("dur_us", s.endUs - s.startUs);
    switch (s.kind) {
      case SpanKind::Request:
        n.set("outcome", spanOutcomeName(s.outcome));
        break;
      case SpanKind::Route:
        n.set("outcome", spanOutcomeName(s.outcome));
        n.set("engine", s.index);
        n.set("model", s.chainId);
        break;
      case SpanKind::Hedge:
        n.set("outcome", spanOutcomeName(s.outcome));
        n.set("engine", s.chainId);
        break;
      case SpanKind::Execute:
        n.set("replica", s.index);
        if (s.chainCount > 0) {
            n.set("chains", s.chainCount);
            if (s.chainCount > kids.size())
                n.set("chains_truncated", true);
        }
        break;
      case SpanKind::Chain: {
        n.set("chain", s.chainId);
        n.set("kind", std::string(1, s.chainKind ? s.chainKind : '?'));
        n.set("start_cycle", s.startCycle);
        n.set("end_cycle", s.endCycle);
        Json st = Json::object();
        st.set("dispatch", s.dispatchCycles);
        st.set("decode", s.decodeCycles);
        st.set("data", s.dataStallCycles);
        st.set("input", s.inputStallCycles);
        st.set("struct", s.structStallCycles);
        st.set("compute", s.computeCycles);
        n.set("stalls", std::move(st));
        break;
      }
      default:
        break;
    }
    return n;
}

/**
 * One trace's tree, the traces[i] object of spanTreeJson: @p ordered
 * holds the trace's spans ascending by id. Returns null when no root
 * survived; adds the spans rendered under the root to @p exported.
 */
Json
traceTree(const std::vector<const SpanRecord *> &ordered, size_t i,
          size_t j, uint64_t *exported)
{
    // Children by parent id; the root is the parentless request.
    std::unordered_map<SpanId, std::vector<const SpanRecord *>> kids;
    const SpanRecord *root = nullptr;
    std::unordered_map<SpanId, const SpanRecord *> by_id;
    for (size_t k = i; k < j; ++k) {
        const SpanRecord *s = ordered[k];
        by_id.emplace(s->id, s);
        if (s->parent == 0 && (s->kind == SpanKind::Request ||
                               s->kind == SpanKind::Route))
            root = s;
    }
    if (!root)
        return Json();
    bool lost_parent = false;
    for (size_t k = i; k < j; ++k) {
        const SpanRecord *s = ordered[k];
        if (s->parent == 0)
            continue;
        if (by_id.count(s->parent))
            kids[s->parent].push_back(s);
        else
            lost_parent = true; // ring overwrite ate the parent
    }
    for (auto &[id, v] : kids) {
        (void)id;
        std::sort(v.begin(), v.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      return a->startUs != b->startUs
                                 ? a->startUs < b->startUs
                                 : a->id < b->id;
                  });
    }

    // Render the tree depth-first without recursion limits to worry
    // about: the tree is at most 3 deep by construction. Completed
    // children collect in their parent's frame and join its node once,
    // as its last key, when the parent completes.
    struct Frame
    {
        const SpanRecord *span;
        Json node;
        size_t next = 0;
        Json children = Json::array();
    };
    std::vector<Frame> stack;
    auto kids_of = [&](SpanId id) -> std::vector<const SpanRecord *> & {
        static std::vector<const SpanRecord *> none;
        auto it = kids.find(id);
        return it == kids.end() ? none : it->second;
    };
    stack.push_back({root, spanNode(*root, kids_of(root->id))});
    ++*exported;
    Json root_node;
    while (!stack.empty()) {
        Frame &f = stack.back();
        auto &children = kids_of(f.span->id);
        if (f.next < children.size()) {
            const SpanRecord *c = children[f.next++];
            stack.push_back({c, spanNode(*c, kids_of(c->id))});
            ++*exported;
            continue;
        }
        Json done = std::move(f.node);
        if (f.children.size() > 0)
            done.set("children", std::move(f.children));
        stack.pop_back();
        if (stack.empty()) {
            root_node = std::move(done);
            break;
        }
        stack.back().children.push(std::move(done));
    }

    Json tr = Json::object();
    tr.set("trace", root->trace);
    if (lost_parent)
        tr.set("incomplete", true);
    tr.set("root", std::move(root_node));
    return tr;
}

} // namespace

bool
forEachSpanTree(const std::vector<SpanRecord> &spans,
                const std::function<bool(Json &tree)> &emit,
                SpanTreeCounts *counts)
{
    // Group by trace (input is collect()-sorted or close; sort copies
    // of the pointers to be safe with arbitrary callers).
    std::vector<const SpanRecord *> ordered;
    ordered.reserve(spans.size());
    for (const SpanRecord &s : spans)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return spanOrder(*a, *b);
              });

    size_t i = 0;
    while (i < ordered.size()) {
        size_t j = i;
        while (j < ordered.size() && ordered[j]->trace == ordered[i]->trace)
            ++j;
        Json tree = traceTree(ordered, i, j, &counts->spans);
        i = j;
        if (tree.isNull()) {
            ++counts->incomplete;
            continue;
        }
        ++counts->traces;
        if (!emit(tree))
            return false;
    }
    return true;
}

Json
spanTreeDoc(Json traces, const SpanTreeCounts &counts, uint64_t dropped)
{
    Json doc = Json::object();
    doc.set("schema", kSchema);
    doc.set("spans", counts.spans);
    doc.set("dropped", dropped);
    if (counts.incomplete > 0)
        doc.set("incomplete_traces", counts.incomplete);
    doc.set("traces", std::move(traces));
    return doc;
}

Json
spanTreeJson(const std::vector<SpanRecord> &spans, uint64_t dropped)
{
    Json traces = Json::array();
    SpanTreeCounts counts;
    forEachSpanTree(
        spans,
        [&traces](Json &tree) {
            traces.push(std::move(tree));
            return true;
        },
        &counts);
    return spanTreeDoc(std::move(traces), counts, dropped);
}

Json
spanTreeJson(const SpanTracer &tracer)
{
    return spanTreeJson(tracer.collect(), tracer.dropped());
}

// --- Schema validation ---

namespace {

Status
failSpan(TraceId trace, const std::string &why)
{
    return Status::invalidArgument(detail::format(
        "trace %llu: %s", static_cast<unsigned long long>(trace),
        why.c_str()));
}

Status
validateSpan(const Json &node, TraceId trace, bool is_root,
             const Json *parent,
             std::unordered_set<int64_t> &ids)
{
    if (node.type() != Json::Type::Object)
        return failSpan(trace, "span is not an object");
    const Json *name = node.find("name");
    if (!name || name->type() != Json::Type::String ||
        name->asString().empty())
        return failSpan(trace, "span missing name");
    if (is_root && name->asString() != "request" &&
        name->asString() != "route")
        return failSpan(trace,
                        "root span is not named 'request' or 'route'");
    const Json *id = node.find("id");
    if (!id || id->type() != Json::Type::Int || id->asInt() <= 0)
        return failSpan(trace, "span '" + name->asString() +
                                   "' missing positive integer id");
    if (!ids.insert(id->asInt()).second)
        return failSpan(trace, "duplicate span id " +
                                   std::to_string(id->asInt()));
    const Json *start = node.find("start_us");
    const Json *end = node.find("end_us");
    const Json *dur = node.find("dur_us");
    if (!start || start->type() != Json::Type::Int || !end ||
        end->type() != Json::Type::Int || !dur ||
        dur->type() != Json::Type::Int) {
        return failSpan(trace, "span '" + name->asString() +
                                   "' missing integer start_us/end_us/"
                                   "dur_us");
    }
    if (end->asInt() < start->asInt())
        return failSpan(trace,
                        "span '" + name->asString() + "' ends before it "
                        "starts");
    if (dur->asInt() != end->asInt() - start->asInt())
        return failSpan(trace, "span '" + name->asString() +
                                   "' dur_us != end_us - start_us");
    if (parent) {
        int64_t ps = parent->find("start_us")->asInt();
        int64_t pe = parent->find("end_us")->asInt();
        if (start->asInt() < ps || end->asInt() > pe)
            return failSpan(trace, "span '" + name->asString() +
                                       "' escapes its parent interval");
    }
    if (const Json *children = node.find("children")) {
        if (children->type() != Json::Type::Array)
            return failSpan(trace, "children is not an array");
        for (size_t i = 0; i < children->size(); ++i) {
            Status st = validateSpan(children->at(i), trace, false,
                                     &node, ids);
            if (!st.ok())
                return st;
        }
    }
    return Status();
}

} // namespace

Status
validateSpanTrace(const Json &tr)
{
    if (tr.type() != Json::Type::Object)
        return Status::invalidArgument("trace entry is not an object");
    const Json *tid = tr.find("trace");
    if (!tid || tid->type() != Json::Type::Int || tid->asInt() <= 0)
        return Status::invalidArgument(
            "trace entry missing positive integer trace id");
    const Json *root = tr.find("root");
    if (!root)
        return failSpan(static_cast<TraceId>(tid->asInt()),
                        "trace entry missing root span");
    std::unordered_set<int64_t> ids;
    return validateSpan(*root, static_cast<TraceId>(tid->asInt()), true,
                        nullptr, ids);
}

Status
validateSpanTreeJson(const Json &doc)
{
    if (doc.type() != Json::Type::Object)
        return Status::invalidArgument("span document is not an object");
    const Json *schema = doc.find("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kSchema) {
        return Status::invalidArgument(
            std::string("span document schema is not '") + kSchema +
            "'");
    }
    const Json *traces = doc.find("traces");
    if (!traces || traces->type() != Json::Type::Array)
        return Status::invalidArgument(
            "span document has no traces array");
    for (size_t i = 0; i < traces->size(); ++i) {
        Status st = validateSpanTrace(traces->at(i));
        if (!st.ok())
            return st;
    }
    return Status();
}

// --- Chrome async-event overlay ---

namespace {

/** Append one b/e async pair for a span interval. */
void
pushAsyncPair(Json &events, TraceId trace, const std::string &name,
              uint64_t start_us, uint64_t end_us, Json args)
{
    Json b = Json::object();
    b.set("name", name);
    b.set("cat", "bw.span");
    b.set("ph", "b");
    b.set("id", std::to_string(trace));
    b.set("ts", start_us);
    b.set("pid", 0);
    b.set("args", std::move(args));
    events.push(std::move(b));

    Json e = Json::object();
    e.set("name", name);
    e.set("cat", "bw.span");
    e.set("ph", "e");
    e.set("id", std::to_string(trace));
    e.set("ts", end_us);
    e.set("pid", 0);
    events.push(std::move(e));
}

/** chrome_doc.traceEvents (created when absent), to push onto in place. */
Json &
traceEvents(Json &chrome_doc)
{
    if (Json *events = chrome_doc.find("traceEvents"))
        return *events;
    chrome_doc.set("traceEvents", Json::array());
    return *chrome_doc.find("traceEvents");
}

void
appendDocSpan(Json &events, TraceId trace, const Json &node)
{
    Json args = Json::object();
    args.set("trace", trace);
    for (size_t i = 0; i < node.size(); ++i) {
        const auto &[key, value] = node.member(i);
        if (key == "name" || key == "children" || key == "start_us" ||
            key == "end_us" || key == "dur_us" || key == "id")
            continue;
        args.set(key, value);
    }
    pushAsyncPair(events, trace, node.find("name")->asString(),
                  static_cast<uint64_t>(node.find("start_us")->asInt()),
                  static_cast<uint64_t>(node.find("end_us")->asInt()),
                  std::move(args));
    if (const Json *children = node.find("children")) {
        for (size_t i = 0; i < children->size(); ++i)
            appendDocSpan(events, trace, children->at(i));
    }
}

} // namespace

Status
appendSpanTreeDocEvents(Json &chrome_doc, const Json &span_doc)
{
    Status st = validateSpanTreeJson(span_doc);
    if (!st.ok())
        return st;
    Json &events = traceEvents(chrome_doc);
    const Json *traces = span_doc.find("traces");
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json &tr = traces->at(i);
        appendDocSpan(events,
                      static_cast<TraceId>(tr.find("trace")->asInt()),
                      *tr.find("root"));
    }
    return Status();
}

} // namespace obs
} // namespace bw
