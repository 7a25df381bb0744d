#include "obs/span.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/env_doc.h"
#include "common/logging.h"
#include "obs/flight.h"

namespace bw {
namespace obs {

namespace {

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
    envUnsigned("BW_SPAN_SAMPLE", &base.sampleEvery);
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
        uint64_t start = map_cycle(p.dispatchStart);
        ChainCycles cc = chainCycles(p);
        tracer.record({.trace = trace,
                       .id = static_cast<SpanId>(execute + 1 + i),
                       .parent = execute,
                       .kind = SpanKind::Chain,
                       .chainKind = p.kind,
                       .index = static_cast<uint32_t>(i),
                       .chainId = p.chain,
                       .startUs = start,
                       .endUs = std::max(map_cycle(p.done), start),
                       .startCycle = p.dispatchStart,
                       .endCycle = p.done,
                       .dispatchCycles = cc.dispatch,
                       .decodeCycles = cc.decode,
                       .dataStallCycles = p.dataStall,
                       .inputStallCycles = p.inputStall,
                       .structStallCycles = p.structStall,
                       .computeCycles = cc.compute});
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
    const SpanId request = parent + 1, execute = parent + 4;
    tracer.record({.trace = trace, .id = request, .parent = parent,
                   .kind = SpanKind::Request, .outcome = outcome,
                   .startUs = fr.admitUs, .endUs = fr.doneUs});
    tracer.record({.trace = trace, .id = parent + 2, .parent = request,
                   .kind = SpanKind::QueueWait, .startUs = fr.admitUs,
                   .endUs = fr.dequeueUs});

    // Errored requests consumed service; only never-served outcomes
    // (expired in queue, rejected, cancelled) stop at queue_wait.
    if (outcome != SpanOutcome::Ok && outcome != SpanOutcome::Error)
        return; // never reached service: queue_wait is the story

    tracer.record({.trace = trace, .id = parent + 3, .parent = request,
                   .kind = SpanKind::Dispatch, .startUs = fr.dequeueUs,
                   .endUs = fr.serviceUs});
    tracer.record(
        {.trace = trace, .id = execute, .parent = request,
         .kind = SpanKind::Execute, .index = fr.replica,
         .chainCount = chains ? static_cast<uint32_t>(chains->size()) : 0,
         .startUs = fr.serviceUs, .endUs = fr.doneUs});
    if (chains)
        recordChainSpans(tracer, trace, execute, fr.serviceUs, fr.doneUs,
                         *chains, total_cycles);
}

SpanId
recordRouteSpan(SpanTracer &tracer, const RouteSpan &rs)
{
    if (rs.trace == 0)
        return 0;
    tracer.record({.trace = rs.trace, .id = 1, .parent = 0,
                   .kind = SpanKind::Route, .outcome = rs.outcome,
                   .index = rs.engine, .chainId = rs.model,
                   .startUs = rs.admitUs, .endUs = rs.doneUs});
    return 1;
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
stallsJson(const SpanRecord &s)
{
    return BW_FIELDS_JSON(BW_CHAIN_STALL_FIELDS, s);
}

/// @p s's node over its @p kids rendered children.
Json
spanNode(const SpanRecord &s, size_t kids, Json children)
{
    Json out = Json::object();
    BW_SPAN_NODE_FIELDS(BW_FIELD_SET, s)
    switch (s.kind) {
      case SpanKind::Request: BW_REQUEST_SPAN_FIELDS(BW_FIELD_SET, s) break;
      case SpanKind::Route: BW_ROUTE_SPAN_FIELDS(BW_FIELD_SET, s) break;
      case SpanKind::Hedge: BW_HEDGE_SPAN_FIELDS(BW_FIELD_SET, s) break;
      case SpanKind::Execute:
        BW_EXECUTE_SPAN_FIELDS(BW_FIELD_SET, s, kids)
        break;
      case SpanKind::Chain: BW_CHAIN_SPAN_FIELDS(BW_FIELD_SET, s) break;
      default: break;
    }
    BW_SPAN_CHILDREN_FIELDS(BW_FIELD_SET, std::move(children))
    return out;
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
    // children collect in their parent's frame; a node is rendered,
    // children last, once its subtree completes.
    struct Frame
    {
        const SpanRecord *span;
        size_t next = 0;
        Json children = Json::array();
    };
    std::vector<Frame> stack;
    auto kids_of = [&](SpanId id) -> std::vector<const SpanRecord *> & {
        static std::vector<const SpanRecord *> none;
        auto it = kids.find(id);
        return it == kids.end() ? none : it->second;
    };
    stack.push_back({root});
    ++*exported;
    Json root_node;
    while (!stack.empty()) {
        Frame &f = stack.back();
        auto &children = kids_of(f.span->id);
        if (f.next < children.size()) {
            stack.push_back({children[f.next++]});
            ++*exported;
            continue;
        }
        Json done = spanNode(*f.span, children.size(), std::move(f.children));
        stack.pop_back();
        if (stack.empty()) {
            root_node = std::move(done);
            break;
        }
        stack.back().children.push(std::move(done));
    }
    return BW_FIELDS_JSON(BW_SPAN_TRACE_FIELDS, root->trace, lost_parent,
                          std::move(root_node));
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
    return BW_FIELDS_JSON(BW_SPAN_DOC_FIELDS, counts, dropped,
                          std::move(traces));
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

/// The kind a node's name gives ("chain[3]" is a Chain), or
/// NumSpanKinds for an unknown name.
SpanKind
kindOfName(const std::string &name)
{
    std::string base = name.substr(0, name.find('['));
    int k = 0;
    while (k < static_cast<int>(SpanKind::NumSpanKinds) &&
           base != spanKindName(static_cast<SpanKind>(k)))
        ++k;
    return static_cast<SpanKind>(k);
}

/// A node's members of its own kind (BW_*_SPAN_FIELDS).
Status
checkKindFields(const Json &node, SpanKind kind)
{
    switch (kind) {
      case SpanKind::Request:
        return BW_CHECK_FIELDS(node, BW_REQUEST_SPAN_FIELDS, _);
      case SpanKind::Route:
        return BW_CHECK_FIELDS(node, BW_ROUTE_SPAN_FIELDS, _);
      case SpanKind::Hedge:
        return BW_CHECK_FIELDS(node, BW_HEDGE_SPAN_FIELDS, _);
      case SpanKind::Execute:
        return BW_CHECK_FIELDS(node, BW_EXECUTE_SPAN_FIELDS, _, _);
      case SpanKind::Chain: {
        Status st = BW_CHECK_FIELDS(node, BW_CHAIN_SPAN_FIELDS, _);
        return st.ok() ? prefixed("stalls",
                                  BW_CHECK_FIELDS(*node.find("stalls"),
                                                  BW_CHAIN_STALL_FIELDS, _))
                       : st;
      }
      case SpanKind::NumSpanKinds:
        return Status::invalidArgument("unknown span kind");
      default:
        return Status();
    }
}

Status
validateSpan(const Json &node, TraceId trace, bool is_root,
             const Json *parent,
             std::unordered_set<int64_t> &ids)
{
    Status st = BW_CHECK_FIELDS(node, BW_SPAN_NODE_FIELDS, _);
    if (!st.ok())
        return failSpan(trace, "span: " + st.message());
    const std::string &name = node.find("name")->asString();
    SpanKind kind = kindOfName(name);
    st = checkKindFields(node, kind);
    if (st.ok())
        st = BW_CHECK_FIELDS(node, BW_SPAN_CHILDREN_FIELDS, _);
    if (!st.ok())
        return failSpan(trace, "span '" + name + "': " + st.message());
    if (is_root && kind != SpanKind::Request && kind != SpanKind::Route)
        return failSpan(trace,
                        "root span is not named 'request' or 'route'");
    auto at = [&node](const char *key) { return node.find(key)->asInt(); };
    if (!ids.insert(at("id")).second)
        return failSpan(trace, "duplicate span id " +
                                   std::to_string(at("id")));
    if (at("end_us") < at("start_us"))
        return failSpan(trace,
                        "span '" + name + "' ends before it starts");
    if (at("dur_us") != at("end_us") - at("start_us"))
        return failSpan(trace, "span '" + name +
                                   "' dur_us != end_us - start_us");
    if (parent && (at("start_us") < parent->find("start_us")->asInt() ||
                   at("end_us") > parent->find("end_us")->asInt()))
        return failSpan(trace, "span '" + name +
                                   "' escapes its parent interval");
    if (const Json *children = node.find("children")) {
        for (size_t i = 0; i < children->size(); ++i) {
            st = validateSpan(children->at(i), trace, false, &node, ids);
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
    Status st = BW_CHECK_FIELDS(tr, BW_SPAN_TRACE_FIELDS, _, _, _);
    if (!st.ok())
        return prefixed("trace entry", st);
    std::unordered_set<int64_t> ids;
    return validateSpan(*tr.find("root"),
                        static_cast<TraceId>(tr.find("trace")->asInt()),
                        true, nullptr, ids);
}

Status
validateSpanTreeJson(const Json &doc)
{
    Status st = BW_CHECK_FIELDS(doc, BW_SPAN_DOC_FIELDS, _, _, _);
    if (!st.ok())
        return prefixed("span document", st);
    const Json &traces = *doc.find("traces");
    for (size_t i = 0; i < traces.size(); ++i) {
        st = validateSpanTrace(traces.at(i));
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
    Json e = b; // the end event: the same members but phase and stamp
    e.set("ph", "e");
    e.set("ts", end_us);
    b.set("args", std::move(args));
    events.push(std::move(b));
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
