#include "obs/span.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
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

constexpr const char *kSchema = "bw.spans/1";

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

SpanTracer::SpanTracer(SpanTracerOptions opts) : opts_(opts)
{
    opts_.shardCapacity = std::max<size_t>(1, opts_.shardCapacity);
    for (Shard &s : shards_)
        s.ring.resize(opts_.shardCapacity);
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

void
SpanTracer::record(const SpanRecord &s)
{
    Shard &sh = shards_[threadSlot() % kShards];
    uint64_t n = sh.count.fetch_add(1, std::memory_order_relaxed);
    sh.ring[n % sh.ring.size()] = s;
    // Publish: collect() loads with acquire after quiescence, so the
    // record write above is visible once the count is.
    std::atomic_thread_fence(std::memory_order_release);
}

std::vector<SpanRecord>
SpanTracer::collect() const
{
    std::atomic_thread_fence(std::memory_order_acquire);
    std::vector<SpanRecord> out;
    for (const Shard &sh : shards_) {
        uint64_t n = sh.count.load(std::memory_order_acquire);
        size_t kept = static_cast<size_t>(
            std::min<uint64_t>(n, sh.ring.size()));
        for (size_t i = 0; i < kept; ++i)
            out.push_back(sh.ring[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.trace != b.trace ? a.trace < b.trace
                                            : a.id < b.id;
              });
    return out;
}

uint64_t
SpanTracer::recorded() const
{
    uint64_t n = 0;
    for (const Shard &sh : shards_)
        n += sh.count.load(std::memory_order_relaxed);
    return n;
}

uint64_t
SpanTracer::dropped() const
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
SpanTracer::clear()
{
    for (Shard &sh : shards_)
        sh.count.store(0, std::memory_order_relaxed);
}

// --- Canonical request tree ---

SpanId
recordRequestTree(SpanTracer &tracer, const RequestSpans &rs,
                  SpanId parent)
{
    if (rs.trace == 0)
        return 0;
    SpanRecord r;
    r.trace = rs.trace;
    r.id = parent + 1;
    r.parent = parent;
    r.kind = SpanKind::Request;
    r.outcome = rs.outcome;
    r.startUs = rs.admitUs;
    r.endUs = rs.doneUs;
    tracer.record(r);

    SpanRecord q;
    q.trace = rs.trace;
    q.id = parent + 2;
    q.parent = r.id;
    q.kind = SpanKind::QueueWait;
    q.startUs = rs.admitUs;
    q.endUs = rs.dequeueUs;
    tracer.record(q);

    // Errored requests consumed service; only never-served outcomes
    // (expired in queue, rejected, cancelled) stop at queue_wait.
    if (rs.outcome != SpanOutcome::Ok && rs.outcome != SpanOutcome::Error)
        return 0; // never reached service: queue_wait is the story

    SpanRecord d;
    d.trace = rs.trace;
    d.id = parent + 3;
    d.parent = r.id;
    d.kind = SpanKind::Dispatch;
    d.startUs = rs.dequeueUs;
    d.endUs = rs.serviceUs;
    tracer.record(d);

    SpanRecord e;
    e.trace = rs.trace;
    e.id = parent + 4;
    e.parent = r.id;
    e.kind = SpanKind::Execute;
    e.index = rs.replica;
    e.chainCount = rs.chainCount;
    e.startUs = rs.serviceUs;
    e.endUs = rs.doneUs;
    tracer.record(e);
    return e.id;
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

void
recordChainSpans(SpanTracer &tracer, TraceId trace, SpanId execute,
                 uint64_t service_us, uint64_t done_us,
                 const std::vector<ChainProfile> &chains,
                 Cycles total_cycles)
{
    if (trace == 0 || execute == 0 || chains.empty())
        return;
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
        s.dispatchCycles = p.dispatchDone > p.dispatchStart
                               ? p.dispatchDone - p.dispatchStart
                               : 0;
        s.decodeCycles =
            p.decodeDone > p.dispatchDone ? p.decodeDone - p.dispatchDone
                                          : 0;
        s.dataStallCycles = p.dataStall;
        s.inputStallCycles = p.inputStall;
        s.structStallCycles = p.structStall;
        Cycles tail = p.done > p.decodeDone ? p.done - p.decodeDone : 0;
        Cycles stalls = p.dataStall + p.inputStall + p.structStall;
        s.computeCycles = tail > stalls ? tail - stalls : 0;
        tracer.record(s);
    }
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

} // namespace

Json
spanTreeJson(const std::vector<SpanRecord> &spans, uint64_t dropped)
{
    // Group by trace (input is collect()-sorted or close; sort copies
    // of the indices to be safe with arbitrary callers).
    std::vector<const SpanRecord *> ordered;
    ordered.reserve(spans.size());
    for (const SpanRecord &s : spans)
        ordered.push_back(&s);
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return a->trace != b->trace ? a->trace < b->trace
                                              : a->id < b->id;
              });

    Json traces = Json::array();
    uint64_t exported = 0;
    uint64_t incomplete = 0;

    size_t i = 0;
    while (i < ordered.size()) {
        TraceId t = ordered[i]->trace;
        size_t j = i;
        while (j < ordered.size() && ordered[j]->trace == t)
            ++j;

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
        i = j;
        if (!root) {
            ++incomplete;
            continue;
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
        // children collect in their parent's frame and join its node
        // once, as its last key, when the parent completes.
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
        ++exported;
        Json root_node;
        while (!stack.empty()) {
            Frame &f = stack.back();
            auto &children = kids_of(f.span->id);
            if (f.next < children.size()) {
                const SpanRecord *c = children[f.next++];
                stack.push_back({c, spanNode(*c, kids_of(c->id))});
                ++exported;
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
        tr.set("trace", t);
        if (lost_parent)
            tr.set("incomplete", true);
        tr.set("root", std::move(root_node));
        traces.push(std::move(tr));
    }

    Json doc = Json::object();
    doc.set("schema", kSchema);
    doc.set("spans", exported);
    doc.set("dropped", dropped);
    if (incomplete > 0)
        doc.set("incomplete_traces", incomplete);
    doc.set("traces", std::move(traces));
    return doc;
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
        const Json &tr = traces->at(i);
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
        Status st = validateSpan(*root,
                                 static_cast<TraceId>(tid->asInt()),
                                 true, nullptr, ids);
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
    if (!args.isNull())
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

} // namespace

void
appendSpanEvents(Json &chrome_doc, const std::vector<SpanRecord> &spans)
{
    Json &events = traceEvents(chrome_doc);
    for (const SpanRecord &s : spans) {
        Json args = Json::object();
        args.set("trace", s.trace);
        switch (s.kind) {
          case SpanKind::Request:
            args.set("outcome", spanOutcomeName(s.outcome));
            break;
          case SpanKind::Route:
            args.set("outcome", spanOutcomeName(s.outcome));
            args.set("engine", s.index);
            args.set("model", s.chainId);
            break;
          case SpanKind::Hedge:
            args.set("outcome", spanOutcomeName(s.outcome));
            args.set("engine", s.chainId);
            break;
          case SpanKind::Execute:
            args.set("replica", s.index);
            break;
          case SpanKind::Chain:
            args.set("chain", s.chainId);
            args.set("start_cycle", s.startCycle);
            args.set("end_cycle", s.endCycle);
            args.set("data_stall", s.dataStallCycles);
            args.set("input_stall", s.inputStallCycles);
            args.set("struct_stall", s.structStallCycles);
            args.set("compute", s.computeCycles);
            break;
          default:
            break;
        }
        pushAsyncPair(events, s.trace, spanName(s), s.startUs, s.endUs,
                      std::move(args));
    }
}

namespace {

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
