/**
 * @file
 * bw_spans — tail-latency forensics over a span-tree export.
 *
 * Loads a bw.spans/1 JSON document (serve_engine's BW_SPANS_JSON) and
 * prints the report that aggregate stats cannot: which requests were
 * slow and *where* their time went.
 *
 *   1. Slowest-N requests: per trace, the wall split across
 *      queue_wait / dispatch / execute and the critical span (the
 *      direct child that dominated; for execute-bound requests, the
 *      dominant cycle bucket from the chain leaves).
 *   2. p99-vs-p50 differential attribution: mean time per span kind in
 *      the tail cohort (latency >= p99) vs the median cohort
 *      (latency <= p50), i.e. "p99 requests spend 71% more in
 *      queue_wait".
 *
 * The `flight` mode analyzes a bw.flight/1 export instead
 * (serve_engine's BW_FLIGHT_JSON): the tail-promoted anomaly table —
 * every deadline expiry, reject, error and cancellation plus the
 * slowest-K completions per window — with per-class counts and the
 * queue/service split of each promoted record. These are precisely the
 * requests head sampling was likely to drop; each carries a full
 * reconstructed span tree in the embedded bw.spans/1 document.
 *
 * The `incidents` mode analyzes a bw.incident/1 export (cluster_serve's
 * BW_FLEET_INCIDENTS_JSON or the /fleet/incidents.json endpoint): every
 * injected fault's phase timeline (fault_injected -> detected ->
 * evicted -> rewarm_started -> recovered) with virtual-time stamps, the
 * blast radius (requests caught in the fault window), the re-warm DRAM
 * charge, and a per-fault-class MTTR / goodput-impact summary. The
 * document is validated first — schema, monotonic stamps, and every
 * fault paired with a terminal recovery or eviction.
 *
 * The `validate` mode dispatches on the document's schema tag
 * (bw.spans/1, bw.flight/1, bw.slo/1, bw.route/1 or bw.incident/1) and
 * runs the matching structural validator — the CI schema gate for every
 * observability export. Cluster span exports root each trace at the
 * front-door "route" span; the analyzer descends into its "request"
 * child automatically.
 *
 * The `validate-stream` mode does the same for NDJSON streaming
 * exports (bw.routestream/1, bw.spanstream/1, bw.flightstream/1),
 * line by line in O(1) memory — a truncated final record or a missing
 * summary trailer is an error, not a silent pass.
 *
 * Exit codes: 0 = report printed, 2 = usage / unreadable input,
 * 3 = valid document but no complete request traces to analyze.
 *
 *   $ ./bw_spans spans.json [N]
 *   $ ./bw_spans flight flight.json [N]
 *   $ ./bw_spans incidents incidents.json
 *   $ ./bw_spans validate <export.json>
 *   $ ./bw_spans validate-stream <export.ndjson>
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bw/bw.h"

using namespace bw;

namespace {

/** Flattened per-request attribution extracted from one span tree. */
struct TraceSummary
{
    uint64_t trace = 0;
    std::string outcome;
    double durMs = 0;
    double queueMs = 0;
    double dispatchMs = 0;
    double executeMs = 0;
    uint64_t chains = 0;
    // Cycle attribution summed over the chain leaves.
    uint64_t dispatchCycles = 0;
    uint64_t decodeCycles = 0;
    uint64_t dataStall = 0;
    uint64_t inputStall = 0;
    uint64_t structStall = 0;
    uint64_t computeCycles = 0;

    uint64_t
    totalCycles() const
    {
        return dispatchCycles + decodeCycles + dataStall + inputStall +
               structStall + computeCycles;
    }
};

double
durMsOf(const Json &node)
{
    return static_cast<double>(node.find("dur_us")->asInt()) / 1e3;
}

uint64_t
stallOf(const Json &chain, const char *key)
{
    const Json *stalls = chain.find("stalls");
    if (!stalls)
        return 0;
    const Json *v = stalls->find(key);
    return v ? static_cast<uint64_t>(v->asInt()) : 0;
}

/**
 * The span to attribute a trace's time to. Cluster exports root each
 * trace at the front-door "route" span with the engine-side "request"
 * tree as its only child — descend so queue/dispatch/execute
 * attribution keeps working on both shapes.
 */
const Json &
requestRoot(const Json &root)
{
    const Json *name = root.find("name");
    if (!name || name->asString() != "route")
        return root;
    const Json *children = root.find("children");
    for (size_t i = 0; children && i < children->size(); ++i) {
        const Json &c = children->at(i);
        const Json *cn = c.find("name");
        if (cn && cn->asString() == "request")
            return c;
    }
    return root; // shed/expired at the front door: no request child
}

TraceSummary
summarize(uint64_t trace, const Json &route_root)
{
    const Json &root = requestRoot(route_root);
    TraceSummary s;
    s.trace = trace;
    // The route root's wall includes front-door time; the request
    // child's split is what the report attributes.
    s.durMs = durMsOf(route_root);
    const Json *outcome = root.find("outcome");
    s.outcome = outcome ? outcome->asString() : "ok";
    const Json *children = root.find("children");
    for (size_t i = 0; children && i < children->size(); ++i) {
        const Json &c = children->at(i);
        const std::string &name = c.find("name")->asString();
        if (name == "queue_wait") {
            s.queueMs = durMsOf(c);
        } else if (name == "dispatch") {
            s.dispatchMs = durMsOf(c);
        } else if (name == "execute") {
            s.executeMs = durMsOf(c);
            const Json *chains = c.find("children");
            for (size_t k = 0; chains && k < chains->size(); ++k) {
                const Json &ch = chains->at(k);
                ++s.chains;
                s.dispatchCycles += stallOf(ch, "dispatch");
                s.decodeCycles += stallOf(ch, "decode");
                s.dataStall += stallOf(ch, "data");
                s.inputStall += stallOf(ch, "input");
                s.structStall += stallOf(ch, "struct");
                s.computeCycles += stallOf(ch, "compute");
            }
        }
    }
    return s;
}

/** Name of the span where this request's time went. */
std::string
criticalSpan(const TraceSummary &s)
{
    if (s.outcome != "ok")
        return "queue_wait"; // never reached service
    std::string name = "queue_wait";
    double best = s.queueMs;
    if (s.dispatchMs > best) {
        best = s.dispatchMs;
        name = "dispatch";
    }
    if (s.executeMs > best) {
        best = s.executeMs;
        name = "execute";
    }
    if (name == "execute" && s.totalCycles() > 0) {
        // Execute-bound: name the dominant cycle bucket of its chains.
        const std::pair<const char *, uint64_t> buckets[] = {
            {"dispatch", s.dispatchCycles}, {"decode", s.decodeCycles},
            {"data", s.dataStall},          {"input", s.inputStall},
            {"struct", s.structStall},      {"compute", s.computeCycles},
        };
        const auto *top = &buckets[0];
        for (const auto &b : buckets) {
            if (b.second > top->second)
                top = &b;
        }
        name += std::string(" (") + top->first + ")";
    }
    return name;
}

double
meanOf(const std::vector<const TraceSummary *> &set,
       double (*get)(const TraceSummary &))
{
    if (set.empty())
        return 0;
    double sum = 0;
    for (const TraceSummary *s : set)
        sum += get(*s);
    return sum / static_cast<double>(set.size());
}

std::string
deltaPct(double base, double tail)
{
    if (base <= 0)
        return tail > 0 ? "n/a" : "+0.0%";
    double d = (tail - base) / base * 100.0;
    return (d >= 0 ? "+" : "") + fmtF(d, 1) + "%";
}

/** Load + parse a JSON file, or exit-2 with a diagnostic. */
bool
loadJson(const char *path, Json *out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bw_spans: cannot read %s\n", path);
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        *out = Json::parse(buf.str());
    } catch (const Error &e) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", path, e.what());
        return false;
    }
    return true;
}

/** The `flight` mode: promoted-anomaly table over a bw.flight/1 doc. */
int
flightReport(const char *path, size_t top_n)
{
    Json doc;
    if (!loadJson(path, &doc))
        return 2;
    Status valid = obs::validateFlightJson(doc);
    if (!valid.ok()) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", path,
                     valid.toString().c_str());
        return 2;
    }

    const Json *promoted = doc.find("promoted");
    std::printf("bw_spans flight: %zu promoted of %lld recorded "
                "(window %.0f ms, slowest-K %lld, %lld dropped)\n\n",
                promoted->size(),
                static_cast<long long>(doc.find("recorded")->asInt()),
                static_cast<double>(doc.find("window_us")->asInt()) / 1e3,
                static_cast<long long>(doc.find("slowest_k")->asInt()),
                static_cast<long long>(doc.find("dropped")->asInt()));
    if (promoted->size() == 0) {
        std::printf("No promoted records: every request completed "
                    "inside the window's slowest-K threshold.\n");
        return 3;
    }

    // Per-class counts: how the anomaly budget splits.
    std::map<std::string, uint64_t> by_class;
    for (size_t i = 0; i < promoted->size(); ++i)
        ++by_class[promoted->at(i).find("class")->asString()];
    TextTable classes({"class", "promoted"});
    for (const auto &kv : by_class)
        classes.addRow({kv.first, fmtI(kv.second)});
    std::printf("Promotions by class:\n%s\n", classes.render().c_str());

    // The promoted records, slowest first, up to N.
    std::vector<const Json *> rows;
    rows.reserve(promoted->size());
    for (size_t i = 0; i < promoted->size(); ++i)
        rows.push_back(&promoted->at(i));
    std::sort(rows.begin(), rows.end(), [](const Json *a, const Json *b) {
        int64_t la = a->find("latency_us")->asInt();
        int64_t lb = b->find("latency_us")->asInt();
        if (la != lb)
            return la > lb;
        return a->find("seq")->asInt() < b->find("seq")->asInt();
    });
    size_t n = std::min(top_n, rows.size());
    TextTable t({"seq", "id", "class", "queue ms", "service ms",
                 "latency ms", "replica", "head-sampled"});
    for (size_t i = 0; i < n; ++i) {
        const Json &r = *rows[i];
        double queue_ms =
            static_cast<double>(r.find("dequeue_us")->asInt() -
                                r.find("admit_us")->asInt()) / 1e3;
        double service_ms =
            static_cast<double>(r.find("done_us")->asInt() -
                                r.find("service_us")->asInt()) / 1e3;
        const Json *sampled = r.find("sampled");
        t.addRow({std::to_string(r.find("seq")->asInt()),
                  std::to_string(r.find("id")->asInt()),
                  r.find("class")->asString(), fmtF(queue_ms, 3),
                  fmtF(service_ms, 3),
                  fmtF(static_cast<double>(
                           r.find("latency_us")->asInt()) / 1e3, 3),
                  std::to_string(r.find("replica")->asInt()),
                  sampled && sampled->asBool() ? "yes" : "no"});
    }
    std::printf("Slowest %zu promoted records:\n%s\n", n,
                t.render().c_str());
    std::printf("Each promoted seq has a full span tree in the embedded "
                "spans document (%lld traces); requests head sampling "
                "dropped are still fully attributable here.\n",
                static_cast<long long>(
                    doc.find("spans")->find("traces")->size()));
    return 0;
}

/** The `incidents` mode: timeline + MTTR report over bw.incident/1. */
int
incidentsReport(const char *path)
{
    Json doc;
    if (!loadJson(path, &doc))
        return 2;
    Status valid = obs::validateIncidentJson(doc);
    if (!valid.ok()) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", path,
                     valid.toString().c_str());
        return 2;
    }

    const Json *incidents = doc.find("incidents");
    std::printf("bw_spans incidents: %zu fault(s) recorded\n\n",
                incidents->size());
    if (incidents->size() == 0) {
        std::printf("No incidents: the chaos schedule injected no "
                    "faults into this replay.\n");
        return 3;
    }

    // The per-incident timeline: one row per fault, phases inline so
    // the detect lag and re-warm window are readable at a glance.
    TextTable t({"id", "class", "shard", "fault @ms", "detect ms",
                 "mttr ms", "affected", "reload tiles", "reload ms",
                 "phases"});
    struct ClassAgg
    {
        uint64_t count = 0;
        uint64_t affected = 0;
        uint64_t mttrSumUs = 0;
        uint64_t mttrMaxUs = 0;
        uint64_t reloadUs = 0;
    };
    std::map<std::string, ClassAgg> by_class;
    uint64_t evicted_total = 0;
    for (size_t i = 0; i < incidents->size(); ++i) {
        const Json &inc = incidents->at(i);
        const Json *events = inc.find("events");
        uint64_t fault_us = 0, detect_us = 0;
        bool evicted = false;
        std::string phases;
        for (size_t e = 0; e < events->size(); ++e) {
            const Json &ev = events->at(e);
            const std::string phase = ev.find("phase")->asString();
            uint64_t t_us =
                static_cast<uint64_t>(ev.find("t_us")->asInt());
            if (phase == "fault_injected")
                fault_us = t_us;
            else if (phase == "detected")
                detect_us = t_us;
            else if (phase == "evicted")
                evicted = true;
            if (!phases.empty())
                phases += " > ";
            phases += phase;
        }
        uint64_t mttr_us =
            static_cast<uint64_t>(inc.find("mttr_us")->asInt());
        uint64_t affected =
            static_cast<uint64_t>(inc.find("affected")->asInt());
        uint64_t reload_us =
            static_cast<uint64_t>(inc.find("reload_us")->asInt());
        const std::string cls = inc.find("class")->asString();
        t.addRow({std::to_string(inc.find("id")->asInt()), cls,
                  inc.find("shard")->asString(),
                  fmtF(static_cast<double>(fault_us) / 1e3, 3),
                  detect_us > 0
                      ? fmtF(static_cast<double>(detect_us - fault_us) /
                                 1e3,
                             3)
                      : "-",
                  fmtF(static_cast<double>(mttr_us) / 1e3, 3),
                  fmtI(affected),
                  fmtI(static_cast<uint64_t>(
                      inc.find("reload_tiles")->asInt())),
                  reload_us > 0
                      ? fmtF(static_cast<double>(reload_us) / 1e3, 3)
                      : "-",
                  phases});
        ClassAgg &agg = by_class[cls];
        ++agg.count;
        agg.affected += affected;
        agg.mttrSumUs += mttr_us;
        agg.mttrMaxUs = std::max(agg.mttrMaxUs, mttr_us);
        agg.reloadUs += reload_us;
        if (evicted)
            ++evicted_total;
    }
    std::printf("Incident timelines (virtual time):\n%s\n",
                t.render().c_str());

    // MTTR / goodput impact by fault class: the summary the SLO review
    // reads — how long each failure mode keeps capacity out of the
    // healthy set, and how many requests it touched while doing so.
    TextTable summary({"class", "faults", "mean mttr ms", "max mttr ms",
                       "affected", "rewarm ms"});
    uint64_t affected_total = 0;
    for (const auto &kv : by_class) {
        const ClassAgg &agg = kv.second;
        summary.addRow(
            {kv.first, fmtI(agg.count),
             fmtF(static_cast<double>(agg.mttrSumUs) /
                      (1e3 * static_cast<double>(agg.count)),
                  3),
             fmtF(static_cast<double>(agg.mttrMaxUs) / 1e3, 3),
             fmtI(agg.affected),
             agg.reloadUs > 0
                 ? fmtF(static_cast<double>(agg.reloadUs) / 1e3, 3)
                 : "-"});
        affected_total += agg.affected;
    }
    std::printf("MTTR and goodput impact by fault class:\n%s\n",
                summary.render().c_str());
    std::printf("%llu request(s) hit a faulted shard; %llu incident(s) "
                "evicted a shard from the healthy routing set. Every "
                "stamp above is replay virtual time: re-running the "
                "same chaos seed reproduces this document "
                "byte-for-byte.\n",
                static_cast<unsigned long long>(affected_total),
                static_cast<unsigned long long>(evicted_total));
    return 0;
}

/** The `validate` mode: schema-dispatch to the matching validator. */
int
validateDoc(const char *path)
{
    Json doc;
    if (!loadJson(path, &doc))
        return 2;
    const Json *schema = doc.find("schema");
    std::string tag =
        schema && schema->type() == Json::Type::String
            ? schema->asString()
            : "";
    const struct
    {
        const char *tag;
        Status (*validate)(const Json &);
    } docs[] = {{obs::kSpansSchema, obs::validateSpanTreeJson},
                {obs::kFlightSchema, obs::validateFlightJson},
                {serve::kSloSchema, serve::validateSloJson},
                {cluster::kRouteSchema, cluster::validateRouteJson},
                {obs::kIncidentSchema, obs::validateIncidentJson}};
    auto it = std::find_if(std::begin(docs), std::end(docs),
                           [&tag](const auto &d) { return tag == d.tag; });
    if (it == std::end(docs)) {
        std::fprintf(stderr,
                     "bw_spans: %s: unknown schema tag '%s' (want %s, %s, "
                     "%s, %s or %s)\n",
                     path, tag.c_str(), docs[0].tag, docs[1].tag,
                     docs[2].tag, docs[3].tag, docs[4].tag);
        return 2;
    }
    Status st = it->validate(doc);
    if (!st.ok()) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", path,
                     st.toString().c_str());
        return 2;
    }
    std::printf("bw_spans: %s valid (%s)\n", path, tag.c_str());
    return 0;
}

/** The `validate-stream` mode: NDJSON schema-dispatch validation. */
int
validateStream(const char *path)
{
    Status st = obs::validateStreamFile(path);
    if (!st.ok()) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", path,
                     st.toString().c_str());
        return 2;
    }
    std::printf("bw_spans: %s valid (NDJSON stream)\n", path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: bw_spans <spans.json> [N]\n"
                     "       bw_spans flight <flight.json> [N]\n"
                     "       bw_spans incidents <incidents.json>\n"
                     "       bw_spans validate <export.json>\n"
                     "       bw_spans validate-stream <export.ndjson>\n");
        return 2;
    }
    if (std::strcmp(argv[1], "validate") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: bw_spans validate <export.json>\n");
            return 2;
        }
        return validateDoc(argv[2]);
    }
    if (std::strcmp(argv[1], "validate-stream") == 0) {
        if (argc < 3) {
            std::fprintf(
                stderr,
                "usage: bw_spans validate-stream <export.ndjson>\n");
            return 2;
        }
        return validateStream(argv[2]);
    }
    if (std::strcmp(argv[1], "incidents") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: bw_spans incidents <incidents.json>\n");
            return 2;
        }
        return incidentsReport(argv[2]);
    }
    if (std::strcmp(argv[1], "flight") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: bw_spans flight <flight.json> [N]\n");
            return 2;
        }
        size_t fn =
            argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 10;
        return flightReport(argv[2], fn == 0 ? 10 : fn);
    }
    size_t top_n = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 10;
    if (top_n == 0)
        top_n = 10;

    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr, "bw_spans: cannot read %s\n", argv[1]);
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    Json doc;
    try {
        doc = Json::parse(buf.str());
    } catch (const Error &e) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", argv[1], e.what());
        return 2;
    }
    Status valid = obs::validateSpanTreeJson(doc);
    if (!valid.ok()) {
        std::fprintf(stderr, "bw_spans: %s: %s\n", argv[1],
                     valid.toString().c_str());
        return 2;
    }

    const Json *traces = doc.find("traces");
    std::vector<TraceSummary> all;
    all.reserve(traces->size());
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json &tr = traces->at(i);
        all.push_back(summarize(
            static_cast<uint64_t>(tr.find("trace")->asInt()),
            *tr.find("root")));
    }
    if (all.empty()) {
        std::fprintf(stderr,
                     "bw_spans: %s holds no complete request traces\n",
                     argv[1]);
        return 3;
    }

    const Json *dropped = doc.find("dropped");
    std::printf("bw_spans: %zu traces from %s", all.size(), argv[1]);
    if (dropped && dropped->asInt() > 0)
        std::printf(" (%lld spans lost to ring overwrite)",
                    static_cast<long long>(dropped->asInt()));
    std::printf("\n\n");

    // --- 1. Slowest-N requests. ---
    std::vector<const TraceSummary *> by_lat;
    by_lat.reserve(all.size());
    for (const TraceSummary &s : all)
        by_lat.push_back(&s);
    std::sort(by_lat.begin(), by_lat.end(),
              [](const TraceSummary *a, const TraceSummary *b) {
                  return a->durMs != b->durMs ? a->durMs > b->durMs
                                              : a->trace < b->trace;
              });

    size_t n = std::min(top_n, by_lat.size());
    TextTable slow({"trace", "total ms", "queue ms", "dispatch ms",
                    "execute ms", "chains", "outcome", "critical span"});
    for (size_t i = 0; i < n; ++i) {
        const TraceSummary &s = *by_lat[i];
        slow.addRow({std::to_string(s.trace), fmtF(s.durMs, 3),
                     fmtF(s.queueMs, 3), fmtF(s.dispatchMs, 3),
                     fmtF(s.executeMs, 3), fmtI(s.chains), s.outcome,
                     criticalSpan(s)});
    }
    std::printf("Slowest %zu of %zu requests:\n%s\n", n, all.size(),
                slow.render().c_str());

    // --- 2. p99-vs-p50 differential attribution. ---
    std::vector<double> lat;
    lat.reserve(all.size());
    for (const TraceSummary &s : all)
        lat.push_back(s.durMs);
    std::sort(lat.begin(), lat.end());
    double p50 = percentileSorted(lat, 50);
    double p99 = percentileSorted(lat, 99);

    std::vector<const TraceSummary *> median_set, tail_set;
    for (const TraceSummary &s : all) {
        if (s.durMs <= p50)
            median_set.push_back(&s);
        if (s.durMs >= p99)
            tail_set.push_back(&s);
    }

    struct Row
    {
        const char *name;
        const char *unit;
        double (*get)(const TraceSummary &);
    };
    const Row rows[] = {
        {"queue_wait", "ms", [](const TraceSummary &s) { return s.queueMs; }},
        {"dispatch", "ms",
         [](const TraceSummary &s) { return s.dispatchMs; }},
        {"execute", "ms",
         [](const TraceSummary &s) { return s.executeMs; }},
        {"chain dispatch", "cycles",
         [](const TraceSummary &s) {
             return static_cast<double>(s.dispatchCycles);
         }},
        {"chain decode", "cycles",
         [](const TraceSummary &s) {
             return static_cast<double>(s.decodeCycles);
         }},
        {"chain data stall", "cycles",
         [](const TraceSummary &s) {
             return static_cast<double>(s.dataStall);
         }},
        {"chain input stall", "cycles",
         [](const TraceSummary &s) {
             return static_cast<double>(s.inputStall);
         }},
        {"chain struct stall", "cycles",
         [](const TraceSummary &s) {
             return static_cast<double>(s.structStall);
         }},
        {"chain compute", "cycles",
         [](const TraceSummary &s) {
             return static_cast<double>(s.computeCycles);
         }},
    };

    TextTable diff({"span", "unit", "p50 cohort mean", "p99 cohort mean",
                    "delta"});
    for (const Row &r : rows) {
        double base = meanOf(median_set, r.get);
        double tail = meanOf(tail_set, r.get);
        if (base == 0 && tail == 0)
            continue; // nothing attributed to this bucket at all
        diff.addRow({r.name, r.unit, fmtF(base, 3), fmtF(tail, 3),
                     deltaPct(base, tail)});
    }
    std::printf("p99 vs p50 attribution (%zu tail / %zu median "
                "requests; p50 %.3f ms, p99 %.3f ms):\n%s",
                tail_set.size(), median_set.size(), p50, p99,
                diff.render().c_str());
    return 0;
}
