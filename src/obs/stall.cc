#include "obs/stall.h"

#include <algorithm>
#include <map>

#include "common/table.h"

namespace bw {
namespace obs {

namespace {

/** Per-chain components, in the fixed attribution order. The last
 *  entry (compute) absorbs the integer remainder so the allocation is
 *  exact. */
struct Components
{
    std::string key[6];
    Cycles weight[6] = {0, 0, 0, 0, 0, 0};
};

Components
chainComponents(const ChainProfile &p)
{
    ChainCycles cc = chainCycles(p);
    return {{"dispatch", "decode",
             std::string("data_hazard:") + memIdMnemonic(p.dataStallMem),
             "input_wait:netq",
             std::string("structural:") + resClassName(p.structRes),
             "compute"},
            {cc.dispatch, cc.decode, p.dataStall, p.inputStall,
             p.structStall, cc.compute}};
}

} // namespace

StallReport
buildStallReport(const std::vector<ChainProfile> &chains,
                 Cycles total_cycles)
{
    StallReport rep;
    rep.totalCycles = total_cycles;
    rep.chains = chains.size();

    std::vector<const ChainProfile *> order;
    order.reserve(chains.size());
    for (const ChainProfile &p : chains)
        order.push_back(&p);
    std::stable_sort(order.begin(), order.end(),
                     [](const ChainProfile *a, const ChainProfile *b) {
                         return a->done < b->done;
                     });

    std::map<std::string, Cycles> buckets;
    Cycles frontier = 0;
    for (const ChainProfile *p : order) {
        Cycles done = std::min(p->done, total_cycles);
        if (done <= frontier)
            continue;
        Cycles span = done - frontier;
        frontier = done;

        Components c = chainComponents(*p);
        Cycles w = 0;
        for (Cycles wi : c.weight)
            w += wi;
        if (w == 0) {
            buckets["compute"] += span;
            continue;
        }
        // Proportional integer split; compute (last) takes the
        // remainder so every span is attributed exactly.
        Cycles allocated = 0;
        for (int i = 0; i < 5; ++i) {
            Cycles a = span * c.weight[i] / w;
            if (a) {
                buckets[c.key[i]] += a;
                allocated += a;
            }
        }
        buckets[c.key[5]] += span - allocated;
    }
    if (frontier < total_cycles)
        buckets["idle"] += total_cycles - frontier;

    for (const auto &[reason, cycles] : buckets) {
        StallBucket b;
        b.reason = reason;
        b.cycles = cycles;
        b.fraction = total_cycles
                         ? static_cast<double>(cycles) / total_cycles
                         : 0.0;
        rep.attributedCycles += cycles;
        rep.buckets.push_back(std::move(b));
    }
    std::sort(rep.buckets.begin(), rep.buckets.end(),
              [](const StallBucket &a, const StallBucket &b) {
                  return a.cycles > b.cycles;
              });

    rep.worstChains.assign(chains.begin(), chains.end());
    std::stable_sort(rep.worstChains.begin(), rep.worstChains.end(),
                     [](const ChainProfile &a, const ChainProfile &b) {
                         return a.dataStall + a.inputStall + a.structStall >
                                b.dataStall + b.inputStall + b.structStall;
                     });
    return rep;
}

std::string
StallReport::render(size_t top_chains) const
{
    std::string out = "Stall attribution over " + fmtI(totalCycles) +
                      " cycles (" + fmtI(chains) + " chains retired)\n\n";

    TextTable t({"stall reason", "cycles", "share"});
    for (const StallBucket &b : buckets)
        t.addRow({b.reason, fmtI(b.cycles), fmtPct(b.fraction)});
    t.addRule();
    t.addRow({"attributed", fmtI(attributedCycles),
              fmtPct(totalCycles ? static_cast<double>(attributedCycles) /
                                       totalCycles
                                 : 0.0)});
    out += t.render();

    size_t n = std::min(top_chains, worstChains.size());
    if (n) {
        out += "\nWorst-stalled chains:\n";
        TextTable w({"chain", "head", "data", "input", "structural",
                     "worst cause"});
        for (size_t i = 0; i < n; ++i) {
            const ChainProfile &p = worstChains[i];
            std::string cause;
            if (p.worstDataStall >= p.worstStructStall &&
                p.worstDataStall > 0) {
                cause = std::string("RAW on ") +
                        memIdMnemonic(p.dataStallMem) + "[" +
                        std::to_string(p.dataStallAddr) + "]";
            } else if (p.worstStructStall > 0) {
                cause = std::string("busy ") + resClassName(p.structRes);
            } else if (p.inputStall > 0) {
                cause = "awaiting netq input";
            } else {
                cause = "-";
            }
            // Appending, not "@" + std::string&&: GCC 12 at -O3 warns
            // a false -Wrestrict on that operator+.
            std::string head = "@";
            head += std::to_string(p.chain);
            w.addRow({std::move(head), p.label,
                      fmtI(p.dataStall), fmtI(p.inputStall),
                      fmtI(p.structStall), cause});
        }
        out += w.render();
    }
    return out;
}

Json
StallReport::toJson() const
{
    Json j = Json::object();
    j.set("total_cycles", totalCycles);
    j.set("attributed_cycles", attributedCycles);
    j.set("chains", chains);
    Json arr = Json::array();
    for (const StallBucket &b : buckets) {
        Json e = Json::object();
        e.set("reason", b.reason);
        e.set("cycles", b.cycles);
        e.set("fraction", b.fraction);
        arr.push(std::move(e));
    }
    j.set("buckets", std::move(arr));
    return j;
}

} // namespace obs
} // namespace bw
