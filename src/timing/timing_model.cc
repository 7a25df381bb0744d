#include "timing/timing_model.h"

#include <algorithm>

#include "common/env_doc.h"
#include "common/logging.h"

namespace bw {
namespace timing {

// --- Fidelity selection ---

const char *
fidelityName(Fidelity f)
{
    switch (f) {
      case Fidelity::CycleAccurate: return "cycle_accurate";
      case Fidelity::Fast: return "fast";
      case Fidelity::Cached: return "cached";
      default: BW_PANIC("bad Fidelity %d", static_cast<int>(f));
    }
}

bool
parseFidelity(const std::string &s, Fidelity *out)
{
    if (s == "cycle" || s == "cycle_accurate" || s == "accurate") {
        *out = Fidelity::CycleAccurate;
        return true;
    }
    if (s == "fast" || s == "event") {
        *out = Fidelity::Fast;
        return true;
    }
    if (s == "cached" || s == "memo") {
        *out = Fidelity::Cached;
        return true;
    }
    return false;
}

Fidelity
fidelityFromEnv(Fidelity fallback)
{
    const char *v = envText("BW_TIMING_MODE");
    if (!v || !*v)
        return fallback;
    Fidelity f;
    if (parseFidelity(v, &f))
        return f;
    BW_WARN("BW_TIMING_MODE=%s ignored (want cycle|fast|cached)", v);
    return fallback;
}

// --- Fingerprints ---

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    // Fold eight bytes through FNV-1a.
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
programFingerprint(const Program &prog)
{
    uint64_t h = fnvMix(kFnvOffset, prog.size());
    for (const Instruction &inst : prog.instructions()) {
        h = fnvMix(h, static_cast<uint64_t>(inst.op));
        h = fnvMix(h, static_cast<uint64_t>(inst.mem));
        h = fnvMix(h, inst.addr);
        h = fnvMix(h, static_cast<uint64_t>(inst.value));
    }
    return h;
}

uint64_t
tileBeatsFingerprint(const std::unordered_map<uint32_t, unsigned> &beats)
{
    // unordered_map iteration order is unspecified, so combine the
    // per-entry hashes with a commutative sum.
    uint64_t h = fnvMix(kFnvOffset, beats.size());
    uint64_t sum = 0;
    for (const auto &[addr, b] : beats)
        sum += splitmix64((static_cast<uint64_t>(addr) << 32) | b);
    return fnvMix(h, sum);
}

uint64_t
configFingerprint(const NpuConfig &cfg)
{
    uint64_t h = kFnvOffset;
    h = fnvMix(h, cfg.nativeDim);
    h = fnvMix(h, cfg.lanes);
    h = fnvMix(h, cfg.tileEngines);
    h = fnvMix(h, static_cast<uint64_t>(cfg.precision.signBits));
    h = fnvMix(h, static_cast<uint64_t>(cfg.precision.expBits));
    h = fnvMix(h, static_cast<uint64_t>(cfg.precision.mantBits));
    h = fnvMix(h, cfg.mrfSize);
    h = fnvMix(h, cfg.mrfIndexSpace);
    h = fnvMix(h, cfg.initialVrfSize);
    h = fnvMix(h, cfg.addSubVrfSize);
    h = fnvMix(h, cfg.multiplyVrfSize);
    h = fnvMix(h, cfg.dramBytes);
    h = fnvMix(h, cfg.mfus);
    h = fnvMix(h, cfg.fusPerMfu);
    uint64_t clk;
    static_assert(sizeof(clk) == sizeof(cfg.clockMhz));
    __builtin_memcpy(&clk, &cfg.clockMhz, sizeof(clk));
    h = fnvMix(h, clk);
    const TimingParams &tp = cfg.timing;
    const unsigned fields[] = {
        tp.dispatchInterval, tp.topSchedLatency,  tp.chainInterval,
        tp.l2SchedLatency,   tp.decoderLatency,   tp.vrfReadLatency,
        tp.vrfWriteLatency,  tp.mvmMulLatency,    tp.accumTreeStageLatency,
        tp.reduceStageLatency, tp.mfuAddLatency,  tp.mfuMulLatency,
        tp.mfuActLatency,    tp.crossbarLatency,  tp.arbNetLatency,
        tp.vectorUnitBeats,  tp.netBeats,         tp.netqLatency,
        tp.dramLatency,      tp.dramBytesPerCycle,
    };
    for (unsigned f : fields)
        h = fnvMix(h, f);
    return h;
}

// --- TimingModel ---

ProfiledRun
TimingModel::runShared(const Program &prologue, const Program &step,
                       unsigned iterations)
{
    auto chains = std::make_shared<std::vector<obs::ChainProfile>>();
    ProfiledRun pr;
    pr.result = runProfiled(prologue, step, iterations, chains.get());
    pr.chains = std::move(chains);
    return pr;
}

// --- CycleAccurateModel ---

void
CycleAccurateModel::setInputArrivals(std::vector<Cycles> arrivals)
{
    pendingArrivals_ = std::move(arrivals);
    arrivalsSet_ = true;
}

template <typename Fn>
TimingResult
CycleAccurateModel::withArrivals(Fn &&body)
{
    bool applied = arrivalsSet_;
    if (applied)
        sim_.setInputArrivals(std::move(pendingArrivals_));
    TimingResult res = body();
    if (applied) {
        // Next-run-only contract: drop whatever the run left unconsumed
        // (NpuTiming's deque persists across runs by design).
        sim_.setInputArrivals({});
        pendingArrivals_.clear();
        arrivalsSet_ = false;
    }
    return res;
}

TimingResult
CycleAccurateModel::run(const Program &prologue, const Program &step,
                        unsigned iterations)
{
    return withArrivals(
        [&] { return sim_.run(prologue, step, iterations); });
}

TimingResult
CycleAccurateModel::runProfiled(const Program &prologue,
                                const Program &step, unsigned iterations,
                                std::vector<obs::ChainProfile> *chains)
{
    return withArrivals([&] {
        return sim_.runProfiled(prologue, step, iterations, chains);
    });
}

// --- EventDrivenModel ---

EventDrivenModel::EventDrivenModel(const NpuConfig &cfg, Options opt)
    : sim_(cfg), opt_(opt)
{
    opt_.warmupIterations = std::max(1u, opt_.warmupIterations);
    opt_.maxPeriod = std::max(1u, opt_.maxPeriod);
    opt_.stablePeriods = std::max(2u, opt_.stablePeriods);
}

void
EventDrivenModel::setInputArrivals(std::vector<Cycles> arrivals)
{
    pendingArrivals_ = std::move(arrivals);
    arrivalsSet_ = true;
}

unsigned
EventDrivenModel::detectPeriod(
    const std::vector<NpuTiming::IterationSnapshot> &snaps) const
{
    using Snap = NpuTiming::IterationSnapshot;
    size_t w = snaps.size() - 1; // last iteration index (snaps[0] = fill)
    auto delta_eq = [&](size_t i, size_t j, unsigned p) {
        // Compare the (i-p, i] period against the (j-p, j] period:
        // every aggregate the final result is assembled from must
        // advance identically, and each boundary inside the period must
        // land at the same offset.
        const Snap &a1 = snaps[i], &a0 = snaps[i - p];
        const Snap &b1 = snaps[j], &b0 = snaps[j - p];
        auto eq = [](auto x1, auto x0, auto y1, auto y0) {
            return x1 - x0 == y1 - y0;
        };
        for (unsigned k = 0; k <= p; ++k) {
            if (!eq(snaps[i - p + k].end, a0.end, snaps[j - p + k].end,
                    b0.end))
                return false;
        }
        return eq(a1.niosBusy, a0.niosBusy, b1.niosBusy, b0.niosBusy) &&
               eq(a1.mvmBusy, a0.mvmBusy, b1.mvmBusy, b0.mvmBusy) &&
               eq(a1.reduceBusy, a0.reduceBusy, b1.reduceBusy,
                  b0.reduceBusy) &&
               eq(a1.mfuBusy, a0.mfuBusy, b1.mfuBusy, b0.mfuBusy) &&
               eq(a1.vrfReadBusy, a0.vrfReadBusy, b1.vrfReadBusy,
                  b0.vrfReadBusy) &&
               eq(a1.vrfWriteBusy, a0.vrfWriteBusy, b1.vrfWriteBusy,
                  b0.vrfWriteBusy) &&
               eq(a1.netInBusy, a0.netInBusy, b1.netInBusy,
                  b0.netInBusy) &&
               eq(a1.netOutBusy, a0.netOutBusy, b1.netOutBusy,
                  b0.netOutBusy) &&
               eq(a1.dramBusy, a0.dramBusy, b1.dramBusy, b0.dramBusy) &&
               eq(a1.dispatchedOps, a0.dispatchedOps, b1.dispatchedOps,
                  b0.dispatchedOps) &&
               eq(a1.mvmOps, a0.mvmOps, b1.mvmOps, b0.mvmOps) &&
               eq(a1.instructions, a0.instructions, b1.instructions,
                  b0.instructions) &&
               eq(a1.chains, a0.chains, b1.chains, b0.chains) &&
               eq(a1.nativeTileOps, a0.nativeTileOps, b1.nativeTileOps,
                  b0.nativeTileOps) &&
               eq(a1.matrixTilesMoved, a0.matrixTilesMoved,
                  b1.matrixTilesMoved, b0.matrixTilesMoved) &&
               eq(a1.outputCount, a0.outputCount, b1.outputCount,
                  b0.outputCount);
    };
    for (unsigned p = 1; p <= opt_.maxPeriod; ++p) {
        // The earliest snapshot touched is w - stablePeriods*p; keep it
        // past index 0 so the pipeline-fill iteration never votes.
        if (static_cast<size_t>(opt_.stablePeriods) * p >= w)
            break;
        bool stable = true;
        for (unsigned k = 1; k + 1 <= opt_.stablePeriods && stable; ++k)
            stable = delta_eq(w, w - k * p, p);
        if (stable)
            return p;
    }
    return 0;
}

TimingResult
EventDrivenModel::run(const Program &prologue, const Program &step,
                      unsigned iterations)
{
    return runImpl(prologue, step, iterations, nullptr);
}

TimingResult
EventDrivenModel::runProfiled(const Program &prologue, const Program &step,
                              unsigned iterations,
                              std::vector<obs::ChainProfile> *chains)
{
    return runImpl(prologue, step, iterations, chains);
}

TimingResult
EventDrivenModel::runImpl(const Program &prologue, const Program &step,
                          unsigned iterations,
                          std::vector<obs::ChainProfile> *chains)
{
    unsigned warmup = opt_.warmupIterations;

    auto exact = [&](unsigned iters) {
        ++fallbacks_;
        if (arrivalsSet_) {
            sim_.setInputArrivals(std::move(pendingArrivals_));
        }
        TimingResult res = chains
                               ? sim_.runProfiled(prologue, step, iters,
                                                  chains)
                               : sim_.run(prologue, step, iters);
        if (arrivalsSet_) {
            sim_.setInputArrivals({});
            pendingArrivals_.clear();
            arrivalsSet_ = false;
        }
        return res;
    };

    // An arrival schedule is per-request, aperiodic state: the exact
    // model is the only sound tier for it. Short runs have nothing to
    // extrapolate.
    if (arrivalsSet_ || iterations <= warmup + 1)
        return exact(iterations);

    std::vector<NpuTiming::IterationSnapshot> snaps;
    sim_.setIterationSnapshots(&snaps);
    std::vector<obs::ChainProfile> warm_chains;
    TimingResult warm;
    try {
        warm = chains ? sim_.runProfiled(prologue, step, warmup,
                                         &warm_chains)
                      : sim_.run(prologue, step, warmup);
    } catch (...) {
        sim_.setIterationSnapshots(nullptr);
        throw;
    }
    sim_.setIterationSnapshots(nullptr);

    unsigned period = detectPeriod(snaps);
    if (period == 0)
        return exact(iterations); // aperiodic tail: never guess

    unsigned w = warmup;
    // Chains in one period of the step program (per-iteration chain
    // count is a program constant: one profile per non-scalar chain).
    uint64_t chainsPerPeriod =
        static_cast<uint64_t>(period) *
        (snaps[w].chains - snaps[w - 1].chains);

    // Chain-profile fields advance at different slopes: retire times
    // move with the execution period, but the control processor's
    // dispatch front is purely rate-limited and runs ahead, so its
    // timestamps (and the stalls measured against them) grow with
    // their own per-period deltas. Extrapolation is sound per field
    // and per position only when those deltas repeated over the last
    // three warmup periods — anything else falls back to exact.
    if (chains) {
        uint64_t hi = snaps[w].chains;
        // detectPeriod's stablePeriods*p < w guard keeps three full
        // periods of step chains inside the warmup (past the prologue).
        for (uint64_t ci = hi - chainsPerPeriod; ci < hi; ++ci) {
            const obs::ChainProfile &c2 = warm_chains[ci];
            const obs::ChainProfile &c1 =
                warm_chains[ci - chainsPerPeriod];
            const obs::ChainProfile &c0 =
                warm_chains[ci - 2 * chainsPerPeriod];
            auto lin = [](Cycles a2, Cycles a1, Cycles a0) {
                return a2 - a1 == a1 - a0;
            };
            bool ok =
                c2.chain == c1.chain && c1.chain == c0.chain &&
                c2.kind == c1.kind && c1.kind == c0.kind &&
                c2.dataStallMem == c1.dataStallMem &&
                c1.dataStallMem == c0.dataStallMem &&
                c2.dataStallAddr == c1.dataStallAddr &&
                c1.dataStallAddr == c0.dataStallAddr &&
                c2.structRes == c1.structRes &&
                c1.structRes == c0.structRes &&
                lin(c2.dispatchStart, c1.dispatchStart,
                    c0.dispatchStart) &&
                lin(c2.dispatchDone, c1.dispatchDone, c0.dispatchDone) &&
                lin(c2.decodeDone, c1.decodeDone, c0.decodeDone) &&
                lin(c2.done, c1.done, c0.done) &&
                lin(c2.dataStall, c1.dataStall, c0.dataStall) &&
                lin(c2.inputStall, c1.inputStall, c0.inputStall) &&
                lin(c2.structStall, c1.structStall, c0.structStall) &&
                lin(c2.worstDataStall, c1.worstDataStall,
                    c0.worstDataStall) &&
                lin(c2.worstStructStall, c1.worstStructStall,
                    c0.worstStructStall);
            if (!ok)
                return exact(iterations);
        }
        chains->insert(chains->end(), warm_chains.begin(),
                       warm_chains.end());
    }
    ++extrapolated_;

    // Steady state: iteration W+j replicates iteration m = W+j-q*P
    // (the matching phase inside the last warmup period) shifted by
    // q*D cycles, where D is the period's cycle length.
    unsigned remaining = iterations - w;
    Cycles d = snaps[w].end - snaps[w - period].end;

    TimingResult res = warm;
    res.iterationEnd.reserve(iterations);
    res.outputTimes.reserve(warm.outputTimes.size() +
                            static_cast<size_t>(remaining) *
                                (snaps[w].outputCount -
                                 snaps[w - 1].outputCount));
    if (chains)
        chains->reserve(chains->size() +
                        static_cast<size_t>(remaining) *
                            (snaps[w].chains - snaps[w - 1].chains));
    for (unsigned j = 1; j <= remaining; ++j) {
        unsigned q = (j + period - 1) / period;
        unsigned m = w + j - q * period;
        Cycles shift = static_cast<Cycles>(q) * d;
        res.iterationEnd.push_back(snaps[m].end + shift);
        for (size_t oi = snaps[m - 1].outputCount;
             oi < snaps[m].outputCount; ++oi)
            res.outputTimes.push_back(warm.outputTimes[oi] + shift);
        if (chains) {
            // m lies in the last warmup period, so each chain advances
            // by q times its own validated per-period field delta.
            for (uint64_t ci = snaps[m - 1].chains; ci < snaps[m].chains;
                 ++ci) {
                obs::ChainProfile p = warm_chains[ci];
                const obs::ChainProfile &prev =
                    warm_chains[ci - chainsPerPeriod];
                auto adv = [&](Cycles &field, Cycles prv) {
                    field += static_cast<Cycles>(q) * (field - prv);
                };
                adv(p.dispatchStart, prev.dispatchStart);
                adv(p.dispatchDone, prev.dispatchDone);
                adv(p.decodeDone, prev.decodeDone);
                adv(p.done, prev.done);
                adv(p.dataStall, prev.dataStall);
                adv(p.inputStall, prev.inputStall);
                adv(p.structStall, prev.structStall);
                adv(p.worstDataStall, prev.worstDataStall);
                adv(p.worstStructStall, prev.worstStructStall);
                chains->push_back(p);
            }
        }
    }
    if (!res.iterationEnd.empty())
        res.totalCycles =
            std::max(res.totalCycles, res.iterationEnd.back());

    // Counters advance by one period's delta per full period, plus the
    // partial period's prefix.
    unsigned full = remaining / period;
    unsigned rem = remaining % period;
    auto extrap = [&](auto at_w, auto at_wp, auto at_rem) {
        return at_w + static_cast<decltype(at_w)>(full) * (at_w - at_wp) +
               (at_rem - at_wp);
    };
    const auto &sw = snaps[w];
    const auto &sp = snaps[w - period];
    const auto &sr = snaps[w - period + rem];
    res.dispatchedOps = extrap(sw.dispatchedOps, sp.dispatchedOps,
                               sr.dispatchedOps);
    res.mvmOps = extrap(sw.mvmOps, sp.mvmOps, sr.mvmOps);
    res.instructionsDispatched =
        extrap(sw.instructions, sp.instructions, sr.instructions);
    res.chainsExecuted = extrap(sw.chains, sp.chains, sr.chains);
    res.nativeTileOps =
        extrap(sw.nativeTileOps, sp.nativeTileOps, sr.nativeTileOps);
    res.mvmBusyCycles = extrap(sw.mvmBusy, sp.mvmBusy, sr.mvmBusy);
    res.mfuBusyCycles = extrap(sw.mfuBusy, sp.mfuBusy, sr.mfuBusy);

    res.stats.set("nios_busy_cycles",
                  extrap(sw.niosBusy, sp.niosBusy, sr.niosBusy));
    res.stats.set("mvm_busy_cycles", res.mvmBusyCycles);
    res.stats.set("mfu_busy_cycles", res.mfuBusyCycles);
    res.stats.set("reduce_busy_cycles",
                  extrap(sw.reduceBusy, sp.reduceBusy, sr.reduceBusy));
    res.stats.set("net_in_busy_cycles",
                  extrap(sw.netInBusy, sp.netInBusy, sr.netInBusy));
    res.stats.set("net_out_busy_cycles",
                  extrap(sw.netOutBusy, sp.netOutBusy, sr.netOutBusy));
    res.stats.set("dram_busy_cycles",
                  extrap(sw.dramBusy, sp.dramBusy, sr.dramBusy));
    res.stats.set("vrf_read_busy_cycles",
                  extrap(sw.vrfReadBusy, sp.vrfReadBusy, sr.vrfReadBusy));
    res.stats.set("vrf_write_busy_cycles",
                  extrap(sw.vrfWriteBusy, sp.vrfWriteBusy,
                         sr.vrfWriteBusy));
    res.stats.set("instructions", res.instructionsDispatched);
    res.stats.set("chains", res.chainsExecuted);
    res.stats.set("native_tile_ops", res.nativeTileOps);
    uint64_t tiles = extrap(sw.matrixTilesMoved, sp.matrixTilesMoved,
                            sr.matrixTilesMoved);
    if (tiles > 0)
        res.stats.set("matrix_tiles_moved", tiles);
    return res;
}

// --- MemoTimingModel ---

MemoTimingModel::MemoTimingModel(std::unique_ptr<TimingModel> inner)
    : inner_(std::move(inner)),
      configFp_(configFingerprint(inner_->config()))
{
}

size_t
MemoTimingModel::KeyHash::operator()(const Key &k) const
{
    uint64_t h = kFnvOffset;
    h = fnvMix(h, k.prologueFp);
    h = fnvMix(h, k.stepFp);
    h = fnvMix(h, k.beatsFp);
    h = fnvMix(h, k.arrivalsFp);
    h = fnvMix(h, k.iterations);
    return static_cast<size_t>(h);
}

void
MemoTimingModel::setTileBeats(std::unordered_map<uint32_t, unsigned> beats)
{
    std::lock_guard<std::mutex> lk(mu_);
    beatsFp_ = tileBeatsFingerprint(beats);
    inner_->setTileBeats(std::move(beats));
}

void
MemoTimingModel::setInputArrivals(std::vector<Cycles> arrivals)
{
    std::lock_guard<std::mutex> lk(mu_);
    pendingArrivals_ = std::move(arrivals);
    arrivalsSet_ = true;
}

const MemoTimingModel::Entry &
MemoTimingModel::lookup(const Program &prologue, const Program &step,
                        unsigned iterations)
{
    // Caller holds mu_. References into cache_ stay valid: entries are
    // never erased (short of clearCache) and unordered_map references
    // survive rehash.
    Key k;
    k.prologueFp = fnvMix(configFp_, programFingerprint(prologue));
    k.stepFp = programFingerprint(step);
    k.beatsFp = beatsFp_;
    k.iterations = iterations;
    if (arrivalsSet_) {
        uint64_t h = fnvMix(kFnvOffset, pendingArrivals_.size() + 1);
        for (Cycles c : pendingArrivals_)
            h = fnvMix(h, c);
        k.arrivalsFp = h;
    }

    auto it = cache_.find(k);
    if (it != cache_.end()) {
        ++hits_;
        // The arrival schedule was consumed by this (cached) run.
        pendingArrivals_.clear();
        arrivalsSet_ = false;
        return it->second;
    }
    ++misses_;
    if (arrivalsSet_) {
        inner_->setInputArrivals(std::move(pendingArrivals_));
        pendingArrivals_.clear();
        arrivalsSet_ = false;
    }
    // Always pay the profiled run on a miss (cycle-identical to an
    // unprofiled run, tested) so later runProfiled() calls hit too.
    ProfiledRun pr = inner_->runShared(prologue, step, iterations);
    Entry e;
    e.result = std::move(pr.result);
    e.chains = std::move(pr.chains);
    return cache_.emplace(k, std::move(e)).first->second;
}

TimingResult
MemoTimingModel::run(const Program &prologue, const Program &step,
                     unsigned iterations)
{
    std::lock_guard<std::mutex> lk(mu_);
    return lookup(prologue, step, iterations).result;
}

TimingResult
MemoTimingModel::runProfiled(const Program &prologue, const Program &step,
                             unsigned iterations,
                             std::vector<obs::ChainProfile> *chains)
{
    std::lock_guard<std::mutex> lk(mu_);
    const Entry &e = lookup(prologue, step, iterations);
    if (chains && e.chains)
        chains->insert(chains->end(), e.chains->begin(), e.chains->end());
    return e.result;
}

ProfiledRun
MemoTimingModel::runShared(const Program &prologue, const Program &step,
                           unsigned iterations)
{
    std::lock_guard<std::mutex> lk(mu_);
    const Entry &e = lookup(prologue, step, iterations);
    return ProfiledRun{e.result, e.chains};
}

uint64_t
MemoTimingModel::hits() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return hits_;
}

uint64_t
MemoTimingModel::misses() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return misses_;
}

size_t
MemoTimingModel::entries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache_.size();
}

void
MemoTimingModel::clearCache()
{
    std::lock_guard<std::mutex> lk(mu_);
    cache_.clear();
}

// --- Factory ---

std::unique_ptr<TimingModel>
makeTimingModel(Fidelity f, const NpuConfig &cfg)
{
    switch (f) {
      case Fidelity::CycleAccurate:
        return std::make_unique<CycleAccurateModel>(cfg);
      case Fidelity::Fast:
        return std::make_unique<EventDrivenModel>(cfg);
      case Fidelity::Cached:
        return std::make_unique<MemoTimingModel>(
            std::make_unique<CycleAccurateModel>(cfg));
      default:
        BW_PANIC("bad Fidelity %d", static_cast<int>(f));
    }
}

} // namespace timing
} // namespace bw
