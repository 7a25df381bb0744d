/**
 * @file
 * Tiered timing fidelity: one TimingModel interface, three tiers.
 *
 * BW timing is input-value-independent — simulated latency is a pure
 * function of (NpuConfig, compiled program, tile-beat schedule, input
 * arrivals, iteration count) — which makes both extrapolation and
 * memoization sound. The ladder:
 *
 *   - CycleAccurateModel: today's NpuTiming, unchanged. The ground
 *     truth every other tier is measured against.
 *   - EventDrivenModel ("fast"): runs the exact simulator for a short
 *     warmup, detects the steady-state iteration period from the
 *     per-iteration snapshots (completion-cycle deltas AND every
 *     busy-cycle/counter delta must repeat), then jumps straight to
 *     the end: the remaining iterations are replicas of the detected
 *     period shifted by its cycle length. Aperiodic runs (or runs with
 *     a pending input-arrival schedule) fall back to the exact
 *     simulator — the fast tier never guesses.
 *   - MemoTimingModel ("cached"): a decorator caching TimingResult +
 *     retired ChainProfile vectors keyed on (config, prologue/step
 *     program fingerprints, tile-beat schedule, input-arrival
 *     schedule, iterations). The first request pays the inner tier's
 *     cost; identical subsequent requests replay the cached profile in
 *     O(1), bit-identically.
 *
 * Select a tier with Fidelity (or the BW_TIMING_MODE env var:
 * "cycle" | "fast" | "cached") and build it with makeTimingModel().
 * Session::time/timeProfiled, serve::Engine, and bw::cluster all
 * thread the selection through.
 */

#ifndef BW_TIMING_TIMING_MODEL_H
#define BW_TIMING_TIMING_MODEL_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/npu_config.h"
#include "isa/program.h"
#include "obs/trace.h"
#include "timing/npu_timing.h"
#include "timing/result.h"

#include <mutex>

namespace bw {
namespace timing {

/** Timing-simulation fidelity tier. */
enum class Fidelity : uint8_t
{
    CycleAccurate = 0, //!< exact NpuTiming pipeline model
    Fast,              //!< event-driven steady-state extrapolation
    Cached,            //!< memoized cycle-accurate (bit-identical hits)
};

const char *fidelityName(Fidelity f);

/** Parse "cycle" | "cycle_accurate" | "fast" | "event" | "cached" |
 *  "memo" (case-sensitive). Returns false on anything else. */
bool parseFidelity(const std::string &s, Fidelity *out);

/** BW_TIMING_MODE env selection; @p fallback when unset or invalid
 *  (invalid values warn). */
Fidelity fidelityFromEnv(Fidelity fallback = Fidelity::CycleAccurate);

/** A timing run plus its retired-chain profiles under shared
 *  ownership, so per-request consumers (the serving engine's span /
 *  flight exports) can hold the profile without copying it. */
struct ProfiledRun
{
    TimingResult result;
    std::shared_ptr<const std::vector<obs::ChainProfile>> chains;
};

/**
 * One timing-simulation tier. The contract every implementation obeys:
 *
 *   - setTileBeats() state persists across runs (it is part of the
 *     compiled model, like the program).
 *   - setInputArrivals() applies to the *next* run only, then clears —
 *     an arrival schedule describes one request stream, and a stale
 *     schedule silently reused for a different run is exactly the bug
 *     the memo tier's arrival fingerprint exists to prevent.
 *   - run()/runProfiled() are deterministic for fixed inputs.
 */
class TimingModel
{
  public:
    virtual ~TimingModel() = default;

    virtual const NpuConfig &config() const = 0;
    virtual Fidelity fidelity() const = 0;

    /** Thin-tail-tile schedule (CompiledModel::tileBeats); persists
     *  across runs. */
    virtual void
    setTileBeats(std::unordered_map<uint32_t, unsigned> beats) = 0;

    /** NetQ arrival schedule for the next run() only. */
    virtual void setInputArrivals(std::vector<Cycles> arrivals) = 0;

    /** Simulate @p iterations executions of @p step after a one-shot
     *  @p prologue (may be empty). */
    virtual TimingResult run(const Program &prologue, const Program &step,
                             unsigned iterations) = 0;

    /** As run(), appending retired-chain profiles to @p chains. */
    virtual TimingResult
    runProfiled(const Program &prologue, const Program &step,
                unsigned iterations,
                std::vector<obs::ChainProfile> *chains) = 0;

    /** Convenience: no prologue. */
    TimingResult
    run(const Program &step, unsigned iterations = 1)
    {
        return run(Program(), step, iterations);
    }

    /**
     * runProfiled() with the chain vector under shared ownership. The
     * memo tier overrides this to hand out its cached vector without a
     * copy; the default wraps a fresh profiled run.
     */
    virtual ProfiledRun runShared(const Program &prologue,
                                  const Program &step,
                                  unsigned iterations);
};

/** Tier 0: the exact pipeline model (wraps one NpuTiming). */
class CycleAccurateModel : public TimingModel
{
  public:
    explicit CycleAccurateModel(const NpuConfig &cfg) : sim_(cfg) {}

    const NpuConfig &config() const override { return sim_.config(); }
    Fidelity fidelity() const override { return Fidelity::CycleAccurate; }

    void
    setTileBeats(std::unordered_map<uint32_t, unsigned> beats) override
    {
        sim_.setTileBeats(std::move(beats));
    }

    void setInputArrivals(std::vector<Cycles> arrivals) override;

    TimingResult run(const Program &prologue, const Program &step,
                     unsigned iterations) override;
    TimingResult
    runProfiled(const Program &prologue, const Program &step,
                unsigned iterations,
                std::vector<obs::ChainProfile> *chains) override;

    /** The wrapped simulator — attach trace sinks / metrics here.
     *  Arrivals set directly on it bypass the next-run-only contract
     *  (they are consumed FIFO exactly as before this class existed). */
    NpuTiming &sim() { return sim_; }

  private:
    /** Apply pending arrivals, run @p body, restore the no-arrivals
     *  state. Arrivals set directly on sim_ are left alone. */
    template <typename Fn> TimingResult withArrivals(Fn &&body);

    NpuTiming sim_;
    std::vector<Cycles> pendingArrivals_;
    bool arrivalsSet_ = false;
};

/** Tier 1: event-driven steady-state extrapolation. */
class EventDrivenModel : public TimingModel
{
  public:
    struct Options
    {
        /** Exact-simulator iterations before extrapolating. Must cover
         *  pipeline fill plus stablePeriods * maxPeriod steady
         *  iterations; raise it for workloads with longer warmup. */
        unsigned warmupIterations = 16;
        /** Longest iteration period considered (cycle ends may repeat
         *  with period > 1 when resources interleave across steps). */
        unsigned maxPeriod = 4;
        /** Consecutive periods that must match exactly (ends, busy
         *  cycles, and all counters) before extrapolating. */
        unsigned stablePeriods = 3;
    };

    explicit EventDrivenModel(const NpuConfig &cfg)
        : EventDrivenModel(cfg, Options())
    {
    }
    EventDrivenModel(const NpuConfig &cfg, Options opt);

    const NpuConfig &config() const override { return sim_.config(); }
    Fidelity fidelity() const override { return Fidelity::Fast; }

    void
    setTileBeats(std::unordered_map<uint32_t, unsigned> beats) override
    {
        sim_.setTileBeats(std::move(beats));
    }

    void setInputArrivals(std::vector<Cycles> arrivals) override;

    TimingResult run(const Program &prologue, const Program &step,
                     unsigned iterations) override;
    TimingResult
    runProfiled(const Program &prologue, const Program &step,
                unsigned iterations,
                std::vector<obs::ChainProfile> *chains) override;

    const Options &options() const { return opt_; }
    /** Runs served by extrapolation vs. exact fallback (diagnostics). */
    uint64_t extrapolatedRuns() const { return extrapolated_; }
    uint64_t exactFallbacks() const { return fallbacks_; }

  private:
    TimingResult runImpl(const Program &prologue, const Program &step,
                         unsigned iterations,
                         std::vector<obs::ChainProfile> *chains);

    /** Smallest period whose snapshot deltas repeat stablePeriods
     *  times at the warmup tail; 0 when none qualifies. */
    unsigned detectPeriod(
        const std::vector<NpuTiming::IterationSnapshot> &snaps) const;

    NpuTiming sim_;
    Options opt_;
    std::vector<Cycles> pendingArrivals_;
    bool arrivalsSet_ = false;
    uint64_t extrapolated_ = 0;
    uint64_t fallbacks_ = 0;
};

/**
 * Tier 2: memoizing decorator. Thread-safe; cache hits return results
 * bit-identical to the first miss (the miss path always runs the inner
 * tier profiled, which is cycle-identical to an unprofiled run).
 */
class MemoTimingModel : public TimingModel
{
  public:
    explicit MemoTimingModel(std::unique_ptr<TimingModel> inner);

    const NpuConfig &config() const override { return inner_->config(); }
    Fidelity fidelity() const override { return Fidelity::Cached; }

    /** Re-fingerprints the schedule: a different beat map can never
     *  hit an entry cached under the old one. */
    void
    setTileBeats(std::unordered_map<uint32_t, unsigned> beats) override;

    /** Fingerprinted into the next run's cache key: a hit can never
     *  return timing for a different arrival schedule. */
    void setInputArrivals(std::vector<Cycles> arrivals) override;

    TimingResult run(const Program &prologue, const Program &step,
                     unsigned iterations) override;
    TimingResult
    runProfiled(const Program &prologue, const Program &step,
                unsigned iterations,
                std::vector<obs::ChainProfile> *chains) override;
    ProfiledRun runShared(const Program &prologue, const Program &step,
                          unsigned iterations) override;

    TimingModel &inner() { return *inner_; }
    uint64_t hits() const;
    uint64_t misses() const;
    size_t entries() const;
    void clearCache();

  private:
    struct Key
    {
        uint64_t prologueFp = 0;
        uint64_t stepFp = 0;
        uint64_t beatsFp = 0;
        uint64_t arrivalsFp = 0;
        unsigned iterations = 0;

        bool
        operator==(const Key &o) const
        {
            return prologueFp == o.prologueFp && stepFp == o.stepFp &&
                   beatsFp == o.beatsFp && arrivalsFp == o.arrivalsFp &&
                   iterations == o.iterations;
        }
    };

    struct KeyHash
    {
        size_t operator()(const Key &k) const;
    };

    struct Entry
    {
        TimingResult result;
        std::shared_ptr<const std::vector<obs::ChainProfile>> chains;
    };

    /** Look up (or simulate and insert) the entry for this run. */
    const Entry &lookup(const Program &prologue, const Program &step,
                        unsigned iterations);

    std::unique_ptr<TimingModel> inner_;
    uint64_t configFp_ = 0; //!< seed folded into every key hash

    mutable std::mutex mu_;
    std::unordered_map<Key, Entry, KeyHash> cache_;
    uint64_t beatsFp_ = 0;
    std::vector<Cycles> pendingArrivals_;
    bool arrivalsSet_ = false;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Build a tier: CycleAccurate -> CycleAccurateModel, Fast ->
 * EventDrivenModel (default Options),
 * Cached -> MemoTimingModel over a CycleAccurateModel (so hits are
 * bit-identical to ground truth).
 */
std::unique_ptr<TimingModel> makeTimingModel(Fidelity f,
                                             const NpuConfig &cfg);

/** Order-independent fingerprint of a tile-beat schedule. */
uint64_t tileBeatsFingerprint(
    const std::unordered_map<uint32_t, unsigned> &beats);

/** Sequence fingerprint of a program (op, mem, addr, value). */
uint64_t programFingerprint(const Program &prog);

/** Fingerprint of the timing-relevant NpuConfig fields. */
uint64_t configFingerprint(const NpuConfig &cfg);

} // namespace timing
} // namespace bw

#endif // BW_TIMING_TIMING_MODEL_H
