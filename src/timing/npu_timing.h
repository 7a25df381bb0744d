/**
 * @file
 * The BW NPU timing simulator (Section V microarchitecture).
 *
 * Models, at native-vector granularity, the flow of instruction chains
 * through the distributed microarchitecture:
 *
 *   scalar control processor (1 compound instruction / dispatchInterval
 *   cycles) -> top-level scheduler -> hierarchical decode & dispatch ->
 *   { MVM: matrix-vector tile engines (static MRF-bank tile assignment,
 *     lanes-wide dot-product engines, accumulation tree, cross-tile
 *     add-reduction unit) ; MFUs: per-unit crossbar-connected add/sub,
 *     multiply, activation function units } -> vector arbitration
 *   network -> register files / network queues.
 *
 * Structural hazards are modeled by per-resource occupancy timelines
 * (every resource is busy nativeDim/lanes cycles per native vector it
 * streams), and data hazards by a scoreboard of per-entry ready times.
 * Timing is data-independent: the simulator consumes the compiled
 * program, not tensor values, so multi-thousand-timestep RNN serving
 * simulates in milliseconds.
 */

#ifndef BW_TIMING_NPU_TIMING_H
#define BW_TIMING_NPU_TIMING_H

#include <deque>
#include <unordered_map>
#include <vector>

#include "arch/npu_config.h"
#include "isa/program.h"
#include "metrics/metrics.h"
#include "obs/trace.h"
#include "timing/resources.h"
#include "timing/result.h"
#include "timing/scoreboard.h"

namespace bw {
namespace timing {

/** Cycle-level performance model of one BW NPU instance. */
class NpuTiming
{
  public:
    explicit NpuTiming(const NpuConfig &cfg);

    const NpuConfig &config() const { return cfg_; }

    /**
     * Provide arrival cycles for NetQ input vectors. Each v_rd(NetQ)
     * consumes arrivals in FIFO order; when the schedule is exhausted,
     * further inputs are treated as already buffered (arrival cycle 0).
     * Used by the serving runtime to model request streams.
     */
    void setInputArrivals(std::vector<Cycles> arrivals);

    /**
     * Register thin tail tiles: per MRF entry, the number of streaming
     * beats (entries absent take the full nativeDim/lanes). Produced by
     * the compiler (CompiledModel::tileBeats).
     */
    void setTileBeats(std::unordered_map<uint32_t, unsigned> beats);

    /**
     * Attach a structured trace sink (non-owning; nullptr detaches):
     * an obs::EventTrace to export, an obs::TextTraceSink for chain
     * lines on stderr. The sink receives one obs::TraceEvent per
     * resource busy interval and one obs::ChainProfile per retired
     * chain. Tracing is purely
     * observational: simulated cycle counts are identical with any sink
     * attached or none.
     */
    void setTraceSink(obs::TraceSink *sink);

    /**
     * Attach a live-metrics registry (non-owning; nullptr detaches).
     * Each run() then publishes hardware performance counters derived
     * from the per-resource occupancy timelines: one
     * bw_npu_utilization{resource=...} gauge per resource class (MVM
     * tile engines, MFUs, reduce units, VRF read/write ports, network
     * queues, DRAM, control processor) plus cumulative
     * bw_npu_{runs,cycles,chains,instructions,native_tile_ops}_total
     * counters. Publication happens after simulation completes and is
     * purely observational: simulated cycle counts are identical with
     * a registry attached or not (tested).
     */
    void setMetricsRegistry(metrics::Registry *registry);

    /**
     * Simulate @p iterations back-to-back executions of @p prog (an RNN
     * timestep program replayed T times, per the paper's control-
     * processor loop). State (resource timelines, scoreboard) is reset
     * at the start of each run() call; consecutive iterations within a
     * run overlap in the pipeline exactly as the hardware does.
     */
    TimingResult run(const Program &prog, unsigned iterations = 1);

    /**
     * As run(prog, iterations), preceded by a one-shot prologue program
     * (the compiler's software-pipelining prefetch; may be empty).
     */
    TimingResult run(const Program &prologue, const Program &step,
                     unsigned iterations);

    /**
     * As run(prologue, step, iterations), additionally appending the
     * retired-chain profiles to @p chains in retirement order (the
     * per-request span-tracing feed). Any attached trace sink still
     * sees every event; purely observational — simulated cycle counts
     * are identical to run() (tested).
     */
    TimingResult runProfiled(const Program &prologue, const Program &step,
                             unsigned iterations,
                             std::vector<obs::ChainProfile> *chains);

    /**
     * Cumulative simulator state sampled at an iteration boundary: the
     * iteration's completion cycle plus every busy-cycle aggregate and
     * counter the final TimingResult is assembled from. The
     * event-driven fast model (timing_model.h) diffs consecutive
     * snapshots to detect a steady-state period and extrapolate the
     * remaining iterations without simulating them.
     */
    struct IterationSnapshot
    {
        Cycles end = 0; //!< completion cycle (prologue / iteration end)
        Cycles niosBusy = 0;
        Cycles mvmBusy = 0;
        Cycles reduceBusy = 0;
        Cycles mfuBusy = 0;
        Cycles vrfReadBusy = 0;
        Cycles vrfWriteBusy = 0;
        Cycles netInBusy = 0;
        Cycles netOutBusy = 0;
        Cycles dramBusy = 0;
        OpCount dispatchedOps = 0;
        OpCount mvmOps = 0;
        uint64_t instructions = 0;
        uint64_t chains = 0;
        uint64_t nativeTileOps = 0;
        uint64_t matrixTilesMoved = 0;
        size_t outputCount = 0;
    };

    /**
     * Attach a per-iteration snapshot collector (non-owning; nullptr
     * detaches). While attached, each run() clears the vector and
     * appends one snapshot after the prologue (index 0) and one after
     * every iteration, so a run of N iterations yields N+1 snapshots.
     * Purely observational: simulated cycle counts are identical with
     * or without a collector (tested).
     */
    void setIterationSnapshots(std::vector<IterationSnapshot> *out);

  private:
    struct ChainCtx;

    /** Emit one busy interval to the attached sink (no-op when none). */
    void emit(obs::EventKind kind, obs::ResClass res, uint16_t res_index,
              Cycles start, Cycles end, MemId mem = MemId::InitialVrf,
              uint32_t addr = 0);

    /** Record a scoreboard (RAW) wait on the current chain. */
    void noteDataStall(Cycles earliest, Cycles dep, MemId mem,
                       uint32_t addr);
    /** Record a NetQ input-arrival wait on the current chain. */
    void noteInputStall(Cycles earliest, Cycles arrival);
    /** Record a busy-resource wait on the current chain. */
    void noteStructStall(Cycles requested, Cycles granted,
                         obs::ResClass res);

    Cycles execMatrixChain(const Program &prog, const Chain &c,
                           Cycles decode_done, TimingResult &res);
    Cycles execVectorChain(const Program &prog, const Chain &c,
                           Cycles decode_done, TimingResult &res);

    /** Pop the next NetQ input arrival (0 when pre-buffered). */
    Cycles nextInputArrival();

    /** Read one native block from a chain source. @p for_mvm selects
     *  the distributed MVM input path for InitialVrf reads. */
    Cycles readBlock(const Instruction &inst, uint32_t offset,
                     Cycles earliest, bool for_mvm);

    Server &readPort(MemId m);
    ServerArray &writePorts(MemId m);

    /** MFU op -> unit assignment for one chain (earliest-free greedy). */
    std::vector<size_t> assignMfuUnits(
        const std::vector<const Instruction *> &pointwise, Cycles at);

    NpuConfig cfg_;
    unsigned beats_;       //!< cycles per native vector on a stream
    unsigned dotLatency_;  //!< multiply + accumulation-tree latency
    TimingParams tp_;

    // Resources.
    Server nios_;
    Server topSched_;
    /** Second-level MVM scheduler: one decoder per tile engine, each
     *  dispatching one tile op per cycle (the HDD tree's E parallel
     *  tile-engine decoders, Fig. 6). */
    ServerArray mvmSched_;
    ServerArray engines_;
    /** Cross-tile accumulation: per-tile-engine accumulation units feed
     *  the add-reduction stage, so reduction bandwidth scales with the
     *  engine count (Fig. 6). */
    ServerArray reduceUnits_;
    ServerArray mfuUnits_; //!< [mfu * 3 + class]
    /**
     * InitialVrf bandwidth is physically distributed across the
     * per-tile-engine input VRFs (Fig. 5), so MVM input streaming and
     * MFU-bound chain reads do not contend for one port.
     */
    Server ivrfReadMvm_;
    Server ivrfRead_;
    Server asvrfRead_;
    Server mulvrfRead_;
    /** VRF write ports: the vector arbitration network carries one
     *  stream per tile engine into the distributed register-file
     *  banks, so write bandwidth scales with the engine count. */
    ServerArray ivrfWrite_, asvrfWrite_, mulvrfWrite_;
    Server netIn_, netOut_;
    Server dram_;

    Scoreboard board_;
    std::deque<Cycles> inputArrivals_;
    std::unordered_map<uint32_t, unsigned> tileBeats_;

    /** Publish per-run hardware counters to the attached registry. */
    void publishMetrics(const TimingResult &res);

    /** Append one iteration snapshot (no-op when none attached). */
    void captureSnapshot(const TimingResult &res, Cycles end);

    /** Iteration-snapshot collector (null = off, the default). */
    std::vector<IterationSnapshot> *snaps_ = nullptr;

    /** Active sink (null = tracing off, the zero-cost default). */
    obs::TraceSink *sink_ = nullptr;
    /** Live-metrics registry (null = publishing off). */
    metrics::Registry *metrics_ = nullptr;
    /** Profile of the chain currently executing (valid while tracing). */
    ChainCtx *ctx_ = nullptr;
};

} // namespace timing
} // namespace bw

#endif // BW_TIMING_NPU_TIMING_H
