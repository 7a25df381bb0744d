/**
 * @file
 * Structured event tracing for the timing simulator (the observability
 * layer the paper's Fig. 7 / UDM-SDM methodology implies).
 *
 * The timing model emits one TraceEvent per busy interval of a modeled
 * resource (control-processor dispatch slots, scheduler decode, MVM tile
 * streaming, reduce and MFU unit occupancy, VRF ports, network queues,
 * DRAM) plus one ChainProfile per retired instruction chain carrying the
 * chain's wait breakdown. Sinks are pluggable: EventTrace ring-buffers
 * events for post-run export (Chrome trace JSON, stall attribution) and
 * TextTraceSink streams human-readable chain lines to a FILE (stderr by
 * default). Emission is disabled — a single null check — when no sink
 * is attached, and recording never perturbs simulated timing.
 */

#ifndef BW_OBS_TRACE_H
#define BW_OBS_TRACE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/mem_id.h"
#include "common/units.h"

namespace bw {
namespace obs {

/** Resource classes of the microarchitecture, one trace track each. */
enum class ResClass : uint8_t
{
    ControlProcessor = 0, //!< scalar control processor (dispatch)
    TopScheduler,         //!< top-level scheduler / decoder
    TileEngine,           //!< MVM matrix-vector tile engines
    ReduceUnit,           //!< cross-tile add-reduction units
    MfuUnit,              //!< multifunction units (add/mul/act)
    VrfPort,              //!< vector register-file read/write ports
    Network,              //!< network input/output queues
    Dram,                 //!< accelerator-local DRAM channel
    ServeQueue,           //!< serving-engine request queue (bw::serve)
    ServeWorker,          //!< serving-engine accelerator replica
    NumResClasses
};

const char *resClassName(ResClass r);

/** What a busy interval represents. */
enum class EventKind : uint8_t
{
    Dispatch = 0, //!< control processor streaming a chain's instructions
    Decode,       //!< top-level schedule + hierarchical decode
    TileStream,   //!< one MRF tile streamed through a dot-product engine
    Reduce,       //!< cross-tile accumulation of one output vector
    MfuOp,        //!< one vector through one MFU function unit
    VrfRead,      //!< vector read port occupancy
    VrfWrite,     //!< vector write port occupancy
    NetIn,        //!< network input queue transfer
    NetOut,       //!< network output queue transfer
    DramRead,     //!< DRAM read burst
    DramWrite,    //!< DRAM write burst
    QueueWait,    //!< request waiting in the serving-engine queue
    Service,      //!< request in service on an engine worker
    NumEventKinds
};

const char *eventKindName(EventKind k);

/** One busy interval of one resource instance. */
struct TraceEvent
{
    Cycles start = 0; //!< cycle service began
    Cycles end = 0;   //!< cycle the resource becomes free again
    EventKind kind = EventKind::Dispatch;
    ResClass res = ResClass::ControlProcessor;
    uint16_t resIndex = 0; //!< instance within the class (engine, unit, port)
    uint32_t chain = 0;    //!< owning chain (first-instruction index)
    MemId mem = MemId::InitialVrf; //!< memory space detail, when relevant
    uint32_t addr = 0;             //!< address detail, when relevant
};

/**
 * Wait breakdown of one retired chain: where its cycles went between
 * entering the control processor and its last write landing. The
 * categories mirror the paper's decomposition — instruction-delivery
 * cost (dispatch/decode), data hazards (scoreboard), input availability
 * (NetQ arrivals), and structural hazards (busy resources).
 */
struct ChainProfile
{
    uint32_t chain = 0;   //!< first-instruction index within the program
    char kind = 'V';      //!< 'V'ector, 'M'atrix
    std::string label;    //!< disassembly of the head instruction

    Cycles dispatchStart = 0; //!< control processor began streaming
    Cycles dispatchDone = 0;  //!< last compound instruction accepted
    Cycles decodeDone = 0;    //!< schedule + decode complete
    Cycles done = 0;          //!< last write of the chain landed

    /** Cycles spent waiting on a scoreboard (RAW) hazard. */
    Cycles dataStall = 0;
    /** Cycles spent waiting for NetQ input arrivals. */
    Cycles inputStall = 0;
    /** Cycles spent waiting for busy resources (structural hazards). */
    Cycles structStall = 0;

    /** Worst single data-hazard wait and the register it waited on. */
    Cycles worstDataStall = 0;
    MemId dataStallMem = MemId::InitialVrf;
    uint32_t dataStallAddr = 0;
    /** Worst single structural wait and the resource responsible. */
    Cycles worstStructStall = 0;
    ResClass structRes = ResClass::ControlProcessor;
};

/** A chain's cycles outside its three stall kinds, each clamped at 0. */
struct ChainCycles
{
    Cycles dispatch = 0; //!< dispatchStart -> dispatchDone
    Cycles decode = 0;   //!< dispatchDone -> decodeDone
    Cycles compute = 0;  //!< decodeDone -> done, less the stalls
};

/** The one split of a ChainProfile into dispatch, decode and compute,
 *  shared by the stall report and the chain[i] span leaves. */
inline ChainCycles
chainCycles(const ChainProfile &p)
{
    ChainCycles c;
    c.dispatch = p.dispatchDone > p.dispatchStart
                     ? p.dispatchDone - p.dispatchStart
                     : 0;
    c.decode =
        p.decodeDone > p.dispatchDone ? p.decodeDone - p.dispatchDone : 0;
    Cycles body = p.done > p.decodeDone ? p.done - p.decodeDone : 0;
    Cycles stalls = p.dataStall + p.inputStall + p.structStall;
    c.compute = body > stalls ? body - stalls : 0;
    return c;
}

/** Receiver of trace events; attach to NpuTiming::setTraceSink(). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One resource busy interval. */
    virtual void event(const TraceEvent &e) = 0;

    /** One chain retired (after its last write). */
    virtual void chainRetired(const ChainProfile &p) { (void)p; }
};

/**
 * Ring-buffered in-memory trace. Keeps the most recent @p capacity
 * events (oldest dropped first) and every chain profile; feed to
 * chromeTraceJson() / buildStallReport() after the run.
 */
class EventTrace : public TraceSink
{
  public:
    explicit EventTrace(size_t capacity = kDefaultCapacity);

    void event(const TraceEvent &e) override;
    void chainRetired(const ChainProfile &p) override;

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> events() const;

    const std::vector<ChainProfile> &chains() const { return chains_; }

    /** Total events offered to the sink (including dropped). */
    uint64_t emitted() const { return emitted_; }
    /** Events evicted from the ring. */
    uint64_t dropped() const
    {
        return emitted_ - std::min<uint64_t>(emitted_, ring_.size());
    }
    size_t capacity() const { return capacity_; }

    void clear();

    static constexpr size_t kDefaultCapacity = 1u << 20;

  private:
    size_t capacity_;
    size_t head_ = 0; //!< next slot to overwrite once the ring is full
    uint64_t emitted_ = 0;
    std::vector<TraceEvent> ring_;
    std::vector<ChainProfile> chains_;
};

/**
 * Streaming text sink: prints one line per retired chain (and, when
 * @p verbose, one line per event): a debugging aid, attached with
 * NpuTiming::setTraceSink().
 */
class TextTraceSink : public TraceSink
{
  public:
    explicit TextTraceSink(std::FILE *out = stderr, bool verbose = false)
        : out_(out), verbose_(verbose)
    {
    }

    void event(const TraceEvent &e) override;
    void chainRetired(const ChainProfile &p) override;

  private:
    std::FILE *out_;
    bool verbose_;
};

} // namespace obs
} // namespace bw

#endif // BW_OBS_TRACE_H
