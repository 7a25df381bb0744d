#include "timing/npu_timing.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"
#include "isa/analysis.h"
#include "isa/validate.h"

namespace bw {
namespace timing {

namespace {

/** Class index within an MFU: 0 = add/sub, 1 = multiply, 2 = activation. */
int
mfuClassIndex(Opcode op)
{
    switch (opcodeInfo(op).unit) {
      case UnitClass::MfuAddSub: return 0;
      case UnitClass::MfuMul: return 1;
      case UnitClass::MfuAct: return 2;
      default: BW_PANIC("%s is not an MFU op", opcodeName(op));
    }
}

} // namespace

/** Observability state for the chain currently in flight. */
struct NpuTiming::ChainCtx
{
    obs::ChainProfile prof;
};

NpuTiming::NpuTiming(const NpuConfig &cfg)
    : cfg_(cfg), beats_(cfg.nativeVectorBeats()), tp_(cfg.timing),
      mvmSched_(cfg.tileEngines), engines_(cfg.tileEngines),
      reduceUnits_(cfg.tileEngines), mfuUnits_(cfg.mfus * 3),
      ivrfWrite_(cfg.tileEngines), asvrfWrite_(cfg.tileEngines),
      mulvrfWrite_(cfg.tileEngines)
{
    cfg_.validate();
    dotLatency_ = tp_.mvmMulLatency +
                  ceilLog2(std::max(2u, cfg_.lanes)) *
                      tp_.accumTreeStageLatency +
                  1;
}

void
NpuTiming::setTraceSink(obs::TraceSink *sink)
{
    sink_ = sink;
}

void
NpuTiming::setMetricsRegistry(metrics::Registry *registry)
{
    metrics_ = registry;
}

void
NpuTiming::publishMetrics(const TimingResult &res)
{
    metrics::Registry &reg = *metrics_;
    double total = static_cast<double>(res.totalCycles);
    auto util = [&](const char *resource, Cycles busy, size_t units) {
        double u = total > 0 && units > 0
                       ? static_cast<double>(busy) /
                             (total * static_cast<double>(units))
                       : 0.0;
        reg.gauge("bw_npu_utilization",
                  "Occupancy fraction of one NPU resource class over "
                  "the most recent timing run",
                  {{"resource", resource}})
            .set(u);
    };
    util("control_processor", nios_.busyCycles(), 1);
    util("mvm_tile_engines", engines_.totalBusyCycles(),
         engines_.size());
    util("reduce_units", reduceUnits_.totalBusyCycles(),
         reduceUnits_.size());
    util("mfu_units", mfuUnits_.totalBusyCycles(), mfuUnits_.size());
    util("vrf_read_ports",
         ivrfRead_.busyCycles() + asvrfRead_.busyCycles() +
             mulvrfRead_.busyCycles(),
         3);
    util("vrf_write_ports",
         ivrfWrite_.totalBusyCycles() + asvrfWrite_.totalBusyCycles() +
             mulvrfWrite_.totalBusyCycles(),
         ivrfWrite_.size() + asvrfWrite_.size() + mulvrfWrite_.size());
    util("net_in", netIn_.busyCycles(), 1);
    util("net_out", netOut_.busyCycles(), 1);
    util("dram", dram_.busyCycles(), 1);

    const char *help = "Cumulative timing-simulator totals";
    reg.counter("bw_npu_runs_total", help).inc();
    reg.counter("bw_npu_cycles_total", help).add(res.totalCycles);
    reg.counter("bw_npu_chains_total", help).add(res.chainsExecuted);
    reg.counter("bw_npu_instructions_total", help)
        .add(res.instructionsDispatched);
    reg.counter("bw_npu_native_tile_ops_total", help)
        .add(res.nativeTileOps);
}

void
NpuTiming::emit(obs::EventKind kind, obs::ResClass res, uint16_t res_index,
                Cycles start, Cycles end, MemId mem, uint32_t addr)
{
    if (!sink_)
        return;
    obs::TraceEvent e;
    e.start = start;
    e.end = end;
    e.kind = kind;
    e.res = res;
    e.resIndex = res_index;
    e.chain = ctx_ ? ctx_->prof.chain : 0;
    e.mem = mem;
    e.addr = addr;
    sink_->event(e);
}

void
NpuTiming::noteDataStall(Cycles earliest, Cycles dep, MemId mem,
                         uint32_t addr)
{
    if (!ctx_ || dep <= earliest)
        return;
    Cycles w = dep - earliest;
    ctx_->prof.dataStall += w;
    if (w > ctx_->prof.worstDataStall) {
        ctx_->prof.worstDataStall = w;
        ctx_->prof.dataStallMem = mem;
        ctx_->prof.dataStallAddr = addr;
    }
}

void
NpuTiming::noteInputStall(Cycles earliest, Cycles arrival)
{
    if (!ctx_ || arrival <= earliest)
        return;
    ctx_->prof.inputStall += arrival - earliest;
}

void
NpuTiming::noteStructStall(Cycles requested, Cycles granted,
                           obs::ResClass res)
{
    if (!ctx_ || granted <= requested)
        return;
    Cycles w = granted - requested;
    ctx_->prof.structStall += w;
    if (w > ctx_->prof.worstStructStall) {
        ctx_->prof.worstStructStall = w;
        ctx_->prof.structRes = res;
    }
}

void
NpuTiming::setInputArrivals(std::vector<Cycles> arrivals)
{
    inputArrivals_.assign(arrivals.begin(), arrivals.end());
}

void
NpuTiming::setTileBeats(std::unordered_map<uint32_t, unsigned> beats)
{
    tileBeats_ = std::move(beats);
}

void
NpuTiming::setIterationSnapshots(std::vector<IterationSnapshot> *out)
{
    snaps_ = out;
}

void
NpuTiming::captureSnapshot(const TimingResult &res, Cycles end)
{
    if (!snaps_)
        return;
    IterationSnapshot s;
    s.end = end;
    s.niosBusy = nios_.busyCycles();
    s.mvmBusy = engines_.totalBusyCycles();
    s.reduceBusy = reduceUnits_.totalBusyCycles();
    s.mfuBusy = mfuUnits_.totalBusyCycles();
    s.vrfReadBusy = ivrfRead_.busyCycles() + asvrfRead_.busyCycles() +
                    mulvrfRead_.busyCycles();
    s.vrfWriteBusy = ivrfWrite_.totalBusyCycles() +
                     asvrfWrite_.totalBusyCycles() +
                     mulvrfWrite_.totalBusyCycles();
    s.netInBusy = netIn_.busyCycles();
    s.netOutBusy = netOut_.busyCycles();
    s.dramBusy = dram_.busyCycles();
    s.dispatchedOps = res.dispatchedOps;
    s.mvmOps = res.mvmOps;
    s.instructions = res.instructionsDispatched;
    s.chains = res.chainsExecuted;
    s.nativeTileOps = res.nativeTileOps;
    s.matrixTilesMoved = res.stats.counter("matrix_tiles_moved");
    s.outputCount = res.outputTimes.size();
    snaps_->push_back(s);
}

Cycles
NpuTiming::nextInputArrival()
{
    if (inputArrivals_.empty())
        return 0;
    Cycles t = inputArrivals_.front();
    inputArrivals_.pop_front();
    return t;
}

Server &
NpuTiming::readPort(MemId m)
{
    switch (m) {
      case MemId::InitialVrf: return ivrfRead_;
      case MemId::AddSubVrf: return asvrfRead_;
      case MemId::MultiplyVrf: return mulvrfRead_;
      default: BW_PANIC("%s has no vector read port", memIdName(m));
    }
}

ServerArray &
NpuTiming::writePorts(MemId m)
{
    switch (m) {
      case MemId::InitialVrf: return ivrfWrite_;
      case MemId::AddSubVrf: return asvrfWrite_;
      case MemId::MultiplyVrf: return mulvrfWrite_;
      default: BW_PANIC("%s has no vector write port", memIdName(m));
    }
}

Cycles
NpuTiming::readBlock(const Instruction &inst, uint32_t offset,
                     Cycles earliest, bool for_mvm)
{
    switch (inst.mem) {
      case MemId::InitialVrf:
      case MemId::AddSubVrf:
      case MemId::MultiplyVrf: {
        Cycles dep = board_.readyAt(inst.mem, inst.addr + offset, 1);
        noteDataStall(earliest, dep, inst.mem, inst.addr + offset);
        if (for_mvm) {
            // MVM input streaming reads the replicated per-tile-engine
            // input VRFs (Fig. 5): every dot-product unit has a
            // dedicated memory port, so there is no shared-port
            // contention — only read latency. The bandwidth cost is
            // paid on the (single-ported) multicast write side.
            ivrfReadMvm_.acquire(std::max(earliest, dep), 0);
            return std::max(earliest, dep) + tp_.vrfReadLatency;
        }
        Cycles s = readPort(inst.mem).acquire(std::max(earliest, dep),
                                              tp_.vectorUnitBeats);
        noteStructStall(std::max(earliest, dep), s, obs::ResClass::VrfPort);
        emit(obs::EventKind::VrfRead, obs::ResClass::VrfPort, 0, s,
             s + tp_.vectorUnitBeats, inst.mem, inst.addr + offset);
        return s + tp_.vrfReadLatency;
      }
      case MemId::NetQ: {
        Cycles arr = nextInputArrival();
        noteInputStall(earliest, arr);
        Cycles s = netIn_.acquire(std::max(earliest, arr), tp_.netBeats);
        noteStructStall(std::max(earliest, arr), s,
                        obs::ResClass::Network);
        emit(obs::EventKind::NetIn, obs::ResClass::Network, 0, s,
             s + tp_.netBeats);
        return s + tp_.netqLatency;
      }
      case MemId::Dram: {
        Cycles dep = board_.readyAt(MemId::Dram, inst.addr + offset, 1);
        noteDataStall(earliest, dep, MemId::Dram, inst.addr + offset);
        Cycles occ = std::max<Cycles>(
            1, static_cast<uint64_t>(cfg_.nativeDim) * 2 /
                   tp_.dramBytesPerCycle);
        Cycles s = dram_.acquire(std::max(earliest, dep), occ);
        noteStructStall(std::max(earliest, dep), s, obs::ResClass::Dram);
        emit(obs::EventKind::DramRead, obs::ResClass::Dram, 0, s, s + occ,
             MemId::Dram, inst.addr + offset);
        return s + tp_.dramLatency;
      }
      default:
        BW_PANIC("v_rd from %s", memIdName(inst.mem));
    }
}

std::vector<size_t>
NpuTiming::assignMfuUnits(const std::vector<const Instruction *> &pointwise,
                          Cycles at)
{
    (void)at;
    if (pointwise.empty())
        return {};

    // First-fit segmentation fixes the relative MFU order; the whole
    // segment sequence can then be shifted by the slack between the
    // required and the available number of MFUs. Choose the shift that
    // balances load (earliest next-free first unit), mirroring the
    // scheduler's freedom to bypass leading MFUs entirely.
    std::vector<int> segment(pointwise.size());
    int seg = -1;
    bool used[3] = {false, false, false};
    for (size_t j = 0; j < pointwise.size(); ++j) {
        int cls = mfuClassIndex(pointwise[j]->op);
        if (seg < 0 || used[cls]) {
            ++seg;
            used[0] = used[1] = used[2] = false;
        }
        used[cls] = true;
        segment[j] = seg;
    }
    unsigned needed = static_cast<unsigned>(seg + 1);
    BW_ASSERT(needed <= cfg_.mfus,
              "chain needs %u MFUs, config has %u (validation gap)",
              needed, cfg_.mfus);
    unsigned slack = cfg_.mfus - needed;

    unsigned best_shift = 0;
    Cycles best_free = ~0ull;
    for (unsigned shift = 0; shift <= slack; ++shift) {
        size_t u = (segment[0] + shift) * 3 +
                   mfuClassIndex(pointwise[0]->op);
        Cycles f = mfuUnits_[u].nextFree();
        if (f < best_free) {
            best_free = f;
            best_shift = shift;
        }
    }

    std::vector<size_t> units(pointwise.size());
    for (size_t j = 0; j < pointwise.size(); ++j) {
        units[j] = static_cast<size_t>(segment[j] + best_shift) * 3 +
                   mfuClassIndex(pointwise[j]->op);
    }
    return units;
}

Cycles
NpuTiming::execMatrixChain(const Program &prog, const Chain &c,
                           Cycles decode_done, TimingResult &res)
{
    const Instruction &rd = prog[c.first];
    const Instruction &wr = prog[c.first + 1];
    uint32_t tiles = c.rows * c.cols;
    unsigned n = cfg_.nativeDim;
    uint64_t tile_bytes = std::max<uint64_t>(
        1, static_cast<uint64_t>(n) * n * cfg_.precision.elemBits() / 8);
    Cycles done = decode_done;

    for (uint32_t t = 0; t < tiles; ++t) {
        Cycles ready;
        if (rd.mem == MemId::NetQ) {
            Cycles arr = nextInputArrival();
            noteInputStall(decode_done, arr);
            Cycles occ = static_cast<Cycles>(n) * tp_.netBeats;
            Cycles s = netIn_.acquire(std::max(decode_done, arr), occ);
            noteStructStall(std::max(decode_done, arr), s,
                            obs::ResClass::Network);
            emit(obs::EventKind::NetIn, obs::ResClass::Network, 0, s,
                 s + occ);
            ready = s + occ - 1 + tp_.netqLatency;
        } else { // Dram
            Cycles dep = board_.readyAt(MemId::Dram, rd.addr + t, 1);
            noteDataStall(decode_done, dep, MemId::Dram, rd.addr + t);
            Cycles occ = std::max<Cycles>(
                1, tile_bytes / tp_.dramBytesPerCycle);
            Cycles s = dram_.acquire(std::max(decode_done, dep), occ);
            noteStructStall(std::max(decode_done, dep), s,
                            obs::ResClass::Dram);
            emit(obs::EventKind::DramRead, obs::ResClass::Dram, 0, s,
                 s + occ, MemId::Dram, rd.addr + t);
            ready = s + occ - 1 + tp_.dramLatency;
        }

        Cycles wr_done;
        if (wr.mem == MemId::MatrixRf) {
            wr_done = ready + tp_.vrfWriteLatency;
            board_.setReady(MemId::MatrixRf, wr.addr + t, 1, wr_done);
        } else { // Dram
            Cycles occ = std::max<Cycles>(
                1, tile_bytes / tp_.dramBytesPerCycle);
            Cycles s = dram_.acquire(ready, occ);
            noteStructStall(ready, s, obs::ResClass::Dram);
            emit(obs::EventKind::DramWrite, obs::ResClass::Dram, 0, s,
                 s + occ, MemId::Dram, wr.addr + t);
            wr_done = s + occ - 1;
            board_.setReady(MemId::Dram, wr.addr + t, 1, wr_done);
        }
        done = std::max(done, wr_done);
        res.stats.inc("matrix_tiles_moved");
    }
    return done;
}

Cycles
NpuTiming::execVectorChain(const Program &prog, const Chain &c,
                           Cycles decode_done, TimingResult &res)
{
    uint32_t in_width = c.hasMvMul ? c.cols : c.rows;
    uint32_t out_width = c.rows;
    const Instruction &rd = prog[c.first];

    std::vector<const Instruction *> pointwise;
    std::vector<const Instruction *> writes;
    for (size_t i = c.first; i < c.end(); ++i) {
        const Instruction &inst = prog[i];
        if (isMfuOp(inst.op))
            pointwise.push_back(&inst);
        else if (inst.op == Opcode::VWr)
            writes.push_back(&inst);
    }

    // The chain is configured once and repeats iters times, advancing
    // v_rd/v_wr addresses by their width each repetition (mega-SIMD
    // iteration; weights and secondary operands stay fixed).
    Cycles chain_done = decode_done;
    for (uint32_t it = 0; it < c.iters; ++it) {
    uint32_t rd_off = it * in_width;
    uint32_t wr_off = it * out_width;

    // --- Head of pipe: source reads, then the MVM when present. ---
    std::vector<Cycles> vec_ready(out_width, 0);
    if (c.hasMvMul) {
        const Instruction &mv = prog[c.first + 1];
        Cycles mrf_ready = board_.readyAt(MemId::MatrixRf, mv.addr,
                                          c.rows * c.cols);
        noteDataStall(decode_done, mrf_ready, MemId::MatrixRf, mv.addr);

        std::vector<Cycles> block_ready(in_width);
        for (uint32_t b = 0; b < in_width; ++b) {
            // Broadcast over the vector arbitration network to engines.
            block_ready[b] =
                readBlock(rd, rd_off + b, decode_done, true) +
                tp_.arbNetLatency;
        }

        std::vector<Cycles> row_partials(out_width, 0);
        for (uint32_t r = 0; r < c.rows; ++r) {
            for (uint32_t cc = 0; cc < c.cols; ++cc) {
                uint32_t t = r * c.cols + cc;
                // The toolchain lays matrix tiles out across the MRF
                // banks to balance engine load (a fixed stride would
                // pile thin tail tiles onto a subset of engines):
                // model the placement as least-loaded engine choice.
                unsigned e = 0;
                for (unsigned k = 1; k < engines_.size(); ++k) {
                    if (engines_[k].nextFree() < engines_[e].nextFree())
                        e = k;
                }
                // Thin tail tiles stream in fewer beats.
                unsigned tb = beats_;
                auto tb_it = tileBeats_.find(mv.addr + t);
                if (tb_it != tileBeats_.end())
                    tb = tb_it->second;
                // Each engine's tile decoder dispatches one tile
                // op per cycle.
                Cycles sched = mvmSched_[e].acquire(decode_done, 1) + 1;
                Cycles earliest =
                    std::max({block_ready[cc], sched, mrf_ready});
                Cycles s = engines_[e].acquire(earliest, tb);
                noteStructStall(earliest, s, obs::ResClass::TileEngine);
                emit(obs::EventKind::TileStream,
                     obs::ResClass::TileEngine, static_cast<uint16_t>(e),
                     s, s + tb, MemId::MatrixRf, mv.addr + t);
                Cycles partial = s + tb - 1 + dotLatency_;
                row_partials[r] = std::max(row_partials[r], partial);
                ++res.nativeTileOps;
            }
        }

        unsigned reduce_lat =
            c.cols > 1 ? ceilLog2(c.cols) * tp_.reduceStageLatency : 0;
        for (uint32_t r = 0; r < out_width; ++r) {
            size_t unit = (static_cast<size_t>(wr_off) + r) %
                          reduceUnits_.size();
            Cycles s = reduceUnits_[unit].acquire(row_partials[r],
                                                  tp_.vectorUnitBeats);
            noteStructStall(row_partials[r], s, obs::ResClass::ReduceUnit);
            emit(obs::EventKind::Reduce, obs::ResClass::ReduceUnit,
                 static_cast<uint16_t>(unit), s, s + tp_.vectorUnitBeats);
            vec_ready[r] = s + reduce_lat + 1;
        }
    } else {
        for (uint32_t r = 0; r < out_width; ++r)
            vec_ready[r] = readBlock(rd, rd_off + r, decode_done, false);
    }

    // --- MFU stage: each output vector streams through the assigned
    //     function units in chain order. ---
    if (!pointwise.empty()) {
        auto units = assignMfuUnits(pointwise, decode_done);
        for (uint32_t r = 0; r < out_width; ++r) {
            Cycles t = vec_ready[r];
            for (size_t j = 0; j < pointwise.size(); ++j) {
                const Instruction &op = *pointwise[j];
                Cycles operand_ready = 0;
                if (opcodeInfo(op.op).hasIndex) {
                    uint32_t off =
                        c.strideOperands ? wr_off + r : r;
                    operand_ready =
                        board_.readyAt(op.mem, op.addr + off, 1);
                    noteDataStall(t, operand_ready, op.mem,
                                  op.addr + off);
                }
                Server &u = mfuUnits_[units[j]];
                Cycles s = u.acquire(std::max(t, operand_ready),
                                     tp_.vectorUnitBeats);
                noteStructStall(std::max(t, operand_ready), s,
                                obs::ResClass::MfuUnit);
                emit(obs::EventKind::MfuOp, obs::ResClass::MfuUnit,
                     static_cast<uint16_t>(units[j]), s,
                     s + tp_.vectorUnitBeats);
                Cycles lat;
                switch (mfuClassIndex(op.op)) {
                  case 0: lat = tp_.mfuAddLatency; break;
                  case 1: lat = tp_.mfuMulLatency; break;
                  default: lat = tp_.mfuActLatency; break;
                }
                t = s + lat + tp_.crossbarLatency;
            }
            vec_ready[r] = t;
        }
    }

    // --- Writeback over the vector arbitration network (multicast). ---
    for (const Instruction *w : writes) {
        for (uint32_t r = 0; r < out_width; ++r) {
            Cycles head = vec_ready[r] + tp_.arbNetLatency;
            Cycles done;
            switch (w->mem) {
              case MemId::NetQ: {
                Cycles s = netOut_.acquire(head, tp_.netBeats);
                noteStructStall(head, s, obs::ResClass::Network);
                emit(obs::EventKind::NetOut, obs::ResClass::Network, 1, s,
                     s + tp_.netBeats);
                done = s + tp_.netBeats - 1;
                res.outputTimes.push_back(done);
                break;
              }
              case MemId::Dram: {
                Cycles occ = std::max<Cycles>(
                    1, static_cast<uint64_t>(cfg_.nativeDim) * 2 /
                           tp_.dramBytesPerCycle);
                Cycles s = dram_.acquire(head, occ);
                noteStructStall(head, s, obs::ResClass::Dram);
                emit(obs::EventKind::DramWrite, obs::ResClass::Dram, 0, s,
                     s + occ, MemId::Dram, w->addr + wr_off + r);
                done = s + occ - 1 + tp_.dramLatency;
                board_.setReady(MemId::Dram, w->addr + wr_off + r, 1,
                                done);
                break;
              }
              default: {
                ServerArray &ports = writePorts(w->mem);
                size_t port = (static_cast<size_t>(wr_off) + r) %
                              ports.size();
                Cycles s = ports[port].acquire(head,
                                               tp_.vectorUnitBeats);
                noteStructStall(head, s, obs::ResClass::VrfPort);
                emit(obs::EventKind::VrfWrite, obs::ResClass::VrfPort,
                     static_cast<uint16_t>(port), s,
                     s + tp_.vectorUnitBeats, w->mem,
                     w->addr + wr_off + r);
                done = s + tp_.vectorUnitBeats - 1 + tp_.vrfWriteLatency;
                board_.setReady(w->mem, w->addr + wr_off + r, 1, done);
                break;
              }
            }
            chain_done = std::max(chain_done, done);
        }
    }
    } // iterations
    return chain_done;
}

TimingResult
NpuTiming::run(const Program &prog, unsigned iterations)
{
    return run(Program(), prog, iterations);
}

namespace {

/** Forwards to an inner sink while collecting retired-chain profiles. */
class ChainCollector : public obs::TraceSink
{
  public:
    ChainCollector(obs::TraceSink *inner,
                   std::vector<obs::ChainProfile> *out)
        : inner_(inner), out_(out)
    {
    }

    void
    event(const obs::TraceEvent &e) override
    {
        if (inner_)
            inner_->event(e);
    }

    void
    chainRetired(const obs::ChainProfile &p) override
    {
        if (out_)
            out_->push_back(p);
        if (inner_)
            inner_->chainRetired(p);
    }

  private:
    obs::TraceSink *inner_;
    std::vector<obs::ChainProfile> *out_;
};

} // namespace

TimingResult
NpuTiming::runProfiled(const Program &prologue, const Program &step,
                       unsigned iterations,
                       std::vector<obs::ChainProfile> *chains)
{
    // Swap in a forwarding collector for the duration of the run; the
    // previously attached sink keeps receiving everything.
    obs::TraceSink *saved = sink_;
    ChainCollector collector(saved, chains);
    sink_ = &collector;
    TimingResult res;
    try {
        res = run(prologue, step, iterations);
    } catch (...) {
        sink_ = saved;
        throw;
    }
    sink_ = saved;
    return res;
}

TimingResult
NpuTiming::run(const Program &prologue, const Program &step,
               unsigned iterations)
{
    checkProgram(prologue, cfg_);
    checkProgram(step, cfg_);
    auto pro_chains = prologue.chains();
    auto chains = step.chains();

    // Fresh machine state per run.
    nios_.reset();
    topSched_.reset();
    mvmSched_.reset();
    engines_.reset();
    reduceUnits_.reset();
    mfuUnits_.reset();
    ivrfReadMvm_.reset();
    ivrfRead_.reset();
    ivrfWrite_.reset();
    asvrfRead_.reset();
    asvrfWrite_.reset();
    mulvrfRead_.reset();
    mulvrfWrite_.reset();
    netIn_.reset();
    netOut_.reset();
    dram_.reset();
    board_.reset();

    TimingResult res;
    res.iterationEnd.reserve(iterations);

    auto exec_program = [&](const Program &prog,
                            const std::vector<Chain> &prog_chains) {
        Cycles last = 0;
        for (const Chain &c : prog_chains) {
            // The control processor streams the chain's instructions at
            // one compound instruction per dispatchInterval cycles.
            Cycles dispatch_start = 0;
            Cycles dispatch_done = 0;
            for (size_t k = 0; k < c.count; ++k) {
                Cycles s = nios_.acquire(0, tp_.dispatchInterval);
                if (k == 0)
                    dispatch_start = s;
                dispatch_done = s + tp_.dispatchInterval;
            }
            res.instructionsDispatched += c.count;

            if (c.kind == Chain::Kind::Scalar)
                continue;

            Cycles decode_done =
                topSched_.acquire(dispatch_done, tp_.chainInterval) +
                tp_.topSchedLatency + tp_.decoderLatency;
            if (c.hasMvMul)
                decode_done += tp_.l2SchedLatency;

            ChainCtx ctx;
            if (sink_) {
                ctx.prof.chain = static_cast<uint32_t>(c.first);
                ctx.prof.kind =
                    c.kind == Chain::Kind::Matrix ? 'M' : 'V';
                ctx.prof.label = prog[c.first].toString();
                ctx.prof.dispatchStart = dispatch_start;
                ctx.prof.dispatchDone = dispatch_done;
                ctx.prof.decodeDone = decode_done;
                ctx_ = &ctx;
                emit(obs::EventKind::Dispatch,
                     obs::ResClass::ControlProcessor, 0, dispatch_start,
                     dispatch_done);
                emit(obs::EventKind::Decode, obs::ResClass::TopScheduler,
                     0, dispatch_done, decode_done);
            }

            OpCount iter_mult =
                c.kind == Chain::Kind::Vector ? c.iters : 1;
            for (size_t i = c.first; i < c.end(); ++i) {
                OpCount ops =
                    instructionOps(prog[i], c.rows, c.cols, cfg_) *
                    iter_mult;
                res.dispatchedOps += ops;
                if (prog[i].op == Opcode::MvMul)
                    res.mvmOps += ops;
            }

            Cycles done = c.kind == Chain::Kind::Matrix
                              ? execMatrixChain(prog, c, decode_done, res)
                              : execVectorChain(prog, c, decode_done, res);
            if (sink_) {
                ctx.prof.done = done;
                sink_->chainRetired(ctx.prof);
                ctx_ = nullptr;
            }
            last = std::max(last, done);
            ++res.chainsExecuted;
        }
        return last;
    };

    if (snaps_) {
        snaps_->clear();
        snaps_->reserve(iterations + 1);
    }
    Cycles pro_end = exec_program(prologue, pro_chains);
    captureSnapshot(res, pro_end);
    for (unsigned it = 0; it < iterations; ++it) {
        Cycles iter_end = exec_program(step, chains);
        res.iterationEnd.push_back(iter_end);
        res.totalCycles = std::max(res.totalCycles, iter_end);
        captureSnapshot(res, iter_end);
    }

    res.mvmBusyCycles = engines_.totalBusyCycles();
    res.mfuBusyCycles = mfuUnits_.totalBusyCycles();
    res.stats.set("nios_busy_cycles", nios_.busyCycles());
    res.stats.set("mvm_busy_cycles", res.mvmBusyCycles);
    res.stats.set("mfu_busy_cycles", res.mfuBusyCycles);
    res.stats.set("reduce_busy_cycles", reduceUnits_.totalBusyCycles());
    res.stats.set("net_in_busy_cycles", netIn_.busyCycles());
    res.stats.set("net_out_busy_cycles", netOut_.busyCycles());
    res.stats.set("dram_busy_cycles", dram_.busyCycles());
    res.stats.set("vrf_read_busy_cycles",
                  ivrfRead_.busyCycles() + asvrfRead_.busyCycles() +
                      mulvrfRead_.busyCycles());
    res.stats.set("vrf_write_busy_cycles",
                  ivrfWrite_.totalBusyCycles() +
                      asvrfWrite_.totalBusyCycles() +
                      mulvrfWrite_.totalBusyCycles());
    res.stats.set("instructions", res.instructionsDispatched);
    res.stats.set("chains", res.chainsExecuted);
    res.stats.set("native_tile_ops", res.nativeTileOps);
    if (metrics_)
        publishMetrics(res);
    return res;
}

} // namespace timing
} // namespace bw
