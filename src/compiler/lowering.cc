#include "compiler/lowering.h"

#include <array>
#include <optional>

#include "common/bits.h"
#include "common/logging.h"
#include "isa/builder.h"
#include "isa/validate.h"

namespace bw {

namespace {

/** Index into per-node home array. */
enum HomeSpace : int
{
    HomeIvrf = 0,
    HomeAsvrf = 1,
    HomeMulvrf = 2,
    NumHomeSpaces = 3
};

MemId
homeMemId(int h)
{
    switch (h) {
      case HomeIvrf: return MemId::InitialVrf;
      case HomeAsvrf: return MemId::AddSubVrf;
      case HomeMulvrf: return MemId::MultiplyVrf;
      default: BW_PANIC("bad home %d", h);
    }
}

/** Home space required for the secondary operand of a binary GIR op. */
int
secondaryHome(GirOp op)
{
    return op == GirOp::Mul ? HomeMulvrf : HomeAsvrf;
}

/** ISA opcode class of a point-wise GIR op (for MFU budgeting). */
Opcode
pointwiseOpcode(GirOp op)
{
    switch (op) {
      case GirOp::Add: return Opcode::VvAdd;
      case GirOp::Sub: return Opcode::VvASubB;
      case GirOp::Mul: return Opcode::VvMul;
      case GirOp::Max: return Opcode::VvMax;
      case GirOp::Relu: return Opcode::VRelu;
      case GirOp::Sigmoid: return Opcode::VSigm;
      case GirOp::Tanh: return Opcode::VTanh;
      default: BW_PANIC("%s is not point-wise", girOpName(op));
    }
}

/** One fused instruction chain (compute nodes only). */
struct FusedChain
{
    std::vector<NodeId> nodes; //!< head..tail, in dataflow order
    NodeId chainInput = 0;     //!< node streamed in by the head's v_rd
    bool hasMatMul = false;
};

struct Lowering
{
    const GirGraph &g;
    const NpuConfig &cfg;
    const CompileOptions &opts;
    std::vector<std::vector<NodeId>> cons;
    std::vector<char> materialized;
    std::vector<char> assigned;
    std::vector<FusedChain> chains;
    /** Per node, per home space: allocated base address (or nullopt). */
    std::vector<std::array<std::optional<uint32_t>, NumHomeSpaces>> homes;
    std::vector<char> needsNetq;
    /** producer tail -> states bound to it. */
    std::vector<std::vector<NodeId>> stateAlias;
    /** Per chain: hoistable to the next-step (input-projection) slot. */
    std::vector<char> chainHoist;
    bool pipelined = false;

    Lowering(const GirGraph &graph, const NpuConfig &config,
             const CompileOptions &options)
        : g(graph), cfg(config), opts(options), cons(graph.consumers()),
          materialized(graph.size(), 0), assigned(graph.size(), 0),
          homes(graph.size()), needsNetq(graph.size(), 0),
          stateAlias(graph.size())
    {
    }

    uint32_t
    tiles(unsigned dim) const
    {
        return ceilDiv(dim, cfg.nativeDim);
    }

    bool
    isSource(NodeId id) const
    {
        GirOp op = g.node(id).op;
        return op == GirOp::Input || op == GirOp::ConstVec ||
               op == GirOp::State;
    }

    bool
    isPointwise(NodeId id) const
    {
        GirOp op = g.node(id).op;
        return girIsBinary(op) || girIsActivation(op);
    }

    /** Consumers excluding Output markers (which only tag NetQ writes). */
    std::vector<NodeId>
    computeConsumers(NodeId id) const
    {
        std::vector<NodeId> out;
        for (NodeId c : cons[id]) {
            if (g.node(c).op != GirOp::Output)
                out.push_back(c);
        }
        return out;
    }

    void fuse();
    void classify();
    void collectHomes();
    void allocate(CompiledModel &model);
    void emit(CompiledModel &model);

    void
    requireHome(NodeId id, int space)
    {
        if (!homes[id][space])
            homes[id][space] = 0; // address assigned in allocate()
    }

    /** The chain value flowing into binary node @p id given that the
     *  previous chain value is @p prev; returns the secondary operand. */
    NodeId
    secondaryOf(NodeId id, NodeId prev) const
    {
        const GirNode &n = g.node(id);
        BW_ASSERT(girIsBinary(n.op));
        if (n.inputs[0] == prev)
            return n.inputs[1];
        BW_ASSERT(n.inputs[1] == prev, "node %u does not consume %u", id,
                  prev);
        return n.inputs[0];
    }
};

void
Lowering::fuse()
{
    // Values that must be architecturally visible at a step boundary —
    // recurrent state producers and network outputs — terminate chains.
    std::vector<char> must_materialize(g.size(), 0);
    for (auto &[state, producer] : g.stateBindings()) {
        (void)state;
        must_materialize[producer] = 1;
    }
    for (NodeId out : g.nodesOf(GirOp::Output))
        must_materialize[g.node(out).inputs[0]] = 1;

    auto order = g.topoOrder();
    for (NodeId id : order) {
        const GirNode &n = g.node(id);
        if (isSource(id) || n.op == GirOp::Output || assigned[id])
            continue;

        FusedChain chain;
        chain.nodes.push_back(id);
        assigned[id] = 1;

        std::vector<Opcode> pointwise_ops;
        if (n.op == GirOp::MatMul) {
            chain.hasMatMul = true;
            chain.chainInput = n.inputs[0];
        } else {
            BW_ASSERT(isPointwise(id), "unexpected head op %s",
                      girOpName(n.op));
            // Pick the streamed operand: prefer a non-constant; biases
            // belong in the unit VRFs, not the pipeline head.
            if (girIsBinary(n.op)) {
                NodeId a = n.inputs[0], b = n.inputs[1];
                chain.chainInput =
                    (g.node(a).op == GirOp::ConstVec &&
                     g.node(b).op != GirOp::ConstVec)
                        ? b
                        : a;
            } else {
                chain.chainInput = n.inputs[0];
            }
            pointwise_ops.push_back(pointwiseOpcode(n.op));
        }

        // Grow the chain through single-consumer edges.
        NodeId cur = id;
        while (true) {
            if (must_materialize[cur])
                break;
            auto consumers = computeConsumers(cur);
            if (consumers.size() != 1)
                break;
            NodeId nxt = consumers[0];
            if (assigned[nxt] || !isPointwise(nxt))
                break;
            const GirNode &nn = g.node(nxt);
            if (girIsBinary(nn.op)) {
                NodeId sec = secondaryOf(nxt, cur);
                if (sec != cur && !materialized[sec] && !isSource(sec))
                    break; // secondary not yet available in a VRF
            }
            auto candidate = pointwise_ops;
            candidate.push_back(pointwiseOpcode(nn.op));
            if (mfusRequired(candidate) > cfg.mfus)
                break;
            pointwise_ops = std::move(candidate);
            chain.nodes.push_back(nxt);
            assigned[nxt] = 1;
            cur = nxt;
        }

        materialized[cur] = 1;
        chains.push_back(std::move(chain));
    }

    // Bindings: the chain producing a bound value writes the state's
    // homes too.
    for (auto &[state, producer] : g.stateBindings()) {
        if (!materialized[producer] && !isSource(producer)) {
            BW_FATAL("state '%s' bound to non-materialized node %u",
                     g.node(state).name.c_str(), producer);
        }
        stateAlias[producer].push_back(state);
    }
    for (NodeId out : g.nodesOf(GirOp::Output))
        needsNetq[g.node(out).inputs[0]] = 1;
}

void
Lowering::classify()
{
    chainHoist.assign(chains.size(), 0);
    pipelined = opts.pipelineInputProjections && !g.stateBindings().empty();
    if (!pipelined)
        return;

    // Transitive state dependence per node.
    std::vector<char> state_dep(g.size(), 0);
    for (NodeId id : g.topoOrder()) {
        const GirNode &n = g.node(id);
        if (n.op == GirOp::State) {
            state_dep[id] = 1;
            continue;
        }
        for (NodeId in : n.inputs)
            state_dep[id] = state_dep[id] || state_dep[in];
    }

    for (size_t ci = 0; ci < chains.size(); ++ci) {
        NodeId tail = chains[ci].nodes.back();
        chainHoist[ci] = !state_dep[tail] && stateAlias[tail].empty() &&
                         !needsNetq[tail];
    }

    // Hoisted chains consume the *next* step's input, so every chain
    // that reads an Input must itself be hoisted; otherwise disable.
    auto reads_input = [&](const FusedChain &c) {
        if (g.node(c.chainInput).op == GirOp::Input)
            return true;
        NodeId prev = c.chainInput;
        for (NodeId id : c.nodes) {
            const GirNode &n = g.node(id);
            if (girIsBinary(n.op) &&
                g.node(secondaryOf(id, prev)).op == GirOp::Input) {
                return true;
            }
            prev = id;
        }
        return false;
    };
    for (size_t ci = 0; ci < chains.size(); ++ci) {
        if (reads_input(chains[ci]) && !chainHoist[ci]) {
            pipelined = false;
            chainHoist.assign(chains.size(), 0);
            return;
        }
    }
}

void
Lowering::collectHomes()
{
    for (const FusedChain &chain : chains) {
        requireHome(chain.chainInput, HomeIvrf);
        NodeId prev = chain.chainInput;
        for (NodeId id : chain.nodes) {
            const GirNode &n = g.node(id);
            if (girIsBinary(n.op)) {
                NodeId sec = secondaryOf(id, prev);
                requireHome(sec, secondaryHome(n.op));
            }
            prev = id;
        }
    }
    // A bound state with no consumers still needs somewhere to live.
    for (auto &[state, producer] : g.stateBindings()) {
        (void)producer;
        bool any = false;
        for (int s = 0; s < NumHomeSpaces; ++s)
            any = any || homes[state][s].has_value();
        if (!any)
            requireHome(state, HomeIvrf);
    }
    // Dead chain tails need a scratch destination: chains must sink.
    for (const FusedChain &chain : chains) {
        NodeId tail = chain.nodes.back();
        bool any = needsNetq[tail] || !stateAlias[tail].empty();
        for (int s = 0; s < NumHomeSpaces; ++s)
            any = any || homes[tail][s].has_value();
        if (!any)
            requireHome(tail, HomeIvrf);
    }
}

void
Lowering::allocate(CompiledModel &model)
{
    std::array<uint32_t, NumHomeSpaces> next = {0, 0, 0};
    std::array<uint32_t, NumHomeSpaces> cap = {
        cfg.initialVrfSize, cfg.addSubVrfSize, cfg.multiplyVrfSize};

    for (NodeId id = 0; id < g.size(); ++id) {
        for (int s = 0; s < NumHomeSpaces; ++s) {
            if (!homes[id][s])
                continue;
            // Batch-interleaved compilation keeps one copy of every
            // value per sample, consecutively (IterStride addressing).
            uint32_t width = tiles(g.node(id).dim) * opts.batchSize;
            if (next[s] + width > cap[s]) {
                BW_FATAL("model %s does not fit %s: %s needs %u more "
                         "entries of %u; partition the model across "
                         "accelerators", g.name().c_str(),
                         cfg.name.c_str(),
                         memIdName(homeMemId(s)), width, cap[s]);
            }
            homes[id][s] = next[s];
            next[s] += width;
        }
    }

    // Constant preloads.
    for (NodeId id : g.nodesOf(GirOp::ConstVec)) {
        const GirNode &n = g.node(id);
        for (int s = 0; s < NumHomeSpaces; ++s) {
            if (!homes[id][s])
                continue;
            VrfPreload p;
            p.space = homeMemId(s);
            p.addr = *homes[id][s];
            FVec one = padTo(n.constValue,
                             static_cast<size_t>(tiles(n.dim)) *
                                 cfg.nativeDim);
            p.data.reserve(one.size() * opts.batchSize);
            for (unsigned b = 0; b < opts.batchSize; ++b)
                p.data.insert(p.data.end(), one.begin(), one.end());
            model.preloads.push_back(std::move(p));
        }
    }

    // Weights. The MRF element-packs matrix rows, so capacity is charged
    // by true element count while tile indices cover the padded grid.
    uint32_t mrf_next = 0;
    uint64_t elems_used = 0;
    uint64_t tile_elems =
        static_cast<uint64_t>(cfg.nativeDim) * cfg.nativeDim;
    unsigned full_beats = cfg.nativeVectorBeats();
    for (const FusedChain &chain : chains) {
        if (!chain.hasMatMul)
            continue;
        NodeId id = chain.nodes.front();
        const GirNode &n = g.node(id);
        WeightPlacement w;
        w.node = id;
        w.logicalRows = static_cast<unsigned>(n.weight->rows());
        w.logicalCols = static_cast<unsigned>(n.weight->cols());
        w.rowTiles = tiles(w.logicalRows);
        w.colTiles = tiles(w.logicalCols);
        w.mrfAddr = mrf_next;
        uint32_t count = w.rowTiles * w.colTiles;
        elems_used += static_cast<uint64_t>(w.logicalRows) * w.logicalCols;
        if (mrf_next + count > cfg.mrfEntries() ||
            ceilDiv(elems_used, tile_elems) > cfg.mrfSize) {
            BW_FATAL("model %s does not fit %s: MRF capacity is %u tile "
                     "equivalents / %u entries (model pinning exhausted; "
                     "partition across accelerators or stream from DRAM)",
                     g.name().c_str(), cfg.name.c_str(), cfg.mrfSize,
                     cfg.mrfEntries());
        }
        // Thin tail column tiles stream in proportionally fewer beats.
        for (uint32_t c = 0; c < w.colTiles; ++c) {
            unsigned valid = std::min(cfg.nativeDim,
                                      w.logicalCols - c * cfg.nativeDim);
            unsigned beats = ceilDiv(valid, cfg.lanes);
            if (beats != full_beats) {
                for (uint32_t r = 0; r < w.rowTiles; ++r) {
                    model.tileBeats[w.mrfAddr + r * w.colTiles + c] =
                        beats;
                }
            }
        }
        mrf_next += count;
        w.weight = n.weight;
        model.weights.push_back(std::move(w));
    }
    model.mrfTilesUsed =
        static_cast<uint32_t>(ceilDiv(elems_used, tile_elems));
}

/** Builder plus mega-SIMD register tracking for one emitted program. */
struct Emitter
{
    ProgramBuilder b;
    int64_t rows = -1, cols = -1;

    void
    setRows(uint32_t r)
    {
        if (rows != r) {
            b.sWr(ScalarReg::Rows, r);
            rows = r;
        }
    }

    void
    setCols(uint32_t c)
    {
        if (cols != c) {
            b.sWr(ScalarReg::Cols, c);
            cols = c;
        }
    }
};

void
Lowering::emit(CompiledModel &model)
{
    std::vector<const WeightPlacement *> weight_of(g.size(), nullptr);
    for (const auto &w : model.weights)
        weight_of[w.node] = &w;

    auto write_homes = [&](Emitter &e, NodeId id) {
        for (int s = 0; s < NumHomeSpaces; ++s) {
            if (homes[id][s])
                e.b.vWr(homeMemId(s), *homes[id][s]);
        }
    };

    // Input distribution chains (v_rd NetQ -> multicast into homes).
    auto emit_input_copies = [&](Emitter &e, bool count_io) {
        for (NodeId id : g.nodesOf(GirOp::Input)) {
            bool any = needsNetq[id];
            for (int s = 0; s < NumHomeSpaces; ++s)
                any = any || homes[id][s].has_value();
            if (!any)
                continue; // unused input is not popped
            uint32_t w = tiles(g.node(id).dim);
            e.setRows(w);
            e.b.vRd(MemId::NetQ);
            write_homes(e, id);
            if (needsNetq[id])
                e.b.vWr(MemId::NetQ);
            if (count_io)
                model.inputVecsPerStep += w;
        }
    };

    auto emit_chain = [&](Emitter &e, const FusedChain &chain,
                          bool count_io) {
        NodeId head = chain.nodes.front();
        NodeId tail = chain.nodes.back();
        if (chain.hasMatMul) {
            const WeightPlacement *w = weight_of[head];
            BW_ASSERT(w != nullptr);
            e.setRows(w->rowTiles);
            e.setCols(w->colTiles);
        } else {
            e.setRows(tiles(g.node(tail).dim));
        }

        BW_ASSERT(homes[chain.chainInput][HomeIvrf].has_value());
        e.b.vRd(MemId::InitialVrf, *homes[chain.chainInput][HomeIvrf]);

        NodeId prev = chain.chainInput;
        for (NodeId id : chain.nodes) {
            const GirNode &n = g.node(id);
            switch (n.op) {
              case GirOp::MatMul:
                e.b.mvMul(weight_of[id]->mrfAddr);
                break;
              case GirOp::Add: {
                NodeId sec = secondaryOf(id, prev);
                e.b.vvAdd(*homes[sec][HomeAsvrf]);
                break;
              }
              case GirOp::Sub: {
                NodeId sec = secondaryOf(id, prev);
                // result = inputs[0] - inputs[1]; the chain value is
                // whichever operand is not the secondary.
                if (sec == n.inputs[1])
                    e.b.vvASubB(*homes[sec][HomeAsvrf]);
                else
                    e.b.vvBSubA(*homes[sec][HomeAsvrf]);
                break;
              }
              case GirOp::Mul: {
                NodeId sec = secondaryOf(id, prev);
                e.b.vvMul(*homes[sec][HomeMulvrf]);
                break;
              }
              case GirOp::Max: {
                NodeId sec = secondaryOf(id, prev);
                e.b.vvMax(*homes[sec][HomeAsvrf]);
                break;
              }
              case GirOp::Relu: e.b.vRelu(); break;
              case GirOp::Sigmoid: e.b.vSigm(); break;
              case GirOp::Tanh: e.b.vTanh(); break;
              default:
                BW_PANIC("unexpected %s in chain", girOpName(n.op));
            }
            prev = id;
        }

        // Multicast the tail to its homes, any bound states' homes, and
        // the network for model outputs.
        write_homes(e, tail);
        for (NodeId s : stateAlias[tail])
            write_homes(e, s);
        if (needsNetq[tail]) {
            e.b.vWr(MemId::NetQ);
            if (count_io)
                model.outputVecsPerStep += tiles(g.node(tail).dim);
        }
        e.b.endChain();
    };

    auto emit_batch_regs = [&](Emitter &e) {
        if (opts.batchSize > 1) {
            e.b.sWr(ScalarReg::Iterations, opts.batchSize);
            e.b.sWr(ScalarReg::IterStride, 1);
        }
    };

    Emitter step;
    emit_batch_regs(step);
    if (!pipelined) {
        emit_input_copies(step, true);
        for (const FusedChain &chain : chains)
            emit_chain(step, chain, true);
    } else {
        // Software-pipelined schedule: first the recurrent chains whose
        // operands are all available at the step boundary (depth 0),
        // then the *next* step's input fetch and projections — filling
        // the MVM while the depth-0 results drain through the MFUs —
        // and finally the deeper recurrent chains. This is the chain
        // interleaving a tuned production kernel uses to space out the
        // h->h serial dependency.
        std::vector<int> producer(g.size(), -1);
        for (size_t ci = 0; ci < chains.size(); ++ci) {
            for (NodeId id : chains[ci].nodes)
                producer[id] = static_cast<int>(ci);
        }
        auto chain_reads = [&](const FusedChain &c) {
            std::vector<NodeId> reads{c.chainInput};
            NodeId prev = c.chainInput;
            for (NodeId id : c.nodes) {
                if (girIsBinary(g.node(id).op))
                    reads.push_back(secondaryOf(id, prev));
                prev = id;
            }
            return reads;
        };
        // depth 0 <=> every read is a source or a hoisted-chain tail.
        std::vector<char> depth0(chains.size(), 0);
        for (size_t ci = 0; ci < chains.size(); ++ci) {
            if (chainHoist[ci])
                continue;
            bool d0 = true;
            for (NodeId rd : chain_reads(chains[ci])) {
                if (isSource(rd))
                    continue;
                int p = producer[rd];
                BW_ASSERT(p >= 0);
                if (!chainHoist[p])
                    d0 = false;
            }
            depth0[ci] = d0;
        }

        // Interleave each hoisted (next-step) projection chain directly
        // after its last same-step consumer: the consumer must read the
        // previous value before the projection overwrites it, and the
        // projection's MVM work then fills the pipeline bubble while
        // the consumer's chain drains through the MFUs.
        (void)depth0;
        std::vector<size_t> nonhoisted;
        std::vector<int> pos_of_chain(chains.size(), -1);
        for (size_t ci = 0; ci < chains.size(); ++ci) {
            if (!chainHoist[ci]) {
                pos_of_chain[ci] = static_cast<int>(nonhoisted.size());
                nonhoisted.push_back(ci);
            }
        }
        // Last non-hoisted consumer position of each hoisted tail.
        std::vector<int> insert_after(chains.size(), -1);
        for (size_t cj = 0; cj < chains.size(); ++cj) {
            if (chainHoist[cj])
                continue;
            for (NodeId rd : chain_reads(chains[cj])) {
                if (isSource(rd))
                    continue;
                int p = producer[rd];
                if (p >= 0 && chainHoist[p]) {
                    insert_after[p] = std::max(insert_after[p],
                                               pos_of_chain[cj]);
                }
            }
        }

        // A hoisted chain consuming another hoisted chain's output must
        // not be emitted earlier than its producer (single topo pass:
        // chains are already in topological order).
        for (size_t cj = 0; cj < chains.size(); ++cj) {
            if (!chainHoist[cj])
                continue;
            for (NodeId rd : chain_reads(chains[cj])) {
                if (isSource(rd))
                    continue;
                int p = producer[rd];
                if (p >= 0 && chainHoist[p] &&
                    static_cast<size_t>(p) != cj) {
                    insert_after[cj] =
                        std::max(insert_after[cj], insert_after[p]);
                }
            }
        }

        bool copies_emitted = false;
        auto emit_hoisted_at = [&](int pos) {
            for (size_t ci = 0; ci < chains.size(); ++ci) {
                if (!chainHoist[ci] || insert_after[ci] != pos)
                    continue;
                if (!copies_emitted) {
                    emit_input_copies(step, true);
                    copies_emitted = true;
                }
                emit_chain(step, chains[ci], true);
            }
        };
        emit_hoisted_at(-1); // hoisted chains with no same-step consumer
        for (size_t k = 0; k < nonhoisted.size(); ++k) {
            emit_chain(step, chains[nonhoisted[k]], true);
            emit_hoisted_at(static_cast<int>(k));
        }
        if (!copies_emitted)
            emit_input_copies(step, true);

        Emitter pro;
        emit_batch_regs(pro);
        emit_input_copies(pro, false);
        for (size_t ci = 0; ci < chains.size(); ++ci) {
            if (chainHoist[ci])
                emit_chain(pro, chains[ci], false);
        }
        model.prologue = pro.b.build();
        checkProgram(model.prologue, cfg);
    }

    model.step = step.b.build();
    checkProgram(model.step, cfg);
}

} // namespace

CompiledModel
compileGir(const GirGraph &graph, const NpuConfig &cfg,
           const CompileOptions &options)
{
    graph.check();
    cfg.validate();

    CompiledModel model;
    model.name = graph.name();
    model.cfg = cfg;

    Lowering lo(graph, cfg, options);
    lo.fuse();
    lo.collectHomes();
    lo.classify();
    lo.allocate(model);
    lo.emit(model);

    auto inputs = graph.nodesOf(GirOp::Input);
    if (!inputs.empty())
        model.inputDim = graph.node(inputs.front()).dim;
    auto outputs = graph.nodesOf(GirOp::Output);
    if (!outputs.empty())
        model.outputDim = graph.node(outputs.front()).dim;

    model.batchSize = options.batchSize;
    model.inputVecsPerStep *= options.batchSize;
    model.outputVecsPerStep *= options.batchSize;
    model.matmulOpsPerStep = graph.matmulOpsPerStep();
    model.totalOpsPerStep = graph.opsPerStep();
    return model;
}

void
CompiledModel::install(FuncMachine &m) const
{
    for (const WeightPlacement &w : weights)
        m.loadMrfMatrix(w.mrfAddr, *w.weight);
    for (const VrfPreload &p : preloads)
        m.loadVrf(p.space, p.addr, p.data);
}

void
CompiledModel::resetRequestState(FuncMachine &m) const
{
    m.resetDynamicState();
    for (const VrfPreload &p : preloads)
        m.loadVrf(p.space, p.addr, p.data);
}

Status
CompiledModel::validateStepInput(size_t elems) const
{
    if (!prologue.empty()) {
        return Status::failedPrecondition(detail::format(
            "model %s was compiled with a software-pipelining prologue "
            "(CompileOptions::pipelineInputProjections): each step "
            "prefetches the *next* step's input, so single steps cannot "
            "be served in isolation — serve the whole sequence with "
            "runSequence(), or recompile with pipelining disabled",
            name.c_str()));
    }
    if (elems != inputDim) {
        return Status::invalidArgument(detail::format(
            "input has %zu elements, model %s expects %u", elems,
            name.c_str(), inputDim));
    }
    return Status();
}

Status
CompiledModel::validateSequenceInput(const std::vector<FVec> &xs) const
{
    for (size_t t = 0; t < xs.size(); ++t) {
        if (xs[t].size() != inputDim) {
            return Status::invalidArgument(detail::format(
                "step %zu input has %zu elements, model %s expects %u",
                t, xs[t].size(), name.c_str(), inputDim));
        }
    }
    return Status();
}

Status
CompiledModel::validateBatchInput(const std::vector<FVec> &xs) const
{
    if (!prologue.empty()) {
        return Status::failedPrecondition(detail::format(
            "model %s was compiled with a software-pipelining prologue; "
            "batched steps require an unpipelined model — recompile "
            "with CompileOptions::pipelineInputProjections = false",
            name.c_str()));
    }
    if (xs.size() != batchSize) {
        return Status::invalidArgument(detail::format(
            "%zu inputs for model %s compiled with batch size %u",
            xs.size(), name.c_str(), batchSize));
    }
    for (size_t b = 0; b < xs.size(); ++b) {
        if (xs[b].size() != inputDim) {
            return Status::invalidArgument(detail::format(
                "batch sample %zu has %zu elements, model %s expects %u",
                b, xs[b].size(), name.c_str(), inputDim));
        }
    }
    return Status();
}

FVec
CompiledModel::runStep(FuncMachine &m, std::span<const float> x) const
{
    validateStepInput(x.size()).throwIfError();
    FVec padded = padTo(x, static_cast<size_t>(inputVecsPerStep) *
                               cfg.nativeDim);
    m.pushInput(padded);
    m.run(step);
    FVec out = m.popOutput(outputVecsPerStep);
    out.resize(outputDim);
    return out;
}

std::vector<FVec>
CompiledModel::runStepBatch(FuncMachine &m,
                            const std::vector<FVec> &xs) const
{
    validateBatchInput(xs).throwIfError();
    size_t per_sample_in =
        static_cast<size_t>(inputVecsPerStep) / batchSize *
        cfg.nativeDim;
    for (const FVec &x : xs)
        m.pushInput(padTo(x, per_sample_in));
    m.run(step);
    std::vector<FVec> outs;
    uint32_t per_sample_out = outputVecsPerStep / batchSize;
    for (unsigned b = 0; b < batchSize; ++b) {
        FVec o = m.popOutput(per_sample_out);
        o.resize(outputDim);
        outs.push_back(std::move(o));
    }
    return outs;
}

std::vector<FVec>
CompiledModel::runSequence(FuncMachine &m,
                           const std::vector<FVec> &xs) const
{
    std::vector<FVec> outs;
    if (xs.empty())
        return outs;
    validateSequenceInput(xs).throwIfError();
    outs.reserve(xs.size());
    if (prologue.empty()) {
        for (const FVec &x : xs)
            outs.push_back(runStep(m, x));
        return outs;
    }

    size_t padded_len =
        static_cast<size_t>(inputVecsPerStep) * cfg.nativeDim;
    auto push = [&](std::span<const float> x) {
        m.pushInput(padTo(x, padded_len));
    };

    // The prologue consumes x(0); iteration t prefetches x(t+1). The
    // final prefetch reads a dummy vector that no chain ever consumes
    // architecturally (its projections are dead).
    push(xs.front());
    m.run(prologue);
    FVec dummy(inputDim, 0.0f);
    for (size_t t = 0; t < xs.size(); ++t) {
        push(t + 1 < xs.size() ? std::span<const float>(xs[t + 1])
                               : std::span<const float>(dummy));
        m.run(step);
        FVec out = m.popOutput(outputVecsPerStep);
        out.resize(outputDim);
        outs.push_back(std::move(out));
    }
    return outs;
}

} // namespace bw
