#include "refmodel/gir_interp.h"

#include <cmath>

#include "common/logging.h"

namespace bw {

GirInterpreter::GirInterpreter(const GirGraph &graph)
    : g_(graph), state_(graph.size())
{
    g_.check();
    for (NodeId id : g_.nodesOf(GirOp::State))
        state_[id].assign(g_.node(id).dim, 0.0f);
}

void
GirInterpreter::reset()
{
    for (NodeId id : g_.nodesOf(GirOp::State))
        state_[id].assign(g_.node(id).dim, 0.0f);
}

FVec
GirInterpreter::step(std::span<const float> x)
{
    std::vector<FVec> value(g_.size());
    for (NodeId id : g_.topoOrder()) {
        const GirNode &n = g_.node(id);
        switch (n.op) {
          case GirOp::Input:
            BW_ASSERT(x.size() == n.dim,
                      "input dim %u vs provided %zu", n.dim, x.size());
            value[id].assign(x.begin(), x.end());
            break;
          case GirOp::ConstVec:
            value[id] = n.constValue;
            break;
          case GirOp::State:
            value[id] = state_[id];
            break;
          case GirOp::MatMul:
            value[id] = gemvRef(*n.weight, value[n.inputs[0]]);
            break;
          case GirOp::Output:
            value[id] = value[n.inputs[0]];
            break;
          default: {
            const FVec &a = value[n.inputs[0]];
            value[id].resize(n.dim);
            const FVec *b =
                n.inputs.size() > 1 ? &value[n.inputs[1]] : nullptr;
            for (unsigned i = 0; i < n.dim; ++i) {
                float v = a[i];
                switch (n.op) {
                  case GirOp::Add: v = a[i] + (*b)[i]; break;
                  case GirOp::Sub: v = a[i] - (*b)[i]; break;
                  case GirOp::Mul: v = a[i] * (*b)[i]; break;
                  case GirOp::Max: v = std::max(a[i], (*b)[i]); break;
                  case GirOp::Relu: v = std::max(a[i], 0.0f); break;
                  case GirOp::Sigmoid:
                    v = 1.0f / (1.0f + std::exp(-a[i]));
                    break;
                  case GirOp::Tanh: v = std::tanh(a[i]); break;
                  default: BW_PANIC("unhandled op %s", girOpName(n.op));
                }
                value[id][i] = v;
            }
            break;
          }
        }
    }

    FVec out;
    auto outputs = g_.nodesOf(GirOp::Output);
    if (!outputs.empty())
        out = value[g_.node(outputs.front()).inputs[0]];

    for (auto &[state, producer] : g_.stateBindings())
        state_[state] = value[producer];
    return out;
}

} // namespace bw
