#include "graph/gir.h"

#include <algorithm>

#include "common/logging.h"

namespace bw {

const char *
girOpName(GirOp op)
{
    switch (op) {
      case GirOp::Input: return "Input";
      case GirOp::ConstVec: return "ConstVec";
      case GirOp::State: return "State";
      case GirOp::MatMul: return "MatMul";
      case GirOp::Add: return "Add";
      case GirOp::Sub: return "Sub";
      case GirOp::Mul: return "Mul";
      case GirOp::Max: return "Max";
      case GirOp::Relu: return "Relu";
      case GirOp::Sigmoid: return "Sigmoid";
      case GirOp::Tanh: return "Tanh";
      case GirOp::Output: return "Output";
      default: BW_PANIC("bad GirOp %d", static_cast<int>(op));
    }
}

bool
girIsActivation(GirOp op)
{
    return op == GirOp::Relu || op == GirOp::Sigmoid || op == GirOp::Tanh;
}

bool
girIsBinary(GirOp op)
{
    return op == GirOp::Add || op == GirOp::Sub || op == GirOp::Mul ||
           op == GirOp::Max;
}

NodeId
GirGraph::addNode(GirNode n)
{
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId
GirGraph::input(unsigned dim, const std::string &name)
{
    GirNode n;
    n.op = GirOp::Input;
    n.dim = dim;
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::constVec(FVec value, const std::string &name)
{
    GirNode n;
    n.op = GirOp::ConstVec;
    n.dim = static_cast<unsigned>(value.size());
    n.constValue = std::move(value);
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::state(unsigned dim, const std::string &name)
{
    GirNode n;
    n.op = GirOp::State;
    n.dim = dim;
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::matmul(FMat weight, NodeId x, const std::string &name)
{
    if (node(x).dim != weight.cols()) {
        BW_FATAL("matmul %s: weight is %zux%zu but input '%s' has dim %u",
                 name.c_str(), weight.rows(), weight.cols(),
                 node(x).name.c_str(), node(x).dim);
    }
    GirNode n;
    n.op = GirOp::MatMul;
    n.dim = static_cast<unsigned>(weight.rows());
    n.inputs = {x};
    n.weight = std::make_shared<const FMat>(std::move(weight));
    n.name = name;
    return addNode(std::move(n));
}

namespace {

void
checkSameDim(const GirGraph &g, NodeId a, NodeId b, const char *what)
{
    if (g.node(a).dim != g.node(b).dim) {
        BW_FATAL("%s: operand dims differ (%s:%u vs %s:%u)", what,
                 g.node(a).name.c_str(), g.node(a).dim,
                 g.node(b).name.c_str(), g.node(b).dim);
    }
}

} // namespace

NodeId
GirGraph::add(NodeId a, NodeId b, const std::string &name)
{
    checkSameDim(*this, a, b, "add");
    GirNode n;
    n.op = GirOp::Add;
    n.dim = node(a).dim;
    n.inputs = {a, b};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::sub(NodeId a, NodeId b, const std::string &name)
{
    checkSameDim(*this, a, b, "sub");
    GirNode n;
    n.op = GirOp::Sub;
    n.dim = node(a).dim;
    n.inputs = {a, b};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::mul(NodeId a, NodeId b, const std::string &name)
{
    checkSameDim(*this, a, b, "mul");
    GirNode n;
    n.op = GirOp::Mul;
    n.dim = node(a).dim;
    n.inputs = {a, b};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::max(NodeId a, NodeId b, const std::string &name)
{
    checkSameDim(*this, a, b, "max");
    GirNode n;
    n.op = GirOp::Max;
    n.dim = node(a).dim;
    n.inputs = {a, b};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::relu(NodeId a, const std::string &name)
{
    GirNode n;
    n.op = GirOp::Relu;
    n.dim = node(a).dim;
    n.inputs = {a};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::sigmoid(NodeId a, const std::string &name)
{
    GirNode n;
    n.op = GirOp::Sigmoid;
    n.dim = node(a).dim;
    n.inputs = {a};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::tanh(NodeId a, const std::string &name)
{
    GirNode n;
    n.op = GirOp::Tanh;
    n.dim = node(a).dim;
    n.inputs = {a};
    n.name = name;
    return addNode(std::move(n));
}

NodeId
GirGraph::output(NodeId a, const std::string &name)
{
    GirNode n;
    n.op = GirOp::Output;
    n.dim = node(a).dim;
    n.inputs = {a};
    n.name = name;
    return addNode(std::move(n));
}

void
GirGraph::bindState(NodeId state, NodeId producer)
{
    if (node(state).op != GirOp::State)
        BW_FATAL("bindState: '%s' is not a State node",
                 node(state).name.c_str());
    if (node(state).dim != node(producer).dim)
        BW_FATAL("bindState: dim mismatch (%u vs %u)", node(state).dim,
                 node(producer).dim);
    for (auto &[s, p] : stateBindings_) {
        if (s == state)
            BW_FATAL("bindState: state '%s' already bound",
                     node(state).name.c_str());
    }
    stateBindings_.emplace_back(state, producer);
}

const GirNode &
GirGraph::node(NodeId id) const
{
    BW_ASSERT(id < nodes_.size(), "node id %u out of range", id);
    return nodes_[id];
}

std::vector<NodeId>
GirGraph::nodesOf(GirOp op) const
{
    std::vector<NodeId> out;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].op == op)
            out.push_back(i);
    }
    return out;
}

std::vector<std::vector<NodeId>>
GirGraph::consumers() const
{
    std::vector<std::vector<NodeId>> out(nodes_.size());
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        for (NodeId in : nodes_[i].inputs)
            out[in].push_back(i);
    }
    return out;
}

std::vector<NodeId>
GirGraph::topoOrder() const
{
    // Nodes are created operands-first, so identity order is a valid
    // topological order; verify anyway to catch manual misuse.
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        for (NodeId in : nodes_[i].inputs) {
            if (in >= i)
                BW_FATAL("graph %s: node %u uses later node %u (cycle in "
                         "combinational graph)", name_.c_str(), i, in);
        }
    }
    std::vector<NodeId> order(nodes_.size());
    for (NodeId i = 0; i < nodes_.size(); ++i)
        order[i] = i;
    return order;
}

OpCount
GirGraph::opsPerStep() const
{
    OpCount ops = 0;
    for (const auto &n : nodes_) {
        if (n.op == GirOp::MatMul)
            ops += 2ull * n.weight->rows() * n.weight->cols();
        else if (girIsBinary(n.op) || girIsActivation(n.op))
            ops += n.dim;
    }
    return ops;
}

OpCount
GirGraph::matmulOpsPerStep() const
{
    OpCount ops = 0;
    for (const auto &n : nodes_) {
        if (n.op == GirOp::MatMul)
            ops += 2ull * n.weight->rows() * n.weight->cols();
    }
    return ops;
}

uint64_t
GirGraph::weightBytes(unsigned bits_per_element) const
{
    uint64_t bits = 0;
    for (const auto &n : nodes_) {
        if (n.op == GirOp::MatMul)
            bits += static_cast<uint64_t>(n.weight->rows()) *
                    n.weight->cols() * bits_per_element;
    }
    return bits / 8;
}

void
GirGraph::check() const
{
    topoOrder();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        const GirNode &n = nodes_[i];
        size_t arity;
        switch (n.op) {
          case GirOp::Input:
          case GirOp::ConstVec:
          case GirOp::State:
            arity = 0;
            break;
          case GirOp::MatMul:
          case GirOp::Relu:
          case GirOp::Sigmoid:
          case GirOp::Tanh:
          case GirOp::Output:
            arity = 1;
            break;
          default:
            arity = 2;
            break;
        }
        if (n.inputs.size() != arity) {
            BW_FATAL("node %u (%s %s): expected %zu inputs, has %zu", i,
                     girOpName(n.op), n.name.c_str(), arity,
                     n.inputs.size());
        }
        if (n.dim == 0)
            BW_FATAL("node %u (%s): zero dimension", i, n.name.c_str());
    }
    for (auto &[s, p] : stateBindings_) {
        BW_ASSERT(s < nodes_.size() && p < nodes_.size());
    }
}

} // namespace bw
