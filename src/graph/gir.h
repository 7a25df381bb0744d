/**
 * @file
 * Graph intermediate representation (GIR) for DNN models.
 *
 * The paper's toolflow exports pre-trained models into a graph IR, which
 * is then optimized, partitioned and compiled to BW NPU binaries
 * (Section II-B). This is a deliberately small IR covering the model
 * classes the paper serves on the NPU: RNN cells (LSTM/GRU), MLPs, and
 * (via a dedicated lowering pass in bw::compiler) CNN layers.
 *
 * Nodes produce logical 1-D vectors of a given dimension. Recurrent
 * state is expressed with State nodes plus a binding from the node
 * computing the next-step value.
 */

#ifndef BW_GRAPH_GIR_H
#define BW_GRAPH_GIR_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "tensor/tensor.h"

namespace bw {

/** Node identifier within one GirGraph. */
using NodeId = uint32_t;

/** GIR operator kinds. */
enum class GirOp : uint8_t
{
    Input = 0, //!< per-step network input vector
    ConstVec,  //!< constant vector (bias)
    State,     //!< recurrent state vector (zero-initialized)
    MatMul,    //!< y = W x, W a constant weight matrix
    Add,       //!< elementwise a + b
    Sub,       //!< elementwise a - b
    Mul,       //!< elementwise a * b (Hadamard)
    Max,       //!< elementwise max(a, b)
    Relu,
    Sigmoid,
    Tanh,
    Output     //!< per-step network output (passes through its input)
};

/** Human-readable op name. */
const char *girOpName(GirOp op);

/** True for the unary activations. */
bool girIsActivation(GirOp op);

/** True for the elementwise binary ops. */
bool girIsBinary(GirOp op);

/** One GIR node. */
struct GirNode
{
    GirOp op = GirOp::Input;
    std::string name;
    /** Output dimension (logical, unpadded). */
    unsigned dim = 0;
    /** Operand node ids (0 for Input/ConstVec/State, 1-2 otherwise). */
    std::vector<NodeId> inputs;
    /**
     * Weight matrix for MatMul (dim x inputs[0].dim), null otherwise. The
     * payload is immutable and shared: copies of the graph and every
     * CompiledModel built from it hold the same matrix, so it outlives
     * whichever of them is destroyed first.
     */
    std::shared_ptr<const FMat> weight;
    /** Constant value for ConstVec. */
    FVec constValue;
};

/** A dataflow graph over GirNodes, with recurrent state bindings. */
class GirGraph
{
  public:
    explicit GirGraph(std::string name = "model") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    // --- Construction. ---
    NodeId input(unsigned dim, const std::string &name = "x");
    NodeId constVec(FVec value, const std::string &name = "c");
    NodeId state(unsigned dim, const std::string &name = "h");
    NodeId matmul(FMat weight, NodeId x, const std::string &name = "W");
    NodeId add(NodeId a, NodeId b, const std::string &name = "add");
    NodeId sub(NodeId a, NodeId b, const std::string &name = "sub");
    NodeId mul(NodeId a, NodeId b, const std::string &name = "mul");
    NodeId max(NodeId a, NodeId b, const std::string &name = "max");
    NodeId relu(NodeId a, const std::string &name = "relu");
    NodeId sigmoid(NodeId a, const std::string &name = "sigm");
    NodeId tanh(NodeId a, const std::string &name = "tanh");
    NodeId output(NodeId a, const std::string &name = "y");

    /** Bind @p producer as the next-step value of State node @p state. */
    void bindState(NodeId state, NodeId producer);

    // --- Inspection. ---
    size_t size() const { return nodes_.size(); }
    const GirNode &node(NodeId id) const;
    const std::vector<GirNode> &nodes() const { return nodes_; }

    /** Ids of all nodes of the given kind, in creation order. */
    std::vector<NodeId> nodesOf(GirOp op) const;

    /** State -> producer bindings. */
    const std::vector<std::pair<NodeId, NodeId>> &stateBindings() const
    {
        return stateBindings_;
    }

    /** Consumers of each node (computed on demand). */
    std::vector<std::vector<NodeId>> consumers() const;

    /**
     * Nodes in a valid topological order (State/Input/Const first).
     * Throws bw::Error if the combinational part of the graph is cyclic.
     */
    std::vector<NodeId> topoOrder() const;

    /**
     * Total arithmetic ops per step using the paper's convention:
     * 2 ops per MAC of each MatMul plus one op per element of each
     * point-wise node.
     */
    OpCount opsPerStep() const;

    /** MatMul-only ops per step (2 * rows * cols summed). */
    OpCount matmulOpsPerStep() const;

    /** Model weight bytes at @p bits_per_element. */
    uint64_t weightBytes(unsigned bits_per_element) const;

    /** Validate arity/dimension agreement; throws bw::Error. */
    void check() const;

  private:
    NodeId addNode(GirNode n);

    std::string name_;
    std::vector<GirNode> nodes_;
    std::vector<std::pair<NodeId, NodeId>> stateBindings_;
};

} // namespace bw

#endif // BW_GRAPH_GIR_H
