/**
 * @file
 * Float reference interpreter for arbitrary GIR graphs. Where
 * rnn_ref.h hand-codes the LSTM/GRU/MLP cells, this interpreter
 * evaluates any graph the compiler accepts — the oracle for randomized
 * compiler-equivalence testing.
 */

#ifndef BW_REFMODEL_GIR_INTERP_H
#define BW_REFMODEL_GIR_INTERP_H

#include "graph/gir.h"

namespace bw {

/** Reference evaluator with persistent recurrent state. */
class GirInterpreter
{
  public:
    explicit GirInterpreter(const GirGraph &graph);

    /**
     * Evaluate one step with @p x as the value of every Input node (the
     * compiler's single-input convention) and return the Output node's
     * value. Recurrent states update at the end of the step.
     */
    FVec step(std::span<const float> x);

    /** Reset all states to zero. */
    void reset();

  private:
    const GirGraph &g_;
    std::vector<FVec> state_; //!< per State node id (empty otherwise)
};

} // namespace bw

#endif // BW_REFMODEL_GIR_INTERP_H
