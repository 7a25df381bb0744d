/**
 * @file
 * GIR builders for the model classes evaluated in the paper: LSTM and
 * GRU cells (DeepBench RNN inference, Table V), and dense MLPs. The
 * graphs are structured exactly as the paper's hand-written LSTM kernel
 * (Section IV-C) so the compiler's chain fusion reproduces its
 * instruction chains.
 *
 * The make* builders take their weights by value and move every matrix
 * and bias into the graph: pass an rvalue (say, straight from
 * randomLstmWeights) and no weight is copied; pass an lvalue to keep it.
 */

#ifndef BW_GRAPH_BUILDERS_H
#define BW_GRAPH_BUILDERS_H

#include "common/rng.h"
#include "graph/gir.h"

namespace bw {

/** LSTM cell parameters; W* are h x x, U* are h x h, b* length h. */
struct LstmWeights
{
    unsigned hidden = 0;
    unsigned inputDim = 0;
    FMat Wf, Wi, Wo, Wc;
    FMat Uf, Ui, Uo, Uc;
    FVec bf, bi, bo, bc;
};

/** GRU cell parameters (cuDNN/DeepBench convention). */
struct GruWeights
{
    unsigned hidden = 0;
    unsigned inputDim = 0;
    FMat Wz, Wr, Wh;
    FMat Uz, Ur, Uh;
    FVec bz, br, bh;
};

/** Dense MLP parameters; layer i maps dims[i] -> dims[i+1]. */
struct MlpWeights
{
    std::vector<FMat> weights;
    std::vector<FVec> biases;
};

/** Xavier-initialized random weights (deterministic per seed). */
LstmWeights randomLstmWeights(unsigned hidden, unsigned input_dim,
                              Rng &rng);
GruWeights randomGruWeights(unsigned hidden, unsigned input_dim, Rng &rng);
MlpWeights randomMlpWeights(const std::vector<unsigned> &dims, Rng &rng);

/**
 * Build the LSTM cell graph:
 *   g = sigm/tanh(W_g x + U_g h + b_g)    for g in {f, i, o, c~}
 *   c' = f (*) c + i (*) c~
 *   h' = o (*) tanh(c')
 * with h' sent to the network each step.
 */
GirGraph makeLstm(LstmWeights w);

/**
 * Build the GRU cell graph:
 *   z = sigm(Wz x + Uz h + bz)
 *   r = sigm(Wr x + Ur h + br)
 *   h~ = tanh(Wh x + Uh (r (*) h) + bh)
 *   h' = h~ + z (*) (h - h~)
 * with h' sent to the network each step.
 */
GirGraph makeGru(GruWeights w);

/**
 * Build a dense MLP: y = W_n(...relu(W_1 x + b_1)...) + b_n, with ReLU
 * between layers and the final layer linear.
 */
GirGraph makeMlp(MlpWeights w);

} // namespace bw

#endif // BW_GRAPH_BUILDERS_H
