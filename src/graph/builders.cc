#include "graph/builders.h"

#include "common/logging.h"

namespace bw {

namespace {

FMat
randomMat(size_t rows, size_t cols, Rng &rng)
{
    FMat m(rows, cols);
    fillXavier(m, rng);
    return m;
}

FVec
randomVec(size_t n, Rng &rng)
{
    FVec v(n);
    rng.fillUniformF(v, -0.1f, 0.1f);
    return v;
}

} // namespace

LstmWeights
randomLstmWeights(unsigned hidden, unsigned input_dim, Rng &rng)
{
    LstmWeights w;
    w.hidden = hidden;
    w.inputDim = input_dim;
    w.Wf = randomMat(hidden, input_dim, rng);
    w.Wi = randomMat(hidden, input_dim, rng);
    w.Wo = randomMat(hidden, input_dim, rng);
    w.Wc = randomMat(hidden, input_dim, rng);
    w.Uf = randomMat(hidden, hidden, rng);
    w.Ui = randomMat(hidden, hidden, rng);
    w.Uo = randomMat(hidden, hidden, rng);
    w.Uc = randomMat(hidden, hidden, rng);
    w.bf = randomVec(hidden, rng);
    w.bi = randomVec(hidden, rng);
    w.bo = randomVec(hidden, rng);
    w.bc = randomVec(hidden, rng);
    return w;
}

GruWeights
randomGruWeights(unsigned hidden, unsigned input_dim, Rng &rng)
{
    GruWeights w;
    w.hidden = hidden;
    w.inputDim = input_dim;
    w.Wz = randomMat(hidden, input_dim, rng);
    w.Wr = randomMat(hidden, input_dim, rng);
    w.Wh = randomMat(hidden, input_dim, rng);
    w.Uz = randomMat(hidden, hidden, rng);
    w.Ur = randomMat(hidden, hidden, rng);
    w.Uh = randomMat(hidden, hidden, rng);
    w.bz = randomVec(hidden, rng);
    w.br = randomVec(hidden, rng);
    w.bh = randomVec(hidden, rng);
    return w;
}

MlpWeights
randomMlpWeights(const std::vector<unsigned> &dims, Rng &rng)
{
    BW_ASSERT(dims.size() >= 2, "MLP needs at least one layer");
    MlpWeights w;
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        w.weights.push_back(randomMat(dims[i + 1], dims[i], rng));
        w.biases.push_back(randomVec(dims[i + 1], rng));
    }
    return w;
}

GirGraph
makeLstm(LstmWeights w)
{
    GirGraph g("lstm_h" + std::to_string(w.hidden));
    NodeId x = g.input(w.inputDim, "xt");
    NodeId h = g.state(w.hidden, "h_prev");
    NodeId c = g.state(w.hidden, "c_prev");

    // x-side projections with fused bias, as in the paper's kernel.
    NodeId xWf = g.add(g.matmul(std::move(w.Wf), x, "Wf"),
                       g.constVec(std::move(w.bf), "bf"), "xWf");
    NodeId xWi = g.add(g.matmul(std::move(w.Wi), x, "Wi"),
                       g.constVec(std::move(w.bi), "bi"), "xWi");
    NodeId xWo = g.add(g.matmul(std::move(w.Wo), x, "Wo"),
                       g.constVec(std::move(w.bo), "bo"), "xWo");
    NodeId xWc = g.add(g.matmul(std::move(w.Wc), x, "Wc"),
                       g.constVec(std::move(w.bc), "bc"), "xWc");

    // f gate, fused with the multiply by c_prev ("ft_mod").
    NodeId f = g.sigmoid(
        g.add(g.matmul(std::move(w.Uf), h, "Uf"), xWf, "f_pre"), "ft");
    NodeId fc = g.mul(f, c, "ft_mod");

    NodeId i = g.sigmoid(
        g.add(g.matmul(std::move(w.Ui), h, "Ui"), xWi, "i_pre"), "it");
    NodeId o = g.sigmoid(
        g.add(g.matmul(std::move(w.Uo), h, "Uo"), xWo, "o_pre"), "ot");

    // c gate: ct = tanh(Uc h + xWc) (*) it + ft_mod.
    NodeId ctilde = g.tanh(
        g.add(g.matmul(std::move(w.Uc), h, "Uc"), xWc, "c_pre"), "c_tilde");
    NodeId ic = g.mul(ctilde, i, "i_mod");
    NodeId ct = g.add(ic, fc, "ct");

    // ht = ot (*) tanh(ct).
    NodeId ht = g.mul(g.tanh(ct, "tanh_ct"), o, "ht");

    g.bindState(c, ct);
    g.bindState(h, ht);
    g.output(ht, "ht_out");
    g.check();
    return g;
}

GirGraph
makeGru(GruWeights w)
{
    GirGraph g("gru_h" + std::to_string(w.hidden));
    NodeId x = g.input(w.inputDim, "xt");
    NodeId h = g.state(w.hidden, "h_prev");

    NodeId xWz = g.add(g.matmul(std::move(w.Wz), x, "Wz"),
                       g.constVec(std::move(w.bz), "bz"), "xWz");
    NodeId xWr = g.add(g.matmul(std::move(w.Wr), x, "Wr"),
                       g.constVec(std::move(w.br), "br"), "xWr");
    NodeId xWh = g.add(g.matmul(std::move(w.Wh), x, "Wh"),
                       g.constVec(std::move(w.bh), "bh"), "xWh");

    NodeId z = g.sigmoid(
        g.add(g.matmul(std::move(w.Uz), h, "Uz"), xWz, "z_pre"), "zt");
    NodeId r = g.sigmoid(
        g.add(g.matmul(std::move(w.Ur), h, "Ur"), xWr, "r_pre"), "rt");

    // h~ = tanh(Wh x + Uh (r (*) h) + bh); the r (*) h product is a
    // separate chain because the MVM sits at the head of the pipeline.
    NodeId rh = g.mul(h, r, "r_mod");
    NodeId htilde = g.tanh(
        g.add(g.matmul(std::move(w.Uh), rh, "Uh"), xWh, "h_pre"), "h_tilde");

    // h' = h~ + z (*) (h - h~): one subtract/multiply chain plus the
    // final accumulate, avoiding a (1 - z) constant vector.
    NodeId d = g.sub(h, htilde, "h_minus_ht");
    NodeId zd = g.mul(d, z, "z_mod");
    NodeId hnew = g.add(htilde, zd, "ht");

    g.bindState(h, hnew);
    g.output(hnew, "ht_out");
    g.check();
    return g;
}

GirGraph
makeMlp(MlpWeights w)
{
    BW_ASSERT(!w.weights.empty() && w.weights.size() == w.biases.size());
    GirGraph g("mlp");
    NodeId cur = g.input(static_cast<unsigned>(w.weights[0].cols()), "x");
    for (size_t l = 0; l < w.weights.size(); ++l) {
        std::string tag = std::to_string(l);
        cur = g.add(g.matmul(std::move(w.weights[l]), cur, "W" + tag),
                    g.constVec(std::move(w.biases[l]), "b" + tag),
                    "a" + tag);
        if (l + 1 < w.weights.size())
            cur = g.relu(cur, "relu" + tag);
    }
    g.output(cur, "y");
    g.check();
    return g;
}

} // namespace bw
