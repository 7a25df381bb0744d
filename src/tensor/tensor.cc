#include "tensor/tensor.h"

#include <cmath>

namespace bw {

FVec
gemvRef(const FMat &a, std::span<const float> x)
{
    BW_ASSERT(a.cols() == x.size(), "gemv: %zu cols vs %zu elems", a.cols(),
              x.size());
    FVec y(a.rows());
    for (size_t r = 0; r < a.rows(); ++r) {
        double acc = 0.0;
        auto row = a.row(r);
        for (size_t c = 0; c < a.cols(); ++c)
            acc += static_cast<double>(row[c]) * x[c];
        y[r] = static_cast<float>(acc);
    }
    return y;
}

FVec
addRef(std::span<const float> a, std::span<const float> b)
{
    BW_ASSERT(a.size() == b.size());
    FVec y(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        y[i] = a[i] + b[i];
    return y;
}

FVec
mulRef(std::span<const float> a, std::span<const float> b)
{
    BW_ASSERT(a.size() == b.size());
    FVec y(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        y[i] = a[i] * b[i];
    return y;
}

FVec
padTo(std::span<const float> v, size_t len)
{
    BW_ASSERT(len >= v.size());
    FVec out(len, 0.0f);
    std::copy(v.begin(), v.end(), out.begin());
    return out;
}

FMat
padTo(const FMat &m, size_t rows, size_t cols)
{
    BW_ASSERT(rows >= m.rows() && cols >= m.cols());
    FMat out(rows, cols);
    for (size_t r = 0; r < m.rows(); ++r) {
        auto src = m.row(r);
        std::copy(src.begin(), src.end(), out.row(r).begin());
    }
    return out;
}

void
fillUniform(FVec &v, Rng &rng, float lo, float hi)
{
    rng.fillUniformF(v, lo, hi);
}

void
fillUniform(FMat &m, Rng &rng, float lo, float hi)
{
    rng.fillUniformF(m.data(), lo, hi);
}

void
fillXavier(FMat &m, Rng &rng)
{
    if (m.size() == 0)
        return;
    float limit = std::sqrt(6.0f / (m.rows() + m.cols()));
    rng.fillUniformF(m.data(), -limit, limit);
}

double
maxAbsDiff(std::span<const float> a, std::span<const float> b)
{
    BW_ASSERT(a.size() == b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
    return m;
}

} // namespace bw
