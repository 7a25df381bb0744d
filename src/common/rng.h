/**
 * @file
 * Deterministic random number generation. All stochastic behaviour in the
 * library (weight initialization, synthetic workloads) flows through Rng so
 * results are reproducible run to run.
 *
 * Determinism contract: Rng's raw sequence is exactly std::mt19937_64's
 * for the same seed, and every draw uses libstdc++'s formula for the
 * matching standard distribution (uniform_real_distribution via
 * generate_canonical, the polar normal_distribution, Lemire's
 * uniform_int_distribution and exponential_distribution), written out
 * here so the values no longer depend on the toolchain's <random>.
 * Weights drawn by earlier versions of the library are therefore
 * reproduced bit for bit; tests/common_test.cc pins both the equality
 * with <random> and a set of golden draws.
 */

#ifndef BW_COMMON_RNG_H
#define BW_COMMON_RNG_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace bw {

/**
 * MT19937-64 (Matsumoto & Nishimura), output-identical to
 * std::mt19937_64: same seeding, same twist, same tempering. The twist
 * is branch-free and fill() tempers a whole run of state words at a time.
 */
class Mt19937_64
{
  public:
    static constexpr size_t kStateSize = 312;

    explicit Mt19937_64(uint64_t seed);

    uint64_t
    operator()()
    {
        if (pos_ >= kStateSize)
            twist();
        return temper(state_[pos_++]);
    }

    /** The next out.size() outputs, in order. */
    void fill(std::span<uint64_t> out);

  private:
    static uint64_t
    temper(uint64_t z)
    {
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

    void twist();

    uint64_t state_[kStateSize];
    size_t pos_ = kStateSize;
};

/**
 * Correctly rounded (to nearest even) conversion of a 64-bit unsigned
 * value to float or double, as the compiler's own conversion gives. The
 * compiler branches on the top bit, which a random word sets half the
 * time; this branches on x < 2^(digits+2), which a random word almost
 * never is. Above that bound, halving with the dropped bit folded in as a
 * sticky bit keeps the rounding decision and fits a signed conversion.
 */
template <typename Real>
inline Real
u64ToReal(uint64_t x)
{
    constexpr int kDigits = std::numeric_limits<Real>::digits;
    if (x < (uint64_t{1} << (kDigits + 2)))
        return static_cast<Real>(static_cast<int64_t>(x));
    return Real(2) *
           static_cast<Real>(static_cast<int64_t>((x >> 1) | (x & 1)));
}

/**
 * std::generate_canonical<Real, digits>(mt19937_64) from one raw word:
 * Real(x) * 2^-64, clamped just below 1.
 */
template <typename Real>
inline Real
canonicalFromU64(uint64_t x)
{
    constexpr Real kBelowOne =
        Real(1) - std::numeric_limits<Real>::epsilon() / Real(2);
    Real r = u64ToReal<Real>(x) * Real(0x1p-64);
    return std::min(r, kBelowOne);
}

/** Seeded pseudo-random source with convenience distributions. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0xB3A117ED) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        return canonicalFromU64<double>(engine_()) * (hi - lo) + lo;
    }

    /** Uniform float in [lo, hi). */
    float
    uniformF(float lo = -1.0f, float hi = 1.0f)
    {
        return canonicalFromU64<float>(engine_()) * (hi - lo) + lo;
    }

    /** out.size() successive uniformF(lo, hi) draws, in one pass. */
    void fillUniformF(std::span<float> out, float lo = -1.0f,
                      float hi = 1.0f);

    /** Gaussian double with the given mean and standard deviation. */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t integer(int64_t lo, int64_t hi);

    /** Exponentially distributed double with the given rate. */
    double
    exponential(double rate)
    {
        return -std::log(1.0 - canonicalFromU64<double>(engine_())) / rate;
    }

  private:
    Mt19937_64 engine_;
};

} // namespace bw

#endif // BW_COMMON_RNG_H
