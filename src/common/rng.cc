#include "common/rng.h"

namespace bw {

namespace {

constexpr size_t kShift = 156; // MT19937-64's m
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

inline uint64_t
twistWord(uint64_t cur, uint64_t next, uint64_t far)
{
    uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kStateSize; ++i) {
        uint64_t x = state_[i - 1];
        state_[i] = 6364136223846793005ull * (x ^ (x >> 62)) + i;
    }
}

void
Mt19937_64::twist()
{
    constexpr size_t n = kStateSize;
    for (size_t k = 0; k < n - kShift; ++k)
        state_[k] = twistWord(state_[k], state_[k + 1], state_[k + kShift]);
    for (size_t k = n - kShift; k < n - 1; ++k)
        state_[k] = twistWord(state_[k], state_[k + 1],
                              state_[k + kShift - n]);
    state_[n - 1] = twistWord(state_[n - 1], state_[0], state_[kShift - 1]);
    pos_ = 0;
}

void
Mt19937_64::fill(std::span<uint64_t> out)
{
    size_t done = 0;
    while (done < out.size()) {
        if (pos_ >= kStateSize)
            twist();
        size_t k = std::min(kStateSize - pos_, out.size() - done);
        const uint64_t *src = state_ + pos_;
        uint64_t *dst = out.data() + done;
        for (size_t i = 0; i < k; ++i)
            dst[i] = temper(src[i]);
        pos_ += k;
        done += k;
    }
}

void
Rng::fillUniformF(std::span<float> out, float lo, float hi)
{
    const float range = hi - lo;
    uint64_t raw[Mt19937_64::kStateSize];
    for (size_t done = 0; done < out.size();) {
        size_t k = std::min(Mt19937_64::kStateSize, out.size() - done);
        engine_.fill({raw, k});
        float *dst = out.data() + done;
        for (size_t i = 0; i < k; ++i)
            dst[i] = canonicalFromU64<float>(raw[i]) * range + lo;
        done += k;
    }
}

double
Rng::gaussian(double mean, double stddev)
{
    // Marsaglia's polar method, as libstdc++'s normal_distribution. Its
    // second value is cached per distribution object; the library built
    // a fresh one per draw, so the second value is dropped.
    double x, y, r2;
    do {
        x = 2.0 * canonicalFromU64<double>(engine_()) - 1.0;
        y = 2.0 * canonicalFromU64<double>(engine_()) - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + mean;
}

int64_t
Rng::integer(int64_t lo, int64_t hi)
{
    // Lemire's nearly divisionless downscaling, as libstdc++'s
    // uniform_int_distribution for a 64-bit generator.
    uint64_t urange = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (urange == std::numeric_limits<uint64_t>::max())
        return static_cast<int64_t>(engine_() + static_cast<uint64_t>(lo));
    uint64_t range = urange + 1;
    unsigned __int128 product =
        static_cast<unsigned __int128>(engine_()) * range;
    uint64_t low = static_cast<uint64_t>(product);
    if (low < range) {
        uint64_t threshold = (0 - range) % range;
        while (low < threshold) {
            product = static_cast<unsigned __int128>(engine_()) * range;
            low = static_cast<uint64_t>(product);
        }
    }
    return static_cast<int64_t>(static_cast<uint64_t>(product >> 64) +
                                static_cast<uint64_t>(lo));
}

} // namespace bw
