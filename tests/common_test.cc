/**
 * @file
 * Unit tests for the common utilities: bit helpers, units, text tables,
 * stats, logging, the deterministic RNG, the checked environment reader
 * and the environment-variable documentation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/cluster.h"
#include "cluster/traffic.h"
#include "common/bits.h"
#include "common/env_doc.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "serve/engine.h"

namespace bw {
namespace {

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0);
    EXPECT_EQ(ceilDiv(1, 4), 1);
    EXPECT_EQ(ceilDiv(4, 4), 1);
    EXPECT_EQ(ceilDiv(5, 4), 2);
    EXPECT_EQ(ceilDiv(2816u, 400u), 8u);
}

TEST(Bits, AlignUp)
{
    EXPECT_EQ(alignUp(0, 8), 0);
    EXPECT_EQ(alignUp(1, 8), 8);
    EXPECT_EQ(alignUp(8, 8), 8);
    EXPECT_EQ(alignUp(9, 8), 16);
}

TEST(Bits, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(Bits, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(400), 9u);  // dot reduction tree depth, BW_S10
    EXPECT_EQ(ceilLog2(2000), 11u);
    EXPECT_EQ(ceilLog2(2800), 12u);
}

TEST(Bits, BitExtractInsert)
{
    EXPECT_EQ(bits(0xABCD, 15, 12), 0xAu);
    EXPECT_EQ(bits(0xABCD, 3, 0), 0xDu);
    EXPECT_EQ(insertBits(0, 7, 4, 0xF), 0xF0u);
    EXPECT_EQ(insertBits(0xFF, 7, 4, 0x0), 0x0Fu);
}

TEST(Units, CyclesToTime)
{
    // 250 MHz: 1 cycle = 4ns.
    EXPECT_DOUBLE_EQ(cyclesToUs(250, 250.0), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMs(250000, 250.0), 1.0);
    EXPECT_EQ(msToCycles(1.0, 250.0), 250000u);
}

TEST(Units, Tflops)
{
    // BW_S10: 192,000 ops/cycle @ 250 MHz = 48 TFLOPS.
    EXPECT_DOUBLE_EQ(peakTflops(192000, 250.0), 48.0);
    // Half utilization.
    EXPECT_DOUBLE_EQ(effectiveTflops(96000 * 100, 100, 250.0), 24.0);
    EXPECT_DOUBLE_EQ(effectiveTflops(1000, 0, 250.0), 0.0);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(BW_FATAL("user error %d", 42), Error);
    try {
        BW_FATAL("user error %d", 42);
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("user error 42"),
                  std::string::npos);
    }
}

TEST(Logging, AssertPassesSilently)
{
    BW_ASSERT(1 + 1 == 2);
    BW_ASSERT(true, "with message %d", 1);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRule();
    t.addRow({"b", "22222"});
    std::string s = t.render();
    EXPECT_NE(s.find("| Name "), std::string::npos);
    EXPECT_NE(s.find("| alpha "), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    // Every line has equal length.
    size_t first_len = s.find('\n');
    size_t pos = 0;
    while (pos < s.size()) {
        size_t nl = s.find('\n', pos);
        EXPECT_EQ(nl - pos, first_len);
        pos = nl + 1;
    }
}

TEST(Table, RowArityChecked)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), Error);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtI(1234567), "1,234,567");
    EXPECT_EQ(fmtI(7), "7");
    EXPECT_EQ(fmtPct(0.748, 1), "74.8%");
}

TEST(Stats, CountersAndDistributions)
{
    StatGroup g("mvm");
    g.inc("tiles");
    g.inc("tiles", 4);
    EXPECT_EQ(g.counter("tiles"), 5u);
    EXPECT_EQ(g.counter("missing"), 0u);

    g.sample("latency", 10.0);
    g.sample("latency", 20.0);
    EXPECT_EQ(g.dist("latency").count(), 2u);
    EXPECT_DOUBLE_EQ(g.dist("latency").mean(), 15.0);
    EXPECT_DOUBLE_EQ(g.dist("latency").min(), 10.0);
    EXPECT_DOUBLE_EQ(g.dist("latency").max(), 20.0);
    EXPECT_DOUBLE_EQ(g.dist("latency").variance(), 25.0);

    std::string dump = g.dump();
    EXPECT_NE(dump.find("mvm.tiles = 5"), std::string::npos);

    g.reset();
    EXPECT_EQ(g.counter("tiles"), 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.integer(0, 1000000), b.integer(0, 1000000));
}

TEST(Rng, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, ExponentialPositive)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.exponential(2.0);
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.05); // mean = 1/rate
}

// --- Determinism contract: Rng reproduces std::mt19937_64 and
//     libstdc++'s distribution formulas bit for bit. ---

// Comparisons with <random> hold only on libstdc++: other standard
// libraries use other distribution formulas. The golden draws hold
// everywhere.
#if defined(__GLIBCXX__)
constexpr bool kLibStdCxx = true;
#else
constexpr bool kLibStdCxx = false;
#endif

const uint64_t kSeeds[] = {0xB3A117ED, 0, 1, 7, 90210,
                           0xFFFFFFFFFFFFFFFFull};

TEST(Rng, EngineMatchesStdMt19937_64)
{
    // The standard pins the 10000th output of the default seed.
    Mt19937_64 def(5489);
    for (int i = 1; i < 10000; ++i)
        def();
    EXPECT_EQ(def(), 9981545732273789042ull);

    for (uint64_t seed : kSeeds) {
        Mt19937_64 mine(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(mine(), ref()) << "seed " << seed << " draw " << i;
        // Bulk fill continues the same sequence from any offset.
        std::vector<uint64_t> bulk(1000);
        mine.fill(bulk);
        for (size_t i = 0; i < bulk.size(); ++i)
            ASSERT_EQ(bulk[i], ref()) << "seed " << seed << " fill " << i;
        EXPECT_EQ(mine(), ref());
    }
}

TEST(Rng, DrawsMatchStdDistributions)
{
    if (!kLibStdCxx)
        GTEST_SKIP() << "distribution formulas are libstdc++'s";
    for (uint64_t seed : kSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        // Interleave every kind of draw so a consumed-word miscount in
        // any of them shows up in all later ones.
        for (int i = 0; i < 500; ++i) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " i " << i);
            ASSERT_EQ(rng.uniformF(),
                      std::uniform_real_distribution<float>(-1, 1)(ref));
            ASSERT_EQ(rng.uniformF(-0.25f, 3.5f),
                      std::uniform_real_distribution<float>(-0.25f,
                                                            3.5f)(ref));
            ASSERT_EQ(rng.uniform(),
                      std::uniform_real_distribution<double>(0, 1)(ref));
            ASSERT_EQ(rng.uniform(-2.0, 3.0),
                      std::uniform_real_distribution<double>(-2, 3)(ref));
            ASSERT_EQ(rng.gaussian(1.5, 0.25),
                      std::normal_distribution<double>(1.5, 0.25)(ref));
            ASSERT_EQ(rng.integer(0, 999),
                      std::uniform_int_distribution<int64_t>(0, 999)(ref));
            ASSERT_EQ(rng.integer(-5, 5),
                      std::uniform_int_distribution<int64_t>(-5, 5)(ref));
            ASSERT_EQ(
                rng.integer(std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()),
                std::uniform_int_distribution<int64_t>(
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max())(ref));
            ASSERT_EQ(rng.integer(0, (int64_t{1} << 62) + 12345),
                      std::uniform_int_distribution<int64_t>(
                          0, (int64_t{1} << 62) + 12345)(ref));
            ASSERT_EQ(rng.exponential(2.0),
                      std::exponential_distribution<double>(2.0)(ref));
        }
    }
}

TEST(Rng, FillUniformFEqualsRepeatedUniformF)
{
    // Lengths around the 312-word state block, from unaligned offsets.
    for (size_t len : {0, 1, 311, 312, 313, 1000, 2500}) {
        for (int skip : {0, 5, 311}) {
            Rng bulk(42), single(42);
            for (int i = 0; i < skip; ++i)
                EXPECT_EQ(bulk.uniform(), single.uniform());
            std::vector<float> got(len);
            bulk.fillUniformF(got, -0.3f, 0.7f);
            for (size_t i = 0; i < len; ++i)
                ASSERT_EQ(got[i], single.uniformF(-0.3f, 0.7f))
                    << "len " << len << " skip " << skip << " i " << i;
            EXPECT_EQ(bulk.integer(0, 1 << 30), single.integer(0, 1 << 30));
        }
    }
}

template <typename Real>
void
expectConversionMatchesCompiler(uint64_t x)
{
    EXPECT_EQ(u64ToReal<Real>(x), static_cast<Real>(x)) << "x = " << x;
}

TEST(Rng, U64ConversionIsCorrectlyRoundedAtTheEdges)
{
    std::vector<uint64_t> xs = {0, 1, 2, 3, ~uint64_t{0}, ~uint64_t{0} - 1};
    // Around the branch points 2^26 (float) and 2^55 (double), the
    // signed-conversion limit 2^63 and every other power of two, with
    // the low bits that decide a tie.
    for (int p = 1; p < 64; ++p) {
        uint64_t b = uint64_t{1} << p;
        for (uint64_t d : {0ull, 1ull, 2ull, 3ull, 5ull, 7ull})
            xs.insert(xs.end(), {b + d, b - d, b - d - 1});
    }
    // Ties and near-ties just above 2^26 and 2^55: bit patterns whose
    // rounding bit is set with and without sticky bits below it.
    for (int p : {26, 27, 55, 56, 62, 63}) {
        uint64_t b = uint64_t{1} << p;
        for (int k = 0; k < 8; ++k) {
            uint64_t ulp_f = uint64_t{1} << (p - 23);
            xs.push_back(b + ulp_f / 2 + k);
            xs.push_back(b + ulp_f + ulp_f / 2 - k);
        }
    }
    for (uint64_t x : xs) {
        expectConversionMatchesCompiler<float>(x);
        expectConversionMatchesCompiler<double>(x);
    }
    Mt19937_64 e(99);
    for (int i = 0; i < 200000; ++i) {
        uint64_t x = e();
        // Also the small range, where the direct conversion is taken.
        for (uint64_t v : {x, x >> 30, x >> 38, x >> 8}) {
            ASSERT_EQ(u64ToReal<float>(v), static_cast<float>(v)) << v;
            ASSERT_EQ(u64ToReal<double>(v), static_cast<double>(v)) << v;
        }
    }
}

/** A generator that returns one fixed word, to probe the canonical map. */
struct FixedWord
{
    using result_type = uint64_t;
    uint64_t x;
    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~uint64_t{0}; }
    uint64_t operator()() { return x; }
};

TEST(Rng, CanonicalClampsBelowOne)
{
    // float(2^64 - 1) rounds to 2^64, so the draw is clamped to the
    // largest value below 1, as generate_canonical does.
    EXPECT_EQ(canonicalFromU64<float>(~uint64_t{0}),
              std::nextafter(1.0f, 0.0f));
    EXPECT_EQ(canonicalFromU64<double>(~uint64_t{0}),
              std::nextafter(1.0, 0.0));
    EXPECT_EQ(canonicalFromU64<float>(0), 0.0f);
    EXPECT_LT(canonicalFromU64<float>(~uint64_t{0} >> 1), 1.0f);
    if (!kLibStdCxx)
        return;
    std::vector<uint64_t> xs = {0, 1, (uint64_t{1} << 26) - 1,
                                uint64_t{1} << 26, uint64_t{1} << 63,
                                (uint64_t{1} << 63) + 1, ~uint64_t{0},
                                ~uint64_t{0} - (uint64_t{1} << 39),
                                ~uint64_t{0} - (uint64_t{1} << 40)};
    for (uint64_t x : xs) {
        FixedWord g{x};
        EXPECT_EQ(canonicalFromU64<float>(x),
                  (std::generate_canonical<float, 24>(g)))
            << x;
        EXPECT_EQ(canonicalFromU64<double>(x),
                  (std::generate_canonical<double, 53>(g)))
            << x;
    }
}

TEST(Rng, GoldenDraws)
{
    // Committed values (drawn with std::mt19937_64 and libstdc++'s
    // distributions), so the sequence no longer depends on <random>.
    struct Golden
    {
        uint64_t seed;
        uint64_t raw0, raw1;
        float f1, f2;
        double d1;
        int64_t i1;
        double g1, x1;
    };
    const Golden golden[] = {
        {0xB3A117ED, 0x0df21d30ffdfb4f1ull, 0x397be53a3ff1eef5ull,
         -0x1.c8378cp-1f, -0x1.c34d78p-5f, 0x1.e53a8d65769edp-2, 318,
         0x1.23a2750ba3478p-1, 0x1.808817b6eedb7p-5},
        {7, 0xc11f6531eb66d9a7ull, 0xf30567547a34c162ull, 0x1.047d94p-1f,
         0x1.70114ap-4f, 0x1.e0edcc1206968p-4, 891, 0x1.bed1e6a2baf17p-1,
         0x1.68d7c9a997d7bp-1},
        {90210, 0x144a3b54054b617dull, 0xe9270624d501a922ull,
         -0x1.aed712p-1f, 0x1.507ce2p-4f, 0x1.563fe3b78354dp-2, 168,
         0x1.4e54e243d8de7p-1, 0x1.9e6852129b49fp-3},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(testing::Message() << "seed " << g.seed);
        Mt19937_64 e(g.seed);
        EXPECT_EQ(e(), g.raw0);
        EXPECT_EQ(e(), g.raw1);
        Rng rng(g.seed);
        EXPECT_EQ(rng.uniformF(), g.f1);
        EXPECT_EQ(rng.uniformF(-0.1f, 0.1f), g.f2);
        EXPECT_EQ(rng.uniform(), g.d1);
        EXPECT_EQ(rng.integer(0, 999), g.i1);
        EXPECT_EQ(rng.gaussian(), g.g1);
        EXPECT_EQ(rng.exponential(2.0), g.x1);
    }
}

// --- Environment-variable documentation ---

/// The environment reads in the .h/.cc/.cpp files under src/,
/// examples/ and bench/.
struct EnvironmentReads
{
    /// Every BW_* name passed as a string literal to getenv() or to one
    /// of env_doc's readers.
    std::set<std::string> names;
    /// The files under src/ other than common/env_doc.cc that call
    /// getenv() themselves.
    std::set<std::string> srcGetenv;
};

EnvironmentReads
environmentReads()
{
    namespace fs = std::filesystem;
    const fs::path root(BW_SOURCE_DIR);
    EnvironmentReads reads;
    for (const char *dir : {"src", "examples", "bench"}) {
        for (const fs::directory_entry &e :
             fs::recursive_directory_iterator(fs::path(BW_SOURCE_DIR) /
                                              dir)) {
            std::string rel = e.path().lexically_relative(root).string();
            std::string ext = e.path().extension().string();
            if (!e.is_regular_file() ||
                (ext != ".h" && ext != ".cc" && ext != ".cpp"))
                continue;
            std::ifstream in(e.path());
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            if (rel.rfind("src/", 0) == 0 &&
                rel != "src/common/env_doc.cc" &&
                text.find("getenv(") != std::string::npos)
                reads.srcGetenv.insert(rel);
            for (const char *call :
                 {"getenv(", "envText(", "envUnsigned(", "envDouble("}) {
                for (size_t at = text.find(call); at != std::string::npos;
                     at = text.find(call, at + 1)) {
                    size_t q = text.find_first_not_of(
                        " \t\n", at + std::string(call).size());
                    if (q == std::string::npos ||
                        text.compare(q, 4, "\"BW_") != 0)
                        continue;
                    size_t end = text.find('"', q + 1);
                    reads.names.insert(text.substr(q + 1, end - q - 1));
                }
            }
        }
    }
    return reads;
}

/// The BW_* names in the first column of README.md's environment
/// table.
std::set<std::string>
readmeVariables()
{
    std::ifstream in(std::filesystem::path(BW_SOURCE_DIR) / "README.md");
    std::set<std::string> names;
    bool in_table = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("| Variable | Effect |", 0) == 0) {
            in_table = true;
            continue;
        }
        if (!in_table)
            continue;
        if (line.rfind('|', 0) != 0)
            break;
        std::string first = line.substr(1, line.find('|', 1) - 1);
        for (size_t at = first.find("`BW_"); at != std::string::npos;
             at = first.find("`BW_", at + 1)) {
            size_t end = first.find('`', at + 1);
            names.insert(first.substr(at + 1, end - at - 1));
        }
    }
    return names;
}

TEST(EnvDoc, ListMatchesEveryReadAndTheReadmeTable)
{
    EnvironmentReads reads = environmentReads();
    const std::set<std::string> &read = reads.names;
    std::set<std::string> readme = readmeVariables();
    ASSERT_GT(read.size(), 10u) << "no sources under " << BW_SOURCE_DIR;
    for (const std::string &file : reads.srcGetenv) {
        ADD_FAILURE() << file << " calls getenv(); read the environment "
                      << "through common/env_doc.h instead";
    }
    std::set<std::string> documented;
    for (const EnvVarDoc &d : envVarDocs()) {
        documented.insert(d.name);
        EXPECT_TRUE(read.count(d.name))
            << d.name << " is documented but nothing reads it";
        EXPECT_TRUE(readme.count(d.name))
            << d.name << " is missing from README.md's table";
    }
    for (const std::string &name : read) {
        EXPECT_TRUE(documented.count(name))
            << name << " is read but missing from envVarDocs()";
    }
    for (const std::string &name : readme) {
        EXPECT_TRUE(documented.count(name))
            << name << " is in README.md's table but not in envVarDocs()";
    }
}

// --- Checked environment reader ---

/// Sets one environment variable for a scope.
class ScopedEnv
{
  public:
    ScopedEnv(std::string name, const char *value) : name_(std::move(name))
    {
        ::setenv(name_.c_str(), value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_.c_str()); }

    const char *name() const { return name_.c_str(); }

  private:
    std::string name_;
};

/// A variable name not read before in this process: the reader warns
/// once per variable and value, so a repeated test needs a fresh one.
std::string
freshName(const char *prefix)
{
    static unsigned next = 0;
    return prefix + std::to_string(next++);
}

/// Lines of @p text that begin with "warn: ".
std::vector<std::string>
warnLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t at = 0;
    while (at < text.size()) {
        size_t end = text.find('\n', at);
        if (end == std::string::npos)
            end = text.size();
        if (text.compare(at, 6, "warn: ") == 0)
            lines.push_back(text.substr(at, end - at));
        at = end + 1;
    }
    return lines;
}

TEST(EnvReader, ParseUnsignedTakesWholeDecimalIntegersOnly)
{
    uint64_t v = 42;
    const uint64_t max = std::numeric_limits<uint64_t>::max();
    EXPECT_TRUE(parseUnsigned("0", 0, max, &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, max, &v));
    EXPECT_EQ(v, max);
    EXPECT_TRUE(parseUnsigned("9007199254740993", 0, max, &v));
    EXPECT_EQ(v, 9007199254740993ull);
    for (const char *bad : {"", "abc", "12abc", "5 ", " 5", "+5", "-5",
                            "-0", "2.5", "1e3", "1e30",
                            "18446744073709551616", "nan", "inf"}) {
        v = 42;
        EXPECT_FALSE(parseUnsigned(bad, 0, max, &v)) << "'" << bad << "'";
        EXPECT_EQ(v, 42u) << "'" << bad << "'";
    }
    EXPECT_FALSE(parseUnsigned("0", 1, max, &v));
    EXPECT_FALSE(parseUnsigned("11", 0, 10, &v));
    EXPECT_TRUE(parseUnsigned("10", 0, 10, &v));
    EXPECT_EQ(v, 10u);
}

TEST(EnvReader, UnsignedRejectsEachBadClassAndKeepsTheField)
{
    struct Case
    {
        const char *text;
        const char *why;
    };
    const Case cases[] = {
        {"many", "non-numeric"},     {"12abc", "trailing garbage"},
        {"-5", "negative"},          {"1e30", "outside the type"},
        {"18446744073709551616", "2^64"}, {"nan", "NaN"},
        {"inf", "infinity"},         {"4294967296", "outside 32 bits"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.why);
        ScopedEnv env(freshName("BW_TEST_READER_U"), c.text);
        unsigned field = 7;
        testing::internal::CaptureStderr();
        envUnsigned(env.name(), &field);
        std::vector<std::string> warns =
            warnLines(testing::internal::GetCapturedStderr());
        EXPECT_EQ(field, 7u);
        ASSERT_EQ(warns.size(), 1u);
        EXPECT_NE(warns[0].find(env.name()), std::string::npos) << warns[0];
    }
    // The same text fits a 64-bit field, and the lower bound holds.
    ScopedEnv env("BW_TEST_READER_U64", "4294967296");
    uint64_t wide = 0;
    envUnsigned("BW_TEST_READER_U64", &wide);
    EXPECT_EQ(wide, 4294967296ull);
    size_t ring = 9;
    envUnsigned("BW_TEST_READER_U64", &ring, 4294967297ull);
    EXPECT_EQ(ring, 9u);
}

TEST(EnvReader, DoubleRejectsEachBadClassAndKeepsTheField)
{
    for (const char *bad : {"fast", "1.5ms", "nan", "NaN", "inf", "-inf",
                            "1e400", "11", "-0.5"}) {
        SCOPED_TRACE(bad);
        ScopedEnv env(freshName("BW_TEST_READER_D"), bad);
        double field = 2.5;
        testing::internal::CaptureStderr();
        envDouble(env.name(), &field, 0, 10);
        std::vector<std::string> warns =
            warnLines(testing::internal::GetCapturedStderr());
        EXPECT_EQ(field, 2.5);
        ASSERT_EQ(warns.size(), 1u);
        EXPECT_NE(warns[0].find(env.name()), std::string::npos) << warns[0];
    }
    for (const char *good : {"0", "10", "1e-3", "7.25"}) {
        ScopedEnv env("BW_TEST_READER_D", good);
        double field = 2.5;
        envDouble("BW_TEST_READER_D", &field, 0, 10);
        EXPECT_EQ(field, std::strtod(good, nullptr)) << good;
    }
}

TEST(EnvReader, UnsetOrEmptyKeepsTheFieldSilently)
{
    ::unsetenv("BW_TEST_READER_UNSET");
    ScopedEnv empty("BW_TEST_READER_EMPTY", "");
    unsigned u = 3;
    double d = 1.5;
    testing::internal::CaptureStderr();
    envUnsigned("BW_TEST_READER_UNSET", &u);
    envDouble("BW_TEST_READER_UNSET", &d);
    envUnsigned("BW_TEST_READER_EMPTY", &u);
    envDouble("BW_TEST_READER_EMPTY", &d);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(u, 3u);
    EXPECT_EQ(d, 1.5);
    EXPECT_EQ(envText("BW_TEST_READER_UNSET"), nullptr);
    EXPECT_STREQ(envText("BW_TEST_READER_EMPTY"), "");
}

TEST(EnvReader, WarnsOncePerVariable)
{
    ScopedEnv a(freshName("BW_TEST_READER_ONCE_A"), "lots");
    ScopedEnv b(freshName("BW_TEST_READER_ONCE_B"), "1.0.0");
    unsigned u = 1;
    double d = 1;
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i) {
        envUnsigned(a.name(), &u);
        envDouble(b.name(), &d);
    }
    std::vector<std::string> warns =
        warnLines(testing::internal::GetCapturedStderr());
    ASSERT_EQ(warns.size(), 2u);
    EXPECT_NE(warns[0].find(std::string(a.name()) + "=lots"),
              std::string::npos)
        << warns[0];
    EXPECT_NE(warns[1].find(std::string(b.name()) + "=1.0.0"),
              std::string::npos)
        << warns[1];
}

TEST(EnvReader, FromEnvKeepsTheBaseOnRejectedValues)
{
    {
        // Was static_cast<size_t>(-5.0): undefined behaviour.
        ScopedEnv env("BW_SERVE_QUEUE_DEPTH", "-5");
        serve::EngineOptions base;
        base.queueDepth = 7;
        EXPECT_EQ(serve::EngineOptions::fromEnv(base).queueDepth, 7u);
    }
    {
        // Was parsed through a double, which rounds to ...992.
        ScopedEnv env("BW_CLUSTER_SEED", "9007199254740993");
        EXPECT_EQ(cluster::TrafficOptions::fromEnv().seed,
                  9007199254740993ull);
    }
    {
        // Was atoi then a cast: 4294967295.
        ScopedEnv env("BW_SPAN_SAMPLE", "-1");
        obs::SpanTracerOptions base;
        base.sampleEvery = 3;
        EXPECT_EQ(obs::SpanTracerOptions::fromEnv(base).sampleEvery, 3u);
    }
    {
        // Was strtoull, which wraps "-1" to 2^64 - 1.
        ScopedEnv env("BW_CHAOS_SEED", "-1");
        cluster::ChaosOptions base;
        base.seed = 11;
        EXPECT_EQ(cluster::ChaosOptions::fromEnv(base).seed, 11u);
    }
    {
        // Was atof: 0 rps, a silently empty trace.
        ScopedEnv env("BW_CLUSTER_RPS", "abc");
        cluster::TrafficOptions base;
        base.baseRps = 250;
        EXPECT_EQ(cluster::TrafficOptions::fromEnv(base).baseRps, 250.0);
    }
    {
        ScopedEnv env("BW_CLUSTER_MIX", "s5:two");
        cluster::ClusterOptions base;
        base.groups.resize(1);
        base.groups[0].name = "kept";
        std::vector<cluster::ReplicaGroupSpec> groups =
            cluster::ClusterOptions::fromEnv(base).groups;
        ASSERT_EQ(groups.size(), 1u);
        EXPECT_EQ(groups[0].name, "kept");
    }
}

TEST(EnvReader, FromEnvKeepsTheMeaningOfEdgeValues)
{
    ScopedEnv hedge("BW_HEDGE_MS", "-1");
    ScopedEnv mix("BW_CLUSTER_MIX", "s5:0,s10:3");
    cluster::ClusterOptions base;
    base.hedgeMs = 4;
    cluster::ClusterOptions co = cluster::ClusterOptions::fromEnv(base);
    EXPECT_EQ(co.hedgeMs, -1.0); // negative: hedging off
    ASSERT_EQ(co.groups.size(), 2u);
    EXPECT_EQ(co.groups[0].engines, 1u); // a count of 0 acts as 1
    EXPECT_EQ(co.groups[1].engines, 3u);

    ScopedEnv k("BW_FLIGHT_SLOWEST_K", "0");
    EXPECT_EQ(obs::FlightRecorderOptions::fromEnv().slowestK, 0u);
    ScopedEnv sample("BW_SPAN_SAMPLE", "0");
    EXPECT_EQ(obs::SpanTracerOptions::fromEnv().sampleEvery, 0u);
    // 0 replicas reaches the options; the engine raises it to 1.
    ScopedEnv replicas("BW_SERVE_REPLICAS", "0");
    EXPECT_EQ(serve::EngineOptions::fromEnv().replicas, 0u);
}

} // namespace
} // namespace bw
