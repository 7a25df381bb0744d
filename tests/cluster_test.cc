/**
 * @file
 * Tests for bw::cluster: deterministic traffic generation, router
 * policies (consistent hash, least-loaded, SLO-aware shedding), the LRU
 * weight cache, and the Cluster replay determinism/degeneracy contracts.
 */

#include <atomic>
#include <cstdlib>
#include <list>
#include <map>
#include <thread>
#include <unordered_map>

#include <gtest/gtest.h>

#include "bw/bw.h"

using namespace bw;
using namespace bw::cluster;

// --- TrafficGen ---

TEST(Traffic, GenerateIsDeterministic)
{
    TrafficOptions opts;
    opts.baseRps = 2000;
    opts.durationS = 0.5;
    opts.seed = 7;
    opts.diurnalAmplitude = 0.3;
    opts.diurnalPeriodS = 0.25;
    opts.bursts.push_back(BurstPhase{0.1, 0.05, 3.0});
    opts.mix.push_back(ModelMix{0, 4.0, 2, 10.0});
    opts.mix.push_back(ModelMix{1, 1.0, 5, 0.0});

    std::vector<ClusterRequest> a = generateTraffic(opts);
    std::vector<ClusterRequest> b = generateTraffic(opts);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrivalS, b[i].arrivalS);
        EXPECT_EQ(a[i].model, b[i].model);
        EXPECT_EQ(a[i].steps, b[i].steps);
        EXPECT_EQ(a[i].deadlineMs, b[i].deadlineMs);
    }
    EXPECT_EQ(trafficSummaryJson(opts, a).dump(),
              trafficSummaryJson(opts, b).dump());

    // Arrivals ascend and stay inside the duration.
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].arrivalS, a[i - 1].arrivalS);
    EXPECT_LT(a.back().arrivalS, opts.durationS);

    // The mix weights skew the model draw 4:1.
    size_t hot = 0;
    for (const ClusterRequest &r : a)
        hot += r.model == 0;
    EXPECT_GT(hot, a.size() / 2);

    // Different seed, different trace.
    opts.seed = 8;
    std::vector<ClusterRequest> c = generateTraffic(opts);
    bool same = c.size() == a.size();
    for (size_t i = 0; same && i < c.size(); ++i)
        same = c[i].arrivalS == a[i].arrivalS;
    EXPECT_FALSE(same);
}

TEST(Traffic, RateModulation)
{
    TrafficOptions opts;
    opts.baseRps = 1000;
    opts.diurnalAmplitude = 0.5;
    opts.diurnalPeriodS = 1.0;
    EXPECT_DOUBLE_EQ(trafficRateAt(opts, 0.0), 1000.0);
    EXPECT_NEAR(trafficRateAt(opts, 0.25), 1500.0, 1e-9);
    EXPECT_NEAR(trafficRateAt(opts, 0.75), 500.0, 1e-9);

    opts.bursts.push_back(BurstPhase{0.0, 0.1, 4.0});
    EXPECT_NEAR(trafficRateAt(opts, 0.0), 4000.0, 1e-9);
    EXPECT_NEAR(trafficRateAt(opts, 0.25), 1500.0, 1e-9);

    // A burst raises the arrival count inside its window.
    TrafficOptions burst;
    burst.baseRps = 1000;
    burst.durationS = 1.0;
    burst.bursts.push_back(BurstPhase{0.5, 0.2, 5.0});
    std::vector<ClusterRequest> t = generateTraffic(burst);
    size_t in = 0, before = 0;
    for (const ClusterRequest &r : t) {
        if (r.arrivalS >= 0.5 && r.arrivalS < 0.7)
            ++in;
        else if (r.arrivalS >= 0.2 && r.arrivalS < 0.4)
            ++before;
    }
    EXPECT_GT(in, 2 * before);
}

TEST(Traffic, OverlappingBurstsReachTheirProduct)
{
    // A 1.5x and a 2x burst overlap on [1, 3): the rate there is 3x
    // base, above either burst alone, so the thinning proposal must run
    // at least that fast or every candidate is accepted and the overlap
    // under-generates.
    TrafficOptions opts;
    opts.baseRps = 1000;
    opts.durationS = 4.0;
    opts.seed = 11;
    opts.bursts.push_back(BurstPhase{0.0, 3.0, 1.5});
    opts.bursts.push_back(BurstPhase{1.0, 3.0, 2.0});
    EXPECT_NEAR(trafficRateAt(opts, 2.0), 3000.0, 1e-9);
    EXPECT_GE(TrafficStream(opts).peakRps(), 3000.0);
    size_t in = 0;
    for (const ClusterRequest &r : generateTraffic(opts))
        in += r.arrivalS >= 1.0 && r.arrivalS < 3.0;
    // Poisson: within 5 sigma of the integrated rate, 6000.
    double want = 3000.0 * 2.0;
    EXPECT_NEAR(static_cast<double>(in), want, 5.0 * std::sqrt(want));
}

TEST(Traffic, SqueezeKeepsEveryThinningDecision)
{
    // The stream skips the rate for candidates under its lower bound;
    // a plain thinning loop over the same draws must give the same
    // trace, for bursts above and below 1, a negative multiplier and a
    // diurnal swing past full amplitude.
    std::vector<TrafficOptions> cases(4);
    cases[0].diurnalAmplitude = 0.4;
    cases[0].diurnalPeriodS = 0.3;
    cases[0].bursts = {{0.1, 0.2, 0.5}, {0.15, 0.3, 3.0}};
    cases[1].bursts = {{0.2, 0.1, 0.25}, {0.5, 0.1, 0.8}};
    cases[2].diurnalAmplitude = -0.7;
    cases[2].diurnalPeriodS = 0.2;
    cases[2].bursts = {{0.3, 0.2, -1.0}, {0.1, 0.5, 2.0}};
    cases[3].diurnalAmplitude = 1.3;
    cases[3].diurnalPeriodS = 0.5;
    for (size_t c = 0; c < cases.size(); ++c) {
        TrafficOptions &opts = cases[c];
        opts.baseRps = 4000;
        opts.durationS = 1.0;
        opts.seed = 3 + c;
        opts.mix = {ModelMix{0, 1.0, 1, 0.0}, ModelMix{1, 2.0, 3, 5.0}};
        TrafficStream stream(opts);
        ClusterRequest got;
        // The reference draws from its own generator in the stream's
        // order (gap, accept, then model only on accept) at the
        // stream's peak rate.
        Rng rng(opts.seed);
        double t = 0;
        size_t n = 0;
        while (true) {
            t += rng.exponential(stream.peakRps());
            if (t >= opts.durationS)
                break;
            if (rng.uniform() * stream.peakRps() >= trafficRateAt(opts, t))
                continue;
            double pick = rng.uniform() * 3.0;
            uint32_t model = pick < 1.0 ? 0 : 1;
            ASSERT_TRUE(stream.next(&got)) << "case " << c << " row " << n;
            EXPECT_EQ(got.arrivalS, t) << "case " << c << " row " << n;
            EXPECT_EQ(got.model, model) << "case " << c << " row " << n;
            ++n;
        }
        EXPECT_FALSE(stream.next(&got)) << "case " << c;
        EXPECT_GT(n, 100u) << "case " << c;
    }
}

// --- WeightCache ---

TEST(WeightCache, LruEvictionOrder)
{
    WeightCache c(100);
    EXPECT_FALSE(c.touch(0, 40).hit); // load A
    EXPECT_FALSE(c.touch(1, 40).hit); // load B
    EXPECT_TRUE(c.touch(0, 40).hit);  // A now MRU
    WeightTouch t = c.touch(2, 40);   // evicts B (LRU), not A
    EXPECT_FALSE(t.hit);
    EXPECT_EQ(t.loadedTiles, 40u);
    EXPECT_EQ(t.evictions, 1u);
    EXPECT_TRUE(c.resident(0));
    EXPECT_FALSE(c.resident(1));
    EXPECT_TRUE(c.resident(2));
    EXPECT_EQ(c.usedTiles(), 80u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 3u);
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(WeightCache, OversizedModelNeverResident)
{
    WeightCache c(50);
    // Needs two evictions to even try, still cannot fit.
    EXPECT_FALSE(c.touch(0, 20).hit);
    EXPECT_FALSE(c.touch(1, 20).hit);
    WeightTouch t = c.touch(9, 80);
    EXPECT_FALSE(t.hit);
    EXPECT_EQ(t.loadedTiles, 80u);
    EXPECT_FALSE(c.resident(9));
    // The oversized touch must not have evicted the residents.
    EXPECT_TRUE(c.resident(0));
    EXPECT_TRUE(c.resident(1));
    // And it reloads on every touch.
    EXPECT_FALSE(c.touch(9, 80).hit);
}

TEST(WeightCache, ZeroTilesAndUnbounded)
{
    WeightCache c(10);
    EXPECT_TRUE(c.touch(0, 0).hit); // zero footprint: free hit
    EXPECT_EQ(c.residents(), 0u);

    WeightCache u(0); // unbounded
    for (uint32_t m = 0; m < 50; ++m)
        EXPECT_FALSE(u.touch(m, 100).hit);
    EXPECT_EQ(u.evictions(), 0u);
    EXPECT_EQ(u.residents(), 50u);
}

TEST(WeightCache, PreloadWarmStart)
{
    WeightCache c(100);
    EXPECT_TRUE(c.preload(0, 60));
    EXPECT_FALSE(c.preload(1, 60)); // does not fit, never evicts
    EXPECT_TRUE(c.resident(0));
    EXPECT_FALSE(c.resident(1));
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.touch(0, 60).hit);
}

namespace {

/// The std::list + std::unordered_map LRU that WeightCache's intrusive
/// list replaced, kept as the differential oracle: the same hit, miss
/// and eviction rules and the same MRU-first document.
class ListLru
{
  public:
    explicit ListLru(uint64_t capacity) : capacity_(capacity) {}

    WeightTouch
    touch(uint32_t model, uint64_t tiles)
    {
        WeightTouch t;
        if (tiles == 0) {
            t.hit = true;
            ++hits_;
            return t;
        }
        auto it = index_.find(model);
        if (it != index_.end()) {
            t.hit = true;
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second);
            return t;
        }
        ++misses_;
        t.loadedTiles = tiles;
        uint64_t ev0 = evictions_;
        if (evictFor(tiles))
            insert(model, tiles);
        t.evictions = static_cast<unsigned>(evictions_ - ev0);
        return t;
    }

    bool
    preload(uint32_t model, uint64_t tiles)
    {
        if (tiles == 0 || index_.count(model))
            return true;
        if (capacity_ != 0 && used_ + tiles > capacity_)
            return false;
        insert(model, tiles);
        return true;
    }

    void
    invalidate()
    {
        lru_.clear();
        index_.clear();
        used_ = 0;
    }

    void
    clear()
    {
        invalidate();
        hits_ = misses_ = evictions_ = 0;
    }

    bool resident(uint32_t model) const { return index_.count(model) != 0; }
    size_t residents() const { return lru_.size(); }
    uint64_t used() const { return used_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }

    Json
    toJson() const
    {
        Json j = Json::object();
        j.set("capacity_tiles", capacity_);
        j.set("used_tiles", used_);
        j.set("hits", hits_);
        j.set("misses", misses_);
        j.set("evictions", evictions_);
        Json res = Json::array();
        for (const auto &[model, tiles] : lru_) {
            Json r = Json::object();
            r.set("model", model);
            r.set("tiles", tiles);
            res.push(std::move(r));
        }
        j.set("resident", std::move(res));
        return j;
    }

  private:
    using Entry = std::pair<uint32_t, uint64_t>;

    bool
    evictFor(uint64_t tiles)
    {
        if (capacity_ == 0)
            return true;
        if (tiles > capacity_)
            return false;
        while (used_ + tiles > capacity_ && !lru_.empty()) {
            used_ -= lru_.back().second;
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
        }
        return used_ + tiles <= capacity_;
    }

    void
    insert(uint32_t model, uint64_t tiles)
    {
        lru_.emplace_front(model, tiles);
        index_[model] = lru_.begin();
        used_ += tiles;
    }

    uint64_t capacity_;
    uint64_t used_ = 0, hits_ = 0, misses_ = 0, evictions_ = 0;
    std::list<Entry> lru_;
    std::unordered_map<uint32_t, std::list<Entry>::iterator> index_;
};

} // namespace

TEST(WeightCache, MatchesListLruOracle)
{
    // Seeded random touch / preload / invalidate / clear sequences over
    // unbounded, tight and roomy capacities, zero-tile and oversized
    // footprints and non-contiguous model ids: every outcome, counter
    // and document must equal the list + map LRU's.
    const std::vector<uint32_t> ids = {0, 1, 2, 5, 9, 17, 64, 300, 4097};
    uint64_t evicted = 0, oversized = 0, refreshed = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const uint64_t caps[] = {0, 40, 100, 400};
        uint64_t cap = caps[seed % 4];
        WeightCache c(cap);
        ListLru ref(cap);
        // Each id has a usual footprint (0 = zero-tile model); a touch
        // occasionally brings another.
        std::vector<uint64_t> tiles(ids.size());
        for (uint64_t &t : tiles)
            t = static_cast<uint64_t>(rng.integer(0, 4)) == 0
                    ? 0
                    : static_cast<uint64_t>(rng.integer(1, 120));
        for (int step = 0; step < 3000; ++step) {
            size_t k = static_cast<size_t>(
                rng.integer(0, static_cast<int64_t>(ids.size()) - 1));
            uint32_t m = ids[k];
            uint64_t t = rng.integer(0, 19) == 0
                             ? static_cast<uint64_t>(rng.integer(0, 500))
                             : tiles[k];
            int64_t op = rng.integer(0, 99);
            std::string where = "seed " + std::to_string(seed) +
                                " step " + std::to_string(step);
            if (op < 80) {
                bool was_resident = ref.resident(m);
                WeightTouch got = c.touch(m, t);
                WeightTouch want = ref.touch(m, t);
                ASSERT_EQ(got.hit, want.hit) << where;
                ASSERT_EQ(got.loadedTiles, want.loadedTiles) << where;
                ASSERT_EQ(got.evictions, want.evictions) << where;
                evicted += want.evictions;
                oversized += cap != 0 && t > cap;
                refreshed += was_resident && t != 0;
            } else if (op < 92) {
                ASSERT_EQ(c.preload(m, t), ref.preload(m, t)) << where;
            } else if (op < 97) {
                c.invalidate();
                ref.invalidate();
            } else {
                c.clear();
                ref.clear();
            }
            ASSERT_EQ(c.hits(), ref.hits()) << where;
            ASSERT_EQ(c.misses(), ref.misses()) << where;
            ASSERT_EQ(c.evictions(), ref.evictions()) << where;
            ASSERT_EQ(c.residents(), ref.residents()) << where;
            ASSERT_EQ(c.usedTiles(), ref.used()) << where;
            for (uint32_t id : ids)
                ASSERT_EQ(c.resident(id), ref.resident(id)) << where;
            ASSERT_EQ(c.toJson().dump(), ref.toJson().dump()) << where;
        }
    }
    // The sequences reached every path the oracle compares.
    EXPECT_GT(evicted, 100u);
    EXPECT_GT(oversized, 10u);
    EXPECT_GT(refreshed, 1000u);
}

// --- Router ---

namespace {

RouterOptions
routerOpts(RoutePolicy p)
{
    RouterOptions o;
    o.policy = p;
    return o;
}

} // namespace

TEST(Router, ConsistentHashIsStableAndLoadBlind)
{
    Router r(routerOpts(RoutePolicy::ConsistentHash), 4, 3);
    std::vector<EngineLoad> idle(4), skew(4);
    for (auto &l : idle)
        l.queueCapacity = 8;
    skew = idle;
    skew[0].queued = 100; // consistent hash must ignore load

    int32_t e = r.route(1, 0, "gru-hot", 0, idle);
    ASSERT_GE(e, 0);
    for (uint64_t s = 2; s < 10; ++s)
        EXPECT_EQ(r.route(s, 0, "gru-hot", 0, s % 2 ? skew : idle), e);

    // Different names spread over more than one engine.
    bool spread = false;
    for (int i = 0; i < 16 && !spread; ++i)
        spread = r.route(100 + i, 1, "model-" + std::to_string(i), 0,
                         idle) != e;
    EXPECT_TRUE(spread);
}

TEST(Router, LeastLoadedPicksMinAndBreaksTiesLow)
{
    Router r(routerOpts(RoutePolicy::LeastLoaded), 3, 3);
    std::vector<EngineLoad> loads(3);
    for (auto &l : loads)
        l.queueCapacity = 8;
    loads[0].queued = 2;
    loads[1].queued = 1;
    loads[2].inflight = 3;
    EXPECT_EQ(r.route(1, 0, "m", 0, loads), 1);
    loads[1].queued = 2;
    loads[2].inflight = 2;
    EXPECT_EQ(r.route(2, 0, "m", 0, loads), 0); // all tied at 2: lowest
}

TEST(Router, SloAwareShedsByClassOrder)
{
    Router r(routerOpts(RoutePolicy::SloAware), 2, 3);
    // Default thresholds for 3 classes: {2.0, 0.9, 0.7}.
    EXPECT_GT(r.shedThreshold(0), 1.0);
    EXPECT_NEAR(r.shedThreshold(1), 0.9, 1e-12);
    EXPECT_NEAR(r.shedThreshold(2), 0.7, 1e-12);

    std::vector<EngineLoad> full(2);
    for (auto &l : full) {
        l.queued = 8;
        l.queueCapacity = 8; // occupancy 1.0
    }
    EXPECT_GE(r.route(1, 0, "m", 0, full), 0); // urgent: never shed
    EXPECT_EQ(r.route(2, 0, "m", 1, full), -1);
    EXPECT_EQ(r.route(3, 0, "m", 2, full), -1);

    std::vector<EngineLoad> mid = full;
    mid[0].queued = 6;
    mid[1].queued = 6; // occupancy 0.75: sheds class 2 only
    EXPECT_GE(r.route(4, 0, "m", 1, mid), 0);
    EXPECT_EQ(r.route(5, 0, "m", 2, mid), -1);

    EXPECT_EQ(r.tally().shed, 3u);
    ASSERT_EQ(r.tally().shedByClass.size(), 3u);
    EXPECT_EQ(r.tally().shedByClass[0], 0u);
    EXPECT_EQ(r.tally().shedByClass[1], 1u);
    EXPECT_EQ(r.tally().shedByClass[2], 2u);
}

TEST(Router, DecisionLogDeterministicAndClearable)
{
    auto drive = [](Router &r) {
        std::vector<EngineLoad> loads(3);
        for (auto &l : loads)
            l.queueCapacity = 4;
        for (uint64_t s = 1; s <= 20; ++s) {
            loads[s % 3].queued = s % 5;
            r.route(s, static_cast<uint32_t>(s % 2),
                    s % 2 ? "even" : "odd",
                    static_cast<uint32_t>(s % 3), loads);
        }
    };
    Router a(routerOpts(RoutePolicy::SloAware), 3, 3);
    Router b(routerOpts(RoutePolicy::SloAware), 3, 3);
    drive(a);
    drive(b);
    Json da = a.decisionsJson();
    EXPECT_EQ(da.dump(), b.decisionsJson().dump());
    Status valid = validateRouteJson(da);
    EXPECT_TRUE(valid.ok()) << valid.toString();
    // Mutating a counter breaks the log/counter consistency check.
    Json broken = da;
    broken.set("routed", static_cast<uint64_t>(9999));
    EXPECT_FALSE(validateRouteJson(broken).ok());
    EXPECT_FALSE(validateRouteJson(Json::object()).ok());
    ASSERT_TRUE(da.find("schema"));
    EXPECT_EQ(da.find("schema")->asString(), "bw.route/1");
    EXPECT_EQ(static_cast<uint64_t>(da.find("decisions")->size()),
              a.tally().routed + a.tally().shed);

    a.clear();
    EXPECT_EQ(a.tally().routed, 0u);
    EXPECT_EQ(a.tally().shed, 0u);
    EXPECT_EQ(a.decisions().size(), 0u);
    drive(a);
    EXPECT_EQ(a.decisionsJson().dump(), b.decisionsJson().dump());
}

// --- Cluster ---

namespace {

/// A two-group, three-engine cluster over flat-service models: fast to
/// construct, fully deterministic, exercises heterogeneous groups.
ClusterOptions
smallClusterOptions()
{
    ClusterOptions co;
    ReplicaGroupSpec fast;
    fast.name = "s10";
    fast.config = NpuConfig::bwS10();
    fast.engines = 2;
    fast.engine.queueDepth = 8;
    fast.engine.defaultDeadlineMs = 20.0;
    ReplicaGroupSpec slow;
    slow.name = "s5";
    slow.config = NpuConfig::bwS5();
    slow.engines = 1;
    slow.engine.queueDepth = 8;
    slow.engine.defaultDeadlineMs = 20.0;
    co.groups = {fast, slow};
    co.weightCacheTiles = 64;
    return co;
}

TrafficOptions
smallTraffic(double rps, double duration_s)
{
    TrafficOptions t;
    t.baseRps = rps;
    t.durationS = duration_s;
    t.seed = 42;
    t.mix.push_back(ModelMix{0, 8.0, 1, 10.0}); // hot, interactive
    t.mix.push_back(ModelMix{1, 2.0, 1, 80.0}); // warm, standard
    t.mix.push_back(ModelMix{2, 1.0, 1, 0.0});  // cold, best-effort
    return t;
}

void
addSmallModels(Cluster &c)
{
    c.addTimedModel("hot", 0.8, 24);
    c.addTimedModel("warm", 1.5, 24);
    c.addTimedModel("cold", 2.5, 40);
}

} // namespace

TEST(Cluster, ReplayIsByteIdenticallyDeterministic)
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 3;
    obs::SpanTracer tracer(so);
    ClusterOptions co = smallClusterOptions();
    co.spanTracer = &tracer;
    Cluster c(co);
    addSmallModels(c);
    std::vector<ClusterRequest> trace =
        generateTraffic(smallTraffic(3000, 0.4));
    ASSERT_GT(trace.size(), 200u);

    ClusterStats s1 = c.replay(trace);
    std::string route1 = c.routeJson().dump();
    std::string slo1 = c.sloJson().dump();
    std::vector<std::string> flight1, eslo1;
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        flight1.push_back(c.engineFlightJson(e).dump());
        eslo1.push_back(c.engineSloJson(e).dump());
    }
    std::string spans1 = obs::spanTreeJson(tracer).dump();

    ClusterStats s2 = c.replay(trace);
    EXPECT_EQ(s1.toJson().dump(), s2.toJson().dump());
    EXPECT_EQ(route1, c.routeJson().dump());
    EXPECT_EQ(slo1, c.sloJson().dump());
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        EXPECT_EQ(flight1[e], c.engineFlightJson(e).dump());
        EXPECT_EQ(eslo1[e], c.engineSloJson(e).dump());
        EXPECT_TRUE(
            obs::validateFlightJson(c.engineFlightJson(e)).ok());
        EXPECT_TRUE(serve::validateSloJson(c.engineSloJson(e)).ok());
    }
    EXPECT_EQ(spans1, obs::spanTreeJson(tracer).dump());

    // The replay actually exercised the cluster.
    EXPECT_EQ(s1.submitted, trace.size());
    EXPECT_GT(s1.completed, 0u);
    uint64_t accounted =
        s1.completed + s1.shed + s1.rejected + s1.expired;
    EXPECT_EQ(accounted, s1.submitted);
}

TEST(Cluster, ExportsStayWholeWhileReplayHoldsTheMonitors)
{
    // A replay pass takes every shard's and the front door's SLO and
    // flight storage at its start and hands it back at its end. Scrapes
    // running alongside must never see a torn document (CI runs this
    // under TSan), and the pass must leave the documents a replay with
    // no scraper leaves.
    Cluster c(smallClusterOptions());
    addSmallModels(c);
    std::vector<ClusterRequest> trace =
        generateTraffic(smallTraffic(20000, 1.0));
    std::atomic<bool> scraping{false}, done{false};
    std::thread replayer([&] {
        while (!scraping)
            std::this_thread::yield();
        c.replay(trace);
        c.replay(trace);
        done = true;
    });
    size_t scrapes = 0;
    scraping = true;
    while (!done) {
        for (unsigned e = 0; e < c.engineCount(); ++e) {
            Status st = serve::validateSloJson(c.engineSloJson(e));
            EXPECT_TRUE(st.ok()) << st.toString();
            st = obs::validateFlightJson(c.engineFlightJson(e));
            EXPECT_TRUE(st.ok()) << st.toString();
        }
        Status st = serve::validateSloJson(c.fleetSloJson());
        EXPECT_TRUE(st.ok()) << st.toString();
        ++scrapes;
    }
    replayer.join();
    EXPECT_GT(scrapes, 0u);

    std::vector<std::string> scraped;
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        scraped.push_back(c.engineSloJson(e).dump());
        scraped.push_back(c.engineFlightJson(e).dump());
    }
    scraped.push_back(c.fleetSloJson().dump());
    scraped.push_back(c.sloJson().dump());
    c.replay(trace);
    size_t i = 0;
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        EXPECT_EQ(scraped[i++], c.engineSloJson(e).dump()) << e;
        EXPECT_EQ(scraped[i++], c.engineFlightJson(e).dump()) << e;
    }
    EXPECT_EQ(scraped[i++], c.fleetSloJson().dump());
    EXPECT_EQ(scraped[i++], c.sloJson().dump());
    EXPECT_GT(c.engineSloJson(0).find("classes")->at(0).find("requests")
                  ->asInt(),
              0);
}

TEST(Cluster, RouteRootedSpanTreesValidate)
{
    obs::SpanTracerOptions so;
    so.sampleEvery = 1; // trace everything
    obs::SpanTracer tracer(so);
    ClusterOptions co = smallClusterOptions();
    co.spanTracer = &tracer;
    Cluster c(co);
    addSmallModels(c);
    c.replay(generateTraffic(smallTraffic(1500, 0.1)));

    Json doc = obs::spanTreeJson(tracer);
    Status st = obs::validateSpanTreeJson(doc);
    EXPECT_TRUE(st.ok()) << st.toString();
    const Json *traces = doc.find("traces");
    ASSERT_NE(traces, nullptr);
    ASSERT_GT(traces->size(), 0u);
    for (size_t i = 0; i < traces->size(); ++i) {
        const Json *root = traces->at(i).find("root");
        ASSERT_NE(root, nullptr);
        EXPECT_EQ(root->find("name")->asString(), "route");
        const Json *kids = root->find("children");
        ASSERT_NE(kids, nullptr);
        ASSERT_EQ(kids->size(), 1u);
        EXPECT_EQ(kids->at(0).find("name")->asString(), "request");
    }
}

TEST(Cluster, ExecuteSpansCarryTheProfiledChainCount)
{
    // A served compiled-model request's execute span reports how many
    // chains the timing profile retired, and flags the leaves as
    // truncated once the tracer's cap cuts them short.
    const unsigned steps = 4;
    Rng rng(5);
    GirGraph g = makeGru(randomGruWeights(64, 64, rng));
    ClusterOptions co;
    ReplicaGroupSpec grp;
    grp.name = "s10";
    grp.config = NpuConfig::bwS10();
    grp.engine.queueDepth = 16;
    co.groups = {grp};
    std::vector<obs::ChainProfile> profile;
    Session::compile(g, grp.config)
        .timeProfiled(steps, &profile, co.fidelity);
    ASSERT_GT(profile.size(), 3u);

    for (unsigned cap : {3u, 1000u}) {
        obs::SpanTracerOptions so;
        so.sampleEvery = 1;
        so.maxChainSpans = cap;
        obs::SpanTracer tracer(so);
        co.spanTracer = &tracer;
        Cluster c(co);
        Expected<uint32_t> gru = c.addModel("gru64", g);
        ASSERT_TRUE(gru.ok()) << gru.status().toString();
        std::vector<ClusterRequest> trace;
        for (int i = 0; i < 3; ++i)
            trace.push_back(ClusterRequest{0.05 * i, gru.value(), steps,
                                           0.0});
        ASSERT_EQ(c.replay(trace).completed, trace.size());

        Json doc = obs::spanTreeJson(tracer);
        Status st = obs::validateSpanTreeJson(doc);
        ASSERT_TRUE(st.ok()) << st.toString();
        const Json *traces = doc.find("traces");
        ASSERT_EQ(traces->size(), trace.size());
        for (size_t i = 0; i < traces->size(); ++i) {
            // route -> request -> {queue_wait, dispatch, execute}
            const Json &req =
                traces->at(i).find("root")->find("children")->at(0);
            const Json &exec = req.find("children")->at(2);
            ASSERT_EQ(exec.find("name")->asString(), "execute");
            ASSERT_NE(exec.find("chains"), nullptr);
            EXPECT_EQ(static_cast<size_t>(exec.find("chains")->asInt()),
                      profile.size());
            EXPECT_EQ(exec.find("children")->size(),
                      std::min<size_t>(cap, profile.size()));
            EXPECT_EQ(exec.find("chains_truncated") != nullptr,
                      cap < profile.size());
        }
    }
}

TEST(Cluster, SingleEngineDegeneratesToEngineReplay)
{
    const double service_ms = 1.1;
    const unsigned steps = 3;

    serve::EngineOptions eo;
    eo.replicas = 2;
    eo.queueDepth = 4;
    eo.networkMs = 0.4;
    eo.defaultDeadlineMs = 6.0;

    // The reference: a model-less engine replaying the arrival schedule.
    obs::FlightRecorder refFlight;
    serve::SloMonitor refSlo;
    serve::EngineOptions ref = eo;
    ref.serviceMsOverride = service_ms;
    ref.flightRecorder = &refFlight;
    ref.sloMonitor = &refSlo;
    serve::Engine engine(ref);

    // The cluster: one group, one engine, one zero-footprint model with
    // the same flat service time.
    ClusterOptions co;
    ReplicaGroupSpec g;
    g.name = "solo";
    g.engines = 1;
    g.engine = eo;
    co.groups = {g};
    Cluster c(co);
    uint32_t m = c.addTimedModel("only", service_ms, 0);

    Rng rng(11);
    std::vector<double> arrivals = poissonArrivals(1800, 0.3, rng);
    ASSERT_GT(arrivals.size(), 100u);
    std::vector<ClusterRequest> trace;
    for (double a : arrivals)
        trace.push_back(ClusterRequest{a, m, steps, 0.0});

    ServeStats es = engine.replay(arrivals, steps);
    ClusterStats cst = c.replay(trace);

    // Identical latency summaries...
    EXPECT_EQ(es.toJson().dump(), cst.overall.toJson().dump());
    ASSERT_EQ(cst.engines.size(), 1u);
    EXPECT_EQ(es.toJson().dump(), cst.engines[0].stats.toJson().dump());
    // ...byte-identical flight and SLO documents.
    Expected<Json> ef = engine.flightJson();
    ASSERT_TRUE(ef.ok());
    EXPECT_EQ(ef.value().dump(), c.engineFlightJson(0).dump());
    EXPECT_EQ(refSlo.sloJson().dump(), c.engineSloJson(0).dump());
    // And every routed decision targeted the only engine.
    EXPECT_EQ(c.router().tally().shed, 0u);
    EXPECT_EQ(c.router().tally().routed, trace.size());
}

TEST(Cluster, WeightCacheThrashChargesReloads)
{
    ClusterOptions co;
    ReplicaGroupSpec g;
    g.name = "one";
    g.engines = 1;
    g.engine.queueDepth = 1u << 20; // no rejects: isolate reload cost
    co.groups = {g};
    co.weightCacheTiles = 50;
    co.warmStart = false; // count the cold start too
    Cluster thrash(co);
    // Two models of 40 tiles each: only one fits, so strict
    // alternation misses every touch.
    thrash.addTimedModel("a", 1.0, 40);
    thrash.addTimedModel("b", 1.0, 40);

    std::vector<ClusterRequest> trace;
    for (int i = 0; i < 200; ++i)
        trace.push_back(
            ClusterRequest{i * 0.005, static_cast<uint32_t>(i % 2), 1, 0});
    ClusterStats ts = thrash.replay(trace);
    ASSERT_EQ(ts.engines.size(), 1u);
    EXPECT_EQ(ts.engines[0].cacheHits, 0u);
    EXPECT_EQ(ts.engines[0].cacheMisses, 200u);
    EXPECT_GE(ts.engines[0].cacheEvictions, 198u);
    EXPECT_GT(ts.engines[0].reloadMsTotal, 0.0);
    EXPECT_EQ(ts.engines[0].reloadedTiles, 200u * 40u);

    // A cache that holds both models never misses once warm-started —
    // and completes faster.
    co.weightCacheTiles = 100;
    co.warmStart = true;
    Cluster roomy(co);
    roomy.addTimedModel("a", 1.0, 40);
    roomy.addTimedModel("b", 1.0, 40);
    ClusterStats rs = roomy.replay(trace);
    EXPECT_EQ(rs.engines[0].cacheMisses, 0u);
    EXPECT_EQ(rs.engines[0].cacheHits, 200u);
    EXPECT_LT(rs.overall.meanLatencyMs, ts.overall.meanLatencyMs);

    // The reload charge matches the documented DRAM model.
    double per40 = thrash.reloadMs(0, 40);
    EXPECT_GT(per40, 0.0);
    EXPECT_NEAR(ts.engines[0].reloadMsTotal, 200 * per40, 1e-9);
}

TEST(Cluster, SloAwareShedsTailClassesFirstUnderSaturation)
{
    ClusterOptions co = smallClusterOptions();
    co.router.policy = RoutePolicy::SloAware;
    Cluster c(co);
    addSmallModels(c);
    // Far past saturation: three engines of ~1 req/ms against 20k rps.
    ClusterStats s = c.replay(generateTraffic(smallTraffic(20000, 0.3)));
    ASSERT_EQ(s.shedByClass.size(), 3u);
    EXPECT_EQ(s.shedByClass[0], 0u); // interactive never front-door shed
    EXPECT_GT(s.shedByClass[1], 0u);
    EXPECT_GT(s.shedByClass[2], 0u);
    EXPECT_GT(s.shed, 0u);
    // Interactive keeps completing while lower classes shed.
    EXPECT_GT(s.completed, 0u);
}

TEST(Cluster, LeastLoadedOutperformsConsistentHashOnSkewedMix)
{
    ClusterOptions co;
    ReplicaGroupSpec g;
    g.name = "s10";
    g.config = NpuConfig::bwS10();
    g.engines = 4;
    g.engine.queueDepth = 16;
    g.engine.defaultDeadlineMs = 25.0;
    co.groups = {g};
    co.weightCacheTiles = 256; // generous: isolate placement effects
    co.router.policy = RoutePolicy::ConsistentHash;
    Cluster c(co);
    c.addTimedModel("hot", 1.0, 16);
    c.addTimedModel("cold-a", 1.0, 16);
    c.addTimedModel("cold-b", 1.0, 16);

    TrafficOptions t;
    t.baseRps = 2600; // ~65% of 4-engine capacity, all behind one hash
    t.durationS = 0.5;
    t.seed = 9;
    t.mix.push_back(ModelMix{0, 16.0, 1, 12.0}); // hot model dominates
    t.mix.push_back(ModelMix{1, 1.0, 1, 12.0});
    t.mix.push_back(ModelMix{2, 1.0, 1, 12.0});
    std::vector<ClusterRequest> trace = generateTraffic(t);

    ClusterStats hash = c.replay(trace);
    c.setRouterPolicy(RoutePolicy::LeastLoaded);
    ClusterStats least = c.replay(trace);

    // Consistent hash pins the hot model to one engine, which
    // saturates; least-loaded spreads it and sustains more goodput.
    EXPECT_GT(least.goodput, hash.goodput);
    EXPECT_GT(least.goodputRps, hash.goodputRps);
}

TEST(Cluster, DebugConfigCarriesGroupLabel)
{
    ClusterOptions co = smallClusterOptions();
    Cluster c(co);
    ASSERT_EQ(c.engineCount(), 3u);
    EXPECT_EQ(c.engineLabel(0), "s10/0");
    EXPECT_EQ(c.engineLabel(1), "s10/1");
    EXPECT_EQ(c.engineLabel(2), "s5/0");
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        Json cfg = c.engine(e).debugConfigJson();
        const Json *eng = cfg.find("engine");
        ASSERT_NE(eng, nullptr);
        const Json *group = eng->find("group");
        ASSERT_NE(group, nullptr);
        EXPECT_EQ(group->asString(), c.engineLabel(e));
    }
}

TEST(Cluster, LiveSubmitRoutesAndServes)
{
    metrics::Registry reg;
    ClusterOptions co = smallClusterOptions();
    co.metricsRegistry = &reg;
    for (ReplicaGroupSpec &g : co.groups) {
        g.engine.timeScale = 0.0; // instantaneous wall-clock service
        g.engine.defaultDeadlineMs = 0.0;
        g.engine.queueDepth = 64; // submits outpace live load signals
    }
    Cluster c(co);
    addSmallModels(c);
    c.start();
    EXPECT_TRUE(c.accepting());

    std::vector<std::future<serve::Response>> futs;
    for (int i = 0; i < 30; ++i) {
        Expected<std::future<serve::Response>> f =
            c.submit(static_cast<uint32_t>(i % 3), serve::Request::timed(1));
        ASSERT_TRUE(f.ok()) << f.status().toString();
        futs.push_back(std::move(f.value()));
    }
    c.drain();
    unsigned ok = 0;
    for (auto &f : futs)
        ok += f.get().status.ok();
    EXPECT_EQ(ok, 30u);
    EXPECT_FALSE(c.accepting());

    // The cluster registry saw the traffic.
    std::string prom = metrics::prometheusText(reg);
    EXPECT_NE(prom.find("bw_cluster_engines 3"), std::string::npos);
    EXPECT_NE(prom.find("bw_cluster_requests_total"), std::string::npos);
    EXPECT_NE(prom.find("bw_cluster_routed_total"), std::string::npos);

    // Unknown model ids are refused before routing.
    EXPECT_FALSE(c.submit(99, serve::Request::timed(1)).ok());
}

TEST(Cluster, ExposeDebugServesClusterAndPerEngineDocs)
{
    metrics::Registry reg;
    ClusterOptions co = smallClusterOptions();
    co.metricsRegistry = &reg;
    Cluster c(co);
    addSmallModels(c);
    c.replay(generateTraffic(smallTraffic(1500, 0.1)));

    metrics::MetricsHttpServer srv(reg);
    c.exposeDebug(srv);
    auto body = [&](const std::string &path) {
        std::string resp = srv.respond("GET " + path + " HTTP/1.1");
        size_t split = resp.find("\r\n\r\n");
        EXPECT_NE(resp.find("200"), std::string::npos) << path;
        return split == std::string::npos ? std::string()
                                          : resp.substr(split + 4);
    };
    Json cluster = Json::parse(body("/debug/cluster"));
    EXPECT_EQ(cluster.find("engines")->asInt(), 3);
    EXPECT_EQ(cluster.find("model_count")->asInt(), 3);
    EXPECT_EQ(cluster.find("models")->size(), 3u);
    Json route = Json::parse(body("/route.json"));
    EXPECT_EQ(route.find("schema")->asString(), "bw.route/1");
    EXPECT_TRUE(serve::validateSloJson(Json::parse(body("/slo.json"))).ok());
    for (unsigned e = 0; e < c.engineCount(); ++e) {
        std::string base = "/engine/" + std::to_string(e);
        EXPECT_TRUE(obs::validateFlightJson(
                        Json::parse(body(base + "/flight.json")))
                        .ok());
        EXPECT_TRUE(serve::validateSloJson(
                        Json::parse(body(base + "/slo.json")))
                        .ok());
        Json cfg = Json::parse(body(base + "/debug/config"));
        EXPECT_EQ(cfg.find("engine")->find("group")->asString(),
                  c.engineLabel(e));
        Json cache = Json::parse(body(base + "/cache.json"));
        EXPECT_TRUE(cache.contains("capacity_tiles"));
    }
}

TEST(Cluster, CompiledModelsDifferPerGroup)
{
    ClusterOptions co = smallClusterOptions();
    Cluster c(co);
    Rng rng(3);
    GirGraph g = makeGru(randomGruWeights(96, 96, rng));
    Expected<uint32_t> id = c.addModel("gru96", g);
    ASSERT_TRUE(id.ok()) << id.status().toString();
    // Groups have different native dimensions, so the same model has
    // different tile footprints and service times per group.
    uint64_t t0 = c.modelTiles(id.value(), 0); // BW_S10, N=400
    uint64_t t1 = c.modelTiles(id.value(), 1); // BW_S5, N=100
    EXPECT_GT(t0, 0u);
    EXPECT_GT(t1, 0u);
    EXPECT_NE(t0, t1);
    double s0 = c.modelServiceMs(id.value(), 0, 1);
    double s1 = c.modelServiceMs(id.value(), 1, 1);
    EXPECT_GT(s0, 0.0);
    EXPECT_GT(s1, s0); // the S5 part is slower than the S10 part
}

TEST(Cluster, PriceTableMatchesSessionServiceMs)
{
    // Every (model, group, fidelity, steps) key has its own entry in
    // the dense price table: a compiled and a timed model, both groups,
    // the fast tier the cluster runs and the cycle-accurate tier its
    // audit re-prices under, queried in an interleaved order and again
    // from the filled table, each equal to the session's own price.
    ClusterOptions co = smallClusterOptions();
    co.fidelity = timing::Fidelity::Fast;
    Cluster c(co);
    Rng rng(5);
    GirGraph g = makeGru(randomGruWeights(96, 96, rng));
    Expected<uint32_t> compiled = c.addModel("gru96", g);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    uint32_t timed = c.addTimedModel("flat", 1.25, 40);
    std::vector<std::unique_ptr<Session>> ref;
    for (const ReplicaGroupSpec &grp : co.groups)
        ref.push_back(
            std::make_unique<Session>(Session::compile(g, grp.config)));

    const timing::Fidelity tiers[] = {timing::Fidelity::Fast,
                                      timing::Fidelity::CycleAccurate};
    const unsigned steps[] = {7, 1, 25, 3, 2};
    for (int pass = 0; pass < 2; ++pass) {
        for (unsigned st : steps) {
            for (size_t grp = 0; grp < co.groups.size(); ++grp) {
                for (timing::Fidelity f : tiers) {
                    std::string key = "steps " + std::to_string(st) +
                                      " group " + std::to_string(grp) +
                                      " " + timing::fidelityName(f);
                    EXPECT_EQ(c.modelServiceMs(compiled.value(), grp, st, f),
                              ref[grp]->serviceMs(st, f))
                        << key;
                    EXPECT_EQ(c.modelServiceMs(timed, grp, st, f), 1.25)
                        << key;
                }
                // The three-argument form prices under the cluster's
                // own tier.
                EXPECT_EQ(c.modelServiceMs(compiled.value(), grp, st),
                          ref[grp]->serviceMs(st, timing::Fidelity::Fast));
            }
        }
    }
    // Keys that differ only in steps or only in group price apart.
    EXPECT_NE(c.modelServiceMs(compiled.value(), 0, 1),
              c.modelServiceMs(compiled.value(), 0, 25));
    EXPECT_NE(c.modelServiceMs(compiled.value(), 0, 7),
              c.modelServiceMs(compiled.value(), 1, 7));
}

TEST(Cluster, OptionsFromEnv)
{
    ::setenv("BW_CLUSTER_MIX", "s5:2,s10:1", 1);
    ::setenv("BW_CLUSTER_POLICY", "consistent_hash", 1);
    ::setenv("BW_CLUSTER_CACHE_TILES", "123", 1);
    ::setenv("BW_CLUSTER_SEED", "77", 1);
    ::setenv("BW_CLUSTER_RPS", "2500", 1);
    ::setenv("BW_CLUSTER_DURATION_S", "0.25", 1);
    ClusterOptions co = ClusterOptions::fromEnv();
    TrafficOptions to = TrafficOptions::fromEnv();
    ::unsetenv("BW_CLUSTER_MIX");
    ::unsetenv("BW_CLUSTER_POLICY");
    ::unsetenv("BW_CLUSTER_CACHE_TILES");
    ::unsetenv("BW_CLUSTER_SEED");
    ::unsetenv("BW_CLUSTER_RPS");
    ::unsetenv("BW_CLUSTER_DURATION_S");

    ASSERT_EQ(co.groups.size(), 2u);
    EXPECT_EQ(co.groups[0].name, "s5");
    EXPECT_EQ(co.groups[0].engines, 2u);
    EXPECT_EQ(co.groups[0].config.nativeDim, NpuConfig::bwS5().nativeDim);
    EXPECT_EQ(co.groups[1].name, "s10");
    EXPECT_EQ(co.groups[1].engines, 1u);
    EXPECT_EQ(co.router.policy, RoutePolicy::ConsistentHash);
    EXPECT_EQ(co.weightCacheTiles, 123u);
    EXPECT_EQ(to.seed, 77u);
    EXPECT_DOUBLE_EQ(to.baseRps, 2500.0);
    EXPECT_DOUBLE_EQ(to.durationS, 0.25);
}

// --- Replay counter publication ---

namespace {

/// Every counter of @p reg by "name{label=value,...}".
std::map<std::string, uint64_t>
counterValues(const metrics::Registry &reg)
{
    std::map<std::string, uint64_t> out;
    for (const metrics::MetricSnapshot &m : reg.collect()) {
        if (m.type != metrics::MetricType::Counter)
            continue;
        std::string key = m.name + "{";
        for (const auto &[k, v] : m.labels)
            key += k + "=" + v + ",";
        out[key + "}"] = static_cast<uint64_t>(m.value);
    }
    return out;
}

/// A saturated, chaotic small cluster: front-door sheds, shard rejects
/// and expiries, weight-cache thrash and one fault of every class.
ClusterOptions
countingClusterOptions(metrics::Registry *reg, double hedge_ms)
{
    ClusterOptions co = smallClusterOptions();
    co.metricsRegistry = reg;
    co.router.policy = RoutePolicy::SloAware;
    co.hedgeMs = hedge_ms;
    return co;
}

ChaosSchedule
oneFaultOfEachClass()
{
    ChaosSchedule sched;
    auto add = [&sched](FaultClass cls, unsigned shard, double at_s,
                        double magnitude) {
        FaultEvent f;
        f.cls = cls;
        f.shard = shard;
        f.atS = at_s;
        f.durationS = 0.04;
        f.magnitude = magnitude;
        sched.addFault(f);
    };
    add(FaultClass::ReplicaCrash, 0, 0.05, 0);
    add(FaultClass::ReplicaHang, 1, 0.07, 0);
    add(FaultClass::SlowReplica, 2, 0.09, 3.0);
    add(FaultClass::DroppedMessage, 1, 0.2, 0.5);
    return sched;
}

uint64_t
counter(const std::map<std::string, uint64_t> &c, const std::string &key)
{
    auto it = c.find(key);
    EXPECT_NE(it, c.end()) << key;
    return it == c.end() ? 0 : it->second;
}

} // namespace

TEST(Cluster, ReplayCountersAdvanceOncePerReplayInEveryMode)
{
    std::vector<ClusterRequest> trace =
        generateTraffic(smallTraffic(6000, 0.3));
    enum class Mode { Vector, Stream, HedgedChaos };
    for (Mode mode : {Mode::Vector, Mode::Stream, Mode::HedgedChaos}) {
        SCOPED_TRACE(static_cast<int>(mode));
        metrics::Registry reg;
        Cluster c(countingClusterOptions(
            &reg, mode == Mode::HedgedChaos ? 2.0 : -1.0));
        addSmallModels(c);
        if (mode == Mode::HedgedChaos)
            c.setChaosSchedule(oneFaultOfEachClass());
        auto run = [&] {
            if (mode != Mode::Stream)
                return c.replay(trace);
            size_t i = 0;
            return c.replayStream([&](ClusterRequest *r) {
                if (i == trace.size())
                    return false;
                *r = trace[i++];
                return true;
            });
        };
        ClusterStats s = run();
        std::map<std::string, uint64_t> once = counterValues(reg);
        EXPECT_EQ(s.toJson().dump(), run().toJson().dump());
        std::map<std::string, uint64_t> twice = counterValues(reg);

        ASSERT_EQ(once.size(), twice.size());
        for (const auto &[key, v] : once)
            EXPECT_EQ(twice.at(key), 2 * v) << key;

        // Each counter holds exactly what the replay reported.
        uint64_t cancelled = 0, requests = 0;
        for (unsigned e = 0; e < c.engineCount(); ++e) {
            const EngineReport &r = s.engines[e];
            std::string l = "{engine=" + c.engineLabel(e) + ",}";
            EXPECT_EQ(counter(once, "bw_cluster_routed_total" + l), r.routed);
            EXPECT_EQ(counter(once, "bw_cluster_completed_total" + l),
                      r.completed);
            EXPECT_EQ(counter(once, "bw_cluster_rejected_total" + l),
                      r.rejected);
            EXPECT_EQ(counter(once, "bw_cluster_expired_total" + l),
                      r.expired);
            EXPECT_EQ(counter(once, "bw_cluster_weight_cache_hits_total" + l),
                      r.cacheHits);
            EXPECT_EQ(
                counter(once, "bw_cluster_weight_cache_misses_total" + l),
                r.cacheMisses);
            EXPECT_EQ(
                counter(once, "bw_cluster_weight_cache_evictions_total" + l),
                r.cacheEvictions);
            // Whole microseconds per reload: within half a microsecond
            // of the exact total for every miss and re-warm.
            double reload_us = static_cast<double>(
                counter(once, "bw_cluster_reload_us_total" + l));
            EXPECT_NEAR(reload_us, r.reloadMsTotal * 1e3,
                        0.5 * static_cast<double>(r.cacheMisses + 1));
            const std::string &label = c.engineLabel(e);
            std::string fl = ",group=" + label.substr(0, label.find('/')) +
                             ",shard=" + label + ",}";
            EXPECT_EQ(counter(once, "bw_failure_total{class=crash" + fl) +
                          counter(once, "bw_failure_total{class=drop" + fl),
                      r.failed);
            cancelled += r.cancelled;
        }
        for (uint32_t m = 0; m < c.modelCount(); ++m)
            requests += counter(once, "bw_cluster_requests_total{model=" +
                                          c.modelName(m) + ",}");
        EXPECT_EQ(requests, s.submitted);
        // One shed series per deadline class, registered in class order.
        std::vector<uint64_t> shed_by_class;
        for (const metrics::MetricSnapshot &m : reg.collect()) {
            if (m.name == "bw_cluster_shed_total")
                shed_by_class.push_back(static_cast<uint64_t>(m.value) / 2);
        }
        EXPECT_EQ(shed_by_class, s.shedByClass);
        EXPECT_EQ(counter(once, "bw_hedge_attempts_total{}"), s.hedged);
        EXPECT_EQ(counter(once, "bw_hedge_wins_total{}"), s.hedgeWins);
        EXPECT_EQ(counter(once, "bw_hedge_cancelled_total{}"), cancelled);

        // The scenario moved every family it means to.
        EXPECT_GT(s.shed, 0u);
        EXPECT_GT(s.rejected + s.expired, 0u);
        uint64_t misses = 0;
        for (const EngineReport &r : s.engines)
            misses += r.cacheMisses;
        EXPECT_GT(misses, 0u);
        if (mode == Mode::HedgedChaos) {
            EXPECT_GT(s.hedged, 0u);
            EXPECT_GT(s.failed, 0u);
            uint64_t faults = 0;
            for (const auto &[key, v] : once)
                faults += key.rfind("bw_failure_total", 0) == 0 && v > 0;
            EXPECT_EQ(faults, 4u); // every class hit some request
        }

        // Live serving still counts per request, at once.
        if (mode == Mode::Vector) {
            c.start();
            auto routed = [&reg] {
                uint64_t sum = 0;
                for (const auto &[key, v] : counterValues(reg))
                    if (key.rfind("bw_cluster_routed_total", 0) == 0)
                        sum += v;
                return sum;
            };
            uint64_t r0 = routed();
            Expected<std::future<serve::Response>> f =
                c.submit(0, serve::Request::timed(1));
            ASSERT_TRUE(f.ok()) << f.status().toString();
            EXPECT_EQ(routed(), r0 + 1);
            c.drain();
            f.value().get();
        }
    }
}
