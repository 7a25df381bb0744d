/**
 * @file
 * Open-loop cluster traffic generation: seeded, deterministic Poisson
 * arrivals over a multi-model mix, with diurnal modulation and burst
 * phases.
 *
 * The paper's Fig. 1 datacenter serves live traffic whose rate is
 * anything but constant — the text calls out diurnal load swings and
 * the need to absorb bursts without violating the hard SLO. TrafficGen
 * models that as a non-homogeneous Poisson process:
 *
 *   rate(t) = baseRps
 *           * (1 + diurnalAmplitude * sin(2*pi*t / diurnalPeriodS))
 *           * burstMultiplier(t)
 *
 * realized by thinning: candidate arrivals are drawn at the peak rate
 * from a seeded Rng and accepted with probability rate(t) / peakRate.
 * Every draw flows through the one Rng in a fixed order, so the same
 * TrafficOptions always produce the same trace — the determinism
 * contract the cluster replay() inherits (see cluster.h).
 *
 * Each accepted arrival is assigned a resident model by weighted draw
 * over the mix (skew the weights for the hot-model scenarios the
 * router benchmarks exercise); the mix entry also fixes the request's
 * step count and deadline class.
 */

#ifndef BW_CLUSTER_TRAFFIC_H
#define BW_CLUSTER_TRAFFIC_H

#include <cstdint>
#include <vector>

#include "common/json.h"
#include "common/rng.h"

namespace bw {
namespace cluster {

/** One entry of the model popularity mix. */
struct ModelMix
{
    uint32_t model = 0;    //!< resident-model id (Cluster::addModel)
    double weight = 1.0;   //!< relative popularity (any positive scale)
    unsigned steps = 1;    //!< timesteps per request of this model
    double deadlineMs = 0; //!< per-request deadline (0 = engine default)
};

/** One burst phase: the arrival rate is multiplied while it lasts. */
struct BurstPhase
{
    double startS = 0;
    double durationS = 0;
    double multiplier = 1.0;
};

/** TrafficGen configuration. */
struct TrafficOptions
{
    double baseRps = 1000.0;
    double durationS = 1.0;
    uint64_t seed = 42;

    /** Diurnal modulation: rate swings +/- this fraction of baseRps
     *  over one period (0 = flat). */
    double diurnalAmplitude = 0.0;
    double diurnalPeriodS = 86400.0;

    std::vector<BurstPhase> bursts;

    /** Model popularity mix; empty = one model (id 0, steps 1). */
    std::vector<ModelMix> mix;

    /** Apply BW_CLUSTER_SEED, BW_CLUSTER_RPS and BW_CLUSTER_DURATION_S
     *  on @p base. */
    static TrafficOptions fromEnv(TrafficOptions base);
    static TrafficOptions fromEnv();
};

/** One generated request of the cluster trace. */
struct ClusterRequest
{
    double arrivalS = 0;
    uint32_t model = 0;
    unsigned steps = 1;
    double deadlineMs = 0;
};

/** The instantaneous arrival rate at @p t_s (diurnal * bursts). */
double trafficRateAt(const TrafficOptions &opts, double t_s);

/**
 * Pull-based traffic generator: the same thinning process as
 * generateTraffic, one request per next() call, in O(1) memory. The
 * Rng draw order is identical (gap, accept, then model only on
 * accept), so a TrafficStream drained into a vector reproduces
 * generateTraffic(opts) byte-identically (tested) — this is what lets
 * Cluster::replayStream push multi-million-request traces without
 * ever materializing them.
 */
class TrafficStream
{
  public:
    explicit TrafficStream(TrafficOptions opts);

    /** Produce the next request into @p out; false at end of trace. */
    bool next(ClusterRequest *out);

    const TrafficOptions &options() const { return opts_; }

    /** Requests produced so far. */
    uint64_t produced() const { return produced_; }

    /** The thinning proposal rate: at least trafficRateAt anywhere. */
    double peakRps() const { return peak_; }

  private:
    TrafficOptions opts_;
    std::vector<ModelMix> mix_;
    double totalW_ = 0;
    double peak_ = 0;
    double floor_ = 0; //!< a lower bound of trafficRateAt
    Rng rng_;
    double t_ = 0;
    bool done_ = false;
    uint64_t produced_ = 0;
};

/**
 * Generate the arrival trace: ascending arrival times in
 * [0, durationS), each with its drawn model's steps and deadline.
 * Deterministic: same options, same trace (tested byte-identically).
 * Equivalent to draining a TrafficStream into a vector.
 */
std::vector<ClusterRequest> generateTraffic(const TrafficOptions &opts);

/** The trace's shape as Json (count, span, per-model counts). */
Json trafficSummaryJson(const TrafficOptions &opts,
                        const std::vector<ClusterRequest> &trace);

} // namespace cluster
} // namespace bw

#endif // BW_CLUSTER_TRAFFIC_H
