#include "cluster/traffic.h"

#include <algorithm>
#include <cmath>

#include "common/env_doc.h"
#include "common/logging.h"

namespace bw {
namespace cluster {

TrafficOptions
TrafficOptions::fromEnv(TrafficOptions base)
{
    envUnsigned("BW_CLUSTER_SEED", &base.seed);
    envDouble("BW_CLUSTER_RPS", &base.baseRps);
    envDouble("BW_CLUSTER_DURATION_S", &base.durationS);
    return base;
}

TrafficOptions
TrafficOptions::fromEnv()
{
    return fromEnv(TrafficOptions{});
}

double
trafficRateAt(const TrafficOptions &opts, double t_s)
{
    double rate = opts.baseRps;
    if (opts.diurnalAmplitude != 0 && opts.diurnalPeriodS > 0) {
        rate *= 1.0 + opts.diurnalAmplitude *
                          std::sin(2.0 * M_PI * t_s /
                                   opts.diurnalPeriodS);
    }
    for (const BurstPhase &b : opts.bursts) {
        if (t_s >= b.startS && t_s < b.startS + b.durationS)
            rate *= b.multiplier;
    }
    return std::max(rate, 0.0);
}

TrafficStream::TrafficStream(TrafficOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed)
{
    if (opts_.baseRps <= 0 || opts_.durationS <= 0) {
        done_ = true;
        return;
    }

    // Peak rate bounds the thinning proposal process: diurnal swing at
    // full amplitude times the largest product of the multipliers above
    // 1 of bursts in force together. Every set of bursts in force at
    // some t is in force at the latest start among them, so the starts
    // are the only instants to try.
    peak_ = opts_.baseRps * (1.0 + std::abs(opts_.diurnalAmplitude));
    double burst_peak = 1.0;
    for (const BurstPhase &b : opts_.bursts) {
        double together = std::max(1.0, b.multiplier);
        for (const BurstPhase &o : opts_.bursts) {
            if (&o != &b && o.multiplier > 1 && o.startS <= b.startS &&
                b.startS < o.startS + o.durationS)
                together *= o.multiplier;
        }
        burst_peak = std::max(burst_peak, together);
    }
    peak_ *= burst_peak;
    BW_ASSERT(peak_ > 0, "traffic peak rate must be positive");

    // A lower bound of the rate for next()'s squeeze: the diurnal
    // trough times every burst multiplier below 1, or 0 when one is
    // negative (the rate may clamp to 0). Each factor trafficRateAt
    // applies is at least its counterpart here, and rounding is
    // monotone, so the bound holds in floating point too.
    floor_ = opts_.baseRps *
             std::max(0.0, 1.0 - std::abs(opts_.diurnalAmplitude));
    for (const BurstPhase &b : opts_.bursts) {
        if (b.multiplier < 0)
            floor_ = 0;
        else if (b.multiplier < 1)
            floor_ *= b.multiplier;
    }

    mix_ = opts_.mix;
    if (mix_.empty())
        mix_.push_back(ModelMix{});
    for (const ModelMix &m : mix_) {
        BW_ASSERT(m.weight > 0, "model mix weight must be positive");
        totalW_ += m.weight;
    }
}

bool
TrafficStream::next(ClusterRequest *out)
{
    if (done_)
        return false;
    // Thinning: candidates at the peak rate, accepted with probability
    // rate(t)/peak. Every path consumes Rng draws in a fixed order
    // (gap, accept, then model only on accept), so the trace is a pure
    // function of the options. A candidate under the rate's lower bound
    // is accepted without evaluating the rate: the same decision.
    while (true) {
        t_ += rng_.exponential(peak_);
        if (t_ >= opts_.durationS) {
            done_ = true;
            return false;
        }
        double accept = rng_.uniform() * peak_;
        if (accept >= floor_ && accept >= trafficRateAt(opts_, t_))
            continue;
        double pick = rng_.uniform() * totalW_;
        size_t m = 0;
        for (; m + 1 < mix_.size(); ++m) {
            if (pick < mix_[m].weight)
                break;
            pick -= mix_[m].weight;
        }
        out->arrivalS = t_;
        out->model = mix_[m].model;
        out->steps = std::max(1u, mix_[m].steps);
        out->deadlineMs = mix_[m].deadlineMs;
        ++produced_;
        return true;
    }
}

std::vector<ClusterRequest>
generateTraffic(const TrafficOptions &opts)
{
    std::vector<ClusterRequest> trace;
    TrafficStream stream(opts);
    ClusterRequest r;
    while (stream.next(&r))
        trace.push_back(r);
    return trace;
}

Json
trafficSummaryJson(const TrafficOptions &opts,
                   const std::vector<ClusterRequest> &trace)
{
    Json j = Json::object();
    j.set("seed", opts.seed);
    j.set("base_rps", opts.baseRps);
    j.set("duration_s", opts.durationS);
    j.set("diurnal_amplitude", opts.diurnalAmplitude);
    j.set("bursts", static_cast<uint64_t>(opts.bursts.size()));
    j.set("requests", static_cast<uint64_t>(trace.size()));
    if (!trace.empty()) {
        j.set("first_arrival_s", trace.front().arrivalS);
        j.set("last_arrival_s", trace.back().arrivalS);
    }
    // Per-model request counts, ascending by model id.
    uint32_t max_model = 0;
    for (const ClusterRequest &r : trace)
        max_model = std::max(max_model, r.model);
    std::vector<uint64_t> counts(trace.empty() ? 0 : max_model + 1, 0);
    for (const ClusterRequest &r : trace)
        ++counts[r.model];
    Json per_model = Json::array();
    for (uint64_t c : counts)
        per_model.push(c);
    j.set("per_model", std::move(per_model));
    return j;
}

} // namespace cluster
} // namespace bw
