#include "cluster/chaos.h"

#include <algorithm>

#include "common/env_doc.h"
#include "common/logging.h"
#include "common/rng.h"

namespace bw {
namespace cluster {

const char *
faultClassName(FaultClass c)
{
    switch (c) {
      case FaultClass::ReplicaCrash: return "crash";
      case FaultClass::ReplicaHang: return "hang";
      case FaultClass::SlowReplica: return "slow";
      case FaultClass::DroppedMessage: return "drop";
      default: BW_PANIC("bad FaultClass %d", static_cast<int>(c));
    }
}

ChaosOptions
ChaosOptions::fromEnv(ChaosOptions base)
{
    // A negative rate or horizon disables chaos, as 0 does.
    envUnsigned("BW_CHAOS_SEED", &base.seed);
    envDouble("BW_CHAOS_RATE", &base.faultRate);
    envDouble("BW_CHAOS_HORIZON_S", &base.horizonS);
    return base;
}

ChaosOptions
ChaosOptions::fromEnv()
{
    return fromEnv(ChaosOptions{});
}

ChaosSchedule
ChaosSchedule::generate(const ChaosOptions &opts, unsigned shards)
{
    ChaosSchedule s;
    s.seed_ = opts.seed;
    if (!opts.enabled() || shards == 0)
        return s;
    // One seeded stream, fixed draw order per fault (gap, shard, class,
    // duration): the schedule is a pure function of (opts, shards).
    Rng rng(opts.seed);
    double t = 0;
    while (true) {
        t += rng.exponential(opts.faultRate);
        if (t >= opts.horizonS)
            break;
        FaultEvent ev;
        ev.atS = t;
        ev.shard = static_cast<unsigned>(
            rng.integer(0, static_cast<int64_t>(shards) - 1));
        ev.cls = static_cast<FaultClass>(rng.integer(
            0, static_cast<int64_t>(FaultClass::NumFaultClasses) - 1));
        double mean = std::max(1e-6, opts.meanDurationS);
        ev.durationS = rng.exponential(1.0 / mean);
        if (ev.cls == FaultClass::SlowReplica)
            ev.magnitude = kSlowFactor;
        else if (ev.cls == FaultClass::DroppedMessage)
            ev.magnitude = kDropProb;
        s.faults_.push_back(ev);
    }
    return s;
}

void
ChaosSchedule::addFault(FaultEvent ev)
{
    faults_.push_back(ev);
    std::stable_sort(faults_.begin(), faults_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.atS != b.atS ? a.atS < b.atS
                                               : a.shard < b.shard;
                     });
}

Json
ChaosSchedule::toJson() const
{
    Json j = Json::object();
    j.set("schema", "bw.chaos/1");
    j.set("seed", seed_);
    j.set("faults", static_cast<uint64_t>(faults_.size()));
    Json arr = Json::array();
    for (const FaultEvent &f : faults_) {
        Json fj = Json::object();
        fj.set("class", faultClassName(f.cls));
        fj.set("shard", f.shard);
        fj.set("at_s", f.atS);
        fj.set("duration_s", f.durationS);
        fj.set("magnitude", f.magnitude);
        arr.push(std::move(fj));
    }
    j.set("events", std::move(arr));
    return j;
}

double
chaosUniform(uint64_t seed, uint64_t fault, uint64_t seq)
{
    // splitmix64 finalizer over the mixed key; top 53 bits -> [0, 1).
    uint64_t z = seed ^ (fault * 0x9E3779B97F4A7C15ull) ^
                 (seq * 0xBF58476D1CE4E5B9ull);
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

} // namespace cluster
} // namespace bw
