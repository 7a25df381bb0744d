/**
 * @file
 * Deterministic chaos plane: seeded, virtual-time fault schedules for
 * the cluster.
 *
 * The paper's deployment argument (Sections II and VIII) is that a
 * cloud-scale NPU fleet must keep serving when individual FPGAs hang or
 * a network hop drops — failure is an input, not an exception. A
 * ChaosSchedule makes that input first-class and replayable: a list of
 * fault events (replica crash, replica hang, slow replica, dropped
 * partition messages), each pinned to a shard and a virtual-time
 * window, generated from a seed or written explicitly by tests.
 *
 * Nothing here consults a clock or an unseeded RNG. A generated
 * schedule is a pure function of (seed, options, shard count), and
 * per-request effects inside a fault window (which messages a
 * partition drops) hash the deterministic submission sequence number —
 * so two Cluster::replay runs under one schedule export byte-identical
 * route logs, incident timelines, flight docs and SLO docs, and a
 * zero-fault schedule leaves the replay bit-identical to no schedule
 * at all (tested).
 */

#ifndef BW_CLUSTER_CHAOS_H
#define BW_CLUSTER_CHAOS_H

#include <cstdint>
#include <vector>

#include "common/json.h"

namespace bw {
namespace cluster {

/** The fault taxonomy (DESIGN.md section 11). */
enum class FaultClass : uint8_t
{
    ReplicaCrash = 0, //!< shard dies; restart re-warms its weight cache
    ReplicaHang,      //!< shard accepts but never answers (FPGA wedge)
    SlowReplica,      //!< service times stretch by a factor
    DroppedMessage,   //!< partition: requests to the shard vanish
    NumFaultClasses
};

/** Short class label: "crash" | "hang" | "slow" | "drop". */
const char *faultClassName(FaultClass c);

/** One scheduled fault: class, target shard, virtual-time window. */
struct FaultEvent
{
    FaultClass cls = FaultClass::ReplicaCrash;
    unsigned shard = 0;    //!< target engine-shard index
    double atS = 0;        //!< fault fires at this virtual second
    double durationS = 0;  //!< window length (crash: downtime before
                           //!< restart; hang/slow/drop: effect window)
    /** Class-specific knob: SlowReplica = service-time multiplier,
     *  DroppedMessage = per-request drop probability; 0 otherwise. */
    double magnitude = 0;
};

/** SlowReplica service-time multiplier of a generated fault. */
constexpr double kSlowFactor = 4.0;

/** DroppedMessage per-request drop probability of a generated fault. */
constexpr double kDropProb = 0.5;

/** Seeded schedule generation knobs. */
struct ChaosOptions
{
    uint64_t seed = 1;

    /** Cluster-wide fault arrivals per virtual second (Poisson).
     *  0 disables chaos entirely. */
    double faultRate = 0;

    /** Generate faults in [0, horizonS) virtual seconds. */
    double horizonS = 0;

    /** Mean fault-window length (exponential). */
    double meanDurationS = 0.05;

    bool enabled() const { return faultRate > 0 && horizonS > 0; }

    /** Apply BW_CHAOS_SEED, BW_CHAOS_RATE and BW_CHAOS_HORIZON_S on
     *  @p base. */
    static ChaosOptions fromEnv(ChaosOptions base);
    static ChaosOptions fromEnv();
};

/**
 * An ordered fault schedule. Default-constructed = empty = no faults
 * (the identity schedule). Faults are kept sorted by (atS, shard);
 * the cluster resolves overlapping faults on one shard by dropping the
 * later one at replay reset (a shard lives one incident at a time).
 */
class ChaosSchedule
{
  public:
    ChaosSchedule() = default;

    /** Seeded Poisson schedule over @p shards shards — a pure function
     *  of (opts, shards). Empty when !opts.enabled(). */
    static ChaosSchedule generate(const ChaosOptions &opts,
                                  unsigned shards);

    /** Append one explicit fault (tests, reproducers). */
    void addFault(FaultEvent ev);

    const std::vector<FaultEvent> &faults() const { return faults_; }
    bool empty() const { return faults_.empty(); }
    uint64_t seed() const { return seed_; }

    /** The schedule as a bw.chaos/1 document (debug introspection). */
    Json toJson() const;

  private:
    uint64_t seed_ = 0;
    std::vector<FaultEvent> faults_;
};

/**
 * Deterministic per-request uniform draw in [0, 1): splitmix64 over
 * (seed, fault id, submission seq). This is what decides which
 * messages a DroppedMessage window eats — a pure function of replay
 * state, never an RNG stream that request order could perturb.
 */
double chaosUniform(uint64_t seed, uint64_t fault, uint64_t seq);

} // namespace cluster
} // namespace bw

#endif // BW_CLUSTER_CHAOS_H
