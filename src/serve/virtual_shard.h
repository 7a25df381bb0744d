/**
 * @file
 * The virtual-time queueing kernel of one serving shard.
 *
 * Brainwave serves at batch 1: each request goes to an NPU as it
 * arrives (Sections I, VII-B3). Every virtual-time replay in the repo
 * models that one discipline — admit against the queue depth, start on
 * the earliest-free replica, expire the deadline at dequeue — and this
 * file is the only place it is written down. Engine::replay,
 * Cluster::replay's single and hedged dispatch and the router's
 * virtual load signal all drive a VirtualShard.
 *
 * A VirtualShard is a plain value: per-replica free times plus a log of
 * admitted requests' service-start (dequeue) times. A request arriving
 * at t sees as queued every logged start still after t. The log is a
 * ring buffer pruned as time passes, so a shard's memory is bounded by
 * its queue depth however long the replay runs, and the per-request
 * path allocates nothing once the ring has grown to that size.
 *
 * serve() is the whole batch-1 attempt of an admitted request: reserve
 * a replica once the request has crossed half the network, expire it
 * at dequeue or hold the replica for its service time. Engine::replay
 * and every cluster dispatch attempt call it; the cluster folds its
 * weight reload and a slowed replica's stretch into the service time
 * first.
 *
 * AttemptRecord is the matching single builder of what a finished
 * submission attempt leaves behind: its flight record (stamps taken
 * from seconds once, here) and its SLO sample. Its span tree is
 * written by obs::recordAttemptSpans from the same record. A replay
 * pass writes records and samples through one OutcomeSink.
 *
 * Everything a replayed request runs here is inline in this header:
 * the queue measure (queued's ascending fast path, inflight), prune,
 * reserve and the log push, serve(), the record constructor and its
 * stamp rounding (roundHalfAway, which is std::llround without the
 * call). Out of line are only what the per-request path rarely
 * reaches: the upper_bound probe of an unsorted (hedged) log, cancel
 * and ring growth.
 */

#ifndef BW_SERVE_VIRTUAL_SHARD_H
#define BW_SERVE_VIRTUAL_SHARD_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/flight.h"
#include "serve/slo.h"

namespace bw {
namespace serve {

/**
 * std::llround(@p x), bit for bit, inline: the nearest integer with
 * halves rounded away from zero. Truncation is exact below 2^63 in
 * magnitude, and so is the fraction it leaves, so comparing that
 * fraction with one half rounds exactly as llround does; the call
 * through the C library remains only for |x| >= 2^63 and NaN, where
 * llround's own result (or domain error) is kept. It and the two
 * stamp helpers below are always_inline: an AttemptRecord takes five
 * stamps per request, and GCC otherwise left a call per stamp.
 */
[[gnu::always_inline]] inline long long
roundHalfAway(double x)
{
    if (!(x > -0x1p63 && x < 0x1p63))
        return std::llround(x);
    long long i = static_cast<long long>(x);
    double frac = x - static_cast<double>(i);
    return frac >= 0.5 ? i + 1 : frac <= -0.5 ? i - 1 : i;
}

/** Whole microseconds from @p us (roundHalfAway; 0 for non-positive
 *  input): the one rounding rule behind every record stamp. */
[[gnu::always_inline]] inline uint64_t
roundUs(double us)
{
    return us > 0 ? static_cast<uint64_t>(roundHalfAway(us)) : 0;
}

/** Seconds -> whole microseconds (roundUs): the one conversion behind
 *  every engine and cluster record stamp. */
[[gnu::always_inline]] inline uint64_t
toUs(double seconds)
{
    return roundUs(seconds * 1e6);
}

/** Queue state of one virtual-time shard (see the file comment). */
class VirtualShard
{
  public:
    /** One admitted request's hold on a replica. */
    struct Reservation
    {
        size_t replica = 0;
        double startS = 0;    //!< service start (dequeue time)
        double prevFreeS = 0; //!< the replica's free time before
    };

    explicit VirtualShard(unsigned replicas = 1, size_t queue_depth = 1);

    size_t queueDepth() const { return depth_; }

    /** Admitted requests not yet dequeued at @p t: O(1) for a query
     *  no earlier than the last prune() while the log is ascending. */
    size_t queued(double t) const
    {
        // An ascending log holds only starts after t once t precedes
        // its front, which is every query at the time of the last
        // prune().
        if (ascending_ && (size_ == 0 || t < at(0)))
            return size_;
        return queuedUnsorted(t);
    }

    /** Whether the start log is known to be ascending. Starts logged
     *  under one arrival clock are; a hedge's later start can break
     *  the order, which then holds again once the log drains. */
    bool ascending() const { return ascending_ || size_ == 0; }

    /** Replicas still busy at @p t. */
    uint64_t inflight(double t) const
    {
        return static_cast<uint64_t>(
            std::count_if(freeS_.begin(), freeS_.end(),
                          [t](double f) { return f > t; }));
    }

    /** Whether a request arriving at @p t finds room in the queue. */
    bool admits(double t) const { return queued(t) < depth_; }

    /**
     * Take the earliest-free replica (lowest index on ties) for a
     * request ready at @p ready_s: it starts at max(ready, free time),
     * and that start is logged. The replica's free time is unchanged
     * until finish().
     */
    Reservation reserve(double ready_s)
    {
        Reservation r;
        r.replica = static_cast<size_t>(
            std::min_element(freeS_.begin(), freeS_.end()) -
            freeS_.begin());
        r.prevFreeS = freeS_[r.replica];
        r.startS = std::max(ready_s, r.prevFreeS);
        push(r.startS);
        return r;
    }

    /** The reserved replica is busy until @p done_s. */
    void finish(const Reservation &r, double done_s)
    {
        freeS_[r.replica] = done_s;
    }

    /** Undo the most recent reserve(): the replica's free time is
     *  restored and its start leaves the log. */
    void cancel(const Reservation &r);

    /** Drop logged starts at or before @p now_s from the front. Call
     *  with the current arrival time only — later queries must not
     *  look back before @p now_s. */
    void prune(double now_s)
    {
        // Starts at or before now are exactly what queued(t) counts as
        // dequeued for any t >= now, so dropping them changes no
        // answer.
        while (size_ > 0 && at(0) <= now_s) {
            head_ = (head_ + 1) & mask_;
            --size_;
        }
    }

    /** Whether a request that arrived at @p arrival_s and dequeues at
     *  @p start_s has outwaited @p deadline_ms (0 = no deadline). */
    static bool expires(double arrival_s, double start_s,
                        double deadline_ms)
    {
        return deadline_ms > 0 &&
               (start_s - arrival_s) * 1e3 > deadline_ms;
    }

    /** What serve() did with one admitted request. */
    struct Step
    {
        Reservation res;
        double startS = 0;      //!< service start (dequeue)
        double doneS = 0;       //!< service end (== startS if expired)
        double clientDoneS = 0; //!< when the caller hears the outcome
        double latencyMs = 0;   //!< from arrival, network included
        obs::FlightClass cls = obs::FlightClass::Ok; //!< or expired
    };

    /**
     * The batch-1 attempt of a request admitted at @p arrival_s:
     * reserve a replica at arrival + @p net_ms / 2, expire the request
     * at dequeue past @p deadline_ms (the replica stays free), else
     * hold the replica for @p service_s. The caller hears an expiry at
     * dequeue plus the whole round trip, a completion half a round
     * trip after service ends.
     */
    Step serve(double arrival_s, double net_ms, double deadline_ms,
               double service_s);

  private:
    double at(size_t i) const { return log_[(head_ + i) & mask_]; }
    /** queued() over a log that may be out of order (a hedged start):
     *  std::upper_bound's probe sequence, out of line. */
    size_t queuedUnsorted(double t) const;
    void push(double start_s)
    {
        ascending_ =
            ascending() && (size_ == 0 || start_s >= at(size_ - 1));
        if (size_ == log_.size())
            grow();
        log_[(head_ + size_) & mask_] = start_s;
        ++size_;
    }
    /** Double the ring, unrolled to start at index 0. */
    void grow();

    std::vector<double> freeS_; //!< per-replica next-free time
    size_t depth_ = 1;
    std::vector<double> log_;   //!< ring of starts, power-of-two size
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
    bool ascending_ = true; //!< no logged start precedes the one before
};

/**
 * What one finished submission attempt leaves behind: its flight record
 * (the base; latencyUs is derived from latencyMs) and an SLO sample at
 * doneUs. Stamps are microseconds on the recording clock, virtual under
 * replay. An attempt that never got a request id (a reject, a fault
 * before admission) has id 0 and is unsampled.
 */
struct AttemptRecord : obs::FlightRecord
{
    double latencyMs = 0;  //!< as the caller saw it, network included
    double deadlineMs = 0; //!< resolved (0 = none)

    AttemptRecord() = default;

    /** Stamps from seconds: each boundary becomes whole microseconds
     *  (toUs) once, clamped to the one before it, so admit <= dequeue
     *  <= service <= done and the span children partition the request
     *  span exactly; latencyUs is latencyMs rounded likewise
     *  (roundUs). */
    AttemptRecord(uint64_t seq, uint64_t id, obs::FlightClass cls,
                  bool sampled, uint32_t replica, uint32_t steps,
                  double admit_s, double dequeue_s, double service_s,
                  double done_s, double latency_ms, double deadline_ms);

    /** The SLO sample's availability: served successfully. */
    bool available() const { return cls == obs::FlightClass::Ok; }
};

/**
 * The outcome writer of one replay pass (Engine::replay,
 * Cluster::replay and replayStream): one outlet per shard, plus one for
 * the cluster's front door, each a flight ring and SLO buckets. Adding
 * an outlet takes its recorder's and monitor's storage, cleared, each
 * under one lock (FlightRecorder::take, SloMonitor::take); finish() or
 * the destructor hands it all back the same way, and the monitors
 * publish their bound counters then, once per pass. So no second copy
 * is alive, a concurrent export sees an empty recorder or monitor until
 * the pass ends, and nothing on the per-request path locks or touches
 * an atomic. One thread drives a sink, from construction to finish().
 */
class OutcomeSink
{
  public:
    OutcomeSink() = default;
    OutcomeSink(const OutcomeSink &) = delete;
    OutcomeSink &operator=(const OutcomeSink &) = delete;
    ~OutcomeSink() { finish(); }

    /** Take @p flight's and @p slo's storage (either may be null) for
     *  the next outlet; returns its index, counting from 0. */
    size_t add(obs::FlightRecorder *flight, SloMonitor *slo);

    /** Write @p rec's flight record to outlet @p out's ring. */
    void flight(size_t out, const AttemptRecord &rec)
    {
        Outlet &o = outlets_[out];
        if (o.flight)
            o.ring.record(rec);
    }

    /** Record one SLO sample of deadline class @p cls into outlet
     *  @p out's buckets (SloBuckets::record). */
    void slo(size_t out, size_t cls, uint64_t t_us, double latency_ms,
             bool available)
    {
        Outlet &o = outlets_[out];
        if (o.slo)
            o.buckets.record(cls, t_us, latency_ms, available);
    }

    /** Hand every taken storage back (idempotent). */
    void finish();

  private:
    struct Outlet
    {
        obs::FlightRecorder *flight = nullptr;
        Ring<obs::FlightRecord> ring;
        SloMonitor *slo = nullptr;
        SloBuckets buckets;
    };

    std::vector<Outlet> outlets_;
};

// serve() and the record constructor run once per replayed request;
// out of line they measurably slowed streamed replay.

inline VirtualShard::Step
VirtualShard::serve(double arrival_s, double net_ms, double deadline_ms,
                    double service_s)
{
    Step st;
    double net_s = net_ms / 1e3;
    st.res = reserve(arrival_s + net_s / 2);
    st.startS = st.res.startS;
    if (expires(arrival_s, st.startS, deadline_ms)) {
        st.cls = obs::FlightClass::DeadlineExpired;
        st.doneS = st.clientDoneS = st.startS;
        st.latencyMs = (st.startS - arrival_s) * 1e3 + net_ms;
        return st;
    }
    st.doneS = st.startS + service_s;
    finish(st.res, st.doneS);
    st.clientDoneS = st.doneS + net_s / 2;
    st.latencyMs = (st.clientDoneS - arrival_s) * 1e3;
    return st;
}

inline AttemptRecord::AttemptRecord(uint64_t seq, uint64_t id,
                                    obs::FlightClass cls, bool sampled,
                                    uint32_t replica, uint32_t steps,
                                    double admit_s, double dequeue_s,
                                    double service_s, double done_s,
                                    double latency_ms, double deadline_ms)
    : obs::FlightRecord{seq, id, cls, sampled, replica, steps},
      latencyMs(latency_ms), deadlineMs(deadline_ms)
{
    admitUs = toUs(admit_s);
    dequeueUs = std::max(toUs(dequeue_s), admitUs);
    serviceUs = std::max(toUs(service_s), dequeueUs);
    doneUs = std::max(toUs(done_s), serviceUs);
    latencyUs = roundUs(latency_ms * 1e3);
}

} // namespace serve
} // namespace bw

#endif // BW_SERVE_VIRTUAL_SHARD_H
