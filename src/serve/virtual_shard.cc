#include "serve/virtual_shard.h"

#include <algorithm>

#include "serve/slo.h"

namespace bw {
namespace serve {

VirtualShard::VirtualShard(unsigned replicas, size_t queue_depth)
    : freeS_(std::max(1u, replicas), 0.0),
      depth_(std::max<size_t>(1, queue_depth)), log_(16), mask_(15)
{
}

size_t
VirtualShard::queued(double t) const
{
    // std::upper_bound's probe sequence over the logical ring: the log
    // is ascending under one arrival clock, and a hedge's later start
    // may break that order — probing exactly as upper_bound does keeps
    // the count identical to a search over a plain deque.
    size_t first = 0;
    size_t len = size_;
    while (len > 0) {
        size_t half = len >> 1;
        if (t < at(first + half)) {
            len = half;
        } else {
            first += half + 1;
            len -= half + 1;
        }
    }
    return size_ - first;
}

uint64_t
VirtualShard::inflight(double t) const
{
    return static_cast<uint64_t>(std::count_if(
        freeS_.begin(), freeS_.end(), [t](double f) { return f > t; }));
}

VirtualShard::Reservation
VirtualShard::reserve(double ready_s)
{
    Reservation r;
    r.replica = static_cast<size_t>(
        std::min_element(freeS_.begin(), freeS_.end()) - freeS_.begin());
    r.prevFreeS = freeS_[r.replica];
    r.startS = std::max(ready_s, r.prevFreeS);
    push(r.startS);
    return r;
}

void
VirtualShard::cancel(const Reservation &r)
{
    freeS_[r.replica] = r.prevFreeS;
    if (size_ > 0)
        --size_;
}

void
VirtualShard::prune(double now_s)
{
    // Starts at or before now are exactly what queued(t) counts as
    // dequeued for any t >= now, so dropping them changes no answer.
    while (size_ > 0 && at(0) <= now_s) {
        head_ = (head_ + 1) & mask_;
        --size_;
    }
}

void
VirtualShard::push(double start_s)
{
    if (size_ == log_.size()) {
        std::vector<double> grown(log_.size() * 2);
        for (size_t i = 0; i < size_; ++i)
            grown[i] = at(i);
        log_.swap(grown);
        mask_ = log_.size() - 1;
        head_ = 0;
    }
    log_[(head_ + size_) & mask_] = start_s;
    ++size_;
}

void
AttemptRecord::record(obs::FlightRecorder *flight,
                      std::initializer_list<SloMonitor *> slos) const
{
    if (flight) {
        obs::FlightRecord fr = *this;
        fr.latencyUs = latencyMs > 0 ? static_cast<uint64_t>(
                                           std::llround(latencyMs * 1e3))
                                     : 0;
        flight->record(fr);
    }
    for (SloMonitor *slo : slos) {
        if (slo)
            slo->record(doneUs, deadlineMs, latencyMs,
                        cls == obs::FlightClass::Ok);
    }
}

} // namespace serve
} // namespace bw
