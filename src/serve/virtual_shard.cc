#include "serve/virtual_shard.h"

#include <algorithm>

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
    // An ascending log holds only starts after t once t precedes its
    // front, which is every query at the time of the last prune().
    if (ascending_ && (size_ == 0 || t < at(0)))
        return size_;
    // Otherwise std::upper_bound's probe sequence over the logical
    // ring: probing exactly as upper_bound does keeps the count of an
    // unsorted, hedged log identical to a search over a plain deque.
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
    ascending_ = ascending() && (size_ == 0 || start_s >= at(size_ - 1));
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

size_t
OutcomeSink::add(obs::FlightRecorder *flight, SloMonitor *slo)
{
    Outlet &o = outlets_.emplace_back();
    o.flight = flight;
    if (flight)
        o.ring = flight->take();
    o.slo = slo;
    if (slo)
        o.buckets = slo->take();
    return outlets_.size() - 1;
}

void
OutcomeSink::finish()
{
    for (Outlet &o : outlets_) {
        if (o.flight)
            o.flight->restore(std::move(o.ring));
        if (o.slo)
            o.slo->restore(std::move(o.buckets));
    }
    outlets_.clear();
}

} // namespace serve
} // namespace bw
