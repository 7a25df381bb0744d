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
VirtualShard::queuedUnsorted(double t) const
{
    // std::upper_bound's probe sequence over the logical ring: probing
    // exactly as upper_bound does keeps the count of an unsorted,
    // hedged log identical to a search over a plain deque.
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

void
VirtualShard::cancel(const Reservation &r)
{
    freeS_[r.replica] = r.prevFreeS;
    if (size_ > 0)
        --size_;
}

void
VirtualShard::grow()
{
    std::vector<double> grown(log_.size() * 2);
    for (size_t i = 0; i < size_; ++i)
        grown[i] = at(i);
    log_.swap(grown);
    mask_ = log_.size() - 1;
    head_ = 0;
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
