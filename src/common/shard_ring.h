/**
 * @file
 * Per-thread sharding shared by the metrics registry and the span and
 * flight recorders: one thread-slot counter and one sharded ring.
 */

#ifndef BW_COMMON_SHARD_RING_H
#define BW_COMMON_SHARD_RING_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace bw {

/** Stable per-thread slot number, handed out in first-call order
 *  across the process; callers take it modulo their shard count. */
size_t threadSlot();

/**
 * Sharded ring of POD records. record() locks the calling thread's
 * shard, claims its next slot and writes the record in place; the
 * oldest records of a shard are overwritten once its ring is full. A
 * shard allocates its ring on the first record that lands in it, so a
 * single recording thread pays for one shard, not kShards.
 *
 * Each shard's mutex is uncontended while no two live threads share a
 * shard; threads whose slot numbers differ by a multiple of kShards do,
 * and the lock keeps their records whole. collect(), recorded(),
 * dropped() and clear() take the same locks, so they may run alongside
 * producers (collect() then sees each shard at one instant).
 */
template <typename T>
class ShardedRing
{
  public:
    static constexpr size_t kShards = 16;

    explicit ShardedRing(size_t shard_capacity)
        : capacity_(std::max<size_t>(1, shard_capacity))
    {
    }

    size_t capacity() const { return capacity_; }

    void
    record(const T &r)
    {
        Shard &sh = shards_[threadSlot() % kShards];
        std::lock_guard<std::mutex> lk(sh.mu);
        if (!sh.ring)
            sh.ring = std::make_unique<T[]>(capacity_);
        sh.ring[sh.count++ % capacity_] = r;
    }

    /** The kept records of every shard, sorted by @p less. */
    template <typename Less>
    std::vector<T>
    collect(Less less) const
    {
        std::vector<T> out;
        for (const Shard &sh : shards_) {
            std::lock_guard<std::mutex> lk(sh.mu);
            size_t kept = static_cast<size_t>(
                std::min<uint64_t>(sh.count, capacity_));
            out.insert(out.end(), sh.ring.get(), sh.ring.get() + kept);
        }
        std::sort(out.begin(), out.end(), less);
        return out;
    }

    /** Total records offered to record() (including overwritten). */
    uint64_t
    recorded() const
    {
        uint64_t n = 0;
        for (const Shard &sh : shards_) {
            std::lock_guard<std::mutex> lk(sh.mu);
            n += sh.count;
        }
        return n;
    }

    /** Records lost to ring overwrite. */
    uint64_t
    dropped() const
    {
        uint64_t d = 0;
        for (const Shard &sh : shards_) {
            std::lock_guard<std::mutex> lk(sh.mu);
            if (sh.count > capacity_)
                d += sh.count - capacity_;
        }
        return d;
    }

    /** Drop every record; allocated rings are kept for reuse. */
    void
    clear()
    {
        for (Shard &sh : shards_) {
            std::lock_guard<std::mutex> lk(sh.mu);
            sh.count = 0;
        }
    }

  private:
    struct alignas(64) Shard
    {
        mutable std::mutex mu;
        std::unique_ptr<T[]> ring; //!< allocated on first record()
        uint64_t count = 0;        //!< records offered since clear()
    };

    size_t capacity_;
    std::array<Shard, kShards> shards_;
};

} // namespace bw

#endif // BW_COMMON_SHARD_RING_H
