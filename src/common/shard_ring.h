/**
 * @file
 * Per-thread sharding shared by the metrics registry and the span and
 * flight recorders: one thread-slot counter, one plain ring and one
 * sharded ring of those rings.
 */

#ifndef BW_COMMON_SHARD_RING_H
#define BW_COMMON_SHARD_RING_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace bw {

/** Stable per-thread slot number, handed out in first-call order
 *  across the process; callers take it modulo their shard count. */
size_t threadSlot();

/**
 * Ring of POD records for one writer, with no lock: record() writes the
 * record into the next slot, overwriting the oldest once the ring is
 * full. The slots are allocated on the first record, so a ring nobody
 * records into costs nothing. ShardedRing puts one behind each shard's
 * lock; a single-threaded writer may own one outright
 * (ShardedRing::take).
 */
template <typename T>
class Ring
{
  public:
    Ring() = default;
    explicit Ring(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
    }

    void
    record(const T &r)
    {
        if (!slots_)
            slots_ = std::make_unique<T[]>(capacity_);
        slots_[next_] = r;
        if (++next_ == capacity_)
            next_ = 0;
        ++count_;
    }

    /** Append the kept records, in slot order, to @p out. */
    void
    appendTo(std::vector<T> &out) const
    {
        size_t kept =
            static_cast<size_t>(std::min<uint64_t>(count_, capacity_));
        out.insert(out.end(), slots_.get(), slots_.get() + kept);
    }

    /** Records offered to record() since clear() (overwritten too). */
    uint64_t recorded() const { return count_; }

    /** Records lost to overwrite. */
    uint64_t dropped() const
    {
        return count_ > capacity_ ? count_ - capacity_ : 0;
    }

    /** Drop every record; the slots are kept for reuse. */
    void
    clear()
    {
        next_ = 0;
        count_ = 0;
    }

  private:
    size_t capacity_ = 1;
    std::unique_ptr<T[]> slots_; //!< allocated on first record()
    size_t next_ = 0;            //!< slot the next record() writes
    uint64_t count_ = 0;
};

/**
 * Sharded ring of POD records: one Ring per shard, behind the shard's
 * lock. record() locks the calling thread's shard and records into its
 * ring, so a single recording thread allocates one shard's slots, not
 * kShards.
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
        for (Shard &sh : shards_)
            sh.ring = Ring<T>(capacity_);
    }

    size_t capacity() const { return capacity_; }

    void
    record(const T &r)
    {
        Shard &sh = mine();
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.ring.record(r);
    }

    /** The kept records of every shard, sorted by @p less. */
    template <typename Less>
    std::vector<T>
    collect(Less less) const
    {
        std::vector<T> out;
        for (const Shard &sh : shards_) {
            std::lock_guard<std::mutex> lk(sh.mu);
            sh.ring.appendTo(out);
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
            n += sh.ring.recorded();
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
            d += sh.ring.dropped();
        }
        return d;
    }

    /** Drop every record; allocated rings are kept for reuse. */
    void
    clear()
    {
        for (Shard &sh : shards_) {
            std::lock_guard<std::mutex> lk(sh.mu);
            sh.ring.clear();
        }
    }

    /**
     * Clear every shard and hand the calling thread's ring, slots and
     * all, to a single-threaded writer. Until restore() that shard holds
     * an empty ring, so concurrent readers stay race-free and see no
     * records; no second set of slots is allocated.
     */
    Ring<T>
    take()
    {
        clear();
        Shard &sh = mine();
        std::lock_guard<std::mutex> lk(sh.mu);
        return std::exchange(sh.ring, Ring<T>(capacity_));
    }

    /** Give a ring from take() back to the calling thread's shard. */
    void
    restore(Ring<T> ring)
    {
        Shard &sh = mine();
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.ring = std::move(ring);
    }

  private:
    struct alignas(64) Shard
    {
        mutable std::mutex mu;
        Ring<T> ring;
    };

    Shard &mine() { return shards_[threadSlot() % kShards]; }

    size_t capacity_;
    std::array<Shard, kShards> shards_;
};

} // namespace bw

#endif // BW_COMMON_SHARD_RING_H
