/**
 * @file
 * Per-thread sharding shared by the metrics registry and the span and
 * flight recorders: one thread-slot counter and one wait-free ring.
 */

#ifndef BW_COMMON_SHARD_RING_H
#define BW_COMMON_SHARD_RING_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace bw {

/** Stable per-thread slot number, handed out in first-call order
 *  across the process; callers take it modulo their shard count. */
size_t threadSlot();

/**
 * Wait-free sharded ring of POD records. record() claims a slot in the
 * calling thread's shard with one fetch_add and writes the record in
 * place; the oldest records of a shard are overwritten once its ring is
 * full. A shard allocates its ring once, on the first record that lands
 * in it, so a single recording thread pays for one shard, not kShards;
 * after that, record() neither locks nor allocates.
 *
 * collect() merges the shards: call it, and clear(), only after the
 * producers have quiesced (threads joined, engine drained). Slots are
 * not locked: two live threads whose slot numbers differ by a multiple
 * of kShards share a shard, and once its ring wraps they can write one
 * slot at the same time.
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
        T *ring = sh.ring.load(std::memory_order_acquire);
        if (!ring) {
            std::call_once(sh.alloc, [&] {
                sh.storage = std::make_unique<T[]>(capacity_);
                sh.ring.store(sh.storage.get(),
                              std::memory_order_release);
            });
            ring = sh.storage.get();
        }
        uint64_t n = sh.count.fetch_add(1, std::memory_order_relaxed);
        ring[n % capacity_] = r;
        // Publish: collect() loads with acquire after quiescence, so the
        // record write above is visible once the count is.
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** The kept records of every shard, sorted by @p less. */
    template <typename Less>
    std::vector<T>
    collect(Less less) const
    {
        std::atomic_thread_fence(std::memory_order_acquire);
        std::vector<T> out;
        for (const Shard &sh : shards_) {
            uint64_t n = sh.count.load(std::memory_order_acquire);
            size_t kept =
                static_cast<size_t>(std::min<uint64_t>(n, capacity_));
            if (kept > 0) {
                const T *ring = sh.ring.load(std::memory_order_acquire);
                out.insert(out.end(), ring, ring + kept);
            }
        }
        std::sort(out.begin(), out.end(), less);
        return out;
    }

    /** Total records offered to record() (including overwritten). */
    uint64_t
    recorded() const
    {
        uint64_t n = 0;
        for (const Shard &sh : shards_)
            n += sh.count.load(std::memory_order_relaxed);
        return n;
    }

    /** Records lost to ring overwrite. */
    uint64_t
    dropped() const
    {
        uint64_t d = 0;
        for (const Shard &sh : shards_) {
            uint64_t n = sh.count.load(std::memory_order_relaxed);
            if (n > capacity_)
                d += n - capacity_;
        }
        return d;
    }

    /** Drop every record; allocated rings are kept for reuse. */
    void
    clear()
    {
        for (Shard &sh : shards_)
            sh.count.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::once_flag alloc;
        std::unique_ptr<T[]> storage;
        /** storage.get() once allocated. record() checks it before
         *  std::call_once, which in libstdc++ sets thread-locals and
         *  calls pthread_once on every call. */
        std::atomic<T *> ring{nullptr};
        std::atomic<uint64_t> count{0};
    };

    size_t capacity_;
    std::array<Shard, kShards> shards_;
};

} // namespace bw

#endif // BW_COMMON_SHARD_RING_H
