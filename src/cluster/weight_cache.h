/**
 * @file
 * Per-engine LRU weight-matrix cache for multi-model tenancy.
 *
 * A single BW NPU pins one model's weight matrices in its on-chip MRF
 * (Section III); serving several resident models from one engine means
 * the matrices of at most a cache-capacity's worth of models can be
 * resident at once, and a request for a non-resident model first
 * streams its matrices from DRAM. WeightCache models that contention:
 * capacity and footprints are measured in native-dimension matrix
 * tiles (the CompiledModel::mrfTilesUsed unit), eviction is LRU, and a
 * miss reports the tiles to load so the cluster can charge the reload
 * in cycles (TimingParams::dramLatency + bytes / dramBytesPerCycle).
 *
 * Model ids are the cluster's dense ids, so the LRU is intrusive: one
 * node per model id in a vector, linked most- to least-recently used
 * (any id below UINT32_MAX works; the vector spans the largest).
 * A touch is an index and at most two relinks — no hashing — and
 * nothing allocates once the vector covers the largest id touched.
 * touch() runs once per replayed attempt and lives in this header,
 * always inlined (cluster.cc has no inlining budget left for it).
 *
 * Deterministic by construction — no clocks, no randomness; the hit /
 * miss / eviction sequence is a pure function of the touch sequence.
 * Not thread-safe: the cluster serializes touches (virtual-time replay
 * is single-threaded; live submits take the cluster's routing lock).
 */

#ifndef BW_CLUSTER_WEIGHT_CACHE_H
#define BW_CLUSTER_WEIGHT_CACHE_H

#include <cstdint>
#include <vector>

#include "common/json.h"

namespace bw {
namespace cluster {

/** Outcome of one WeightCache::touch(). */
struct WeightTouch
{
    bool hit = false;
    uint64_t loadedTiles = 0; //!< tiles streamed from DRAM on a miss
    unsigned evictions = 0;   //!< resident models evicted to make room
};

/** LRU cache of model weight footprints, in native matrix tiles. */
class WeightCache
{
  public:
    /** @p capacity_tiles = 0 means unbounded (every model fits). */
    explicit WeightCache(uint64_t capacity_tiles = 0);

    /**
     * Reference @p model with footprint @p tiles: a hit refreshes its
     * LRU position; a miss evicts least-recently-used residents until
     * the model fits, then loads it. A model with @p tiles = 0 is a
     * free hit (nothing to load); a model larger than the whole cache
     * loads on every touch and is never resident.
     */
    WeightTouch touch(uint32_t model, uint64_t tiles);

    /** Preload @p model without counting a miss (warm start); returns
     *  false when it does not fit alongside current residents. */
    bool preload(uint32_t model, uint64_t tiles);

    bool resident(uint32_t model) const
    {
        return model < nodes_.size() && nodes_[model].tiles != 0;
    }
    uint64_t capacityTiles() const { return capacity_; }
    uint64_t usedTiles() const { return used_; }
    size_t residents() const { return residents_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }

    /** Drop residents and counters (between replays). */
    void clear();

    /** Drop residents but keep the hit/miss/eviction counters — a
     *  mid-replay crash restart (the chaos plane's re-warm cycle) must
     *  not rewind the cumulative cache telemetry. */
    void invalidate();

    /** Residents MRU-first plus counters, machine-readable. */
    Json toJson() const;

  private:
    static constexpr uint32_t kNil = UINT32_MAX;

    /** One model id's LRU link. tiles != 0 exactly while resident: a
     *  zero-footprint model is never inserted. */
    struct Node
    {
        uint64_t tiles = 0;
        uint32_t prev = kNil; //!< towards the MRU end
        uint32_t next = kNil; //!< towards the LRU end
    };

    bool evictFor(uint64_t tiles);
    void insert(uint32_t model, uint64_t tiles);
    /** Extend nodes_ to cover @p model (once per new largest id). */
    void grow(uint32_t model);
    void unlink(uint32_t model);
    void linkFront(uint32_t model);

    uint64_t capacity_;
    uint64_t used_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    size_t residents_ = 0;
    std::vector<Node> nodes_; //!< by model id
    uint32_t mru_ = kNil;
    uint32_t lru_ = kNil;
};

inline void
WeightCache::unlink(uint32_t model)
{
    Node &n = nodes_[model];
    (n.prev == kNil ? mru_ : nodes_[n.prev].next) = n.next;
    (n.next == kNil ? lru_ : nodes_[n.next].prev) = n.prev;
}

inline void
WeightCache::linkFront(uint32_t model)
{
    Node &n = nodes_[model];
    n.prev = kNil;
    n.next = mru_;
    (mru_ == kNil ? lru_ : nodes_[mru_].prev) = model;
    mru_ = model;
}

inline bool
WeightCache::evictFor(uint64_t tiles)
{
    if (capacity_ == 0)
        return true; // unbounded
    if (tiles > capacity_)
        return false; // can never be resident
    while (used_ + tiles > capacity_ && lru_ != kNil) {
        uint32_t victim = lru_;
        used_ -= nodes_[victim].tiles;
        nodes_[victim].tiles = 0;
        unlink(victim);
        --residents_;
        ++evictions_;
    }
    return used_ + tiles <= capacity_;
}

inline void
WeightCache::insert(uint32_t model, uint64_t tiles)
{
    if (model >= nodes_.size())
        grow(model);
    nodes_[model].tiles = tiles;
    linkFront(model);
    used_ += tiles;
    ++residents_;
}

[[gnu::always_inline]] inline WeightTouch
WeightCache::touch(uint32_t model, uint64_t tiles)
{
    WeightTouch t;
    if (tiles == 0 || resident(model)) {
        // Zero footprint: nothing to load. Resident: refresh to MRU.
        t.hit = true;
        ++hits_;
        if (tiles != 0 && mru_ != model) {
            unlink(model);
            linkFront(model);
        }
        return t;
    }
    ++misses_;
    t.loadedTiles = tiles;
    uint64_t ev0 = evictions_;
    if (evictFor(tiles))
        insert(model, tiles);
    t.evictions = static_cast<unsigned>(evictions_ - ev0);
    return t;
}

} // namespace cluster
} // namespace bw

#endif // BW_CLUSTER_WEIGHT_CACHE_H
