#include "cluster/weight_cache.h"

#include "common/logging.h"

namespace bw {
namespace cluster {

WeightCache::WeightCache(uint64_t capacity_tiles)
    : capacity_(capacity_tiles)
{
}

void
WeightCache::grow(uint32_t model)
{
    BW_ASSERT(model != kNil, "weight cache: model id %u is reserved",
              model);
    nodes_.resize(static_cast<size_t>(model) + 1);
}

bool
WeightCache::preload(uint32_t model, uint64_t tiles)
{
    if (tiles == 0 || resident(model))
        return true;
    if (capacity_ != 0 && used_ + tiles > capacity_)
        return false; // warm start never evicts
    insert(model, tiles);
    return true;
}

void
WeightCache::clear()
{
    invalidate();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

void
WeightCache::invalidate()
{
    for (uint32_t m = mru_; m != kNil; m = nodes_[m].next)
        nodes_[m].tiles = 0;
    mru_ = lru_ = kNil;
    residents_ = 0;
    used_ = 0;
}

Json
WeightCache::toJson() const
{
    Json j = Json::object();
    j.set("capacity_tiles", capacity_);
    j.set("used_tiles", used_);
    j.set("hits", hits_);
    j.set("misses", misses_);
    j.set("evictions", evictions_);
    Json res = Json::array();
    for (uint32_t m = mru_; m != kNil; m = nodes_[m].next) {
        Json r = Json::object();
        r.set("model", m);
        r.set("tiles", nodes_[m].tiles);
        res.push(std::move(r));
    }
    j.set("resident", std::move(res));
    return j;
}

} // namespace cluster
} // namespace bw
