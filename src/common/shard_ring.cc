#include "common/shard_ring.h"

#include <atomic>

namespace bw {

size_t
threadSlot()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

} // namespace bw
