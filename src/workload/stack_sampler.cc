#include "stack_sampler.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace cmpqos
{

namespace
{

/**
 * Slot arrays of destroyed samplers, kept for the next sampler built.
 * Every placed job builds a sampler and frees it when it finishes,
 * often on another thread. Left to malloc, a large array would be
 * mapped, first-touched and unmapped once per job, at a cost that
 * swings with allocation history and host load. A sampler overwrites
 * every slot it reads, so a recycled array acts exactly like a fresh
 * one.
 */
class SlotArrayPool
{
  public:
    /** An array with capacity for @p n block ids: the smallest kept
     *  one that fits, else a new one. Its contents are stale. */
    std::vector<std::uint64_t>
    take(std::size_t n)
    {
        {
            MutexLock lock(mu_);
            auto best = kept_.end();
            for (auto it = kept_.begin(); it != kept_.end(); ++it)
                if (it->capacity() >= n &&
                    (best == kept_.end() ||
                     it->capacity() < best->capacity()))
                    best = it;
            if (best != kept_.end()) {
                std::vector<std::uint64_t> v = std::move(*best);
                kept_.erase(best);
                keptBytes_ -= v.capacity() * sizeof(std::uint64_t);
                return v;
            }
        }
        // A power of two, so samplers with similar caps share a size.
        std::vector<std::uint64_t> v;
        v.reserve(std::bit_ceil(n));
        return v;
    }

    /** Keep @p v for a later take(), unless the pool is full. */
    void
    give(std::vector<std::uint64_t> &&v)
    {
        const std::size_t bytes = v.capacity() * sizeof(std::uint64_t);
        if (bytes == 0)
            return;
        MutexLock lock(mu_);
        if (keptBytes_ + bytes > kMaxKeptBytes)
            return;
        keptBytes_ += bytes;
        kept_.push_back(std::move(v));
    }

  private:
    /** Memory kept after the jobs that used it have finished. */
    static constexpr std::size_t kMaxKeptBytes = std::size_t{32} << 20;

    Mutex mu_;
    std::vector<std::vector<std::uint64_t>> kept_ CMPQOS_GUARDED_BY(mu_);
    std::size_t keptBytes_ CMPQOS_GUARDED_BY(mu_) = 0;
};

// Never destroyed, so a sampler may outlive static destruction.
SlotArrayPool &
blockPool()
{
    static auto *pool = new SlotArrayPool();
    return *pool;
}

} // namespace

LruStackSampler::LruStackSampler(std::size_t max_live_blocks,
                                 std::uint64_t warm_blocks)
    : maxLive_(max_live_blocks), slotCapacity_(4 * max_live_blocks),
      liveCount_(static_cast<std::size_t>(
          std::min<std::uint64_t>(warm_blocks, max_live_blocks))),
      nextSlot_(liveCount_), nextBlockId_(warm_blocks),
      occupied_(slotCapacity_), slotBlock_(blockPool().take(slotCapacity_))
{
    cmpqos_assert(max_live_blocks >= 2, "stack needs at least two blocks");
    occupied_.fillPrefix(liveCount_);
    slotBlock_.assign(slotCapacity_, vacant);
    // The newest liveCount_ warm blocks, LRU in slot 0; any older ones
    // were dropped by the cap, as accessNew() would have dropped them.
    std::iota(slotBlock_.begin(),
              slotBlock_.begin() + static_cast<std::ptrdiff_t>(liveCount_),
              warm_blocks - liveCount_);
}

LruStackSampler::~LruStackSampler()
{
    blockPool().give(std::move(slotBlock_));
}

void
LruStackSampler::pushTop(std::uint64_t block)
{
    if (nextSlot_ >= slotCapacity_)
        compact();
    const std::size_t slot = nextSlot_++;
    occupied_.set(slot);
    slotBlock_[slot] = block;
}

void
LruStackSampler::dropLru()
{
    // LRU block = occupant of the lowest occupied slot.
    const std::size_t slot = occupied_.nextOccupied(lowSlot_);
    occupied_.clear(slot);
    slotBlock_[slot] = vacant;
    lowSlot_ = slot + 1;
    --liveCount_;
}

std::uint64_t
LruStackSampler::accessNew()
{
    if (liveCount_ >= maxLive_)
        dropLru();
    const std::uint64_t block = nextBlockId_++;
    pushTop(block);
    ++liveCount_;
    return block;
}

std::uint64_t
LruStackSampler::accessAtDistance(std::uint64_t d)
{
    cmpqos_assert(d >= 1, "stack distance must be >= 1");
    if (d > liveCount_)
        return accessNew();

    // The d-th most recently used = rank (live - d + 1) from the
    // bottom among occupied slots.
    const std::size_t slot = occupied_.select(liveCount_ - d + 1);
    const std::uint64_t block = slotBlock_[slot];

    if (d > 1) {
        // Move to top; a d == 1 access is already at the top.
        occupied_.clear(slot);
        slotBlock_[slot] = vacant;
        pushTop(block);
    }
    return block;
}

std::uint64_t
LruStackSampler::peekAtDistance(std::uint64_t d) const
{
    cmpqos_assert(d >= 1 && d <= liveCount_,
                  "peek distance %llu out of [1,%zu]",
                  static_cast<unsigned long long>(d), liveCount_);
    return slotBlock_[occupied_.select(liveCount_ - d + 1)];
}

void
LruStackSampler::compact()
{
    // Slide occupied slots down to [0, n), keeping recency order.
    // During accessAtDistance the moving block is briefly out of the
    // stack, so n can be liveCount_ - 1.
    std::size_t n = 0;
    for (std::size_t slot = 0; slot < nextSlot_; ++slot)
        if (slotBlock_[slot] != vacant)
            slotBlock_[n++] = slotBlock_[slot];
    cmpqos_assert(n == occupied_.count(),
                  "compaction found %zu blocks, index holds %zu", n,
                  occupied_.count());
    std::fill(slotBlock_.begin() + static_cast<std::ptrdiff_t>(n),
              slotBlock_.begin() + static_cast<std::ptrdiff_t>(nextSlot_),
              vacant);
    occupied_.fillPrefix(n);
    nextSlot_ = n;
    lowSlot_ = 0;
}

} // namespace cmpqos
