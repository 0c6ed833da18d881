/**
 * @file
 * Frozen reference models for the differential tests (ctest label
 * "diff"): the Fenwick-tree LRU stack sampler and the Rng::discrete
 * component draw that LruStackSampler and StackDistanceProfile::sample
 * replaced. They share no code with the library's sampler or draw, so
 * the tests compare the fast paths against an independent oracle.
 */

#ifndef CMPQOS_TESTS_WORKLOAD_REFERENCE_SAMPLER_HH
#define CMPQOS_TESTS_WORKLOAD_REFERENCE_SAMPLER_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "fenwick.hh"
#include "workload/profile.hh"

namespace cmpqos
{

/**
 * LRU stack with order-statistics access: live blocks occupy slots of
 * a timestamp-ordered array and a Fenwick tree counts the occupied
 * ones. Same contract as LruStackSampler.
 */
class ReferenceStackSampler
{
  public:
    static constexpr std::size_t defaultMaxLive = std::size_t{1} << 17;

    explicit ReferenceStackSampler(std::size_t max_live_blocks =
                                       defaultMaxLive)
        : maxLive_(max_live_blocks), slotCapacity_(4 * max_live_blocks),
          occupied_(slotCapacity_), slotBlock_(slotCapacity_, vacant)
    {
        cmpqos_assert(max_live_blocks >= 2,
                      "stack needs at least two blocks");
    }

    std::uint64_t
    accessAtDistance(std::uint64_t d)
    {
        cmpqos_assert(d >= 1, "stack distance must be >= 1");
        if (d > liveCount_)
            return accessNew();
        const auto rank = static_cast<std::int64_t>(liveCount_ - d + 1);
        const std::size_t slot = occupied_.findKth(rank);
        const std::uint64_t block = slotBlock_[slot];
        if (d > 1) {
            occupied_.add(slot, -1);
            slotBlock_[slot] = vacant;
            pushTop(block);
        }
        return block;
    }

    std::uint64_t
    accessNew()
    {
        if (liveCount_ >= maxLive_) {
            const std::size_t slot = occupied_.findKth(1);
            occupied_.add(slot, -1);
            slotBlock_[slot] = vacant;
            --liveCount_;
        }
        const std::uint64_t block = nextBlockId_++;
        pushTop(block);
        ++liveCount_;
        return block;
    }

    std::size_t liveBlocks() const { return liveCount_; }
    std::uint64_t totalBlocks() const { return nextBlockId_; }

    template <typename F>
    void
    forEachLive(F &&visit) const
    {
        for (std::size_t slot = 0; slot < nextSlot_; ++slot)
            if (slotBlock_[slot] != vacant)
                visit(slotBlock_[slot]);
    }

  private:
    void
    pushTop(std::uint64_t block)
    {
        if (nextSlot_ >= slotCapacity_)
            compact();
        const std::size_t slot = nextSlot_++;
        occupied_.add(slot, 1);
        slotBlock_[slot] = block;
    }

    void
    compact()
    {
        std::size_t n = 0;
        for (std::size_t slot = 0; slot < nextSlot_; ++slot)
            if (slotBlock_[slot] != vacant)
                slotBlock_[n++] = slotBlock_[slot];
        std::fill(slotBlock_.begin() + static_cast<std::ptrdiff_t>(n),
                  slotBlock_.begin() +
                      static_cast<std::ptrdiff_t>(nextSlot_),
                  vacant);
        occupied_.fillPrefix(n);
        nextSlot_ = n;
    }

    static constexpr std::uint64_t vacant = ~0ULL;

    std::size_t maxLive_;
    std::size_t slotCapacity_;
    std::size_t liveCount_ = 0;
    std::size_t nextSlot_ = 0;
    std::uint64_t nextBlockId_ = 0;
    FenwickTree occupied_;
    std::vector<std::uint64_t> slotBlock_;
};

/**
 * Draws from a profile as StackDistanceProfile::sample drew them
 * through Rng::discrete over the component weights, then a branch on
 * the chosen component.
 */
class ReferenceDraw
{
  public:
    explicit ReferenceDraw(const StackDistanceProfile &profile)
        : components_(profile.components())
    {
        for (const ProfileComponent &c : components_)
            weights_.push_back(c.weight);
    }

    std::optional<std::uint64_t>
    operator()(Rng &rng) const
    {
        const ProfileComponent &c = components_[rng.discrete(weights_)];
        switch (c.kind) {
          case ProfileComponent::Kind::Cold:
            return std::nullopt;
          case ProfileComponent::Kind::Uniform:
            return static_cast<std::uint64_t>(
                rng.uniformRange(static_cast<std::int64_t>(c.lo),
                                 static_cast<std::int64_t>(c.hi)));
          case ProfileComponent::Kind::Geometric:
            return 1 + rng.geometric(1.0 / std::max(c.mean, 1.0));
        }
        return std::nullopt;
    }

  private:
    std::vector<ProfileComponent> components_;
    std::vector<double> weights_;
};

} // namespace cmpqos

#endif // CMPQOS_TESTS_WORKLOAD_REFERENCE_SAMPLER_HH
