/**
 * @file
 * Differential tests (ctest label "diff") for the right-sized reuse
 * stack: every generator's sampler is capped at the deepest distance
 * its stream can draw and built warm in O(slots), and must emit
 * exactly what the frozen reference (reference_sampler.hh: an
 * uncapped Fenwick-tree stack warmed one accessNew() at a time,
 * drawing through Rng::discrete) emits. Also checks the reference's
 * Fenwick prefix builder against add() loops and a capped sampler's
 * compaction against a naive move-to-front model, at caps whose slot
 * counts do and do not fill whole bitmap words, also in slot arrays
 * recycled from earlier samplers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "fenwick.hh"
#include "reference_sampler.hh"
#include "workload/generator.hh"
#include "workload/stack_sampler.hh"

namespace cmpqos
{
namespace
{

constexpr std::size_t kAccesses = 200'000;
constexpr std::uint64_t kSeeds[] = {1, 0x5EEDF00Dull};

/**
 * The generator as it was built before right-sizing: a default
 * (2^17-block) Fenwick-tree stack warmed with one accessNew() per
 * standing block, drawing through Rng::discrete in the generator's
 * order.
 */
class ReferenceGenerator
{
  public:
    ReferenceGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                       Addr base, TraceMode mode)
        : profile_(profile), base_(base), rng_(seed),
          stream_(mode == TraceMode::L2Stream
                      ? profile.l2Profile
                      : buildFullStreamProfile(profile)),
          draw_(stream_)
    {
        for (std::uint64_t i = 0; i < stream_.maxFiniteDistance(); ++i)
            stack_.accessNew();
    }

    std::pair<Addr, bool>
    next()
    {
        const auto d = draw_(rng_);
        const std::uint64_t block =
            d ? stack_.accessAtDistance(*d) : stack_.accessNew();
        const bool is_write = rng_.bernoulli(profile_.writeFraction);
        return {address(block), is_write};
    }

    std::vector<Addr>
    standing() const
    {
        std::vector<Addr> out;
        stack_.forEachLive(
            [&](std::uint64_t b) { out.push_back(address(b)); });
        return out;
    }

  private:
    Addr address(std::uint64_t block) const { return base_ + block * 64; }

    const BenchmarkProfile &profile_;
    Addr base_;
    Rng rng_;
    StackDistanceProfile stream_;
    ReferenceDraw draw_;
    ReferenceStackSampler stack_;
};

std::vector<Addr>
standing(const AccessGenerator &gen)
{
    std::vector<Addr> out;
    gen.forEachStandingBlock([&](Addr a) { out.push_back(a); });
    return out;
}

using IdentityParam = std::tuple<std::string, TraceMode>;

class GeneratorIdentity : public ::testing::TestWithParam<IdentityParam>
{
};

TEST_P(GeneratorIdentity, MatchesUncappedReference)
{
    const BenchmarkProfile &profile =
        BenchmarkRegistry::get(std::get<0>(GetParam()));
    const TraceMode mode = std::get<1>(GetParam());
    for (const std::uint64_t seed : kSeeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Addr base = jobAddressBase(7);
        AccessGenerator gen(profile, seed, base, mode);
        ReferenceGenerator ref(profile, seed, base, mode);

        const std::vector<Addr> warm = ref.standing();
        ASSERT_EQ(standing(gen), warm);

        // Every emitted access is checked: at least the first 200k.
        std::size_t checked = 0;
        std::size_t mismatches = 0;
        std::size_t first_mismatch = 0;
        while (checked < kAccesses) {
            gen.run(10'000, [&](Addr a, bool w) {
                if (std::make_pair(a, w) != ref.next() && mismatches++ == 0)
                    first_mismatch = checked;
                ++checked;
            });
        }
        ASSERT_EQ(mismatches, 0u) << "first at access " << first_mismatch;

        // The capped stack holds the reference's most recent blocks.
        const std::vector<Addr> now = standing(gen);
        const std::vector<Addr> ref_now = ref.standing();
        ASSERT_LE(now.size(), ref_now.size());
        EXPECT_TRUE(std::equal(now.begin(), now.end(),
                               ref_now.end() - static_cast<std::ptrdiff_t>(
                                                   now.size())));
    }
}

std::vector<IdentityParam>
allProfilesBothModes()
{
    std::vector<IdentityParam> params;
    for (const BenchmarkProfile &p : BenchmarkRegistry::all())
        for (const TraceMode m : {TraceMode::L2Stream, TraceMode::Full})
            params.emplace_back(p.name, m);
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, GeneratorIdentity,
    ::testing::ValuesIn(allProfilesBothModes()),
    [](const ::testing::TestParamInfo<IdentityParam> &param_info) {
        return std::get<0>(param_info.param) +
               (std::get<1>(param_info.param) == TraceMode::L2Stream
                    ? "_L2Stream"
                    : "_Full");
    });

TEST(SamplerCapacity, RightSizesEveryL2Profile)
{
    // Every registered L2 profile is Uniform/Cold only, so its stack
    // needs no more than its deepest reuse distance.
    ASSERT_EQ(BenchmarkRegistry::all().size(), 15u);
    for (const BenchmarkProfile &p : BenchmarkRegistry::all())
        EXPECT_EQ(samplerCapacity(p.l2Profile),
                  std::max<std::uint64_t>(2, p.l2Profile.maxFiniteDistance()))
            << p.name;
}

TEST(SamplerCapacity, GeometricComponentKeepsDefaultCap)
{
    // Full mode adds an unbounded geometric component.
    const BenchmarkProfile &p = BenchmarkRegistry::get("gobmk");
    EXPECT_EQ(samplerCapacity(buildFullStreamProfile(p)),
              LruStackSampler::defaultMaxLive);
    EXPECT_EQ(samplerCapacity(StackDistanceProfile(
                  {ProfileComponent::cold(1.0)})),
              2u);
}

TEST(FenwickPrefixBuild, MatchesAddLoop)
{
    Rng rng(99);
    std::vector<std::pair<std::size_t, std::size_t>> cases = {
        {1, 0}, {1, 1}, {2, 1}, {7, 0}, {7, 7}, {8, 5}, {64, 64}, {100, 37}};
    for (int i = 0; i < 200; ++i) {
        const std::size_t size = 1 + rng.uniformInt(3000);
        cases.emplace_back(size, rng.uniformInt(size + 1));
    }
    for (const auto &[size, n] : cases) {
        SCOPED_TRACE("size " + std::to_string(size) + " n " +
                     std::to_string(n));
        FenwickTree built(size);
        built.fillPrefix(n);
        FenwickTree looped(size);
        for (std::size_t i = 0; i < n; ++i)
            looped.add(i, 1);
        ASSERT_EQ(built.total(), looped.total());
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(built.prefixSum(i), looped.prefixSum(i)) << i;
        for (std::int64_t k = 1; k <= looped.total(); ++k)
            ASSERT_EQ(built.findKth(k), looped.findKth(k)) << k;

        // Refilling a used tree gives the same state.
        for (std::size_t i = 0; i < size; i += 3)
            built.add(i, 2);
        built.fillPrefix(n);
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(built.prefixSum(i), looped.prefixSum(i)) << i;
    }
}

TEST(SamplerWarmBuild, MatchesAccessNewLoop)
{
    for (const auto &[cap, warm] :
         std::vector<std::pair<std::size_t, std::uint64_t>>{
             {2, 0}, {2, 1}, {2, 2}, {50, 50}, {50, 20}, {8, 30}}) {
        SCOPED_TRACE("cap " + std::to_string(cap) + " warm " +
                     std::to_string(warm));
        LruStackSampler built(cap, warm);
        ReferenceStackSampler looped(cap);
        for (std::uint64_t i = 0; i < warm; ++i)
            looped.accessNew();
        EXPECT_EQ(built.liveBlocks(), looped.liveBlocks());
        EXPECT_EQ(built.totalBlocks(), looped.totalBlocks());
        std::vector<std::uint64_t> a, b;
        built.forEachLive([&](std::uint64_t x) { a.push_back(x); });
        looped.forEachLive([&](std::uint64_t x) { b.push_back(x); });
        EXPECT_EQ(a, b);
        for (int i = 0; i < 200; ++i)
            ASSERT_EQ(built.accessAtDistance(1 + (i * 7) % (cap + 3)),
                      looped.accessAtDistance(1 + (i * 7) % (cap + 3)));
    }
}

/**
 * Naive model of a capped LRU stack: a vector of block ids, LRU first,
 * searched and shifted in O(live) per access.
 */
class MoveToFrontStack
{
  public:
    /** Built as LruStackSampler(cap, cap) is: blocks 0..cap-1. */
    explicit MoveToFrontStack(std::size_t cap) : cap_(cap), nextId_(cap)
    {
        for (std::uint64_t b = 0; b < cap; ++b)
            stack_.push_back(b);
    }

    std::uint64_t
    accessNew()
    {
        stack_.push_back(nextId_);
        if (stack_.size() > cap_)
            stack_.erase(stack_.begin());
        return nextId_++;
    }

    std::uint64_t
    accessAtDistance(std::uint64_t d)
    {
        if (d > stack_.size())
            return accessNew();
        const auto it = stack_.end() - static_cast<std::ptrdiff_t>(d);
        const std::uint64_t block = *it;
        stack_.erase(it);
        stack_.push_back(block);
        return block;
    }

    /** Live blocks, LRU first. */
    const std::vector<std::uint64_t> &live() const { return stack_; }

  private:
    std::size_t cap_;
    std::uint64_t nextId_;
    std::vector<std::uint64_t> stack_;
};

std::vector<std::uint64_t>
liveBlocks(const LruStackSampler &s)
{
    std::vector<std::uint64_t> live;
    s.forEachLive([&](std::uint64_t b) { live.push_back(b); });
    return live;
}

/**
 * Drive a sampler of cap @p cap, built warm with @p cap blocks, through
 * @p steps accesses (moves, cold touches and cap drops interleaved)
 * against the naive move-to-front model.
 */
void
checkAgainstNaiveList(std::size_t cap, std::uint64_t seed, int steps)
{
    SCOPED_TRACE("cap " + std::to_string(cap));
    LruStackSampler s(cap, cap);
    MoveToFrontStack naive(cap);
    Rng rng(seed);
    for (int i = 0; i < steps; ++i) {
        const bool cold = rng.uniformInt(8) == 0;
        const std::uint64_t d = 1 + rng.uniformInt(cap + 10);
        if (cold) {
            ASSERT_EQ(s.accessNew(), naive.accessNew()) << "iteration " << i;
        } else {
            ASSERT_EQ(s.accessAtDistance(d), naive.accessAtDistance(d))
                << "iteration " << i << " distance " << d;
        }
        ASSERT_EQ(s.liveBlocks(), naive.live().size());
        if (i % 997 == 0) {
            ASSERT_EQ(liveBlocks(s), naive.live()) << "iteration " << i;
        }
    }
    ASSERT_EQ(liveBlocks(s), naive.live());
}

TEST(SamplerCompaction, CappedStackMatchesNaiveList)
{
    // A 50-block cap has 200 slots, so this stream compacts hundreds
    // of times.
    checkAgainstNaiveList(50, 2024, 50'000);
}

TEST(SamplerCompaction, EdgeCapsMatchNaiveList)
{
    // Caps whose 4x slot counts fill one bitmap word or less (2, 3,
    // 16), end on a word boundary (64, 12800) or one either side of
    // it (17, 63, 65, 500), so the count tree has a single leaf or
    // padding leaves. Eight accesses per block compact each stack at
    // least twice.
    std::uint64_t seed = 31;
    for (const std::size_t cap : {2, 3, 16, 17, 63, 64, 65, 500, 12'800})
        checkAgainstNaiveList(cap, seed++,
                              static_cast<int>(std::max<std::size_t>(
                                  5'000, 8 * cap)));
}

TEST(SamplerCompaction, DropLruRightAfterCompaction)
{
    // A 4-block stack has 16 slots, and each distance-4 access moves
    // the LRU block to the next one, so the 13th such access compacts.
    // After 13 or 14 moves the first cold access drops the LRU block
    // from a freshly compacted stack; after 12 it compacts between
    // its drop and its push. Later cold accesses repeat both cases.
    for (const int moves : {12, 13, 14}) {
        SCOPED_TRACE("moves " + std::to_string(moves));
        LruStackSampler s(4, 4);
        MoveToFrontStack naive(4);
        for (int i = 0; i < moves; ++i)
            ASSERT_EQ(s.accessAtDistance(4), naive.accessAtDistance(4));
        for (int i = 0; i < 40; ++i) {
            ASSERT_EQ(s.accessNew(), naive.accessNew()) << "cold " << i;
            ASSERT_EQ(liveBlocks(s), naive.live()) << "cold " << i;
            if (i % 5 == 4) {
                ASSERT_EQ(s.accessAtDistance(3), naive.accessAtDistance(3));
            }
        }
    }
}

TEST(SamplerCompaction, PeekMatchesNaiveAtEveryDistance)
{
    // peekAtDistance is a rank query over the whole stack, so every
    // distance visits every word boundary, full word and (once moves
    // leave holes) empty word of the bitmap.
    for (const std::size_t cap : {3, 17, 64, 65, 130}) {
        SCOPED_TRACE("cap " + std::to_string(cap));
        LruStackSampler s(cap, cap);
        MoveToFrontStack naive(cap);
        Rng rng(cap);
        for (int round = 0; round < 12; ++round) {
            const std::vector<std::uint64_t> &live = naive.live();
            for (std::uint64_t d = 1; d <= live.size(); ++d)
                ASSERT_EQ(s.peekAtDistance(d), live[live.size() - d])
                    << "round " << round << " distance " << d;
            // Move a run of deep blocks up, leaving whole words empty.
            for (std::size_t i = 0; i < cap; ++i) {
                const std::uint64_t d =
                    i % 2 ? cap : 1 + rng.uniformInt(cap);
                ASSERT_EQ(s.accessAtDistance(d), naive.accessAtDistance(d));
            }
        }
    }
}

TEST(SamplerCompaction, RecycledSlotArraysActFresh)
{
    // Each sampler takes the slot arrays its predecessor left dirty
    // (same or larger size class), so stale slots or tree nodes would
    // show up as a divergence from the list model.
    std::uint64_t seed = 7;
    for (const std::size_t cap : {64, 50, 64, 40, 50, 2, 64})
        checkAgainstNaiveList(cap, seed++, 5'000);
}

TEST(SamplerCompaction, RecycledSlotArraysAtEdgeCaps)
{
    // Samplers built, one after another, in the dirty slot arrays of
    // larger and smaller predecessors at the edge caps.
    std::uint64_t seed = 101;
    for (const std::size_t cap : {500, 65, 17, 64, 3, 63, 16, 500, 2, 65})
        checkAgainstNaiveList(cap, seed++, 5'000);
}

TEST(FenwickPrefixBuild, ReusedStorageMatchesFreshTree)
{
    Rng rng(11);
    std::vector<std::int64_t> storage(300, -5);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t size = 1 + rng.uniformInt(280);
        const std::size_t n = rng.uniformInt(size + 1);
        FenwickTree reused(size, n, std::move(storage));
        FenwickTree fresh(size);
        fresh.fillPrefix(n);
        ASSERT_EQ(reused.total(), fresh.total());
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(reused.prefixSum(i), fresh.prefixSum(i))
                << "size " << size << " n " << n << " slot " << i;
        // Dirty the tree before handing its storage on.
        for (std::size_t i = 0; i < size; i += 3)
            reused.add(i, 2);
        storage = reused.takeStorage();
    }
}

} // namespace
} // namespace cmpqos
