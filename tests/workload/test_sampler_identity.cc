/**
 * @file
 * Differential tests (ctest label "diff") for the right-sized reuse
 * stack: every generator's sampler is capped at the deepest distance
 * its stream can draw and built warm in O(slots), and must emit
 * exactly what an uncapped stack warmed one accessNew() at a time
 * emits. Also checks the Fenwick prefix builder against add() loops
 * and a capped sampler's compaction against a naive list model, also
 * in slot arrays recycled from earlier samplers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <tuple>
#include <vector>

#include "common/fenwick.hh"
#include "common/random.hh"
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
 * (2^17-block) stack warmed with one accessNew() per standing block,
 * drawing from the Rng in the generator's order.
 */
class ReferenceGenerator
{
  public:
    ReferenceGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                       Addr base, TraceMode mode)
        : profile_(profile), base_(base), rng_(seed),
          stream_(mode == TraceMode::L2Stream
                      ? profile.l2Profile
                      : buildFullStreamProfile(profile))
    {
        for (std::uint64_t i = 0; i < stream_.maxFiniteDistance(); ++i)
            stack_.accessNew();
    }

    std::pair<Addr, bool>
    next()
    {
        const auto d = stream_.sample(rng_);
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
    LruStackSampler stack_;
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
        LruStackSampler looped(cap);
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
 * Drive a sampler of cap @p cap, built warm with @p cap blocks, through
 * @p steps accesses (moves, cold touches and cap drops interleaved)
 * against a naive move-to-front list.
 */
void
checkAgainstNaiveList(std::size_t cap, std::uint64_t seed, int steps)
{
    LruStackSampler s(cap, cap);
    std::list<std::uint64_t> naive; // front = MRU
    for (std::uint64_t b = 0; b < cap; ++b)
        naive.push_front(b);
    std::uint64_t next_id = cap;
    Rng rng(seed);
    for (int i = 0; i < steps; ++i) {
        std::uint64_t expect;
        const bool cold = rng.uniformInt(8) == 0;
        const std::uint64_t d = 1 + rng.uniformInt(cap + 10);
        if (cold || d > naive.size()) {
            expect = next_id++;
            naive.push_front(expect);
            if (naive.size() > cap)
                naive.pop_back();
            ASSERT_EQ(cold ? s.accessNew() : s.accessAtDistance(d), expect)
                << "iteration " << i;
        } else {
            auto it = naive.begin();
            std::advance(it, static_cast<long>(d - 1));
            expect = *it;
            naive.erase(it);
            naive.push_front(expect);
            ASSERT_EQ(s.accessAtDistance(d), expect) << "iteration " << i;
        }
        ASSERT_EQ(s.liveBlocks(), naive.size());
        if (i % 997 == 0) {
            std::vector<std::uint64_t> live;
            s.forEachLive([&](std::uint64_t b) { live.push_back(b); });
            ASSERT_EQ(live, std::vector<std::uint64_t>(naive.rbegin(),
                                                       naive.rend()));
        }
    }
}

TEST(SamplerCompaction, CappedStackMatchesNaiveList)
{
    // A 50-block cap has 200 slots, so this stream compacts hundreds
    // of times.
    checkAgainstNaiveList(50, 2024, 50'000);
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
