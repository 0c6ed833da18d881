/**
 * @file
 * Differential tests (ctest label "diff") pinning the access streams
 * bit for bit: StackDistanceProfile::sample must return exactly what
 * the Rng::discrete draw it replaced returns and leave the Rng in the
 * same state, for every registered profile in both trace modes and
 * for profiles with zero-weight components; and the first 100k
 * accesses of each paper-mix benchmark hash to the values recorded
 * before the sampler's occupancy index and the direct draw landed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "reference_sampler.hh"
#include "workload/generator.hh"

namespace cmpqos
{
namespace
{

constexpr std::uint64_t kSeeds[] = {1, 0x5EEDF00Dull};

/** Draw @p n times from @p profile through both paths. */
void
expectSameDraws(const StackDistanceProfile &profile, std::uint64_t seed,
                std::size_t n)
{
    const ReferenceDraw reference(profile);
    Rng rng(seed);
    Rng ref_rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const auto got = profile.sample(rng);
        const auto want = reference(ref_rng);
        if (got != want) {
            ADD_FAILURE() << "seed " << seed << " draw " << i << ": "
                          << (got ? std::to_string(*got) : "cold")
                          << " != "
                          << (want ? std::to_string(*want) : "cold");
            return;
        }
    }
    // Both paths consumed the Rng identically.
    EXPECT_EQ(rng.next(), ref_rng.next()) << "seed " << seed;
}

using DrawParam = std::tuple<std::string, TraceMode>;

class DrawIdentity : public ::testing::TestWithParam<DrawParam>
{
};

TEST_P(DrawIdentity, MatchesDiscreteDraw)
{
    const BenchmarkProfile &profile =
        BenchmarkRegistry::get(std::get<0>(GetParam()));
    const StackDistanceProfile stream =
        std::get<1>(GetParam()) == TraceMode::L2Stream
            ? profile.l2Profile
            : buildFullStreamProfile(profile);
    for (const std::uint64_t seed : kSeeds)
        expectSameDraws(stream, seed, 1'000'000);
}

std::vector<DrawParam>
allProfilesBothModes()
{
    std::vector<DrawParam> params;
    for (const BenchmarkProfile &p : BenchmarkRegistry::all())
        for (const TraceMode m : {TraceMode::L2Stream, TraceMode::Full})
            params.emplace_back(p.name, m);
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, DrawIdentity, ::testing::ValuesIn(allProfilesBothModes()),
    [](const ::testing::TestParamInfo<DrawParam> &param_info) {
        return std::get<0>(param_info.param) +
               (std::get<1>(param_info.param) == TraceMode::L2Stream
                    ? "_L2Stream"
                    : "_Full");
    });

TEST(DrawIdentity, ZeroWeightComponents)
{
    using C = ProfileComponent;
    const std::vector<std::vector<C>> mixtures = {
        // Leading.
        {C::cold(0.0), C::uniform(0.3, 1, 10), C::geometric(0.7, 4.0)},
        {C::uniform(0.0, 1, 5), C::uniform(0.0, 6, 9), C::cold(1.0)},
        // Middle.
        {C::uniform(0.5, 1, 10), C::cold(0.0), C::uniform(0.25, 11, 40)},
        {C::cold(0.1), C::uniform(0.0, 2, 3), C::geometric(0.0, 9.0),
         C::uniform(0.9, 5, 500)},
        // Trailing.
        {C::uniform(0.6, 1, 64), C::geometric(0.4, 2.0), C::cold(0.0)},
        {C::cold(0.2), C::uniform(1e-3, 1, 3), C::uniform(0.0, 4, 8),
         C::cold(0.0)},
        // All three, and weights that do not sum exactly.
        {C::cold(0.0), C::uniform(0.1, 1, 7), C::cold(0.0),
         C::uniform(0.2, 8, 90), C::geometric(0.3, 12.0), C::cold(0.0)},
        // A single live component.
        {C::uniform(0.0, 1, 2), C::uniform(2.5, 3, 4), C::cold(0.0)},
        {C::cold(1.0)},
    };
    for (std::size_t m = 0; m < mixtures.size(); ++m) {
        SCOPED_TRACE("mixture " + std::to_string(m));
        const StackDistanceProfile profile(mixtures[m]);
        for (const std::uint64_t seed : kSeeds)
            expectSameDraws(profile, seed, 200'000);
    }
}

/** FNV-1a over the first 100k (address, is_write) pairs at seed 1. */
std::uint64_t
streamHash(const BenchmarkProfile &profile, TraceMode mode)
{
    constexpr std::uint64_t kAccesses = 100'000;
    AccessGenerator gen(profile, 1, jobAddressBase(0), mode);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint8_t byte) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    };
    std::uint64_t seen = 0;
    while (seen < kAccesses)
        gen.run(1'000, [&](Addr addr, bool is_write) {
            if (seen++ >= kAccesses)
                return;
            for (int i = 0; i < 8; ++i)
                mix(static_cast<std::uint8_t>(addr >> (8 * i)));
            mix(is_write ? 1 : 0);
        });
    return hash;
}

TEST(GeneratorGolden, PaperMixStreamHashes)
{
    // Recorded with the Fenwick-tree sampler and the Rng::discrete
    // draw; any change to the emitted stream changes a hash.
    struct Golden
    {
        const char *benchmark;
        TraceMode mode;
        std::uint64_t hash;
    };
    const Golden goldens[] = {
        {"bzip2", TraceMode::L2Stream, 0xbac4e259fd5d67a8ULL},
        {"bzip2", TraceMode::Full, 0xe150cc422dc0f407ULL},
        {"hmmer", TraceMode::L2Stream, 0x739a81795c95d6cbULL},
        {"hmmer", TraceMode::Full, 0xc2beb4aca3e96f42ULL},
        {"gobmk", TraceMode::L2Stream, 0x324c67efed94a5e0ULL},
        {"gobmk", TraceMode::Full, 0x0350746823a98a4aULL},
    };
    for (const Golden &g : goldens)
        EXPECT_EQ(streamHash(BenchmarkRegistry::get(g.benchmark), g.mode),
                  g.hash)
            << g.benchmark
            << (g.mode == TraceMode::L2Stream ? " L2Stream" : " Full");
}

} // namespace
} // namespace cmpqos
