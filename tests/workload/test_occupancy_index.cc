/**
 * @file
 * Differential tests (ctest label "diff") for the stack sampler's
 * occupancy index: bitmap, count tree and in-word select, checked
 * against a naive vector<bool> at slot counts that do and do not fill
 * whole words, at ranks on every word boundary, and over full and
 * empty words.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workload/occupancy_index.hh"

namespace cmpqos
{
namespace
{

/** Every query of @p index agrees with @p occ. */
void
expectMatches(const OccupancyIndex &index, const std::vector<bool> &occ)
{
    ASSERT_EQ(index.size(), occ.size());
    std::size_t count = 0;
    for (std::size_t slot = 0; slot < occ.size(); ++slot) {
        ASSERT_EQ(index.test(slot), occ[slot]) << "slot " << slot;
        count += occ[slot] ? 1 : 0;
    }
    ASSERT_EQ(index.count(), count);
    std::size_t k = 0;
    for (std::size_t slot = 0; slot < occ.size(); ++slot) {
        if (!occ[slot])
            continue;
        ASSERT_EQ(index.select(++k), slot) << "rank " << k;
    }
    // The lowest occupied slot at or above each slot up to the last.
    std::size_t next = occ.size();
    for (std::size_t from = occ.size(); from-- > 0;) {
        if (occ[from])
            next = from;
        if (next < occ.size()) {
            ASSERT_EQ(index.nextOccupied(from), next) << "from " << from;
        }
    }
}

/** Slot counts below, at and either side of one word, and word
 *  counts at and either side of a power of two (tree padding). */
const std::size_t kSizes[] = {1,   2,   63,  64,  65,   127,  128,
                              129, 200, 337, 1024, 1089, 4096 + 3};

TEST(OccupancyIndex, StartsEmpty)
{
    for (const std::size_t size : kSizes) {
        OccupancyIndex index(size);
        expectMatches(index, std::vector<bool>(size, false));
    }
}

TEST(OccupancyIndex, RanksAtEveryWordBoundary)
{
    for (const std::size_t size : kSizes) {
        SCOPED_TRACE("size " + std::to_string(size));
        // The last slot of each word and the first of the next.
        std::vector<bool> occ(size, false);
        OccupancyIndex index(size);
        for (std::size_t w = 0; 64 * w < size; ++w)
            for (const std::size_t slot : {64 * w, 64 * w + 63})
                if (slot < size && !occ[slot]) {
                    occ[slot] = true;
                    index.set(slot);
                }
        expectMatches(index, occ);
    }
}

TEST(OccupancyIndex, FullAndEmptyWords)
{
    for (const std::size_t size : kSizes) {
        SCOPED_TRACE("size " + std::to_string(size));
        // Words alternate full and empty, then every third word is
        // emptied one slot at a time.
        std::vector<bool> occ(size, false);
        OccupancyIndex index(size);
        for (std::size_t slot = 0; slot < size; ++slot)
            if ((slot / 64) % 2 == 0) {
                occ[slot] = true;
                index.set(slot);
            }
        expectMatches(index, occ);
        for (std::size_t slot = 0; slot < size; ++slot)
            if ((slot / 64) % 3 == 0 && occ[slot]) {
                occ[slot] = false;
                index.clear(slot);
            }
        expectMatches(index, occ);
    }
}

TEST(OccupancyIndex, RandomSetClearMatchesNaive)
{
    Rng rng(5);
    for (const std::size_t size : kSizes) {
        SCOPED_TRACE("size " + std::to_string(size));
        std::vector<bool> occ(size, false);
        OccupancyIndex index(size);
        for (int step = 0; step < 2'000; ++step) {
            const std::size_t slot = rng.uniformInt(size);
            if (occ[slot])
                index.clear(slot);
            else
                index.set(slot);
            occ[slot] = !occ[slot];
            if (step % 250 == 0)
                expectMatches(index, occ);
        }
        expectMatches(index, occ);
    }
}

TEST(OccupancyIndex, SelectInWordMatchesBitScan)
{
    Rng rng(17);
    std::vector<std::uint64_t> words = {1, ~std::uint64_t{0},
                                        std::uint64_t{1} << 63,
                                        0x8000000000000001ULL,
                                        0x00FF00FF00FF00FFULL,
                                        0xFF00000000000000ULL};
    for (int i = 0; i < 2'000; ++i) {
        // Sparse and dense words alike.
        std::uint64_t x = rng.next();
        for (int j = 0; j < i % 4; ++j)
            x &= rng.next();
        words.push_back(x | (std::uint64_t{1} << (i % 64)));
    }
    for (const std::uint64_t x : words) {
        unsigned r = 0;
        for (unsigned bit = 0; bit < 64; ++bit) {
            if ((x >> bit) & 1) {
                ASSERT_EQ(detail::selectInWord(x, r), bit)
                    << std::hex << "word 0x" << x << std::dec << " rank "
                    << r;
                ++r;
            }
        }
        ASSERT_EQ(r, static_cast<unsigned>(std::popcount(x)));
    }
}

TEST(OccupancyIndexBuild, MatchesSetLoop)
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
        OccupancyIndex built(size);
        built.fillPrefix(n);
        OccupancyIndex looped(size);
        std::vector<bool> occ(size, false);
        for (std::size_t i = 0; i < n; ++i) {
            looped.set(i);
            occ[i] = true;
        }
        expectMatches(built, occ);
        expectMatches(looped, occ);

        // Refilling a used index gives the same state.
        for (std::size_t i = 0; i < size; i += 3)
            if (built.test(i))
                built.clear(i);
            else
                built.set(i);
        built.fillPrefix(n);
        expectMatches(built, occ);
    }
}

TEST(OccupancyIndexBuild, RefillMatchesFreshIndex)
{
    // One index refilled again and again, dirtied between refills,
    // against a fresh index filled once per prefix.
    Rng rng(11);
    for (const std::size_t size : kSizes) {
        SCOPED_TRACE("size " + std::to_string(size));
        OccupancyIndex reused(size);
        for (int trial = 0; trial < 20; ++trial) {
            const std::size_t n = rng.uniformInt(size + 1);
            reused.fillPrefix(n);
            OccupancyIndex fresh(size);
            fresh.fillPrefix(n);
            std::vector<bool> occ(size, false);
            for (std::size_t i = 0; i < n; ++i)
                occ[i] = true;
            expectMatches(reused, occ);
            expectMatches(fresh, occ);
            for (std::size_t i = 0; i < size; i += 3)
                if (reused.test(i))
                    reused.clear(i);
                else
                    reused.set(i);
        }
    }
}

} // namespace
} // namespace cmpqos
