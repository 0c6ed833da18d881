/**
 * @file
 * A set of occupied slots with O(log(slots / 64)) rank queries: a
 * bitmap with one bit per slot, and a count tree over its 64-bit
 * words. The LRU stack sampler (stack_sampler.hh) keeps its live
 * blocks in timestamp slots and asks this index for "the k-th
 * occupied slot".
 *
 * The count tree is padded to a power of two leaves and stored
 * heap-style (node i has children 2i and 2i+1, leaf w is node
 * leaves + w), so an update walks a fixed number of levels and the
 * rank descent takes no data-dependent branch.
 */

#ifndef CMPQOS_WORKLOAD_OCCUPANCY_INDEX_HH
#define CMPQOS_WORKLOAD_OCCUPANCY_INDEX_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace cmpqos
{

namespace detail
{

/** kSelectInByte[v][j]: position of the j-th (0-based) set bit of v. */
constexpr std::array<std::array<std::uint8_t, 8>, 256>
makeSelectInByte()
{
    std::array<std::array<std::uint8_t, 8>, 256> table{};
    for (unsigned v = 0; v < 256; ++v) {
        unsigned j = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            if (v & (1u << bit))
                table[v][j++] = static_cast<std::uint8_t>(bit);
    }
    return table;
}

inline constexpr auto kSelectInByte = makeSelectInByte();

/**
 * Position of the @p r-th (0-based) set bit of @p x, for
 * r < popcount(x), without branches: byte prefix popcounts locate
 * the byte, the table the bit within it.
 */
inline unsigned
selectInWord(std::uint64_t x, unsigned r)
{
    constexpr std::uint64_t ones = 0x0101010101010101ULL;
    constexpr std::uint64_t highs = 0x8080808080808080ULL;
    // Per-byte popcounts, then inclusive prefix sums (each <= 64).
    std::uint64_t c = x - ((x >> 1) & 0x5555555555555555ULL);
    c = (c & 0x3333333333333333ULL) + ((c >> 2) & 0x3333333333333333ULL);
    c = (c + (c >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    const std::uint64_t prefix = c * ones;
    // High bit of byte i set iff prefix[i] <= r; those bytes lead, so
    // their count is the index of the byte holding the r-th bit.
    const std::uint64_t le = ((r * ones) | highs) - prefix;
    const unsigned byte =
        static_cast<unsigned>((((le & highs) >> 7) * ones) >> 56);
    const unsigned shift = 8 * byte;
    const unsigned before =
        static_cast<unsigned>(((prefix << 8) >> shift) & 0xFF);
    return shift + kSelectInByte[(x >> shift) & 0xFF][r - before];
}

} // namespace detail

/**
 * Occupancy of a fixed number of slots, all vacant at first.
 */
class OccupancyIndex
{
  public:
    explicit OccupancyIndex(std::size_t slots)
        : slots_(slots), words_((slots + 63) / 64, 0),
          leaves_(std::bit_ceil(words_.size())),
          depth_(static_cast<unsigned>(std::countr_zero(leaves_))),
          tree_(2 * leaves_, 0)
    {
    }

    /** Number of slots. */
    std::size_t size() const { return slots_; }

    /** Number of occupied slots. */
    std::size_t count() const { return static_cast<std::size_t>(tree_[1]); }

    bool
    test(std::size_t slot) const
    {
        return (words_[slot / 64] >> (slot % 64)) & 1;
    }

    /** Occupy the vacant slot @p slot. */
    void
    set(std::size_t slot)
    {
        words_[slot / 64] |= std::uint64_t{1} << (slot % 64);
        addToLeaf(slot / 64, 1);
    }

    /** Vacate the occupied slot @p slot. */
    void
    clear(std::size_t slot)
    {
        words_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        addToLeaf(slot / 64, -1);
    }

    /**
     * Reset every slot: [0, @p n) occupied, the rest vacant. O(slots /
     * 64), against O(n log slots) for n set() calls.
     */
    void
    fillPrefix(std::size_t n)
    {
        cmpqos_assert(n <= slots_, "prefix %zu exceeds %zu slots", n,
                      slots_);
        for (std::size_t w = 0; w < words_.size(); ++w) {
            const std::size_t lo = 64 * w;
            const std::size_t bits = n <= lo ? 0 : std::min<std::size_t>(
                                                       n - lo, 64);
            words_[w] = bits == 64 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << bits) - 1;
            tree_[leaves_ + w] = static_cast<std::int32_t>(bits);
        }
        for (std::size_t i = leaves_ - 1; i >= 1; --i)
            tree_[i] = tree_[2 * i] + tree_[2 * i + 1];
    }

    /** The @p k-th occupied slot in slot order, for k in [1, count()]. */
    std::size_t
    select(std::size_t k) const
    {
        cmpqos_assert(k >= 1 && k <= count(), "rank %zu out of [1,%zu]", k,
                      count());
        auto rem = static_cast<std::int32_t>(k);
        std::size_t i = 1;
        for (unsigned level = 0; level < depth_; ++level) {
            const std::int32_t left = tree_[2 * i];
            const bool go = left < rem;
            i = 2 * i + go;
            rem -= go ? left : 0;
        }
        const std::size_t w = i - leaves_;
        return 64 * w + detail::selectInWord(words_[w],
                                             static_cast<unsigned>(rem - 1));
    }

    /** The lowest occupied slot at or above @p from; one must exist. */
    std::size_t
    nextOccupied(std::size_t from) const
    {
        std::size_t w = from / 64;
        std::uint64_t x = words_[w] & (~std::uint64_t{0} << (from % 64));
        while (x == 0)
            x = words_[++w];
        return 64 * w + static_cast<std::size_t>(std::countr_zero(x));
    }

  private:
    void
    addToLeaf(std::size_t word, std::int32_t delta)
    {
        for (std::size_t i = leaves_ + word; i != 0; i >>= 1)
            tree_[i] += delta;
    }

    std::size_t slots_;
    std::vector<std::uint64_t> words_;
    /** Tree leaves: the word count rounded up to a power of two. */
    std::size_t leaves_;
    /** log2(leaves_): levels between the root and a leaf. */
    unsigned depth_;
    /** tree_[1] is the root; tree_[leaves_ + w] counts word w, and
     *  the padding leaves past the last word stay 0. */
    std::vector<std::int32_t> tree_;
};

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_OCCUPANCY_INDEX_HH
