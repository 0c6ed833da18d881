/**
 * @file
 * An LRU stack that can be accessed *by stack distance* in
 * O(log n), used to synthesise memory reference streams with a
 * prescribed stack-distance (reuse-distance) distribution.
 *
 * Rationale: every result in the paper depends on a benchmark only
 * through its miss-rate-vs-allocated-capacity curve, and for an LRU
 * cache of capacity C that curve is P(stack distance > C). Sampling
 * distances from a parametric distribution and replaying the implied
 * block stream therefore reproduces a benchmark's cache behaviour
 * exactly where it matters, while exercising the real cache models.
 *
 * Implementation: live blocks occupy slots of a timestamp-ordered
 * array; a Fenwick tree counts occupied slots so "the d-th
 * most-recently-used block" is an order-statistics query. Slots are
 * compacted when the timestamp space is exhausted.
 */

#ifndef CMPQOS_WORKLOAD_STACK_SAMPLER_HH
#define CMPQOS_WORKLOAD_STACK_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/fenwick.hh"
#include "common/types.hh"

namespace cmpqos
{

/**
 * LRU stack with order-statistics access.
 *
 * Block ids are dense and assigned on first touch. Once the live-block
 * cap is hit, each new block drops the coldest one from the stack (the
 * LRU block, which by construction is the least likely to be
 * re-referenced); its id is never reused.
 */
class LruStackSampler
{
  public:
    /** Live-block cap of a default-constructed sampler. */
    static constexpr std::size_t defaultMaxLive = std::size_t{1} << 17;

    /**
     * @param max_live_blocks cap on tracked blocks; beyond this the
     *        LRU block is dropped from the stack and can never be
     *        re-referenced. A stream whose distances never exceed the
     *        cap behaves exactly as on an unbounded stack, so size it
     *        to the deepest distance the stream can draw (see
     *        samplerCapacity() in generator.hh). Memory is ~64 bytes
     *        per block: 4x slot headroom, 16 bytes per slot, taken
     *        from arrays earlier samplers gave back when one fits.
     * @param warm_blocks start as if accessNew() had been called this
     *        many times (blocks 0..warm_blocks-1, the last one MRU),
     *        built in O(slots) rather than O(warm_blocks log slots).
     */
    explicit LruStackSampler(std::size_t max_live_blocks = defaultMaxLive,
                             std::uint64_t warm_blocks = 0);

    /** Returns the slot arrays to a process-wide pool, from which the
     *  next sampler built takes them (see stack_sampler.cc). */
    ~LruStackSampler();
    LruStackSampler(const LruStackSampler &) = default;
    LruStackSampler(LruStackSampler &&) = default;
    LruStackSampler &operator=(const LruStackSampler &) = default;
    LruStackSampler &operator=(LruStackSampler &&) = default;

    /**
     * Access the block at stack distance @p d (1 = most recently
     * used). If fewer than d blocks are live, a new block is touched
     * instead. The touched block moves to the top of the stack.
     *
     * @return the block id touched
     */
    std::uint64_t accessAtDistance(std::uint64_t d);

    /** Touch a brand-new (cold) block. @return its block id. */
    std::uint64_t accessNew();

    /** Number of live blocks in the stack. */
    std::size_t liveBlocks() const { return liveCount_; }

    /** Total distinct blocks ever touched (= next fresh block id). */
    std::uint64_t totalBlocks() const { return nextBlockId_; }

    /**
     * The block id currently at stack distance @p d, without touching
     * it (for tests). d must be in [1, liveBlocks()].
     */
    std::uint64_t peekAtDistance(std::uint64_t d) const;

    /**
     * Visit every live block in recency order (LRU first, MRU last)
     * without touching recency state. Used to pre-fill caches with a
     * job's standing working set before steady-state measurement.
     */
    template <typename F>
    void
    forEachLive(F &&visit) const
    {
        // Live blocks occupy slots in recency order.
        for (std::size_t slot = 0; slot < nextSlot_; ++slot)
            if (slotBlock_[slot] != vacant)
                visit(slotBlock_[slot]);
    }

  private:
    /** Place @p block at the top of the stack. */
    void pushTop(std::uint64_t block);

    /** Remove the LRU block from the stack entirely. */
    void dropLru();

    /** Renumber live slots densely when positions run out. */
    void compact();

    std::size_t maxLive_;
    std::size_t slotCapacity_;
    std::size_t liveCount_;
    std::size_t nextSlot_;
    std::uint64_t nextBlockId_;
    FenwickTree occupied_;
    /** slot -> block id; `vacant` where the slot is unoccupied. */
    std::vector<std::uint64_t> slotBlock_;

    static constexpr std::uint64_t vacant = ~0ULL;
};

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_STACK_SAMPLER_HH
