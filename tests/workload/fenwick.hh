/**
 * @file
 * A Fenwick (binary indexed) tree over integer counts, with an
 * O(log n) "find the index holding the k-th unit" query.
 *
 * The order-statistics substrate of the frozen reference stack
 * sampler (reference_sampler.hh) that the differential tests hold
 * LruStackSampler's bitmap + count-tree index against. It is the
 * tree the library's sampler used before that index replaced it.
 */

#ifndef CMPQOS_TESTS_WORKLOAD_FENWICK_HH
#define CMPQOS_TESTS_WORKLOAD_FENWICK_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace cmpqos
{

/**
 * Fenwick tree over a fixed-capacity array of non-negative counts.
 */
class FenwickTree
{
  public:
    /** Build a tree of @p size zero-initialised slots. */
    explicit FenwickTree(std::size_t size)
        : tree_(size + 1, 0), total_(0)
    {
    }

    /**
     * Build a tree of @p size slots holding 1 in [0, @p n) and 0
     * elsewhere, in the storage of @p reuse. Only its capacity is
     * reused: the contents are overwritten.
     */
    FenwickTree(std::size_t size, std::size_t n,
                std::vector<std::int64_t> &&reuse)
        : tree_(std::move(reuse)), total_(0)
    {
        tree_.resize(size + 1);
        fillPrefix(n);
    }

    /** Hand the storage out for reuse; the tree is unusable after. */
    std::vector<std::int64_t> takeStorage() { return std::move(tree_); }

    /** Number of addressable slots. */
    std::size_t size() const { return tree_.size() - 1; }

    /** Sum of all slot values. */
    std::int64_t total() const { return total_; }

    /** Add @p delta to slot @p idx (0-based). */
    void
    add(std::size_t idx, std::int64_t delta)
    {
        cmpqos_assert(idx < size(), "fenwick index %zu out of range", idx);
        total_ += delta;
        for (std::size_t i = idx + 1; i < tree_.size(); i += i & (~i + 1))
            tree_[i] += delta;
    }

    /**
     * Reset every slot: [0, @p n) to 1 and the rest to 0. O(size),
     * against O(n log size) for n add() calls on a cleared tree.
     */
    void
    fillPrefix(std::size_t n)
    {
        cmpqos_assert(n <= size(), "fenwick prefix %zu exceeds size %zu",
                      n, size());
        // Node i (1-based) sums the slots [i - lowbit(i), i).
        for (std::size_t i = 1; i < tree_.size(); ++i) {
            const std::size_t lo = i - (i & (~i + 1));
            tree_[i] = n > lo ? static_cast<std::int64_t>(
                                    (i < n ? i : n) - lo)
                              : 0;
        }
        total_ = static_cast<std::int64_t>(n);
    }

    /** Prefix sum of slots [0, idx] (0-based, inclusive). */
    std::int64_t
    prefixSum(std::size_t idx) const
    {
        cmpqos_assert(idx < size(), "fenwick index %zu out of range", idx);
        std::int64_t sum = 0;
        for (std::size_t i = idx + 1; i > 0; i -= i & (~i + 1))
            sum += tree_[i];
        return sum;
    }

    /** Sum of slots in [lo, hi] inclusive. */
    std::int64_t
    rangeSum(std::size_t lo, std::size_t hi) const
    {
        cmpqos_assert(lo <= hi, "fenwick range inverted");
        std::int64_t s = prefixSum(hi);
        if (lo > 0)
            s -= prefixSum(lo - 1);
        return s;
    }

    /**
     * Find the smallest index idx such that prefixSum(idx) >= k,
     * for k in [1, total()]. All slot values must be non-negative
     * for this query to be meaningful.
     */
    std::size_t
    findKth(std::int64_t k) const
    {
        cmpqos_assert(k >= 1 && k <= total_,
                      "findKth k=%lld out of [1,%lld]",
                      static_cast<long long>(k),
                      static_cast<long long>(total_));
        std::size_t pos = 0;
        std::size_t mask = 1;
        while ((mask << 1) <= size())
            mask <<= 1;
        std::int64_t remaining = k;
        for (; mask > 0; mask >>= 1) {
            std::size_t nxt = pos + mask;
            if (nxt < tree_.size() && tree_[nxt] < remaining) {
                pos = nxt;
                remaining -= tree_[nxt];
            }
        }
        return pos; // 0-based slot index
    }

  private:
    std::vector<std::int64_t> tree_;
    std::int64_t total_;
};

} // namespace cmpqos

#endif // CMPQOS_TESTS_WORKLOAD_FENWICK_HH
