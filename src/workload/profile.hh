/**
 * @file
 * Parametric stack-distance distributions that define a synthetic
 * benchmark's locality, and the analytic miss-rate curve they imply.
 */

#ifndef CMPQOS_WORKLOAD_PROFILE_HH
#define CMPQOS_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"

namespace cmpqos
{

/**
 * One component of a stack-distance mixture.
 */
struct ProfileComponent
{
    enum class Kind
    {
        /** d ~ Uniform[lo, hi]. */
        Uniform,
        /** d = 1 + Geometric with the given mean (heavy near the top). */
        Geometric,
        /** Always a cold / streaming access (infinite distance). */
        Cold,
    };

    Kind kind = Kind::Cold;
    /** Mixture weight (unnormalised). */
    double weight = 1.0;
    /** Uniform bounds (blocks). */
    std::uint64_t lo = 1;
    std::uint64_t hi = 1;
    /** Geometric mean distance (blocks). */
    double mean = 1.0;

    static ProfileComponent
    uniform(double weight, std::uint64_t lo, std::uint64_t hi)
    {
        ProfileComponent c;
        c.kind = Kind::Uniform;
        c.weight = weight;
        c.lo = lo;
        c.hi = hi;
        return c;
    }

    static ProfileComponent
    geometric(double weight, double mean)
    {
        ProfileComponent c;
        c.kind = Kind::Geometric;
        c.weight = weight;
        c.mean = mean;
        return c;
    }

    static ProfileComponent
    cold(double weight)
    {
        ProfileComponent c;
        c.kind = Kind::Cold;
        c.weight = weight;
        return c;
    }

    /** P(d > capacity) for this component alone (fully-associative). */
    double missProbability(std::uint64_t capacity_blocks) const;

    /**
     * Miss probability of this component on a W-way, S-set LRU cache
     * (or partition). A block reused at stack distance d misses when
     * >= W of the d distinct intervening blocks land in its set —
     * approximately a Poisson(d/S) tail — so set-associative caches
     * miss noticeably earlier than the fully-associative capacity
     * W*S suggests when the fit is tight.
     */
    double missProbabilitySetAssoc(unsigned ways,
                                   std::uint64_t sets) const;
};

/**
 * A mixture of stack-distance components; fully characterises the
 * locality of one synthetic benchmark's (post-L1) access stream.
 */
class StackDistanceProfile
{
  public:
    StackDistanceProfile() = default;
    explicit StackDistanceProfile(std::vector<ProfileComponent> components);

    /**
     * Sample one stack distance. std::nullopt means a cold access
     * (touch a new block).
     */
    std::optional<std::uint64_t> sample(Rng &rng) const;

    /**
     * Analytic miss rate of this stream on a fully-associative LRU
     * cache of @p capacity_blocks blocks — the target the cache
     * simulation should approach (used by calibration tests).
     */
    double expectedMissRate(std::uint64_t capacity_blocks) const;

    /**
     * Analytic miss rate on a W-way, S-set LRU partition (the model
     * the simulated partitioned L2 realises; see
     * ProfileComponent::missProbabilitySetAssoc).
     */
    double expectedMissRateSetAssoc(unsigned ways,
                                    std::uint64_t sets) const;

    const std::vector<ProfileComponent> &components() const
    {
        return components_;
    }

    bool empty() const { return components_.empty(); }

    /**
     * Depth of the standing working set: the largest Uniform upper
     * bound, or 8 x mean for a Geometric component. The latter is not
     * a bound (geometric draws are unbounded, and exceed 8 x mean
     * with probability ~e^-8), so this is the deepest distance the
     * profile can draw only when it has no Geometric component.
     */
    std::uint64_t maxFiniteDistance() const;

  private:
    std::vector<ProfileComponent> components_;
    std::vector<double> weights_;
    double totalWeight_ = 0.0;
};

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_PROFILE_HH
