#include "generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpqos
{

StackDistanceProfile
buildFullStreamProfile(const BenchmarkProfile &profile)
{
    const double l2_weight = profile.h2 / profile.memRefsPerInstr;
    cmpqos_assert(l2_weight > 0.0 && l2_weight < 1.0,
                  "h2 must be a proper fraction of memRefsPerInstr");
    std::vector<ProfileComponent> comps;
    // L1-resident reuse: short distances that a 32KB L1 captures.
    comps.push_back(
        ProfileComponent::geometric(1.0 - l2_weight, 48.0));
    for (const auto &c : profile.l2Profile.components()) {
        ProfileComponent scaled = c;
        scaled.weight =
            c.weight * l2_weight; // relative scale within the mixture
        comps.push_back(scaled);
    }
    return StackDistanceProfile(std::move(comps));
}

Addr
jobAddressBase(JobId job)
{
    cmpqos_assert(job >= 0, "job id must be non-negative");
    // 16GB per job keeps block ids disjoint for any realistic stream.
    return static_cast<Addr>(job + 1) << 34;
}

std::size_t
samplerCapacity(const StackDistanceProfile &stream)
{
    for (const auto &c : stream.components())
        if (c.kind == ProfileComponent::Kind::Geometric)
            return LruStackSampler::defaultMaxLive;
    return static_cast<std::size_t>(
        std::max<std::uint64_t>(2, stream.maxFiniteDistance()));
}

AccessGenerator::AccessGenerator(const BenchmarkProfile &profile,
                                 std::uint64_t seed, Addr address_base,
                                 TraceMode mode, unsigned block_size)
    : profile_(&profile), mode_(mode), addressBase_(address_base),
      blockSize_(block_size), rng_(seed),
      streamProfile_(mode == TraceMode::L2Stream
                         ? profile.l2Profile
                         : buildFullStreamProfile(profile)),
      rate_(mode == TraceMode::L2Stream ? profile.h2
                                        : profile.memRefsPerInstr),
      // Pre-populate the reuse stack with the benchmark's standing
      // working set. The paper skips each benchmark's initialisation
      // phase and simulates a post-init window (Section 6); starting
      // with an established working set models exactly that. Without
      // it, mid-range reuse distances would read as cold misses for
      // an artificially long start-up phase. (The *cache* still
      // starts cold — first touches miss — which is the physical
      // warm-up the wall-clock model accounts for.)
      stack_(samplerCapacity(streamProfile_),
             streamProfile_.maxFiniteDistance())
{
    cmpqos_assert(rate_ > 0.0, "access rate must be positive");
}

} // namespace cmpqos
