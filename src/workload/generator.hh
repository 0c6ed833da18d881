/**
 * @file
 * Synthetic memory-reference stream generation for one job.
 *
 * Two trace modes (see DESIGN.md):
 *  - L2Stream: emits the post-L1 access stream directly (h2 accesses
 *    per instruction, L2-granularity stack-distance profile). The L1
 *    filter of a private cache is a static property of the benchmark,
 *    so this mode is exact where it matters and fast enough for
 *    10-job co-simulation.
 *  - Full: emits every load/store (memRefsPerInstr per instruction)
 *    from a combined profile whose near-top component models L1-held
 *    reuse; the stream is meant to be filtered through a real L1
 *    model. Used for validation and examples.
 */

#ifndef CMPQOS_WORKLOAD_GENERATOR_HH
#define CMPQOS_WORKLOAD_GENERATOR_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"
#include "workload/benchmark.hh"
#include "workload/profile.hh"
#include "workload/stack_sampler.hh"

namespace cmpqos
{

/** Which stream the generator synthesises. */
enum class TraceMode
{
    L2Stream,
    Full,
};

/**
 * Stateful generator of one job's access stream.
 *
 * Address construction: the sampler produces dense block ids; the
 * emitted address is addressBase + blockId * blockSize. Giving each
 * job a distinct, well-separated addressBase keeps job address spaces
 * disjoint (jobs in the paper are independent single-threaded
 * applications) while block-id density keeps set usage uniform.
 */
class AccessGenerator
{
  public:
    AccessGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                    Addr address_base, TraceMode mode = TraceMode::L2Stream,
                    unsigned block_size = 64);

    /**
     * Advance the job by @p n instructions, emitting accesses.
     * @param emit callable (Addr addr, bool is_write)
     */
    template <typename F>
    void
    run(InstCount n, F &&emit)
    {
        accum_ += static_cast<double>(n) * rate_;
        while (accum_ >= 1.0) {
            accum_ -= 1.0;
            emitOne(emit);
        }
    }

    /** Accesses per instruction in the configured mode. */
    double rate() const { return rate_; }

    TraceMode mode() const { return mode_; }
    const BenchmarkProfile &profile() const { return *profile_; }

    /** Total accesses emitted so far. */
    std::uint64_t emitted() const { return emitted_; }

    /**
     * Visit the address of every block in the job's current standing
     * working set, LRU to MRU. Measurement harnesses use this to
     * pre-fill a cache so steady-state miss rates are not polluted by
     * first-touch misses (real jobs pay those once; the framework's
     * wall-clock model carries a warm-up allowance for them).
     */
    template <typename F>
    void
    forEachStandingBlock(F &&visit) const
    {
        stack_.forEachLive([&](std::uint64_t block) {
            visit(addressBase_ +
                  block * static_cast<Addr>(blockSize_));
        });
    }

  private:
    template <typename F>
    void
    emitOne(F &&emit)
    {
        const auto distance = streamProfile_.sample(rng_);
        const std::uint64_t block =
            distance ? stack_.accessAtDistance(*distance)
                     : stack_.accessNew();
        const Addr addr =
            addressBase_ + block * static_cast<Addr>(blockSize_);
        const bool is_write = rng_.bernoulli(profile_->writeFraction);
        ++emitted_;
        emit(addr, is_write);
    }

    const BenchmarkProfile *profile_;
    TraceMode mode_;
    Addr addressBase_;
    unsigned blockSize_;
    Rng rng_;
    // streamProfile_ precedes stack_: it sets the stack's cap and depth.
    StackDistanceProfile streamProfile_;
    double rate_;
    LruStackSampler stack_;
    double accum_ = 0.0;
    std::uint64_t emitted_ = 0;
};

/**
 * Build the combined (pre-L1) profile used by Full mode: the L2
 * profile's components scaled to h2/memRefsPerInstr total weight,
 * plus a tight geometric component standing in for L1-resident reuse.
 */
StackDistanceProfile buildFullStreamProfile(const BenchmarkProfile &profile);

/**
 * Live-block cap of the sampler that replays @p stream: the deepest
 * distance the stream can draw (at least 2) when every component is
 * Uniform or Cold, and LruStackSampler::defaultMaxLive when any is
 * Geometric (those draws are unbounded). No draw can reach a block
 * below the cap, so the emitted block stream equals that of an
 * uncapped stack.
 */
std::size_t samplerCapacity(const StackDistanceProfile &stream);

/** Well-separated address base for a job (disjoint address spaces). */
Addr jobAddressBase(JobId job);

} // namespace cmpqos

#endif // CMPQOS_WORKLOAD_GENERATOR_HH
