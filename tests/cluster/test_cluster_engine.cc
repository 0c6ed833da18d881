/**
 * @file
 * Tests for the parallel cluster engine, headlined by the determinism
 * guarantee: the same seed must produce identical admission decisions
 * and final metrics at ANY worker thread count.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cluster/engine.hh"

namespace cmpqos
{
namespace
{

ClusterConfig
fastCluster(int nodes, unsigned threads)
{
    ClusterConfig c;
    c.nodes = nodes;
    c.threads = threads;
    c.quantum = 500'000;
    c.seed = 11;
    c.node.cmp.chunkInstructions = 20'000;
    return c;
}

ArrivalMix
fastMix()
{
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = 400'000;
    return mix;
}

ClusterMetrics
runCluster(unsigned threads, std::uint64_t jobs = 24)
{
    PoissonArrivalProcess arrivals(150'000.0, fastMix(), 123, jobs);
    ClusterEngine engine(fastCluster(4, threads));
    return engine.runToCompletion(arrivals);
}

TEST(ClusterEngine, DeterministicAcrossThreadCounts)
{
    // The core guarantee (and this PR's acceptance criterion): one
    // seed, identical aggregates at 1, 2 and 4 worker threads.
    const ClusterMetrics m1 = runCluster(1);
    const ClusterMetrics m2 = runCluster(2);
    const ClusterMetrics m4 = runCluster(4);
    EXPECT_GT(m1.submitted, 0u);
    EXPECT_EQ(m1.fingerprint(), m2.fingerprint());
    EXPECT_EQ(m1.fingerprint(), m4.fingerprint());
    // Thread count is run identity, not simulation state.
    EXPECT_EQ(m1.threads, 1u);
    EXPECT_EQ(m4.threads, 4u);
}

TEST(ClusterEngine, RunToCompletionDrainsEveryNode)
{
    const ClusterMetrics m = runCluster(2);
    EXPECT_EQ(m.submitted, 24u);
    EXPECT_EQ(m.accepted + m.rejected, m.submitted);
    EXPECT_EQ(m.completed, m.accepted);
    EXPECT_EQ(m.truncated, 0u);
    ASSERT_EQ(m.nodes.size(), 4u);
    std::uint64_t placed = 0;
    for (const NodeMetrics &n : m.nodes) {
        EXPECT_EQ(n.inFlight, 0u);
        EXPECT_EQ(n.completed, n.placed);
        placed += n.placed;
    }
    EXPECT_EQ(placed, m.accepted);
}

TEST(ClusterEngine, AcceptedByTierSumsToAccepted)
{
    const ClusterMetrics m = runCluster(2, 40);
    std::uint64_t byTier = 0;
    for (std::uint64_t c : m.acceptedByTier)
        byTier += c;
    EXPECT_EQ(byTier, m.accepted);
}

TEST(ClusterEngine, RunForDurationTruncatesOpenLoopStream)
{
    // Infinite stream + finite horizon: the run stops at the horizon
    // with work still in flight and the overrun arrival truncated.
    PoissonArrivalProcess arrivals(200'000.0, fastMix(), 5, 0);
    ClusterEngine engine(fastCluster(2, 2));
    const ClusterMetrics m =
        engine.runForDuration(arrivals, 2'000'000);
    EXPECT_GT(m.submitted, 0u);
    EXPECT_EQ(m.truncated, 1u);
    for (const NodeMetrics &n : m.nodes)
        EXPECT_GE(n.virtualTime, 2'000'000u);
}

TEST(ClusterEngine, LeastLoadedSpreadsJobsAcrossNodes)
{
    const ClusterMetrics m = runCluster(1, 32);
    int used = 0;
    for (const NodeMetrics &n : m.nodes)
        used += n.placed > 0;
    // 32 near-simultaneous jobs over 4 nodes: least-loaded placement
    // must not pile everything on one node.
    EXPECT_GE(used, 3);
}

TEST(ClusterEngine, TraceArrivalsPlaceDeterministically)
{
    const char *trace = "0 bzip2 gold\n"
                        "100000 hmmer silver\n"
                        "200000 gobmk bronze\n"
                        "900000 bzip2 gold\n";
    ClusterMetrics runs[2];
    for (int i = 0; i < 2; ++i) {
        std::istringstream in(trace);
        TraceArrivalProcess arrivals(in, fastMix(), "test");
        ClusterEngine engine(fastCluster(2, i == 0 ? 1 : 2));
        runs[i] = engine.runToCompletion(arrivals);
    }
    EXPECT_EQ(runs[0].submitted, 4u);
    EXPECT_EQ(runs[0].fingerprint(), runs[1].fingerprint());
}

TEST(ClusterEngine, NegotiationRecoversOverloadArrivals)
{
    // One tiny node and a burst of simultaneous Gold jobs: without
    // negotiation some are rejected outright; with it, relaxed
    // deadlines recover placements.
    ClusterConfig base = fastCluster(1, 1);
    ArrivalMix mix = fastMix();
    mix.tiers[1].weight = 0.0; // all Gold
    mix.tiers[2].weight = 0.0;
    mix.tiers[0].weight = 1.0;

    base.negotiate = false;
    PoissonArrivalProcess a1(10'000.0, mix, 9, 12);
    ClusterEngine strictEngine(base);
    const ClusterMetrics without = strictEngine.runToCompletion(a1);

    base.negotiate = true;
    PoissonArrivalProcess a2(10'000.0, mix, 9, 12);
    ClusterEngine negotiatingEngine(base);
    const ClusterMetrics with = negotiatingEngine.runToCompletion(a2);

    EXPECT_GT(without.rejected, 0u);
    EXPECT_GT(with.negotiated, 0u);
    EXPECT_GT(with.accepted, without.accepted);
}

TEST(ClusterEngine, FinishedJobsReleaseTheirGenerators)
{
    // One long epoch: every job that finishes drops its generator
    // (and its reuse stack) while the node lives on; only the outcome
    // record stays. Mid-run, exactly the in-flight jobs hold one.
    ClusterEngine engine(fastCluster(4, 2));
    PoissonArrivalProcess arrivals(60'000.0, fastMix(), 31, 80);
    const ClusterMetrics mid = engine.runForDuration(arrivals, 4'000'000);
    std::size_t live = 0;
    std::uint64_t in_flight = 0;
    for (int n = 0; n < engine.numNodes(); ++n)
        live += engine.node(n).framework().liveGenerators();
    for (const NodeMetrics &n : mid.nodes)
        in_flight += n.inFlight;
    EXPECT_GT(live, 0u);
    EXPECT_EQ(live, in_flight);

    const ClusterMetrics m = engine.runToCompletion(arrivals);
    ASSERT_GT(m.completed, 40u);
    std::uint64_t finished = 0;
    for (int n = 0; n < engine.numNodes(); ++n) {
        const QosFramework &fw = engine.node(n).framework();
        EXPECT_EQ(fw.liveGenerators(), 0u) << "node " << n;
        for (const auto &job : fw.jobs()) {
            const JobExecution *exec = job->exec();
            if (exec == nullptr)
                continue;
            ++finished;
            EXPECT_TRUE(exec->complete());
            EXPECT_GT(exec->l2Accesses, 0u);
            EXPECT_GT(exec->cpi(), 0.0);
            EXPECT_GT(exec->wallClock(), 0.0);
        }
    }
    EXPECT_EQ(finished, m.completed);
}

TEST(ClusterEngine, NodeSeedsDeriveFromClusterSeed)
{
    ClusterConfig a = fastCluster(2, 1);
    ClusterConfig b = fastCluster(2, 1);
    b.seed = 1234;
    ClusterEngine ea(a), eb(b);
    EXPECT_NE(ea.node(0).framework().config().seed,
              eb.node(0).framework().config().seed);
    // Distinct streams per node within one cluster.
    EXPECT_NE(ea.node(0).framework().config().seed,
              ea.node(1).framework().config().seed);
}

} // namespace
} // namespace cmpqos
