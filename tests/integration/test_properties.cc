/**
 * @file
 * Property-style parameterized sweeps over framework invariants:
 * across benchmarks, seeds, and configurations, accepted QoS jobs
 * always meet deadlines, partitions never over-commit, and miss-rate
 * curves behave monotonically.
 */

#include <gtest/gtest.h>

#include "qos/framework.hh"
#include "qos/workload_spec.hh"

namespace cmpqos
{
namespace
{

constexpr InstCount kJobInstr = 2'500'000;

struct SweepCase
{
    ModeConfig config;
    const char *bench;
    std::uint64_t seed;
};

/** Print cases by value so test names do not embed the literal's address. */
void PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << modeConfigName(c.config) << ' ' << c.bench << " seed " << c.seed;
}

std::string
caseName(const ::testing::TestParamInfo<SweepCase> &info)
{
    std::string name = modeConfigName(info.param.config);
    for (auto &c : name)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name + "_" + info.param.bench + "_s" +
           std::to_string(info.param.seed);
}

class QosInvariantSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(QosInvariantSweep, AcceptedQosJobsAlwaysMeetDeadlines)
{
    const auto &p = GetParam();
    FrameworkConfig fc = FrameworkConfig::forModeConfig(p.config);
    fc.cmp.chunkInstructions = 25'000;
    fc.stealing.intervalInstructions = 400'000;
    QosFramework fw(fc);
    const auto r = fw.runWorkload(makeSingleBenchmarkWorkload(
        p.config, p.bench, 5, kJobInstr, p.seed));

    // The central guarantee of the framework (Section 7.1): every
    // accepted Strict/Elastic job meets its deadline.
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0) << r.workloadName;

    // Every accepted job completed and has sane accounting.
    for (const auto &j : r.jobs) {
        EXPECT_GE(j.endCycle, j.startCycle);
        EXPECT_GT(j.wallClock, 0.0);
        EXPECT_GE(j.missRate, 0.0);
        EXPECT_LE(j.missRate, 1.0);
        EXPECT_GT(j.cpi, 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigBenchSeed, QosInvariantSweep,
    ::testing::Values(
        SweepCase{ModeConfig::AllStrict, "bzip2", 1},
        SweepCase{ModeConfig::AllStrict, "hmmer", 2},
        SweepCase{ModeConfig::AllStrict, "gobmk", 3},
        SweepCase{ModeConfig::Hybrid1, "bzip2", 4},
        SweepCase{ModeConfig::Hybrid1, "gobmk", 5},
        SweepCase{ModeConfig::Hybrid2, "bzip2", 6},
        SweepCase{ModeConfig::Hybrid2, "hmmer", 7},
        SweepCase{ModeConfig::Hybrid2, "gobmk", 8},
        SweepCase{ModeConfig::AllStrictAutoDown, "bzip2", 9},
        SweepCase{ModeConfig::AllStrictAutoDown, "gobmk", 10}),
    caseName);

class PartitionInvariant : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PartitionInvariant, ReservedWaysNeverExceedAssoc)
{
    FrameworkConfig fc = FrameworkConfig::forModeConfig(ModeConfig::Hybrid2);
    fc.cmp.chunkInstructions = 25'000;
    fc.stealing.intervalInstructions = 300'000;
    QosFramework fw(fc);

    unsigned max_reserved = 0;
    fw.simulation().setQuantumHook([&](CoreId c, JobExecution *e) {
        fw.stealing().onQuantum(c, e);
        max_reserved = std::max(
            max_reserved, fw.system().l2().allocation().reservedWays());
    });
    const auto r = fw.runWorkload(makeSingleBenchmarkWorkload(
        ModeConfig::Hybrid2, "bzip2", 5, kJobInstr, GetParam()));
    EXPECT_LE(max_reserved, fw.system().l2().config().assoc);
    EXPECT_DOUBLE_EQ(r.deadlineHitRate(true), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionInvariant,
                         ::testing::Values(21, 22, 23));

class ElasticSlackSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ElasticSlackSweep, MissIncreaseRespectsSlack)
{
    // For any slack X, an Elastic(X) donor's observed miss increase
    // stays near or below X (one interval's tolerance).
    const double slack = GetParam();
    FrameworkConfig fc;
    fc.cmp.chunkInstructions = 25'000;
    fc.stealing.intervalInstructions = 400'000;
    QosFramework fw(fc);
    JobRequest e;
    e.benchmark = "bzip2";
    e.mode = ModeSpec::elastic(slack);
    e.deadlineFactor = 3.0;
    JobRequest o;
    o.benchmark = "bzip2";
    o.mode = ModeSpec::opportunistic();
    o.deadlineFactor = 3.0;
    Job *ej = fw.submitJob(e, 12'000'000);
    Job *oj = fw.submitJob(o, 12'000'000);
    ASSERT_NE(ej, nullptr);
    ASSERT_NE(oj, nullptr);
    fw.runToCompletion();
    EXPECT_TRUE(ej->deadlineMet());
    EXPECT_LT(ej->observedMissIncrease, slack + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Slacks, ElasticSlackSweep,
                         ::testing::Values(0.02, 0.05, 0.10, 0.20));

class WaysSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WaysSweep, SoloCpiDecreasesWithWays)
{
    // More reserved ways never hurt a solo job (monotone service).
    const unsigned ways = GetParam();
    FrameworkConfig fc;
    fc.cmp.chunkInstructions = 25'000;
    QosFramework fw(fc);
    JobRequest r;
    r.benchmark = "bzip2";
    r.mode = ModeSpec::strict();
    r.ways = ways;
    r.deadlineFactor = 3.0;
    Job *j = fw.submitJob(r, 20'000'000);
    ASSERT_NE(j, nullptr);
    fw.runToCompletion();
    // Whole-run CPI includes first-touch warm-up, so compare with a
    // tolerance that covers it at this job length.
    const double expected =
        BenchmarkRegistry::get("bzip2").expectedCpi(ways);
    EXPECT_NEAR(j->exec()->cpi(), expected, expected * 0.08)
        << ways << " ways";
}

INSTANTIATE_TEST_SUITE_P(Ways, WaysSweep,
                         ::testing::Values(1u, 2u, 4u, 7u, 10u, 14u));

} // namespace
} // namespace cmpqos
