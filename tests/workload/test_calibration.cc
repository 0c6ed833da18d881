/**
 * @file
 * End-to-end calibration: drive each representative benchmark's
 * synthetic stream through the real partitioned L2 and check the
 * *measured* miss rate against the set-associative analytic curve
 * and the paper's Table 1 values. This is the load-bearing link
 * between the stack-distance substitution and the paper's
 * benchmarks.
 *
 * Measurement protocol: the cache is pre-filled with the job's
 * standing working set (the paper skips initialisation phases and
 * measures a post-init window), so these are steady-state rates.
 */

#include <gtest/gtest.h>

#include "cache/partitioned_cache.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

namespace cmpqos
{
namespace
{

/** Steady-state miss rate of a benchmark alone at @p ways. */
double
measureMissRate(const std::string &name, unsigned ways,
                std::uint64_t accesses = 150'000, std::uint64_t seed = 9)
{
    const auto &b = BenchmarkRegistry::get(name);
    PartitionedCache l2(CacheConfig::l2Default(), 4,
                        PartitionScheme::PerSet);
    l2.setTargetWays(0, ways);
    l2.setCoreClass(0, CoreClass::Reserved);

    AccessGenerator gen(b, seed, jobAddressBase(0));
    gen.forEachStandingBlock([&](Addr a) { l2.access(0, a, false); });
    l2.resetStats();
    const InstCount instr = static_cast<InstCount>(
        static_cast<double>(accesses) / b.h2);
    gen.run(instr, [&](Addr a, bool w) { l2.access(0, a, w); });
    return l2.coreStats(0).missRate();
}

/**
 * The name is held in the struct, not pointed to, so the byte dump
 * gtest prints for the parameter in each test's ctest name is the same
 * in every build and run (a pointer's bytes change with the load
 * address).
 */
struct CalibrationCase
{
    char name[12];
    unsigned ways;
};

class MeasuredVsAnalytic
    : public ::testing::TestWithParam<CalibrationCase>
{
};

TEST_P(MeasuredVsAnalytic, MeasuredMissRateTracksAnalyticCurve)
{
    const auto &[name, ways] = GetParam();
    const auto &b = BenchmarkRegistry::get(name);
    const double measured = measureMissRate(name, ways);
    const double analytic = b.expectedL2MissRate(ways);
    // The Poisson-tail model is intentionally conservative at 1 way
    // (it ignores reuse correlation); allow more room there.
    const double tol = ways == 1 ? 0.11 : 0.06;
    EXPECT_NEAR(measured, analytic, tol)
        << name << " at " << ways << " ways";
}

INSTANTIATE_TEST_SUITE_P(
    RepresentativeSweep, MeasuredVsAnalytic,
    ::testing::Values(CalibrationCase{"bzip2", 1},
                      CalibrationCase{"bzip2", 4},
                      CalibrationCase{"bzip2", 7},
                      CalibrationCase{"bzip2", 16},
                      CalibrationCase{"hmmer", 1},
                      CalibrationCase{"hmmer", 7},
                      CalibrationCase{"gobmk", 4},
                      CalibrationCase{"gobmk", 7},
                      CalibrationCase{"mcf", 7},
                      CalibrationCase{"soplex", 4},
                      CalibrationCase{"sphinx", 7},
                      CalibrationCase{"astar", 7},
                      CalibrationCase{"libquantum", 7},
                      CalibrationCase{"namd", 7}),
    [](const auto &pinfo) {
        return std::string(pinfo.param.name) + "_w" +
               std::to_string(pinfo.param.ways);
    });

TEST(Calibration, Table1MissesPerInstruction)
{
    // Table 1's L2 MPI at 7 ways: bzip2 0.0055, hmmer 0.001,
    // gobmk 0.004.
    struct Row
    {
        const char *name;
        double mpi;
    };
    for (const Row &row : {Row{"bzip2", 0.0055}, Row{"hmmer", 0.001},
                           Row{"gobmk", 0.004}}) {
        const auto &b = BenchmarkRegistry::get(row.name);
        const double measured = measureMissRate(row.name, 7) * b.h2;
        EXPECT_NEAR(measured, row.mpi, row.mpi * 0.15) << row.name;
    }
}

TEST(Calibration, Table1MissRatesMeasured)
{
    // Table 1 at 7 ways: hmmer 17%, gobmk 24% match directly. bzip2
    // measures ~24% (vs the paper's 20%): its knee must sit between
    // 5.3 and 8 ways to reproduce Figure 1, and a set-associative
    // transition that wide lifts the 7-way point (EXPERIMENTS.md).
    EXPECT_NEAR(measureMissRate("hmmer", 7), 0.17, 0.035);
    EXPECT_NEAR(measureMissRate("gobmk", 7), 0.24, 0.035);
    EXPECT_NEAR(measureMissRate("bzip2", 7), 0.235, 0.045);
}

TEST(Calibration, MeasuredMissRateMonotoneInWays)
{
    const double m1 = measureMissRate("bzip2", 1, 80'000);
    const double m4 = measureMissRate("bzip2", 4, 80'000);
    const double m7 = measureMissRate("bzip2", 7, 80'000);
    EXPECT_GT(m1, m4 - 0.01);
    EXPECT_GT(m4, m7 - 0.01);
}

TEST(Calibration, InsensitiveBenchmarkIsFlat)
{
    const double m2 = measureMissRate("gobmk", 2, 80'000);
    const double m14 = measureMissRate("gobmk", 14, 80'000);
    EXPECT_NEAR(m2, m14, 0.05);
}

TEST(Calibration, Figure1KneeSitsBetweenTwoAndThreeSharers)
{
    // The motivating claim (Figure 1): bzip2's miss rate is near its
    // alone value with an 8-way share (2 co-runners) but
    // substantially higher with a 5-way share (3 co-runners).
    const double alone = measureMissRate("bzip2", 16);
    const double half = measureMissRate("bzip2", 8);
    const double third = measureMissRate("bzip2", 5);
    EXPECT_LT(half - alone, 0.05);
    EXPECT_GT(third - alone, 0.12);
}

} // namespace
} // namespace cmpqos
