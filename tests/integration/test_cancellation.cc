/**
 * @file
 * Failure-injection tests: user cancellation and maximum-wall-clock
 * enforcement (Section 3.2's embedded expectation that a job may be
 * terminated when it outruns its tw).
 */

#include <gtest/gtest.h>

#include "qos/framework.hh"

namespace cmpqos
{
namespace
{

FrameworkConfig
fastConfig()
{
    FrameworkConfig fc;
    fc.cmp.chunkInstructions = 20'000;
    return fc;
}

JobRequest
request(const char *bench, ModeSpec mode, double deadline = 3.0)
{
    JobRequest r;
    r.benchmark = bench;
    r.mode = mode;
    r.deadlineFactor = deadline;
    return r;
}

TEST(Cancellation, CancelWaitingJobFreesSlot)
{
    QosFramework fw(fastConfig());
    Job *a = fw.submitJob(request("gobmk", ModeSpec::strict(), 5.0),
                          4'000'000);
    Job *b = fw.submitJob(request("gobmk", ModeSpec::strict(), 5.0),
                          4'000'000);
    Job *waiting =
        fw.submitJob(request("gobmk", ModeSpec::strict(), 5.0),
                     4'000'000);
    ASSERT_NE(waiting, nullptr);
    ASSERT_GT(waiting->slotStart, 0u);

    EXPECT_TRUE(fw.cancelJob(*waiting));
    EXPECT_EQ(waiting->state(), JobState::Terminated);
    EXPECT_FALSE(waiting->exec()->hasGenerator());
    // Its future slot is gone; a new job lands there instead.
    Job *d = fw.submitJob(request("gobmk", ModeSpec::strict(), 5.0),
                          4'000'000);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->slotStart, waiting->slotStart);

    fw.runToCompletion();
    EXPECT_EQ(waiting->state(), JobState::Terminated);
    for (Job *j : {a, b, d}) {
        EXPECT_EQ(j->state(), JobState::Completed);
        EXPECT_TRUE(j->deadlineMet());
    }
}

TEST(Cancellation, CancelRunningReservedJobReleasesCore)
{
    QosFramework fw(fastConfig());
    Job *a = fw.submitJob(request("bzip2", ModeSpec::strict(), 5.0),
                          20'000'000);
    ASSERT_NE(a, nullptr);
    fw.simulation().run(2'000'000);
    ASSERT_EQ(a->state(), JobState::Running);
    const CoreId core = a->assignedCore;
    ASSERT_NE(core, invalidCore);

    EXPECT_TRUE(fw.cancelJob(*a));
    EXPECT_EQ(a->state(), JobState::Terminated);
    EXPECT_EQ(fw.system().queueLength(core), 0u);
    EXPECT_EQ(fw.system().l2().coreClass(core), CoreClass::Inactive);
    EXPECT_EQ(fw.scheduler().reservedCores(), 0);
    // Partial wall-clock was recorded.
    EXPECT_GT(a->exec()->endCycle, 0.0);
    EXPECT_FALSE(a->exec()->complete());
    fw.runToCompletion();
}

TEST(Cancellation, CancelRunningElasticStopsStealing)
{
    QosFramework fw(fastConfig());
    Job *e = fw.submitJob(
        request("gobmk", ModeSpec::elastic(0.05), 5.0), 20'000'000);
    ASSERT_NE(e, nullptr);
    fw.simulation().run(3'000'000);
    ASSERT_NE(e->exec()->duplicateTags(), nullptr);
    EXPECT_TRUE(fw.cancelJob(*e));
    EXPECT_EQ(e->exec()->duplicateTags(), nullptr);
    fw.runToCompletion();
}

TEST(Cancellation, DoubleCancelFails)
{
    QosFramework fw(fastConfig());
    Job *a = fw.submitJob(request("gobmk", ModeSpec::strict(), 5.0),
                          4'000'000);
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(fw.cancelJob(*a));
    EXPECT_FALSE(fw.cancelJob(*a));
}

TEST(Cancellation, CompletedJobCannotBeCancelled)
{
    QosFramework fw(fastConfig());
    Job *a = fw.submitJob(request("gobmk", ModeSpec::strict(), 5.0),
                          2'000'000);
    ASSERT_NE(a, nullptr);
    fw.runToCompletion();
    EXPECT_FALSE(fw.cancelJob(*a));
    EXPECT_EQ(a->state(), JobState::Completed);
}

TEST(Enforcement, OverrunningJobIsTerminated)
{
    // Force an overrun by lying about tw: a margin far below 1 makes
    // the admitted tw unreachably small.
    FrameworkConfig fc = fastConfig();
    fc.enforceMaxWallClock = true;
    fc.wallClockMargin = 0.5;
    QosFramework fw(fc);
    Job *a = fw.submitJob(request("bzip2", ModeSpec::strict(), 5.0),
                          10'000'000);
    ASSERT_NE(a, nullptr);
    fw.runToCompletion();
    EXPECT_EQ(a->state(), JobState::Terminated);
    EXPECT_EQ(fw.enforcementTerminations(), 1u);
    EXPECT_FALSE(a->exec()->complete());
}

TEST(Enforcement, WellBehavedJobUnaffected)
{
    FrameworkConfig fc = fastConfig();
    fc.enforceMaxWallClock = true; // normal margin 1.10
    QosFramework fw(fc);
    Job *a = fw.submitJob(request("bzip2", ModeSpec::strict(), 5.0),
                          6'000'000);
    ASSERT_NE(a, nullptr);
    fw.runToCompletion();
    EXPECT_EQ(a->state(), JobState::Completed);
    EXPECT_EQ(fw.enforcementTerminations(), 0u);
    EXPECT_TRUE(a->deadlineMet());
}

TEST(Enforcement, TerminationFreesResourcesForSuccessors)
{
    FrameworkConfig fc = fastConfig();
    fc.enforceMaxWallClock = true;
    fc.wallClockMargin = 0.5; // every job overruns
    QosFramework fw(fc);
    Job *a = fw.submitJob(request("bzip2", ModeSpec::strict(), 9.0),
                          10'000'000);
    Job *b = fw.submitJob(request("bzip2", ModeSpec::strict(), 9.0),
                          10'000'000);
    Job *c = fw.submitJob(request("bzip2", ModeSpec::strict(), 9.0),
                          10'000'000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    fw.runToCompletion();
    // All three got their (short) reserved slots in turn; each was
    // terminated at its tw and the next one started.
    EXPECT_EQ(fw.enforcementTerminations(), 3u);
    EXPECT_GT(c->exec()->startCycle, a->exec()->startCycle);
}

TEST(Enforcement, OpportunisticJobsAreNotEnforced)
{
    FrameworkConfig fc = fastConfig();
    fc.enforceMaxWallClock = true;
    fc.wallClockMargin = 0.5;
    QosFramework fw(fc);
    Job *o = fw.submitJob(
        request("gobmk", ModeSpec::opportunistic(), 9.0), 6'000'000);
    ASSERT_NE(o, nullptr);
    fw.runToCompletion();
    // No reservation => tw is not enforced; the job completes.
    EXPECT_EQ(o->state(), JobState::Completed);
    EXPECT_EQ(fw.enforcementTerminations(), 0u);
}

} // namespace
} // namespace cmpqos
