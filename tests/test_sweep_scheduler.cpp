/**
 * @file
 * Cross-point sweep execution tests: bit-identity of SweepRunner
 * against independent direct runs (each point's policies run one by
 * one as ExperimentSession::runToCompletion over a directly-built
 * MemoryExperiment) at several worker counts and widths, with and
 * without early stopping; worker-count-invariant budget truncation
 * and its overshoot bound; multi-point checkpoint crash/resume;
 * resume of a one-point-in-flight checkpoint; and retry/quarantine
 * of a faulting point while the other points keep running.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <unistd.h>

#include "base/fault_injection.h"
#include "exp/checkpoint.h"
#include "exp/experiment_session.h"
#include "exp/sweep_runner.h"

namespace qec
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "qec_sched_" +
           std::to_string((unsigned long)::getpid()) + "_" + name;
}

/** Multi-point decoded plan whose sessions stop early at a Wilson
 *  precision target — the adaptive-allocation regime. */
SweepPlan
precisionPlan(unsigned width)
{
    SweepPlan plan;
    plan.name = "sched_precision_w" + std::to_string(width);
    plan.distances = {3};
    plan.ps = {2e-3, 3e-3, 4e-3};
    plan.rounds = {SweepRounds::exactly(6)};
    plan.policies = {SweepPolicy(PolicyKind::Always),
                     SweepPolicy(PolicyKind::Eraser)};
    plan.base.shots = 6000;
    plan.base.batchWidth = width;
    plan.base.threads = 1;
    plan.earlyStop.targetRelPrecision = 0.5;
    plan.earlyStop.minErrors = 4;
    plan.earlyStop.checkEvery = 256;
    return plan;
}

/** Fixed-shot plan chunked at checkEvery boundaries (maxShots ==
 *  shots enables the chunking machinery without changing results). */
SweepPlan
fixedPlan(unsigned width, uint64_t shots)
{
    SweepPlan plan;
    plan.name = "sched_fixed_w" + std::to_string(width);
    plan.distances = {3};
    plan.ps = {2e-3, 3e-3, 4e-3};
    plan.rounds = {SweepRounds::exactly(6)};
    plan.policies = {SweepPolicy(PolicyKind::Always),
                     SweepPolicy(PolicyKind::Eraser)};
    plan.base.shots = shots;
    plan.base.batchWidth = width;
    plan.base.threads = 1;
    plan.earlyStop.maxShots = shots;
    plan.earlyStop.checkEvery = 128;
    return plan;
}

void
expectResultIdentical(const ExperimentResult &a,
                      const ExperimentResult &b,
                      bool compare_decode_disposition = true)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.logicalErrors, b.logicalErrors);
    EXPECT_EQ(a.verdictFingerprint, b.verdictFingerprint);
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.fp, b.fp);
    EXPECT_EQ(a.tn, b.tn);
    EXPECT_EQ(a.fn, b.fn);
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled);
    EXPECT_EQ(a.roundsTotal, b.roundsTotal);
    // Slot assignment (and so the cache-hit / decoded split) is
    // execution-order dependent; the total decode disposition is not.
    if (compare_decode_disposition) {
        EXPECT_EQ(a.decodedShots + a.zeroDefectShots +
                      a.syndromeCacheHits,
                  b.decodedShots + b.zeroDefectShots +
                      b.syndromeCacheHits);
    }
    ASSERT_EQ(a.lprDataSum.size(), b.lprDataSum.size());
    for (size_t r = 0; r < a.lprDataSum.size(); ++r) {
        EXPECT_EQ(a.lprDataSum[r], b.lprDataSum[r]) << "round " << r;
        EXPECT_EQ(a.lprParitySum[r], b.lprParitySum[r])
            << "round " << r;
    }
}

void
expectPointsIdentical(const std::vector<PointResult> &a,
                      const std::vector<PointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].point.index, b[i].point.index);
        EXPECT_EQ(a[i].point.seed, b[i].point.seed);
        ASSERT_EQ(a[i].results.size(), b[i].results.size());
        ASSERT_EQ(a[i].stoppedEarly.size(), b[i].stoppedEarly.size());
        for (size_t j = 0; j < a[i].results.size(); ++j) {
            expectResultIdentical(a[i].results[j], b[i].results[j]);
            EXPECT_EQ(a[i].stoppedEarly[j], b[i].stoppedEarly[j])
                << "point " << i << " policy " << j;
        }
    }
}

/** The independent reference: every (point, policy) of the plan run
 *  on its own as ExperimentSession::runToCompletion over a
 *  MemoryExperiment built directly from the resolved point config. */
std::vector<PointResult>
directRuns(const SweepPlan &plan)
{
    SessionOptions options;
    options.earlyStop = plan.earlyStop;
    std::vector<PointResult> out;
    for (const SweepPoint &point : plan.points()) {
        RotatedSurfaceCode code(point.distance);
        MemoryExperiment exp(code, point.config);
        PointResult pr;
        pr.point = point;
        for (const SweepPolicy &policy : plan.policies) {
            ExperimentSession session(exp, policy.kind, options);
            pr.results.push_back(session.runToCompletion());
            pr.stoppedEarly.push_back(session.stoppedEarly());
        }
        out.push_back(std::move(pr));
    }
    return out;
}

uint64_t
totalShots(const std::vector<PointResult> &points)
{
    uint64_t shots = 0;
    for (const PointResult &pr : points)
        for (const ExperimentResult &r : pr.results)
            shots += r.shots;
    return shots;
}

class SweepSchedulerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
    }
    void
    TearDown() override
    {
        fault::reset();
    }
};

TEST_F(SweepSchedulerTest,
       EarlyStopResultsAreBitIdenticalToSequentialAtAnyWorkerCount)
{
    // Width 1 runs one-shot word-groups (one shot per unit).
    for (unsigned width : {1u, 64u, 256u, 512u}) {
        const SweepPlan plan = precisionPlan(width);
        const std::vector<PointResult> direct = directRuns(plan);
        ASSERT_EQ(direct.size(), 3u);

        for (unsigned workers : {1u, 2u, 8u}) {
            SweepRunOptions options;
            options.workers = workers;
            SweepRunner runner(plan);
            CollectSink sched;
            runner.addSink(sched);
            const SweepSummary summary = runner.run(options);
            ASSERT_TRUE(summary.status.isOk())
                << summary.status.toString();
            EXPECT_EQ(summary.workersUsed, workers);
            EXPECT_GT(summary.schedulerRounds, 0u);
            EXPECT_GT(summary.chunksDispatched, 0u);
            EXPECT_EQ(summary.shotsRun, totalShots(direct))
                << "width " << width << " workers " << workers;
            expectPointsIdentical(sched.points, direct);
        }
    }
}

TEST_F(SweepSchedulerTest, FixedShotResultsMatchSequential)
{
    const SweepPlan plan = fixedPlan(64, 1024);
    const std::vector<PointResult> direct = directRuns(plan);

    // The commit-order chunk poll must see exactly the chunk sequence
    // runToCompletion executes: shots / checkEvery chunks per session
    // (1024 / 128, no early stop), for every point and policy.
    fault::reset();
    fault::countHits();

    SweepRunOptions options;
    options.workers = 2;
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(fault::hits("sweep.chunk"),
              direct.size() * plan.policies.size() *
                  (plan.base.shots / plan.earlyStop.checkEvery));
    EXPECT_EQ(summary.shotsRun, totalShots(direct));
    EXPECT_EQ(summary.shotsDiscarded, 0u);
    expectPointsIdentical(sched.points, direct);
}

TEST_F(SweepSchedulerTest, NarrowAdmissionWindowDoesNotChangeResults)
{
    const SweepPlan plan = precisionPlan(64);
    const std::vector<PointResult> direct = directRuns(plan);

    SweepRunOptions options;
    options.workers = 2;
    options.maxLivePoints = 1;
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    expectPointsIdentical(sched.points, direct);
}

/** Shots committed by a (possibly truncated) sweep: every session's
 *  cumulative result in the checkpoint it left, finished or not. */
uint64_t
committedShots(const std::string &path)
{
    StatusOr<SweepCheckpoint> loaded = SweepCheckpoint::load(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().toString();
    if (!loaded.ok())
        return 0;
    uint64_t shots = 0;
    for (const auto &kv : loaded.value().points)
        for (const PolicyCheckpoint &pc : kv.second.policies)
            shots += pc.progress.total.shots;
    return shots;
}

TEST_F(SweepSchedulerTest,
       BudgetTruncationIsIdenticalAcrossWorkerCounts)
{
    const SweepPlan plan = fixedPlan(64, 2048);
    const std::string path = tempPath("budget.ckpt");

    std::vector<PointResult> reference;
    SweepSummary ref_summary;
    uint64_t ref_committed = 0;
    // Worker count 2 runs twice: a repeat run must truncate at the
    // same boundaries too.
    for (unsigned workers : {1u, 2u, 2u, 8u}) {
        std::remove(path.c_str());
        SweepRunOptions options;
        options.workers = workers;
        options.maxTotalShots = 4000;   // < 3 * 2 * 2048 planned
        options.checkpoint.path = path;
        SweepRunner runner(plan);
        CollectSink sched;
        runner.addSink(sched);
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.truncated);
        EXPECT_TRUE(summary.budgetExhausted);
        // Budget accounting is committed shots, and every allocation
        // round caps its planned chunks at the budget left: only the
        // chunk that crosses the budget can overshoot it, and only by
        // rounding up to its last word-group.
        const uint64_t committed = committedShots(path);
        EXPECT_GE(committed, options.maxTotalShots);
        EXPECT_LT(committed,
                  options.maxTotalShots + plan.base.batchWidth);
        if (workers == 1u) {
            reference = sched.points;
            ref_summary = summary;
            ref_committed = committed;
        } else {
            EXPECT_EQ(committed, ref_committed);
            EXPECT_EQ(summary.shotsRun, ref_summary.shotsRun);
            EXPECT_EQ(summary.points, ref_summary.points);
            expectPointsIdentical(sched.points, reference);
        }
    }
    std::remove(path.c_str());
}

TEST_F(SweepSchedulerTest, CrashLeavesMultiPointCheckpointAndResumes)
{
    if (!fault::compiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    const SweepPlan plan = fixedPlan(64, 1024);
    const std::vector<PointResult> direct = directRuns(plan);

    // Learn the committed-chunk count, then crash mid-sweep.
    fault::countHits();
    {
        SweepRunOptions options;
        options.workers = 2;
        SweepRunner r(plan);
        CollectSink c;
        r.addSink(c);
        r.run(options);
    }
    const uint64_t total_chunks = fault::hits("sweep.chunk");
    ASSERT_GT(total_chunks, 4u);
    fault::reset();

    for (unsigned resume_workers : {2u, 8u}) {
        const std::string path = tempPath(
            "crash_resume_" + std::to_string(resume_workers) +
            ".ckpt");
        std::remove(path.c_str());

        SweepRunOptions options;
        options.workers = 2;
        options.checkpoint.path = path;

        fault::arm("sweep.chunk", total_chunks / 2, fault::Kind::Crash);
        bool crashed = false;
        try {
            SweepRunner r(plan);
            CollectSink c;
            r.addSink(c);
            r.run(options);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        fault::reset();
        ASSERT_TRUE(crashed);

        // The mid-sweep checkpoint carries a SET of in-flight points.
        StatusOr<SweepCheckpoint> loaded = SweepCheckpoint::load(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        size_t unfinished = 0;
        for (const auto &kv : loaded.value().points)
            if (!kv.second.finished)
                ++unfinished;
        EXPECT_GE(unfinished, 2u)
            << "expected multiple in-flight points at the crash";

        SweepRunOptions resume = options;
        resume.workers = resume_workers;
        SweepRunner r(plan);
        CollectSink resumed;
        r.addSink(resumed);
        const SweepSummary summary = r.run(resume);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.resumed);
        expectPointsIdentical(resumed.points, direct);
        std::remove(path.c_str());
    }
}

/** A finished policy record: the full session's final progress. */
PolicyCheckpoint
finishedPolicy(const ExperimentSession &session)
{
    PolicyCheckpoint pc;
    pc.progress = session.progress();
    pc.seconds = 0.25;
    pc.finished = true;
    pc.stoppedEarly = session.stoppedEarly();
    return pc;
}

TEST_F(SweepSchedulerTest, ResumesOnePointInFlightCheckpoint)
{
    // A qec.ckpt.v1 file in the shape a point-by-point executor
    // leaves behind: point 0 finished; point 1 in flight with policy
    // 0 finished and policy 1 stopped at a mid-run chunk boundary;
    // point 2 absent. Width 1 exercises one-shot spans.
    for (unsigned width : {64u, 1u}) {
        const SweepPlan plan = fixedPlan(width, 1024);
        const std::vector<SweepPoint> points = plan.points();
        ASSERT_EQ(points.size(), 3u);
        const std::vector<PointResult> direct = directRuns(plan);

        SessionOptions session_options;
        session_options.earlyStop = plan.earlyStop;
        SweepCheckpoint ckpt;
        ckpt.planFingerprint =
            SweepCheckpoint::fingerprintPlan(plan, points);
        for (size_t pi = 0; pi < 2; ++pi) {
            const SweepPoint &point = points[pi];
            RotatedSurfaceCode code(point.distance);
            MemoryExperiment exp(code, point.config);
            PointCheckpoint &rec = ckpt.points[point.index];
            rec.pointIndex = point.index;
            rec.seed = point.seed;
            rec.finished = pi == 0;

            ExperimentSession first(exp, plan.policies[0].kind,
                                    session_options);
            first.runToCompletion();
            rec.policies.push_back(finishedPolicy(first));

            ExperimentSession second(exp, plan.policies[1].kind,
                                     session_options);
            if (rec.finished) {
                second.runToCompletion();
                rec.policies.push_back(finishedPolicy(second));
            } else {
                for (int chunk = 0; chunk < 3; ++chunk)
                    second.runChunk(second.defaultChunkShots());
                ASSERT_FALSE(second.done());
                PolicyCheckpoint partial;
                partial.progress = second.progress();
                partial.seconds = 0.1;
                rec.policies.push_back(partial);
            }
        }
        const SessionProgress &mid =
            ckpt.points[points[1].index].policies[1].progress;
        EXPECT_EQ(mid.nextSpan, 3 * plan.earlyStop.checkEvery / width);

        const std::string path =
            tempPath("one_in_flight_w" + std::to_string(width) +
                     ".ckpt");
        ASSERT_TRUE(ckpt.save(path).isOk());

        SweepRunOptions options;
        options.workers = 2;
        options.checkpoint.path = path;
        SweepRunner runner(plan);
        CollectSink resumed;
        runner.addSink(resumed);
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk()) << summary.status.toString();
        EXPECT_TRUE(summary.resumed);
        EXPECT_EQ(summary.pointsResumed, 1u);
        EXPECT_EQ(summary.points, 3u);
        SCOPED_TRACE("width " + std::to_string(width));
        expectPointsIdentical(resumed.points, direct);
        std::remove(path.c_str());
    }
}

/** Hex to bytes (two lowercase digits per byte). */
std::string
fromHex(const std::string &hex)
{
    std::string bytes;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        bytes.push_back(
            (char)std::stoi(hex.substr(i, 2), nullptr, 16));
    return bytes;
}

TEST_F(SweepSchedulerTest, ResumesWidth1CheckpointWithShotCursor)
{
    // A qec.ckpt.v1 file written when width-1 sessions ran a per-shot
    // driver with its own shot cursor: one point in flight, policy 0
    // finished, policy 1 stopped after 256 of 512 shots. The cursor
    // sits in the slot that is now always written as 0; on load it
    // becomes the span cursor (width-1 spans hold one shot each).
    SweepPlan plan;
    plan.name = "ckpt_w1_fixture";
    plan.distances = {3};
    plan.ps = {3e-3};
    plan.rounds = {SweepRounds::exactly(6)};
    plan.policies = {SweepPolicy(PolicyKind::Always),
                     SweepPolicy(PolicyKind::Eraser)};
    plan.base.shots = 512;
    plan.base.batchWidth = 1;
    plan.base.threads = 1;
    plan.base.trackLpr = true;
    plan.earlyStop.maxShots = 512;
    plan.earlyStop.checkEvery = 128;
    const std::string bytes = fromHex(
    "7165632e636b7074010000006ebd1e5a82020000000000006036e05449167264"
    "010000000000000000000000000000005717a6b0fb2348630002000000000000"
    "0001000001000000000000d03f000000000000000000020000000000000b0000"
    "0000000000416c776179732d4c52437300020000000000002900000000000000"
    "2400000000000000dc2f000000000000ea3b0000000000001600000000000000"
    "0030000000000000000c00000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000004ed8af5d2319c3300900000008000000"
    "06000000000000000000000000001c4000000000000014400000000000002e40"
    "0000000000002640000000000000344000000000000018400600000000000000"
    "00000000000000000000000000002a4000000000000000000000000000003040"
    "00000000000000000000000000003c40000000009a9999999999b93f00000000"
    "0000000000010000000000000600000000000000455241534552000100000000"
    "000008000000000000000900000000000000bd000000000000001d3500000000"
    "00001d00000000000000c6000000000000000006000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000a830c2442408"
    "804c090000000800000006000000000000000000000000001840000000000000"
    "1c400000000000001c4000000000000022400000000000002240000000000000"
    "2a4006000000000000000000000000000000000000000000f03f000000000000"
    "f03f0000000000000000000000000000f03f0000000000000000");

    StatusOr<SweepCheckpoint> parsed =
        SweepCheckpoint::deserialize(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_EQ(parsed.value().points.size(), 1u);
    const PointCheckpoint &point = parsed.value().points.at(0);
    ASSERT_EQ(point.policies.size(), 2u);
    EXPECT_TRUE(point.policies[0].finished);
    EXPECT_EQ(point.policies[0].progress.nextSpan, 512u);
    EXPECT_EQ(point.policies[1].progress.nextSpan, 256u);
    EXPECT_EQ(point.policies[1].progress.total.shots, 256u);
    EXPECT_EQ(parsed.value().planFingerprint,
              SweepCheckpoint::fingerprintPlan(plan, plan.points()));

    const std::string path = tempPath("w1_shot_cursor.ckpt");
    ASSERT_TRUE(parsed.value().save(path).isOk());
    SweepRunOptions options;
    options.workers = 2;
    options.checkpoint.path = path;
    SweepRunner runner(plan);
    CollectSink resumed;
    runner.addSink(resumed);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk()) << summary.status.toString();
    EXPECT_TRUE(summary.resumed);

    // The file's shots carry no decode-lever counters (the per-shot
    // driver reported none), so only the decode disposition differs
    // from the direct runs — and it shows that the stored shots were
    // taken over rather than run again: none for the finished policy,
    // the remaining 256 for the other.
    const std::vector<PointResult> direct = directRuns(plan);
    ASSERT_EQ(resumed.points.size(), direct.size());
    ASSERT_EQ(resumed.points[0].results.size(), 2u);
    for (size_t j = 0; j < 2; ++j) {
        const ExperimentResult &r = resumed.points[0].results[j];
        expectResultIdentical(r, direct[0].results[j], false);
        EXPECT_EQ(r.decodedShots + r.zeroDefectShots +
                      r.syndromeCacheHits,
                  j == 0 ? 0u : 256u);
    }
    std::remove(path.c_str());
}

TEST_F(SweepSchedulerTest, FaultingPointRetriesWithoutChangingResults)
{
    if (!fault::compiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    const SweepPlan plan = fixedPlan(64, 1024);
    const std::vector<PointResult> direct = directRuns(plan);

    SweepRunOptions options;
    options.workers = 2;
    options.maxPointAttempts = 2;
    options.retryBackoffSeconds = 0.0;

    fault::arm("sweep.chunk", 1, fault::Kind::ReturnError);
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(summary.retries, 1u);
    EXPECT_EQ(summary.pointsFailed, 0u);
    expectPointsIdentical(sched.points, direct);
}

TEST_F(SweepSchedulerTest, UnitFaultIsRetriedWhileOthersKeepRunning)
{
    if (!fault::compiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    const SweepPlan plan = fixedPlan(64, 1024);
    const std::vector<PointResult> direct = directRuns(plan);

    SweepRunOptions options;
    options.workers = 2;
    options.maxPointAttempts = 3;
    options.retryBackoffSeconds = 0.0;

    // An allocation failure inside a worker task: the pool never sees
    // the exception; the owning point retries from committed state.
    fault::arm("sweep.unit", 3, fault::Kind::ThrowBadAlloc);
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(summary.retries, 1u);
    EXPECT_EQ(summary.pointsFailed, 0u);
    expectPointsIdentical(sched.points, direct);
}

TEST_F(SweepSchedulerTest, QuarantinedPointDoesNotStopTheOthers)
{
    if (!fault::compiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    const SweepPlan plan = fixedPlan(64, 1024);
    const std::vector<PointResult> direct = directRuns(plan);
    ASSERT_EQ(direct.size(), 3u);

    SweepRunOptions options;
    options.workers = 2;
    options.maxPointAttempts = 1;
    options.retryBackoffSeconds = 0.0;

    // The first committed chunk belongs to the lowest-index live
    // point: quarantine it and keep sweeping.
    fault::arm("sweep.chunk", 1, fault::Kind::ReturnError);
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(summary.pointsFailed, 1u);
    EXPECT_EQ(summary.retries, 0u);
    ASSERT_EQ(summary.errors.size(), 1u);
    EXPECT_EQ(summary.errors[0].pointIndex, 0u);
    EXPECT_EQ(summary.errors[0].attempts, 1);
    ASSERT_EQ(sched.points.size(), 2u);
    for (const PointResult &pr : sched.points) {
        ASSERT_LT(pr.point.index, direct.size());
        const PointResult &ref = direct[pr.point.index];
        ASSERT_EQ(pr.results.size(), ref.results.size());
        for (size_t j = 0; j < pr.results.size(); ++j)
            expectResultIdentical(pr.results[j], ref.results[j]);
    }
}

TEST_F(SweepSchedulerTest, SummaryJsonCarriesSchedulerStats)
{
    const SweepPlan plan = fixedPlan(64, 512);
    const std::string path = tempPath("sched_stats.json");

    SweepRunOptions options;
    options.workers = 2;
    {
        SweepRunner runner(plan);
        JsonSink json(path);
        ASSERT_TRUE(json.ok());
        runner.addSink(json);
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_GE(summary.poolUtilization, 0.0);
        EXPECT_LE(summary.poolUtilization, 1.0);
    }

    FILE *in = std::fopen(path.c_str(), "r");
    ASSERT_NE(in, nullptr);
    std::string content;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
        content.append(buf, n);
    std::fclose(in);
    std::remove(path.c_str());

    for (const char *key :
         {"\"workers\": 2",
          "\"scheduler_rounds\": ", "\"chunks_dispatched\": ",
          "\"shots_reallocated\": ", "\"shots_discarded\": ",
          "\"pool_utilization\": ", "\"budget_exhausted\": false",
          "\"wall_seconds\": "}) {
        EXPECT_NE(content.find(key), std::string::npos)
            << "missing " << key << " in:\n"
            << content;
    }
    // One executor: there is no execution-mode flag to report.
    EXPECT_EQ(content.find("\"scheduled\""), std::string::npos);
}

} // namespace
} // namespace qec
