/**
 * @file
 * Fault-contained, resumable sweep tests: guarded execution (retry,
 * abort threshold, cancellation), the non-default-constructible map
 * fix, journal round-tripping, and byte-identical resume at jobs=1 and
 * jobs=8.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "sim/sweep.hh"
#include "sim/sweep_runner.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

/** Move-only, no default constructor: the old map() couldn't hold it. */
struct Opaque
{
    explicit Opaque(int v) : value(v) {}
    Opaque(Opaque &&) = default;
    Opaque &operator=(Opaque &&) = default;
    int value;
};

/** A tiny sweep: one workload under three mechanisms. */
std::vector<ExperimentConfig>
tinyPoints()
{
    std::vector<ExperimentConfig> points;
    for (const ctrl::Mechanism m :
         {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
          ctrl::Mechanism::BurstTH}) {
        ExperimentConfig cfg;
        cfg.workload = "swim";
        cfg.instructions = 1500;
        cfg.mechanism = m;
        points.push_back(cfg);
    }
    return points;
}

std::string
csvOf(const std::vector<ExperimentConfig> &points,
      const SweepReport &rep)
{
    std::ostringstream os;
    writeSweepCsv(os, points, rep);
    return os.str();
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

} // namespace

TEST(SweepRunnerMap, HoldsNonDefaultConstructibleResults)
{
    SweepRunner runner(4);
    const std::vector<Opaque> out =
        runner.map<Opaque>(17, [](std::size_t i) {
            return Opaque(int(i) * 3);
        });
    ASSERT_EQ(out.size(), 17u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].value, int(i) * 3);
}

TEST(SweepRunnerGuarded, TransientFailuresRetryUntilSuccess)
{
    SweepRunner runner(1);
    std::vector<unsigned> calls(3, 0);
    FaultPolicy policy;
    policy.maxAttempts = 3;
    const auto rep = runner.guardedRun(
        3,
        [&](std::size_t i) {
            calls[i] += 1;
            if (i == 1 && calls[i] <= 2)
                throwSimError(ErrorCategory::Resource, "flaky");
        },
        policy);
    EXPECT_FALSE(rep.aborted);
    EXPECT_TRUE(rep.points[0].ok);
    EXPECT_EQ(rep.points[0].attempts, 1u);
    EXPECT_TRUE(rep.points[1].ok);
    EXPECT_EQ(rep.points[1].attempts, 3u);
    EXPECT_TRUE(rep.points[1].error.empty());
    EXPECT_TRUE(rep.points[2].ok);
}

TEST(SweepRunnerGuarded, PermanentFailuresNeverRetry)
{
    SweepRunner runner(1);
    unsigned calls = 0;
    FaultPolicy policy;
    policy.maxAttempts = 5;
    const auto rep = runner.guardedRun(
        1,
        [&](std::size_t) {
            calls += 1;
            throwSimError(ErrorCategory::Trace, "bad trace");
        },
        policy);
    EXPECT_EQ(calls, 1u);
    EXPECT_FALSE(rep.points[0].ok);
    EXPECT_EQ(rep.points[0].category, ErrorCategory::Trace);
    EXPECT_NE(rep.points[0].error.find("bad trace"), std::string::npos);
}

TEST(SweepRunnerGuarded, NonSimErrorIsContainedAsInternal)
{
    SweepRunner runner(1);
    const auto rep = runner.guardedRun(1, [](std::size_t) {
        throw std::runtime_error("boom");
    });
    EXPECT_FALSE(rep.points[0].ok);
    EXPECT_EQ(rep.points[0].category, ErrorCategory::Internal);
    EXPECT_NE(rep.points[0].error.find("boom"), std::string::npos);
}

TEST(SweepRunnerGuarded, MaxFailuresAbortsTail)
{
    SweepRunner runner(1); // deterministic claim order
    FaultPolicy policy;
    policy.maxFailures = 1;
    const auto rep = runner.guardedRun(
        5,
        [&](std::size_t i) {
            if (i <= 1)
                throwSimError(ErrorCategory::Config, "bad point");
        },
        policy);
    EXPECT_TRUE(rep.aborted);
    EXPECT_FALSE(rep.points[0].ok);
    EXPECT_FALSE(rep.points[1].ok);
    // Everything after the second failure was never claimed.
    EXPECT_TRUE(rep.points[3].skipped());
    EXPECT_TRUE(rep.points[4].skipped());
}

TEST(SweepRunnerGuarded, CancelTokenDrainsAndSkips)
{
    SweepRunner runner(1);
    std::atomic<bool> cancel{false};
    FaultPolicy policy;
    policy.cancel = &cancel;
    const auto rep = runner.guardedRun(
        4,
        [&](std::size_t i) {
            if (i == 1)
                cancel.store(true); // "SIGINT" mid-sweep
        },
        policy);
    EXPECT_TRUE(rep.cancelled);
    EXPECT_TRUE(rep.points[0].ok);
    EXPECT_TRUE(rep.points[1].ok); // in-flight point drains normally
    EXPECT_TRUE(rep.points[2].skipped());
    EXPECT_TRUE(rep.points[3].skipped());
}

TEST(ConfigKey, DistinguishesPointsAndIsStable)
{
    const auto points = tinyPoints();
    EXPECT_NE(configKey(points[0]), configKey(points[1]));
    EXPECT_NE(configKey(points[1]), configKey(points[2]));
    EXPECT_EQ(configKey(points[0]), configKey(points[0]));

    ExperimentConfig tweaked = points[0];
    tweaked.seed += 1;
    EXPECT_NE(configKey(tweaked), configKey(points[0]));

    // The key covers everything that decides a point's fate, including
    // the engine, the fault policy (a watchdog can abort a point that
    // would otherwise succeed) and the scheduler-factory identity — a
    // resume under a different policy must re-run, never silently reuse
    // the prior journal record.
    ExperimentConfig guarded = points[0];
    guarded.watchdogCycles = 1;
    guarded.deadlineSec = 99.0;
    EXPECT_NE(configKey(guarded), configKey(points[0]));

    ExperimentConfig step = points[0];
    step.engine = EngineKind::Step;
    EXPECT_NE(configKey(step), configKey(points[0]));

    ExperimentConfig variant = points[0];
    variant.timingVariant = TimingVariant::ZeroWindows;
    EXPECT_NE(configKey(variant), configKey(points[0]));

    ExperimentConfig faulty = points[0];
    faulty.schedulerFactory = [](ctrl::Mechanism,
                                 const ctrl::SchedulerContext &) {
        return std::unique_ptr<ctrl::Scheduler>();
    };
    faulty.schedulerFactoryId = "faulty:freeze@100";
    EXPECT_NE(configKey(faulty), configKey(points[0]));

    // Distinct factory identities hash apart even when the std::function
    // itself is opaque.
    ExperimentConfig faulty2 = faulty;
    faulty2.schedulerFactoryId = "faulty:freeze@200";
    EXPECT_NE(configKey(faulty2), configKey(faulty));
}

TEST(ConfigKey, CanonicalEchoSanitizesAndRoundTrips)
{
    const auto points = tinyPoints();
    const std::string canon = canonicalConfig(points[0]);
    // The echo is embedded in a quoted journal field: it must never
    // contain a quote or newline, whatever the workload string held.
    ExperimentConfig hostile = points[0];
    hostile.workload = "we\"ird\nname";
    const std::string sane = canonicalConfig(hostile);
    EXPECT_EQ(sane.find('"'), std::string::npos);
    EXPECT_EQ(sane.find('\n'), std::string::npos);
    EXPECT_NE(canon, sane);
    EXPECT_NE(canon.find("swim"), std::string::npos);
}

TEST(SweepJournal, TornFinalLineIsSkipped)
{
    const std::string path = tempPath("bsim_torn.journal");
    {
        const auto frame = [](const std::string &payload) {
            char head[32];
            std::snprintf(head, sizeof(head), "J3 %zu %08x ",
                          payload.size(), crc32(payload));
            return head + payload;
        };
        const std::string torn =
            frame("P 00000000000000bb attempts=2 exec=456 rdlat=0x1p+0 "
                  "wrlat=0x1p+0 rowhit=0x1p-2 bw=0x1p+0");
        std::ofstream os(path);
        os << "# comment\n"
           << frame("P 00000000000000aa attempts=1 exec=123 rdlat=0x1p+1 "
                    "wrlat=0x1p+2 rowhit=0x1p-1 bw=0x1.8p+1")
           << '\n'
           << torn.substr(0, torn.size() / 2); // torn mid-write
    }
    const auto j = loadSweepJournal(path);
    ASSERT_EQ(j.size(), 1u);
    const JournalRecord &rec = j.at(0xaa);
    EXPECT_EQ(rec.attempts, 1u);
    EXPECT_EQ(rec.summary.execCpuCycles, 123u);
    EXPECT_DOUBLE_EQ(rec.summary.readLatMean, 2.0);
    EXPECT_DOUBLE_EQ(rec.summary.writeLatMean, 4.0);
    EXPECT_DOUBLE_EQ(rec.summary.rowHitRate, 0.5);
    EXPECT_DOUBLE_EQ(rec.summary.bandwidthGBs, 3.0);
    std::remove(path.c_str());
}

TEST(SweepJournal, MissingFileMeansNothingToResume)
{
    EXPECT_TRUE(loadSweepJournal(tempPath("bsim_nope.journal")).empty());
}

TEST(SweepRobust, InjectedFaultIsContainedAndReported)
{
    const auto points = tinyPoints();
    SweepOptions opt;
    opt.jobs = 2;
    opt.fault.point = 1;
    opt.fault.times = 99; // permanent within this sweep
    opt.fault.category = ErrorCategory::Trace;
    const SweepReport rep = runExperimentSweep(points, opt);
    EXPECT_FALSE(rep.aborted);
    EXPECT_TRUE(rep.slots[0].run.ok);
    EXPECT_FALSE(rep.slots[1].run.ok);
    EXPECT_EQ(rep.slots[1].run.category, ErrorCategory::Trace);
    EXPECT_EQ(rep.slots[1].run.attempts, 1u); // trace is permanent
    EXPECT_TRUE(rep.slots[2].run.ok);

    const std::string csv = csvOf(points, rep);
    EXPECT_NE(csv.find("swim,RowHit,failed,1,trace"), std::string::npos)
        << csv;
}

TEST(SweepRobust, TransientInjectionRetriesThenSucceeds)
{
    const auto points = tinyPoints();
    SweepOptions opt;
    opt.jobs = 1;
    opt.maxAttempts = 3;
    opt.fault.point = 2;
    opt.fault.times = 2; // first two attempts fail, third succeeds
    opt.fault.category = ErrorCategory::Resource;
    const SweepReport rep = runExperimentSweep(points, opt);
    EXPECT_TRUE(rep.slots[2].run.ok);
    EXPECT_EQ(rep.slots[2].run.attempts, 3u);

    // The retried point's numbers equal an untroubled run's.
    const SweepReport clean = runExperimentSweep(points, {});
    EXPECT_EQ(rep.slots[2].summary.execCpuCycles,
              clean.slots[2].summary.execCpuCycles);
}

TEST(SweepRobust, ResumeReproducesByteIdenticalReports)
{
    const auto points = tinyPoints();
    const SweepReport fresh = runExperimentSweep(points, {});
    const std::string fresh_csv = csvOf(points, fresh);

    for (const unsigned resume_jobs : {1u, 8u}) {
        const std::string path = tempPath("bsim_resume.journal");
        std::remove(path.c_str());

        // First pass: one point fails permanently, the others journal.
        SweepOptions first;
        first.jobs = 1;
        first.journal = path;
        first.fault.point = 1;
        first.fault.times = 99;
        first.fault.category = ErrorCategory::Config;
        const SweepReport partial = runExperimentSweep(points, first);
        EXPECT_FALSE(partial.slots[1].run.ok);
        EXPECT_EQ(partial.journaled(), 0u);

        // Second pass: no fault; the journaled points are restored and
        // only the failed slot actually runs.
        SweepOptions second;
        second.jobs = resume_jobs;
        second.journal = path;
        const SweepReport resumed = runExperimentSweep(points, second);
        EXPECT_EQ(resumed.journaled(), 2u);
        EXPECT_TRUE(resumed.slots[0].fromJournal);
        EXPECT_FALSE(resumed.slots[1].fromJournal);
        EXPECT_TRUE(resumed.slots[2].fromJournal);

        // The deliverable guarantee: CSV (and thus the table rendered
        // from the same slots) is byte-identical to the fresh sweep.
        EXPECT_EQ(csvOf(points, resumed), fresh_csv)
            << "jobs=" << resume_jobs;

        // Third pass: everything restores; nothing reruns.
        const SweepReport all = runExperimentSweep(points, second);
        EXPECT_EQ(all.journaled(), 3u);
        EXPECT_EQ(csvOf(points, all), fresh_csv);
        std::remove(path.c_str());
    }
}

TEST(SweepRobust, UnwritableJournalFailsUpFront)
{
    const auto points = tinyPoints();
    SweepOptions opt;
    opt.journal = "/nonexistent-dir/sweep.journal";
    EXPECT_SIM_ERROR(runExperimentSweep(points, opt),
                     ErrorCategory::Resource, "sweep journal");
}

TEST(SweepRobust, TableMarksFailedAndSkippedSlots)
{
    const auto points = tinyPoints();
    SweepOptions opt;
    opt.jobs = 1;
    opt.maxFailures = 0; // abort at the first failure
    opt.fault.point = 1;
    opt.fault.times = 99;
    opt.fault.category = ErrorCategory::Internal;
    const SweepReport rep = runExperimentSweep(points, opt);
    EXPECT_TRUE(rep.aborted);

    std::ostringstream os;
    writeSweepTable(os, points, rep);
    const std::string table = os.str();
    EXPECT_NE(table.find("failed(internal)"), std::string::npos)
        << table;
    EXPECT_NE(table.find("skipped"), std::string::npos) << table;
}
