/**
 * @file
 * Campaign supervisor tests, run against real forked workers:
 *  - a clean sharded campaign reproduces the unsharded sweep CSV
 *    byte-for-byte (and merge == run);
 *  - a worker crash retries with backoff and succeeds;
 *  - a point that kills its worker twice is quarantined with the death
 *    recorded, and the rest of the campaign completes degraded;
 *  - a hung (SIGSTOP-frozen) worker is deadline-killed through the
 *    SIGTERM-then-SIGKILL escalation;
 *  - SIGKILLing the supervisor itself mid-campaign loses nothing: a
 *    rerun resumes from the shard journals to the identical CSV.
 *
 * Crash injection uses the BURSTSIM_CRASH_* environment (see
 * sim/sweep.hh); keys are config keys, so the target point is stable
 * across incarnations and quarantine-filtered relaunches.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/supervisor.hh"
#include "sim/sweep.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::campaign;

namespace
{

/** Unset every crash-injection variable on scope exit, so one test's
 *  injection can never leak into another's workers. */
struct EnvGuard
{
    ~EnvGuard()
    {
        for (const char *n :
             {"BURSTSIM_CRASH_POINT", "BURSTSIM_CRASH_KEY",
              "BURSTSIM_CRASH_MODE", "BURSTSIM_CRASH_ONCE"})
            ::unsetenv(n);
    }
    void
    set(const char *name, const std::string &value)
    {
        ::setenv(name, value.c_str(), 1);
    }
};

/** Six fast points: two workloads under three mechanisms each. */
std::vector<sim::ExperimentConfig>
sixPoints()
{
    std::vector<sim::ExperimentConfig> points;
    for (const char *wl : {"swim", "art"}) {
        for (const ctrl::Mechanism m :
             {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
              ctrl::Mechanism::BurstTH}) {
            sim::ExperimentConfig cfg;
            cfg.workload = wl;
            cfg.instructions = 1500;
            cfg.mechanism = m;
            points.push_back(cfg);
        }
    }
    return points;
}

/** A fresh (empty) campaign directory under the test tmpdir. */
std::string
freshDir(const char *name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

CampaignOptions
baseOptions(const std::string &dir)
{
    CampaignOptions opt;
    opt.dir = dir;
    opt.shards = 2;
    opt.workerJobs = 1;        // deterministic in-worker point order
    opt.heartbeatSec = 0.05;
    opt.workerDeadlineSec = 30; // generous: only hung tests tighten it
    opt.killGraceSec = 1;
    opt.backoffBaseSec = 0.01; // keep crash tests fast
    opt.backoffCapSec = 0.05;
    opt.journalSync = false;   // tmpfs tests; durability irrelevant
    return opt;
}

std::string
csvOf(const std::vector<sim::ExperimentConfig> &points,
      const sim::SweepReport &rep)
{
    std::ostringstream os;
    sim::writeSweepCsv(os, points, rep);
    return os.str();
}

std::string
keyHex(const sim::ExperimentConfig &cfg)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, sim::configKey(cfg));
    return buf;
}

} // namespace

TEST(CampaignSupervisor, CleanShardedRunMatchesSweepCsvByteForByte)
{
    const auto points = sixPoints();
    const std::string dir = freshDir("camp_clean");

    // The reference: an ordinary unsharded in-process sweep (parallel,
    // to prove slot order does not depend on completion order).
    sim::SweepOptions sweepOpt;
    sweepOpt.jobs = 4;
    const std::string fresh =
        csvOf(points, sim::runExperimentSweep(points, sweepOpt));

    CampaignOptions opt = baseOptions(dir);
    opt.shards = 3;
    const CampaignReport rep = runCampaign(points, opt);

    EXPECT_FALSE(rep.degraded());
    EXPECT_FALSE(rep.cancelled);
    EXPECT_TRUE(rep.quarantined.empty());
    ASSERT_EQ(rep.shards.size(), 3u);
    for (const ShardOutcome &s : rep.shards) {
        EXPECT_TRUE(s.completed);
        EXPECT_EQ(s.launches, 1u);
        EXPECT_EQ(s.crashes, 0u);
    }
    EXPECT_EQ(csvOf(points, rep.sweep), fresh);

    // Offline merge over the same directory reproduces it again.
    const CampaignReport merged = mergeCampaign(points, opt);
    EXPECT_FALSE(merged.degraded());
    EXPECT_EQ(csvOf(points, merged.sweep), fresh);
    EXPECT_EQ(merged.sweep.journaled(), points.size());
}

TEST(CampaignSupervisor, ValidationFailsBeforeAnyFork)
{
    const auto points = sixPoints();
    CampaignOptions opt = baseOptions(freshDir("camp_validate"));

    opt.shards = 7; // more shards than points
    EXPECT_SIM_ERROR(validateCampaign(points, opt),
                     ErrorCategory::Config, "exceeds point count");

    opt = baseOptions(freshDir("camp_validate"));
    opt.onlyShards = {1, 1};
    EXPECT_SIM_ERROR(validateCampaign(points, opt),
                     ErrorCategory::Config, "duplicate shard id");

    opt = baseOptions(freshDir("camp_validate"));
    opt.maxLaunches = 0;
    EXPECT_SIM_ERROR(validateCampaign(points, opt),
                     ErrorCategory::Config, "max-launches");

    // A deadline inside the heartbeat period would kill every healthy
    // worker as stale.
    opt = baseOptions(freshDir("camp_validate"));
    opt.heartbeatSec = 1.0;
    opt.workerDeadlineSec = 1.5;
    EXPECT_SIM_ERROR(validateCampaign(points, opt),
                     ErrorCategory::Config, "heartbeat");

    // With the heartbeat off, any point longer than the deadline would
    // get its healthy worker killed as stale.
    opt = baseOptions(freshDir("camp_validate"));
    opt.heartbeatSec = 0.0;
    opt.workerDeadlineSec = 1.0;
    EXPECT_SIM_ERROR(validateCampaign(points, opt),
                     ErrorCategory::Config, "heartbeat 0");

    // Unwritable campaign directory: a path under a regular file.
    const std::string file = testing::TempDir() + "/camp_not_a_dir";
    std::ofstream(file) << "x";
    opt = baseOptions(file + "/sub");
    EXPECT_SIM_ERROR(validateCampaign(points, opt),
                     ErrorCategory::Resource, "not writable");
    std::remove(file.c_str());
}

TEST(CampaignSupervisor, CrashedWorkerRestartsAndPointSucceedsOnRetry)
{
    const auto points = sixPoints();
    const std::string dir = freshDir("camp_once");
    const std::string fresh =
        csvOf(points, sim::runExperimentSweep(points, {}));

    // Slot 2 (last point of shard 0) kills its worker exactly once.
    EnvGuard env;
    env.set("BURSTSIM_CRASH_KEY", keyHex(points[2]));
    env.set("BURSTSIM_CRASH_MODE", "abort");
    env.set("BURSTSIM_CRASH_ONCE", dir + "/crash.marker");

    CampaignOptions opt = baseOptions(dir);
    const CampaignReport rep = runCampaign(points, opt);

    // One crash, one relaunch, full recovery: not degraded.
    EXPECT_FALSE(rep.degraded());
    EXPECT_TRUE(rep.quarantined.empty());
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_EQ(rep.shards[0].crashes, 1u);
    EXPECT_EQ(rep.shards[0].launches, 2u);
    EXPECT_TRUE(rep.shards[0].completed);
    EXPECT_EQ(rep.shards[0].lastSignal, 0);
    EXPECT_EQ(rep.shards[1].crashes, 0u);
    EXPECT_EQ(csvOf(points, rep.sweep), fresh);

    // The survived point carries exactly one strike in the ledger.
    PoisonList poison;
    poison.load(CampaignLayout(dir).poisonList());
    EXPECT_EQ(poison.strikes(sim::configKey(points[2])), 1u);
    EXPECT_FALSE(poison.quarantined(sim::configKey(points[2])));
}

TEST(CampaignSupervisor, DoubleCrashQuarantinesPointAndCampaignCompletes)
{
    const auto points = sixPoints();
    const std::string dir = freshDir("camp_poison");

    // Slot 2 kills its worker on *every* attempt (no one-shot marker).
    EnvGuard env;
    env.set("BURSTSIM_CRASH_KEY", keyHex(points[2]));
    env.set("BURSTSIM_CRASH_MODE", "abort");

    CampaignOptions opt = baseOptions(dir);
    const CampaignReport rep = runCampaign(points, opt);

    // The poison point is quarantined with its death recorded...
    EXPECT_TRUE(rep.degraded());
    ASSERT_EQ(rep.quarantined.size(), 1u);
    EXPECT_EQ(rep.quarantined[0].slot, 2u);
    EXPECT_EQ(rep.quarantined[0].entry.strikes, 2u);
    EXPECT_EQ(rep.quarantined[0].entry.signal, SIGABRT);
    EXPECT_FALSE(rep.sweep.slots[2].run.ok);
    EXPECT_EQ(rep.sweep.slots[2].run.category,
              ErrorCategory::WorkerLost);
    EXPECT_NE(rep.sweep.slots[2].run.error.find("quarantined"),
              std::string::npos);

    // ...and every other point still completed.
    for (std::size_t i = 0; i < points.size(); ++i)
        if (i != 2)
            EXPECT_TRUE(rep.sweep.slots[i].run.ok) << "slot " << i;
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_EQ(rep.shards[0].crashes, 2u);
    EXPECT_EQ(rep.shards[0].launches, 3u);
    EXPECT_TRUE(rep.shards[0].completed);
    EXPECT_FALSE(rep.shards[0].gaveUp);

    // The quarantine row renders as failed(worker_lost) in the CSV,
    // and offline merge reproduces the whole report exactly.
    const std::string csv = csvOf(points, rep.sweep);
    EXPECT_NE(csv.find("failed,2,worker_lost"), std::string::npos)
        << csv;
    const CampaignReport merged = mergeCampaign(points, opt);
    EXPECT_EQ(csvOf(points, merged.sweep), csv);
    ASSERT_EQ(merged.quarantined.size(), 1u);
    EXPECT_EQ(merged.quarantined[0].slot, 2u);
}

TEST(CampaignSupervisor, RepeatedCrashesWithoutQuarantineGiveUpShard)
{
    const auto points = sixPoints();
    const std::string dir = freshDir("camp_giveup");

    EnvGuard env;
    env.set("BURSTSIM_CRASH_KEY", keyHex(points[2]));
    env.set("BURSTSIM_CRASH_MODE", "exit:97"); // unknown exit = crash

    CampaignOptions opt = baseOptions(dir);
    opt.quarantineStrikes = 99; // never quarantine...
    opt.maxLaunches = 2;        // ...so the launch cap must stop it
    const CampaignReport rep = runCampaign(points, opt);

    EXPECT_TRUE(rep.degraded());
    EXPECT_TRUE(rep.quarantined.empty());
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_TRUE(rep.shards[0].gaveUp);
    EXPECT_FALSE(rep.shards[0].completed);
    EXPECT_EQ(rep.shards[0].launches, 2u);
    EXPECT_EQ(rep.shards[0].lastExit, 97);
    // The crash point never completed anywhere: reported skipped.
    EXPECT_TRUE(rep.sweep.slots[2].run.skipped());
    // Points journaled before the crashes still made it out.
    EXPECT_TRUE(rep.sweep.slots[0].run.ok);
    EXPECT_TRUE(rep.sweep.slots[1].run.ok);
    // The other shard is untouched by shard 0's misery.
    EXPECT_TRUE(rep.shards[1].completed);
    EXPECT_TRUE(rep.sweep.slots[4].run.ok);
}

TEST(CampaignSupervisor, ContainedFailureSurvivesMergeWithItsCategory)
{
    // An unknown workload fails *inside* the worker (SimError(Config),
    // contained by the sweep runner — worker exits 4, no crash). The
    // campaign must report the same CSV as an in-process sweep,
    // category and error text included, even though failed points are
    // deliberately never journaled.
    auto points = sixPoints();
    points[4].workload = "no-such-workload";
    const std::string fresh =
        csvOf(points, sim::runExperimentSweep(points, {}));

    CampaignOptions opt = baseOptions(freshDir("camp_contained"));
    const CampaignReport rep = runCampaign(points, opt);

    EXPECT_TRUE(rep.degraded());
    EXPECT_TRUE(rep.quarantined.empty());
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_EQ(rep.shards[1].crashes, 0u);
    EXPECT_TRUE(rep.shards[1].completed);
    EXPECT_FALSE(rep.sweep.slots[4].run.ok);
    EXPECT_EQ(rep.sweep.slots[4].run.category, ErrorCategory::Config);
    EXPECT_EQ(csvOf(points, rep.sweep), fresh);
}

TEST(CampaignSupervisor, HungWorkerIsDeadlineKilledAndQuarantined)
{
    const auto points = sixPoints();
    const std::string dir = freshDir("camp_hang");

    // "stop" freezes the whole worker (heartbeat thread included) at
    // slot 2 — a stuck syscall as the liveness monitor sees it. A
    // frozen process cannot act on SIGTERM, so this exercises the
    // SIGKILL escalation, twice, into quarantine.
    EnvGuard env;
    env.set("BURSTSIM_CRASH_KEY", keyHex(points[2]));
    env.set("BURSTSIM_CRASH_MODE", "stop");

    CampaignOptions opt = baseOptions(dir);
    opt.workerDeadlineSec = 0.6;
    opt.killGraceSec = 0.25;
    const CampaignReport rep = runCampaign(points, opt);

    EXPECT_TRUE(rep.degraded());
    ASSERT_EQ(rep.quarantined.size(), 1u);
    EXPECT_EQ(rep.quarantined[0].slot, 2u);
    EXPECT_EQ(rep.quarantined[0].entry.signal, SIGKILL);
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_GE(rep.shards[0].deadlineKills, 2u);
    EXPECT_EQ(rep.shards[0].crashes, 2u);
    EXPECT_TRUE(rep.shards[0].completed);
    // The healthy shard never tripped the deadline.
    EXPECT_EQ(rep.shards[1].deadlineKills, 0u);
    for (std::size_t i = 0; i < points.size(); ++i)
        if (i != 2)
            EXPECT_TRUE(rep.sweep.slots[i].run.ok) << "slot " << i;
}

TEST(CampaignSupervisor, SigkilledSupervisorResumesToIdenticalCsv)
{
    const auto points = sixPoints();
    const std::string dir = freshDir("camp_resume");
    const std::string fresh =
        csvOf(points, sim::runExperimentSweep(points, {}));
    const CampaignLayout layout(dir);

    // Child: a supervisor whose shard-0 worker freezes at slot 2, with
    // liveness kills disabled — the campaign hangs mid-flight forever,
    // until we SIGKILL the whole process group (supervisor included).
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setpgid(0, 0);
        ::setenv("BURSTSIM_CRASH_KEY", keyHex(points[2]).c_str(), 1);
        ::setenv("BURSTSIM_CRASH_MODE", "stop", 1);
        CampaignOptions opt = baseOptions(dir);
        opt.workerDeadlineSec = 0; // never kill: stay hung
        opt.journalSync = true;    // the durability claim under test
        try {
            runCampaign(points, opt);
        } catch (...) {
        }
        ::_exit(0);
    }
    ::setpgid(pid, pid); // either side may win this race; both are fine

    // Wait until real progress exists on disk: shard 0 journaled the
    // two points before the freeze, shard 1 completed all three.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
        const std::size_t s0 =
            sim::scanSweepJournal(layout.shardJournal(0)).records.size();
        const std::size_t s1 =
            sim::scanSweepJournal(layout.shardJournal(1)).records.size();
        if (s0 >= 2 && s1 >= 3)
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "campaign never reached the hung state (shard0="
            << s0 << " shard1=" << s1 << ")";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    // SIGKILL the supervisor and its workers mid-campaign.
    ::kill(-pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Resume: same directory, no crash injection. Journaled points are
    // restored, only the victim point reruns, and the final CSV is
    // byte-identical to the unsharded fresh sweep.
    const CampaignReport rep =
        runCampaign(points, baseOptions(dir));
    EXPECT_FALSE(rep.degraded());
    EXPECT_TRUE(rep.quarantined.empty());
    EXPECT_GE(rep.sweep.journaled(), 5u);
    EXPECT_EQ(csvOf(points, rep.sweep), fresh);
}
