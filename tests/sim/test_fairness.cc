/**
 * @file
 * CMP fairness: the slowdown / weighted-speedup / harmonic-speedup
 * arithmetic, the single-core identity (a core running alone has
 * slowdown exactly 1), crash-safe resume of a fairness sweep through
 * the sweep journal (hexfloat round-trip, byte-identical CSV), and the
 * config-key canonicalisation — the watermark-drain, fairness and
 * fatal-audit axes and the core order must hash distinctly while every
 * pre-existing sweep key stays byte-stable.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "/" + name;
}

std::string
renderCsv(const std::vector<ExperimentConfig> &points,
          const SweepReport &rep)
{
    std::ostringstream os;
    writeFairnessCsv(os, points, rep);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Pure arithmetic.

TEST(FairnessMath, AllEqualIpcIsTheIdentity)
{
    const std::vector<double> ipc = {0.5, 0.25, 1.0};
    const FairnessMetrics f = computeFairness(ipc, ipc);
    ASSERT_EQ(f.perCoreSlowdown.size(), 3u);
    for (double sd : f.perCoreSlowdown)
        EXPECT_DOUBLE_EQ(sd, 1.0);
    EXPECT_DOUBLE_EQ(f.maxSlowdown, 1.0);
    // Weighted speedup collapses to N exactly when every slowdown is 1.
    EXPECT_DOUBLE_EQ(f.weightedSpeedup, 3.0);
    EXPECT_DOUBLE_EQ(f.harmonicSpeedup, 1.0);
}

TEST(FairnessMath, SlowdownAndAggregatesFollowTheDefinitions)
{
    const std::vector<double> shared = {0.5, 0.5};
    const std::vector<double> alone = {1.0, 0.5};
    const FairnessMetrics f = computeFairness(shared, alone);
    ASSERT_EQ(f.perCoreSlowdown.size(), 2u);
    EXPECT_DOUBLE_EQ(f.perCoreSlowdown[0], 2.0);
    EXPECT_DOUBLE_EQ(f.perCoreSlowdown[1], 1.0);
    EXPECT_DOUBLE_EQ(f.maxSlowdown, 2.0);
    EXPECT_DOUBLE_EQ(f.weightedSpeedup, 0.5 + 1.0);
    EXPECT_DOUBLE_EQ(f.harmonicSpeedup, 2.0 / 3.0);
}

// ---------------------------------------------------------------------
// End-to-end identity: a single core shares the memory system with
// nobody, so its alone baseline is the shared run itself.

TEST(FairnessRun, SingleCoreSlowdownIsExactlyOne)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::Bliss;
    cfg.instructions = 4000;
    cfg.fairness = true;
    const RunResult r = runExperiment(cfg);
    ASSERT_TRUE(r.fairness);
    ASSERT_EQ(r.fairness->perCoreSlowdown.size(), 1u);
    EXPECT_DOUBLE_EQ(r.fairness->perCoreSlowdown[0], 1.0);
    EXPECT_DOUBLE_EQ(r.fairness->weightedSpeedup, 1.0);
    EXPECT_DOUBLE_EQ(r.fairness->harmonicSpeedup, 1.0);
    EXPECT_DOUBLE_EQ(r.fairness->maxSlowdown, 1.0);
}

TEST(FairnessRun, SharedMixReportsPlausibleSlowdowns)
{
    ExperimentConfig cfg;
    cfg.workload = "swim+mcf";
    cfg.mechanism = ctrl::Mechanism::FrFcfs;
    cfg.instructions = 4000;
    cfg.fairness = true;
    const RunResult r = runExperiment(cfg);
    ASSERT_TRUE(r.fairness);
    ASSERT_EQ(r.fairness->perCoreSlowdown.size(), 2u);
    for (double sd : r.fairness->perCoreSlowdown)
        EXPECT_GE(sd, 1.0); // sharing never speeds a core up here
    EXPECT_GE(r.fairness->maxSlowdown, 1.0);
    EXPECT_GT(r.fairness->weightedSpeedup, 0.0);
    EXPECT_LE(r.fairness->weightedSpeedup, 2.0);

    // The text report must carry the fairness block.
    std::ostringstream os;
    writeResultText(os, r);
    EXPECT_NE(os.str().find("slowdown"), std::string::npos);
}

// ---------------------------------------------------------------------
// Config canonicalisation and key distinctness.

TEST(FairnessJournal, KeysSeparateEveryAxis)
{
    ExperimentConfig a;
    a.workload = "swim+mcf";
    a.mechanism = ctrl::Mechanism::Parbs;
    a.instructions = 4000;
    a.fairness = true;

    ExperimentConfig b = a;
    b.mechanism = ctrl::Mechanism::Atlas;
    ExperimentConfig c = a;
    c.watermarkDrain = true;
    ExperimentConfig d = a;
    d.workload = "mcf+swim";
    ExperimentConfig e = a;
    e.fairness = false;

    EXPECT_EQ(configKey(a), configKey(a));
    EXPECT_NE(configKey(a), configKey(b));
    EXPECT_NE(configKey(a), configKey(c));
    EXPECT_NE(configKey(a), configKey(d));
    EXPECT_NE(configKey(a), configKey(e));
    EXPECT_NE(canonicalConfig(a), canonicalConfig(c));
    // Like |wd, the fairness token appears only when the axis is on.
    EXPECT_NE(canonicalConfig(a).find("|fair"), std::string::npos);
    EXPECT_EQ(canonicalConfig(e).find("|fair"), std::string::npos);
}

TEST(SweepJournal, WatermarkAxisHashesDistinctlyButOldKeysAreStable)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::FrFcfs;
    cfg.instructions = 4000;

    const std::string plain = canonicalConfig(cfg);
    // Pre-existing journals must keep their keys: the token only
    // appears when the axis is actually enabled.
    EXPECT_EQ(plain.find("|wd"), std::string::npos);

    ExperimentConfig wd = cfg;
    wd.watermarkDrain = true;
    EXPECT_NE(canonicalConfig(wd).find("|wd"), std::string::npos);
    EXPECT_NE(configKey(cfg), configKey(wd));
}

TEST(SweepJournal, FatalAuditHashesDistinctlyButOldKeysAreStable)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.instructions = 4000;

    // A fatal auditor can fail a point that runs clean without it, so
    // a resume under --audit fatal must rerun every point. Off and
    // warn never fail a point and keep the pre-existing key.
    ExperimentConfig warn = cfg, fatal = cfg;
    warn.obs.audit = obs::AuditMode::Warn;
    fatal.obs.audit = obs::AuditMode::Fatal;
    EXPECT_EQ(canonicalConfig(warn), canonicalConfig(cfg));
    EXPECT_EQ(configKey(warn), configKey(cfg));
    EXPECT_EQ(canonicalConfig(fatal), canonicalConfig(cfg) + "|audit");
    EXPECT_NE(configKey(fatal), configKey(cfg));
}

// ---------------------------------------------------------------------
// Journal resume: the second sweep must restore every slot from the
// journal and render a byte-identical CSV (hexfloat round-trip).

TEST(FairnessJournal, ResumeRestoresSlotsAndCsvIsByteIdentical)
{
    const std::string path = tmpPath("fairness_resume.j3");
    std::remove(path.c_str());

    std::vector<ExperimentConfig> points(2);
    points[0].workload = "swim+mcf";
    points[0].mechanism = ctrl::Mechanism::Bliss;
    points[0].instructions = 3000;
    points[0].fairness = true;
    points[1] = points[0];
    points[1].mechanism = ctrl::Mechanism::FrFcfs;
    points[1].watermarkDrain = true;

    SweepOptions opt;
    opt.journal = path;
    opt.journalSync = false; // tmpfs test, durability irrelevant

    const SweepReport first = runExperimentSweep(points, opt);
    ASSERT_EQ(first.slots.size(), 2u);
    for (const SweepSlot &s : first.slots) {
        EXPECT_TRUE(s.run.ok);
        EXPECT_FALSE(s.fromJournal);
    }

    const auto records = loadSweepJournal(path);
    EXPECT_EQ(records.size(), 2u);

    const SweepReport second = runExperimentSweep(points, opt);
    ASSERT_EQ(second.slots.size(), 2u);
    for (const SweepSlot &s : second.slots) {
        EXPECT_TRUE(s.run.ok);
        EXPECT_TRUE(s.fromJournal);
    }
    EXPECT_EQ(second.journaled(), 2u);
    EXPECT_EQ(renderCsv(points, first), renderCsv(points, second));

    std::remove(path.c_str());
}
