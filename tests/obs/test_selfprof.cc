/**
 * @file
 * Host-side self-profiler tests: off-by-default no-op, scope tree
 * aggregation (counts, depths, inclusive/exclusive times), collect()
 * validity, text rendering, and the determinism guarantee — enabling
 * --selfprof must leave the result JSON byte-identical, because host
 * wall time is exported only through the text report and telemetry
 * side channels.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <thread>
#include <string>

#include "obs/selfprof.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace bsim;
namespace prof = bsim::obs::prof;

namespace
{

/** Every test starts and ends with the thread's profiler disarmed. */
class SelfProf : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        prof::setEnabled(false);
        prof::reset();
    }
    void TearDown() override
    {
        prof::setEnabled(false);
        prof::reset();
    }
};

/** Burn a little real time so scopes accumulate nonzero ticks. */
void
spin()
{
    volatile unsigned x = 0;
    for (unsigned i = 0; i < 50'000; ++i)
        x = x + i;
}

std::string
jsonOf(const sim::RunResult &r)
{
    std::ostringstream os;
    sim::writeResultJson(os, r);
    return os.str();
}

} // namespace

TEST_F(SelfProf, OffByDefaultScopesAreNoOpsAndCollectIsInvalid)
{
    EXPECT_FALSE(prof::enabled());
    {
        prof::Scope s(prof::Phase::Run);
        spin();
    }
    const prof::SelfProfile p = prof::collect();
    EXPECT_FALSE(p.valid);
    EXPECT_TRUE(p.nodes.empty());
    EXPECT_EQ(p.totalUs, 0.0);
}

TEST_F(SelfProf, ScopesAggregateIntoAPhaseTree)
{
    prof::setEnabled(true);
    {
        prof::Scope run(prof::Phase::Run);
        for (int i = 0; i < 3; ++i) {
            prof::Scope h(prof::Phase::Horizon);
            spin();
        }
        {
            prof::Scope c(prof::Phase::CtrlTick);
            prof::Scope s(prof::Phase::SchedPick);
            spin();
        }
    }
    const prof::SelfProfile p = prof::collect();
    ASSERT_TRUE(p.valid);

    // Preorder: run, its children in creation order, grandchildren
    // under their parent. Re-entering a phase aggregates into one node.
    ASSERT_EQ(p.nodes.size(), 4u);
    EXPECT_EQ(p.nodes[0].phase, prof::Phase::Run);
    EXPECT_EQ(p.nodes[0].depth, 0);
    EXPECT_EQ(p.nodes[0].count, 1u);
    EXPECT_EQ(p.nodes[1].phase, prof::Phase::Horizon);
    EXPECT_EQ(p.nodes[1].depth, 1);
    EXPECT_EQ(p.nodes[1].count, 3u);
    EXPECT_EQ(p.nodes[2].phase, prof::Phase::CtrlTick);
    EXPECT_EQ(p.nodes[2].depth, 1);
    EXPECT_EQ(p.nodes[3].phase, prof::Phase::SchedPick);
    EXPECT_EQ(p.nodes[3].depth, 2);

    // Inclusive time covers the children; the root's inclusive time is
    // the profile total; exclusive times land in the per-phase sums.
    EXPECT_GE(p.nodes[0].totalUs,
              p.nodes[1].totalUs + p.nodes[2].totalUs);
    EXPECT_DOUBLE_EQ(p.totalUs, p.nodes[0].totalUs);
    EXPECT_GT(p.selfUsByPhase[std::size_t(prof::Phase::Horizon)], 0.0);
    EXPECT_GT(p.selfUsByPhase[std::size_t(prof::Phase::SchedPick)], 0.0);
    // ctrl_tick's exclusive time excludes sched_pick's.
    EXPECT_LE(p.nodes[2].selfUs, p.nodes[2].totalUs);
}

TEST_F(SelfProf, ArmingIsDecidedAtScopeEntry)
{
    {
        // Entered disarmed: arming mid-scope does not arm it.
        prof::Scope off(prof::Phase::Run);
        prof::setEnabled(true);
    }
    {
        // Entered armed: disarming mid-scope still closes it, so the
        // next scope opens at the root again.
        prof::Scope on(prof::Phase::Horizon);
        prof::setEnabled(false);
    }
    prof::setEnabled(true);
    {
        prof::Scope again(prof::Phase::CtrlTick);
    }
    const prof::SelfProfile p = prof::collect();
    ASSERT_EQ(p.nodes.size(), 2u);
    EXPECT_EQ(p.nodes[0].phase, prof::Phase::Horizon);
    EXPECT_EQ(p.nodes[1].phase, prof::Phase::CtrlTick);
    EXPECT_EQ(p.nodes[1].depth, 0);
}

TEST_F(SelfProf, FlagIsPerThread)
{
    prof::setEnabled(true);
    bool other = true;
    std::thread([&other] { other = prof::enabled(); }).join();
    EXPECT_FALSE(other);
    EXPECT_TRUE(prof::enabled());
}

TEST_F(SelfProf, ResetDropsTheTree)
{
    prof::setEnabled(true);
    {
        prof::Scope s(prof::Phase::Run);
        spin();
    }
    prof::reset();
    const prof::SelfProfile p = prof::collect();
    EXPECT_TRUE(p.valid);
    EXPECT_TRUE(p.nodes.empty());
}

TEST_F(SelfProf, WriteTextRendersEveryNode)
{
    prof::setEnabled(true);
    {
        prof::Scope run(prof::Phase::Run);
        prof::Scope h(prof::Phase::Horizon);
        spin();
    }
    const prof::SelfProfile p = prof::collect();
    std::ostringstream os;
    p.writeText(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("Self-profile"), std::string::npos);
    EXPECT_NE(text.find("run"), std::string::npos);
    EXPECT_NE(text.find("horizon"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
}

TEST_F(SelfProf, ExperimentAttachesAValidProfileAndDisarmsAfter)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "pchase";
    cfg.instructions = 1500;
    cfg.engine = sim::EngineKind::Skip;
    cfg.obs.selfProf = true;
    const sim::RunResult r = sim::runExperiment(cfg);
    ASSERT_TRUE(r.selfprof);
    EXPECT_TRUE(r.selfprof->valid);
    EXPECT_FALSE(r.selfprof->nodes.empty());
    EXPECT_EQ(r.selfprof->nodes[0].phase, prof::Phase::Run);
    // The guard must disarm the thread-local flag on exit so profiling
    // never leaks into a later run on the same (worker) thread.
    EXPECT_FALSE(prof::enabled());

    // The profile reaches the text report...
    std::ostringstream os;
    sim::writeResultText(os, r);
    EXPECT_NE(os.str().find("Self-profile"), std::string::npos);
}

TEST_F(SelfProf, SelfprofNeverChangesTheResultJson)
{
    for (const sim::EngineKind engine :
         {sim::EngineKind::Step, sim::EngineKind::Skip}) {
        sim::ExperimentConfig cfg;
        cfg.workload = "mcf";
        cfg.instructions = 1500;
        cfg.engine = engine;
        const std::string base = jsonOf(sim::runExperiment(cfg));
        cfg.obs.selfProf = true;
        EXPECT_EQ(jsonOf(sim::runExperiment(cfg)), base)
            << sim::engineKindName(engine);
    }
}
