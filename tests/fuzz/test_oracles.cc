/**
 * @file
 * Oracle battery tests: clean points pass every oracle, and a
 * deliberately injected scheduler fault is caught and attributed to
 * the right oracle. The injection goes through
 * OracleOptions::configTweak — the hook exists precisely so these
 * tests can plant a bug underneath the oracles without touching
 * production code paths.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ctrl/schedulers/factory.hh"
#include "ctrl/schedulers/faulty.hh"
#include "fuzz/oracle.hh"

using namespace bsim;
using namespace bsim::fuzz;

namespace
{

/** Tweak that wraps every scheduler in a freeze-after-N decorator. */
void
injectFreeze(sim::ExperimentConfig &cfg)
{
    cfg.schedulerFactory = [](ctrl::Mechanism m,
                              const ctrl::SchedulerContext &ctx) {
        return std::make_unique<ctrl::FaultyScheduler>(
            ctx, ctrl::makeScheduler(m, ctx), 25);
    };
    cfg.schedulerFactoryId = "faulty:freeze@25";
    cfg.watchdogCycles = 5000; // trip quickly: these runs are tiny
}

} // namespace

TEST(Oracles, DefaultPointPassesAll)
{
    const OracleVerdict v = checkPoint(defaultPoint());
    EXPECT_TRUE(v.ok) << "[" << v.oracle << "] " << v.detail;
}

TEST(Oracles, RowHitHeavyPointExercisesCrossSchedulerBound)
{
    // swim is sequential enough to qualify for the Burst-vs-BkInOrder
    // bound; the default point uses it, so run a Burst variant too.
    FuzzPoint p;
    p.mechanism = ctrl::Mechanism::Burst;
    const OracleVerdict v = checkPoint(p);
    EXPECT_TRUE(v.ok) << "[" << v.oracle << "] " << v.detail;
}

TEST(Oracles, InjectedFreezeIsCaughtAsNoHang)
{
    OracleOptions opt;
    opt.configTweak = injectFreeze;
    opt.crossScheduler = false; // the freeze fires long before that
    const OracleVerdict v = checkPoint(defaultPoint(), opt);
    ASSERT_FALSE(v.ok);
    EXPECT_EQ(v.oracle, "no_hang") << v.detail;
    EXPECT_NE(v.detail.find("watchdog"), std::string::npos) << v.detail;
}

TEST(Oracles, PillarThatForcesWakesIsCaughtAsPillarNeutrality)
{
    // Plant the defect the oracle guards against: with stall attribution
    // on, the run also samples metrics every 7 cycles, and the skip
    // engine must step every epoch tick. Every other oracle compares
    // runs that all carry the defect, so only pillar_neutrality sees it.
    OracleOptions opt;
    opt.configTweak = [](sim::ExperimentConfig &cfg) {
        if (cfg.obs.stallAttribution)
            cfg.obs.metricsInterval = 7;
    };
    opt.crossScheduler = false;
    const OracleVerdict v = checkPoint(defaultPoint(), opt);
    ASSERT_FALSE(v.ok);
    EXPECT_EQ(v.oracle, "pillar_neutrality") << v.detail;
}

TEST(Oracles, InlineTracePointPasses)
{
    FuzzPoint p;
    p.workload = kInlineTraceWorkload;
    for (int i = 0; i < 64; ++i) {
        p.trace.push_back("L " + std::to_string(i * 64));
        p.trace.push_back("C");
        p.trace.push_back("S " + std::to_string(4096 + i * 64));
    }
    const OracleVerdict v = checkPoint(p);
    EXPECT_TRUE(v.ok) << "[" << v.oracle << "] " << v.detail;
}

TEST(Oracles, EveryTimingVariantPassesOnBothDevices)
{
    for (auto dev : {sim::DeviceGen::DDR2_800, sim::DeviceGen::DDR_266}) {
        for (int i = 0; i < int(sim::kNumTimingVariants); ++i) {
            FuzzPoint p;
            p.mechanism = ctrl::Mechanism::BurstTH;
            p.instructions = 4000;
            p.device = dev;
            p.timingVariant = sim::TimingVariant(i);
            const OracleVerdict v = checkPoint(p);
            EXPECT_TRUE(v.ok)
                << pointLabel(p) << ": [" << v.oracle << "] " << v.detail;
        }
    }
}
