/**
 * @file
 * Shrinker tests, including the subsystem's acceptance criterion: a
 * deliberately injected bug must be caught by the oracles and shrunk
 * to a point at most three config axes away from the default.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ctrl/schedulers/factory.hh"
#include "ctrl/schedulers/faulty.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/shrink.hh"
#include "sim/run_axes.hh"

#include "run_axes_util.hh"

using namespace bsim;
using namespace bsim::fuzz;

namespace
{

/** Injected bug: every scheduler freezes after 25 column accesses. */
void
injectFreeze(sim::ExperimentConfig &cfg)
{
    cfg.schedulerFactory = [](ctrl::Mechanism m,
                              const ctrl::SchedulerContext &ctx) {
        return std::make_unique<ctrl::FaultyScheduler>(
            ctx, ctrl::makeScheduler(m, ctx), 25);
    };
    cfg.schedulerFactoryId = "faulty:freeze@25";
    cfg.watchdogCycles = 5000;
}

} // namespace

TEST(Shrink, PassingPointComesBackUnshrunkAndOk)
{
    const ShrinkOutcome out = shrinkPoint(defaultPoint());
    EXPECT_TRUE(out.verdict.ok);
    EXPECT_EQ(out.evaluations, 1u); // one reproduction attempt, no walk
}

TEST(Shrink, InjectedBugShrinksToAtMostThreeAxes)
{
    // Sample a deliberately exotic point, plant a freeze bug under the
    // oracles, and demand the shrinker walk it back to (near) default:
    // the bug fires everywhere, so every exotic axis must fall away.
    Rng rng(7);
    FuzzPoint exotic = samplePoint(rng);
    exotic.workload = "swim"; // keep the repro cheap and deterministic
    exotic.trace.clear();

    ShrinkOptions opt;
    opt.oracle.configTweak = injectFreeze;
    opt.oracle.crossScheduler = false;

    const ShrinkOutcome out = shrinkPoint(exotic, opt);
    ASSERT_FALSE(out.verdict.ok);
    EXPECT_EQ(out.verdict.oracle, "no_hang") << out.verdict.detail;
    EXPECT_LE(axesChangedFromDefault(out.point), 3)
        << "shrunk point still exotic: " << pointLabel(out.point);
    EXPECT_GT(out.evaluations, 1u);
    EXPECT_LE(out.evaluations, opt.maxEvaluations);
}

TEST(Shrink, ResetsEveryReproAxis)
{
    // The bug fires everywhere, so every axis the shrinker knows how to
    // reset falls away; an axis missing from its reset order would
    // survive and show up in the count.
    FuzzPoint p;
    for (const auto &[name, token] : offDefaultTokens()) {
        const sim::RunAxis &axis = sim::runAxis(name);
        if (axis.repro && name != "instructions")
            sim::setAxis(axis, p, token, name);
    }
    ASSERT_EQ(axesChangedFromDefault(p), 19);

    ShrinkOptions opt;
    opt.oracle.configTweak = injectFreeze;
    opt.oracle.crossScheduler = false;
    const ShrinkOutcome out = shrinkPoint(p, opt);
    ASSERT_FALSE(out.verdict.ok);
    EXPECT_EQ(axesChangedFromDefault(out.point), 0)
        << "still exotic: " << pointLabel(out.point);
}

TEST(Shrink, MinimisesTheTracePrefixToo)
{
    ShrinkOptions opt;
    opt.oracle.configTweak = injectFreeze;
    opt.oracle.crossScheduler = false;
    opt.minInstructions = 500;

    FuzzPoint p; // default axes, long run
    p.instructions = 12000;
    const ShrinkOutcome out = shrinkPoint(p, opt);
    ASSERT_FALSE(out.verdict.ok);
    // The freeze fires within the first few hundred accesses, so the
    // halving pass must cut the run well below the original length.
    EXPECT_LE(out.point.instructions, 3000u);
    EXPECT_GE(out.point.instructions, opt.minInstructions);
}

TEST(Fuzzer, CampaignCatchesAndShrinksInjectedBug)
{
    FuzzOptions opt;
    opt.seed = 5;
    opt.runs = 3;
    opt.maxFailures = 1;
    opt.oracle.configTweak = injectFreeze;
    opt.oracle.crossScheduler = false;
    opt.shrinkOpt.maxEvaluations = 60;

    const FuzzReport rep = runFuzz(opt);
    ASSERT_EQ(rep.failures.size(), 1u);
    const FuzzFailure &f = rep.failures[0];
    EXPECT_EQ(f.verdict.oracle, "no_hang");
    EXPECT_LE(axesChangedFromDefault(f.minimized),
              axesChangedFromDefault(f.original));
    // The repro body round-trips: what we would write to disk parses.
    const FuzzPoint replay =
        parsePoint(serializePoint(f.minimized, f.verdict.detail));
    EXPECT_EQ(serializePoint(replay), serializePoint(f.minimized));
}

TEST(Fuzzer, CampaignIsDeterministicPerSeed)
{
    FuzzOptions opt;
    opt.seed = 11;
    opt.runs = 5;
    const FuzzReport a = runFuzz(opt);
    const FuzzReport b = runFuzz(opt);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.failures.size(), b.failures.size());
}
