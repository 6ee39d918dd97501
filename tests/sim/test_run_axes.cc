/**
 * @file
 * The run-axis table (sim/run_axes.hh) and the config key.
 *
 * canonicalConfig() and configKey() are the journal's point identity,
 * so their encoding of a default config and of a config with every run
 * axis off its default is pinned as literals — any drift orphans every
 * existing sweep journal and campaign. canonicalConfig() is written by
 * hand, so these tests also tie it to the table: every axis must move
 * the key except the declared result-neutral ones. The shared CLI flags
 * are applied through the table, so a bad token is a config error.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "sim/experiment.hh"
#include "sim/run_axes.hh"
#include "sim/sweep.hh"

#include "run_axes_util.hh"
#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

/** Axes that never change a run's results, so the key ignores them. */
const std::set<std::string> kResultNeutral = {"horizon_memo"};

ExperimentConfig
defaultAt4000()
{
    ExperimentConfig cfg;
    cfg.instructions = 4000;
    return cfg;
}

/** Every run axis off its default. */
ExperimentConfig
everyAxisOff()
{
    ExperimentConfig cfg;
    cfg.workload = "mcf";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 4000;
    cfg.seed = 7;
    cfg.threshold = 30;
    cfg.pagePolicy = dram::PagePolicy::ClosePageAuto;
    cfg.addressMap = dram::AddressMapKind::PermutationInterleave;
    cfg.device = DeviceGen::DDR_266;
    cfg.timingVariant = TimingVariant::RefreshPrime;
    cfg.engine = EngineKind::Step;
    cfg.horizonMemo = false;
    cfg.channels = 2;
    cfg.ranksPerChannel = 1;
    cfg.banksPerRank = 4;
    cfg.dynamicThreshold = true;
    cfg.sortBurstsBySize = true;
    cfg.criticalFirst = true;
    cfg.rankAware = false;
    cfg.coalesceWrites = true;
    cfg.watermarkDrain = true;
    cfg.robSize = 8;
    cfg.issueWidth = 4;
    cfg.watchdogCycles = 10000;
    cfg.deadlineSec = 2.5;
    return cfg;
}

/** Parse @p argv through a parser that declares the shared flags. */
ExperimentConfig
configFromArgs(std::vector<const char *> argv)
{
    ArgParser args("test");
    addRunAxisOptions(args);
    argv.insert(argv.begin(), "test");
    std::ostringstream err;
    EXPECT_TRUE(args.parse(int(argv.size()), argv.data(), err))
        << err.str();
    ExperimentConfig cfg;
    applyRunAxisOptions(args, cfg);
    return cfg;
}

} // namespace

TEST(ConfigKey, DefaultConfigIsPinned)
{
    const ExperimentConfig cfg = defaultAt4000();
    EXPECT_EQ(canonicalConfig(cfg),
              "v2|swim|BkInOrder|4000|20070212|52|0|0|0|0|1|0|0|0|0|0|0|1|"
              "0|0|0|50000|0|");
    EXPECT_EQ(configKey(cfg), 0x803eeb09ef53832dULL);
}

TEST(ConfigKey, EveryAxisOffDefaultIsPinned)
{
    const ExperimentConfig cfg = everyAxisOff();
    EXPECT_EQ(canonicalConfig(cfg),
              "v2|mcf|Burst_TH|4000|7|30|1|3|1|2|0|2|1|4|1|1|1|0|1|8|4|10000|"
              "2.5||wd");
    EXPECT_EQ(configKey(cfg), 0x6b0cc2530520b533ULL);
}

TEST(RunAxes, TokenListCoversTheTable)
{
    std::set<std::string> names;
    for (const RunAxis &a : runAxes())
        EXPECT_TRUE(names.insert(a.name).second) << "duplicate " << a.name;
    std::set<std::string> listed;
    for (const auto &[name, token] : offDefaultTokens())
        listed.insert(name);
    EXPECT_EQ(names, listed)
        << "tests/run_axes_util.hh must list one token per run axis";
}

TEST(RunAxes, EveryAxisMovesTheKeyUnlessDeclaredNeutral)
{
    const ExperimentConfig base = defaultAt4000();
    for (const auto &[name, token] : offDefaultTokens()) {
        SCOPED_TRACE(name + "=" + token);
        const RunAxis &axis = runAxis(name);
        ASSERT_NE(axis.print(base), token) << "token is the default";
        ExperimentConfig cfg = base;
        setAxis(axis, cfg, token, name);
        EXPECT_EQ(axis.print(cfg), token);
        if (kResultNeutral.count(name))
            EXPECT_EQ(configKey(cfg), configKey(base));
        else
            EXPECT_NE(configKey(cfg), configKey(base));
        // The default's token resets the axis (the shrinker's step).
        setAxis(axis, cfg, axis.print(base), name);
        EXPECT_EQ(canonicalConfig(cfg), canonicalConfig(base));
        EXPECT_EQ(axis.print(cfg), axis.print(base));
    }
}

TEST(RunAxes, TokenListMatchesThePinnedEveryAxisOffConfig)
{
    ExperimentConfig cfg = defaultAt4000();
    for (const auto &[name, token] : offDefaultTokens())
        if (name != "instructions")
            setAxis(runAxis(name), cfg, token, name);
    EXPECT_EQ(canonicalConfig(cfg), canonicalConfig(everyAxisOff()));
}

TEST(RunAxes, SharedFlagsSetEveryCliAxis)
{
    const ExperimentConfig cfg = configFromArgs(
        {"--instructions", "4000", "--seed", "7", "--threshold", "30",
         "--page-policy", "cpa", "--map", "perm", "--device", "ddr-266",
         "--engine", "step", "--watchdog-cycles", "10000",
         "--deadline-sec", "2.5", "--dynamic-threshold", "--sort-bursts",
         "--critical-first", "--no-rank-aware", "--no-horizon-memo"});
    std::size_t flags = 0;
    for (const RunAxis &a : runAxes()) {
        if (!a.flag)
            continue;
        flags += 1;
        if (std::string(a.name) != "instructions") {
            EXPECT_EQ(a.print(cfg), offDefaultTokens().at(a.name))
                << a.name;
        }
    }
    EXPECT_EQ(flags, 14u);
    EXPECT_EQ(cfg.instructions, 4000u);
}

TEST(RunAxes, BadEnumTokenIsAConfigErrorFromTheCli)
{
    for (const char *flag : {"page-policy", "map", "device", "engine"}) {
        SCOPED_TRACE(flag);
        ArgParser args("test");
        addRunAxisOptions(args);
        const std::string opt = std::string("--") + flag;
        const char *argv[] = {"test", opt.c_str(), "bogus"};
        std::ostringstream err;
        ASSERT_TRUE(args.parse(3, argv, err)) << err.str();
        ExperimentConfig cfg;
        EXPECT_SIM_ERROR(applyRunAxisOptions(args, cfg),
                         ErrorCategory::Config, opt + " expects");
    }
}

TEST(RunAxes, BadNumberTokenIsAConfigErrorFromTheCli)
{
    for (const char *bad : {"-1", "12x", "", "99999999999999999999"}) {
        SCOPED_TRACE(bad);
        ArgParser args("test");
        addRunAxisOptions(args);
        const char *argv[] = {"test", "--seed", bad};
        std::ostringstream err;
        ASSERT_TRUE(args.parse(3, argv, err)) << err.str();
        ExperimentConfig cfg;
        EXPECT_SIM_ERROR(applyRunAxisOptions(args, cfg),
                         ErrorCategory::Config, "--seed expects a number");
    }
    // A wall-clock budget must be finite: from_chars reads "inf".
    for (const char *bad : {"nan", "inf", "-1"}) {
        SCOPED_TRACE(bad);
        ArgParser args("test");
        addRunAxisOptions(args);
        const char *argv[] = {"test", "--deadline-sec", bad};
        std::ostringstream err;
        ASSERT_TRUE(args.parse(3, argv, err)) << err.str();
        ExperimentConfig cfg;
        EXPECT_SIM_ERROR(applyRunAxisOptions(args, cfg),
                         ErrorCategory::Config,
                         "--deadline-sec expects a finite, non-negative "
                         "number");
    }
}
