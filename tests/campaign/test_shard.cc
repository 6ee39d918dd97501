/**
 * @file
 * Campaign shard layout tests: directory path schema, the contiguous
 * balanced partition plan, --only-shards subsetting, and the fail-fast
 * validation that runs before any worker is forked.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/shard.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::campaign;

namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

} // namespace

TEST(CampaignLayout, PathSchemaIsStable)
{
    const CampaignLayout layout("/camp");
    EXPECT_EQ(layout.shardJournal(0), "/camp/shard-000.journal");
    EXPECT_EQ(layout.shardProgress(7), "/camp/shard-007.progress");
    EXPECT_EQ(layout.shardLog(123), "/camp/shard-123.log");
    EXPECT_EQ(layout.poisonList(), "/camp/poison.list");
}

TEST(PlanShards, FullPlanCoversEveryPointOnce)
{
    const auto plans = planShards(10, 3);
    ASSERT_EQ(plans.size(), 3u);
    std::size_t next = 0;
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(plans[s].id, s);
        for (const std::size_t slot : plans[s].slots)
            EXPECT_EQ(slot, next++);
    }
    EXPECT_EQ(next, 10u);
    // Balanced: 4 + 3 + 3.
    EXPECT_EQ(plans[0].slots.size(), 4u);
    EXPECT_EQ(plans[1].slots.size(), 3u);
    EXPECT_EQ(plans[2].slots.size(), 3u);
}

TEST(PlanShards, OnlySubsetPlansJustThoseShards)
{
    const auto plans = planShards(10, 4, {2, 0});
    ASSERT_EQ(plans.size(), 2u);
    // Returned in id order regardless of the argument order.
    EXPECT_EQ(plans[0].id, 0u);
    EXPECT_EQ(plans[1].id, 2u);
    // Each shard's slots equal the full plan's slice for that id.
    const auto full = planShards(10, 4);
    EXPECT_EQ(plans[0].slots, full[0].slots);
    EXPECT_EQ(plans[1].slots, full[2].slots);
}

TEST(PlanShards, FailFastOnBadGeometry)
{
    EXPECT_SIM_ERROR(planShards(0, 1), ErrorCategory::Config,
                     "no points");
    EXPECT_SIM_ERROR(planShards(10, 0), ErrorCategory::Config,
                     "shard count");
    // More shards than points: some worker would own nothing.
    EXPECT_SIM_ERROR(planShards(3, 4), ErrorCategory::Config,
                     "exceeds point count");
    EXPECT_SIM_ERROR(planShards(10, 4, {4}), ErrorCategory::Config,
                     "out of range");
    // Duplicate ids would fork two workers onto one journal.
    EXPECT_SIM_ERROR(planShards(10, 4, {1, 1}), ErrorCategory::Config,
                     "duplicate shard id");
}

TEST(EnsureCampaignDir, CreatesDirectoryAndProbesWritability)
{
    const std::string dir = tempPath("campdir_new");
    std::remove(dir.c_str());
    ensureCampaignDir(dir);
    // Directory exists and is writable now.
    std::ofstream probe(dir + "/x");
    EXPECT_TRUE(probe.good());
    probe.close();
    std::remove((dir + "/x").c_str());
    // Idempotent on an existing directory.
    ensureCampaignDir(dir);
}

TEST(EnsureCampaignDir, FailsFastWhenUnwritable)
{
    EXPECT_SIM_ERROR(ensureCampaignDir(""), ErrorCategory::Config,
                     "--dir");
    // A path under a regular file can never become a directory.
    const std::string file = tempPath("campdir_file");
    std::ofstream(file) << "x";
    EXPECT_SIM_ERROR(ensureCampaignDir(file + "/sub"),
                     ErrorCategory::Resource, "not writable");
    std::remove(file.c_str());
}

TEST(CampaignVerify, JournalsAreNamedThenShardsOfDir)
{
    EXPECT_EQ(verifyJournals({"a.journal"}, "/camp", 2),
              (std::vector<std::string>{"a.journal",
                                        "/camp/shard-000.journal",
                                        "/camp/shard-001.journal"}));
    EXPECT_EQ(verifyJournals({"a.journal"}, "", 4),
              std::vector<std::string>{"a.journal"});
}

TEST(CampaignVerify, NoJournalIsConfigError)
{
    EXPECT_SIM_ERROR(verifyJournals({}, "", 4), ErrorCategory::Config,
                     "verify: name journal files or give --dir/--shards");
    EXPECT_SIM_ERROR(verifyJournals({}, "/camp", 0), ErrorCategory::Config,
                     "name journal files");
}
