#include "campaign/shard.hh"

#include <cstdio>
#include <fstream>
#include <set>

#include <sys/stat.h>

#include "common/error.hh"
#include "sim/sweep.hh"

namespace bsim::campaign
{

namespace
{

std::string
shardFile(const std::string &dir, unsigned shard, const char *suffix)
{
    char name[64];
    std::snprintf(name, sizeof(name), "/shard-%03u.%s", shard, suffix);
    return dir + name;
}

} // namespace

std::string
CampaignLayout::shardJournal(unsigned shard) const
{
    return shardFile(dir, shard, "journal");
}

std::string
CampaignLayout::shardProgress(unsigned shard) const
{
    return shardFile(dir, shard, "progress");
}

std::string
CampaignLayout::shardLog(unsigned shard) const
{
    return shardFile(dir, shard, "log");
}

std::string
CampaignLayout::poisonList() const
{
    return dir + "/poison.list";
}

std::vector<std::string>
verifyJournals(std::vector<std::string> named, const std::string &dir,
               unsigned shards)
{
    if (!dir.empty()) {
        const CampaignLayout layout(dir);
        for (unsigned s = 0; s < shards; ++s)
            named.push_back(layout.shardJournal(s));
    }
    if (named.empty())
        throwSimError(ErrorCategory::Config,
                      "verify: name journal files or give --dir/--shards");
    return named;
}

std::vector<ShardPlan>
planShards(std::size_t points, unsigned shards,
           const std::vector<unsigned> &only)
{
    if (points == 0)
        throwSimError(ErrorCategory::Config,
                      "campaign has no points to run");
    if (shards == 0)
        throwSimError(ErrorCategory::Config,
                      "shard count must be positive");
    if (std::size_t(shards) > points)
        throwSimError(ErrorCategory::Config,
                      "shard count %u exceeds point count %zu — every "
                      "shard must own at least one point",
                      shards, points);

    std::vector<unsigned> ids;
    if (only.empty()) {
        for (unsigned s = 0; s < shards; ++s)
            ids.push_back(s);
    } else {
        std::set<unsigned> seen;
        for (const unsigned s : only) {
            if (s >= shards)
                throwSimError(ErrorCategory::Config,
                              "shard id %u out of range (%u shards)", s,
                              shards);
            if (!seen.insert(s).second)
                throwSimError(ErrorCategory::Config,
                              "duplicate shard id %u — two workers "
                              "would race on one journal",
                              s);
        }
        ids.assign(seen.begin(), seen.end());
    }

    std::vector<ShardPlan> plans;
    plans.reserve(ids.size());
    for (const unsigned s : ids) {
        ShardPlan plan;
        plan.id = s;
        plan.slots = sim::shardSlots(points, shards, s);
        plans.push_back(std::move(plan));
    }
    return plans;
}

void
ensureCampaignDir(const std::string &dir)
{
    if (dir.empty())
        throwSimError(ErrorCategory::Config,
                      "campaign directory must be given (--dir)");
    ::mkdir(dir.c_str(), 0755); // EEXIST is fine; probe decides below
    const std::string probe = dir + "/.probe";
    {
        std::ofstream os(probe);
        if (!os)
            throwSimError(ErrorCategory::Resource,
                          "campaign directory '%s' is not writable",
                          dir.c_str());
    }
    std::remove(probe.c_str());
}

} // namespace bsim::campaign
