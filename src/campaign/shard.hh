/**
 * @file
 * Campaign shard layout: how a sweep's point space is partitioned into
 * per-process shards, and where each shard's on-disk state lives.
 *
 * A campaign directory holds everything a campaign needs to survive
 * the death of any process, including the supervisor itself:
 *
 *   <dir>/shard-NNN.journal   v3 sweep journal (completed points)
 *   <dir>/shard-NNN.progress  SweepProgress JSONL (liveness channel)
 *   <dir>/shard-NNN.log       worker stdout+stderr (appended across
 *                             incarnations)
 *   <dir>/poison.list         per-point crash strikes + quarantine
 *
 * Shards are contiguous, balanced slot ranges (sim::shardSlots), so a
 * shard maps to an easily described sub-range of the campaign's
 * deterministic point order.
 */

#ifndef BURSTSIM_CAMPAIGN_SHARD_HH
#define BURSTSIM_CAMPAIGN_SHARD_HH

#include <cstddef>
#include <string>
#include <vector>

namespace bsim::campaign
{

/** Path schema of one campaign directory. */
struct CampaignLayout
{
    std::string dir;

    explicit CampaignLayout(std::string d = "") : dir(std::move(d)) {}

    std::string shardJournal(unsigned shard) const;
    std::string shardProgress(unsigned shard) const;
    std::string shardLog(unsigned shard) const;
    std::string poisonList() const;
};

/** One shard's slice of the campaign's point space. */
struct ShardPlan
{
    unsigned id = 0;
    std::vector<std::size_t> slots; //!< global point indices, ascending
};

/**
 * Partition @p points slots into @p shards contiguous balanced shards
 * (see sim::shardSlots). When @p only is non-empty, just those shard
 * ids are planned (distributing a campaign across hosts); the ids must
 * be in range and unique. Throws SimError(Config) on an empty point
 * set, shards == 0, shards > points, duplicate or out-of-range ids.
 */
std::vector<ShardPlan> planShards(std::size_t points, unsigned shards,
                                  const std::vector<unsigned> &only = {});

/**
 * Fail-fast directory check: create @p dir if missing and prove it is
 * writable by creating and removing a probe file. Throws
 * SimError(Resource) before any fork when the campaign could not
 * journal a single point.
 */
void ensureCampaignDir(const std::string &dir);

/**
 * The journals `verify` scans: @p named, then the journal of each of
 * @p shards shards of @p dir when @p dir is not empty. Throws
 * SimError(Config) when that leaves none to scan.
 */
std::vector<std::string> verifyJournals(std::vector<std::string> named,
                                        const std::string &dir,
                                        unsigned shards);

} // namespace bsim::campaign

#endif // BURSTSIM_CAMPAIGN_SHARD_HH
