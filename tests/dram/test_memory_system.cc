/**
 * @file
 * Integration tests of the full timing engine: canIssue/issue semantics,
 * derived next commands, refresh, policies and bus statistics, and the
 * equivalence of the one-walk probe with the three walks it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "dram/memory_system.hh"

using namespace bsim;
using namespace bsim::dram;

namespace
{

DramConfig
smallConfig()
{
    DramConfig cfg;
    cfg.channels = 2;
    cfg.ranksPerChannel = 2;
    cfg.banksPerRank = 2;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = Timing::ddr2_800();
    cfg.timing.tREFI = 0;
    return cfg;
}

/** Advance until @p cmd can issue, then issue it. */
IssueResult
issueWhenReady(MemorySystem &mem, const Command &cmd, Tick &now)
{
    while (!mem.canIssue(cmd, now))
        ++now;
    return mem.issue(cmd, now);
}

} // namespace

TEST(MemorySystem, NextCmdDerivation)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    EXPECT_EQ(mem.nextCmdFor(c, AccessType::Read), CmdType::Activate);
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    EXPECT_EQ(mem.nextCmdFor(c, AccessType::Read), CmdType::Read);
    EXPECT_EQ(mem.nextCmdFor(c, AccessType::Write), CmdType::Write);
    Coords other = c;
    other.row = 9;
    EXPECT_EQ(mem.nextCmdFor(other, AccessType::Read), CmdType::Precharge);
}

TEST(MemorySystem, ReadDataTiming)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    const Tick rd_at = now + mem.timing().tRCD; // will be ready then
    Tick t = rd_at;
    const IssueResult r = issueWhenReady(mem, {CmdType::Read, c, 1}, t);
    EXPECT_EQ(r.dataStart, t + mem.timing().tCL);
    EXPECT_EQ(r.dataEnd, r.dataStart + mem.timing().dataCycles());
}

TEST(MemorySystem, WriteDataTiming)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick t = now;
    const IssueResult r = issueWhenReady(mem, {CmdType::Write, c, 1}, t);
    EXPECT_EQ(r.dataStart, t + mem.timing().tWL);
    EXPECT_EQ(r.dataEnd, r.dataStart + mem.timing().dataCycles());
}

TEST(MemorySystem, CommandBusSerializesPerChannel)
{
    MemorySystem mem(smallConfig());
    const Coords a{0, 0, 0, 1, 0};
    const Coords b{0, 0, 1, 1, 0}; // same channel, other bank
    Tick now = 0;
    mem.issue({CmdType::Activate, a, 1}, now);
    EXPECT_FALSE(mem.canIssue({CmdType::Activate, b, 2}, now));
    // Other channel is independent.
    const Coords c{1, 0, 0, 1, 0};
    EXPECT_TRUE(mem.canIssue({CmdType::Activate, c, 3}, now));
}

TEST(MemorySystem, SameCycleCommandsOnBothChannels)
{
    MemorySystem mem(smallConfig());
    mem.issue({CmdType::Activate, {0, 0, 0, 1, 0}, 1}, 0);
    mem.issue({CmdType::Activate, {1, 0, 0, 1, 0}, 2}, 0);
    EXPECT_EQ(mem.cmdBusyCycles(), 2u);
}

TEST(MemorySystem, BackToBackRowHitsSaturateDataBus)
{
    // The property burst scheduling exploits: row hits within a bank can
    // stream data back to back.
    MemorySystem mem(smallConfig());
    Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick first_start = 0, prev_end = 0;
    for (int i = 0; i < 4; ++i) {
        c.col = std::uint32_t(i);
        Tick t = now;
        const IssueResult r = issueWhenReady(mem, {CmdType::Read, c, 1}, t);
        if (i == 0) {
            first_start = r.dataStart;
        } else {
            EXPECT_EQ(r.dataStart, prev_end); // no bubbles
        }
        prev_end = r.dataEnd;
        now = t + 1;
    }
    EXPECT_EQ(prev_end - first_start, 4 * mem.timing().dataCycles());
}

TEST(MemorySystem, RankTurnaroundForcesGap)
{
    MemorySystem mem(smallConfig());
    const Coords a{0, 0, 0, 5, 0};
    const Coords b{0, 1, 0, 5, 0}; // other rank, same channel
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, a, 1}, now);
    ++now;
    issueWhenReady(mem, {CmdType::Activate, b, 2}, now);
    ++now;
    Tick t = now;
    const IssueResult ra = issueWhenReady(mem, {CmdType::Read, a, 1}, t);
    ++t;
    const IssueResult rb = issueWhenReady(mem, {CmdType::Read, b, 2}, t);
    EXPECT_GE(rb.dataStart, ra.dataEnd + mem.timing().tRTRS);
}

TEST(MemorySystem, RefreshAllBlocksRank)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    EXPECT_TRUE(mem.canIssue({CmdType::RefreshAll, c, 0}, now));
    mem.issue({CmdType::RefreshAll, c, 0}, now);
    EXPECT_FALSE(mem.canIssue({CmdType::Activate, c, 1},
                              now + mem.timing().tRFC - 1));
    EXPECT_TRUE(mem.canIssue({CmdType::Activate, c, 1},
                             now + mem.timing().tRFC));
}

TEST(MemorySystem, RefreshNeedsClosedBanks)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    EXPECT_FALSE(mem.canIssue({CmdType::RefreshAll, c, 0}, now + 1));
}

TEST(MemorySystem, ClosePagePolicyAutoprecharges)
{
    DramConfig cfg = smallConfig();
    cfg.pagePolicy = PagePolicy::ClosePageAuto;
    MemorySystem mem(cfg);
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick t = now;
    issueWhenReady(mem, {CmdType::Read, c, 1}, t);
    EXPECT_FALSE(mem.bank(c).isOpen());
    EXPECT_EQ(mem.classify(c), RowOutcome::Empty);
}

TEST(MemorySystem, BusUtilizationAccounting)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick t = now;
    issueWhenReady(mem, {CmdType::Read, c, 1}, t);
    EXPECT_EQ(mem.cmdBusyCycles(), 2u);
    EXPECT_EQ(mem.dataBusyCycles(), mem.timing().dataCycles());
    // Utilization normalizes over channels and elapsed time.
    EXPECT_DOUBLE_EQ(mem.addressBusUtilization(100), 2.0 / 200.0);
    EXPECT_DOUBLE_EQ(mem.dataBusUtilization(100),
                     double(mem.timing().dataCycles()) / 200.0);
    EXPECT_DOUBLE_EQ(mem.addressBusUtilization(0), 0.0);
}

TEST(MemorySystemDeath, IllegalIssuePanics)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    EXPECT_DEATH(mem.issue({CmdType::Read, c, 1}, 0), "illegal RD issue");
}

TEST(MemorySystem, WriteToReadTurnaroundAcrossBanks)
{
    // tWTR is rank-wide: a write in bank 0 delays a read in bank 1 of
    // the same rank.
    MemorySystem mem(smallConfig());
    const Coords w{0, 0, 0, 5, 0};
    const Coords r{0, 0, 1, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, w, 1}, now);
    ++now;
    issueWhenReady(mem, {CmdType::Activate, r, 2}, now);
    ++now;
    Tick t = now;
    const IssueResult wr = issueWhenReady(mem, {CmdType::Write, w, 1}, t);
    ++t;
    Tick rd_t = t;
    issueWhenReady(mem, {CmdType::Read, r, 2}, rd_t);
    EXPECT_GE(rd_t, wr.dataEnd + mem.timing().tWTR);
}

TEST(MemorySystemPredictive, StreamingKeepsRowsOpen)
{
    // Row hits train the predictor toward "stay open": a streaming
    // pattern must behave like open page.
    DramConfig cfg = smallConfig();
    cfg.pagePolicy = PagePolicy::Predictive;
    MemorySystem mem(cfg);
    Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    for (std::uint32_t i = 0; i < 6; ++i) {
        c.col = i;
        Tick t = now;
        issueWhenReady(mem, {CmdType::Read, c, 1}, t);
        now = t + 1;
        EXPECT_TRUE(mem.bank(c).isOpen()) << "access " << i;
    }
    EXPECT_DOUBLE_EQ(mem.predictedCloseRate(), 0.0);
}

TEST(MemorySystemPredictive, ConflictsTrainTowardClose)
{
    DramConfig cfg = smallConfig();
    cfg.pagePolicy = PagePolicy::Predictive;
    MemorySystem mem(cfg);
    Tick now = 0;
    // Alternate rows in one bank: every access conflicts.
    for (std::uint32_t i = 0; i < 8; ++i) {
        Coords c{0, 0, 0, 5 + (i % 2), 0};
        for (;;) {
            const CmdType cmd = mem.nextCmdFor(c, AccessType::Read);
            Tick t = now;
            issueWhenReady(mem, {cmd, c, i + 1}, t);
            now = t + 1;
            if (cmd == CmdType::Read)
                break;
        }
    }
    // After the conflicts, the predictor closes rows after access.
    EXPECT_GT(mem.predictedCloseRate(), 0.0);
    const Coords last{0, 0, 0, 5, 0};
    EXPECT_FALSE(mem.bank(last).isOpen())
        << "trained predictor should auto-precharge";
}

TEST(MemorySystemPredictive, StaticPoliciesReportZeroRate)
{
    MemorySystem mem(smallConfig());
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick t = now;
    issueWhenReady(mem, {CmdType::Read, c, 1}, t);
    EXPECT_DOUBLE_EQ(mem.predictedCloseRate(), 0.0);
}

namespace
{

/**
 * The three constraint walks MemorySystem::probe() replaced — one that
 * named the first binding cause, one that said when that cause expires
 * or flips, one that max-composed every deadline — rebuilt over the
 * device's public state as a test-only reference. Rank activate history
 * is private, so the reference shadows it from the commands it is told
 * about (note()).
 */
class ReferenceWalks
{
  public:
    explicit ReferenceWalks(const MemorySystem &mem)
        : mem_(mem),
          acts_(std::size_t(mem.config().channels) *
                mem.config().ranksPerChannel)
    {}

    /** Record an issued command (only activates move the shadow). */
    void
    note(const Command &cmd, Tick now)
    {
        if (cmd.type != CmdType::Activate)
            return;
        ActShadow &a = acts(cmd.at);
        a.last = now;
        a.any = true;
        a.window[a.pos] = now == 0 ? 1 : now;
        a.pos = (a.pos + 1) % a.window.size();
    }

    StallCause
    whyBlocked(const Command &cmd, Tick now) const
    {
        const Channel &ch = mem_.channel(cmd.at);
        if (!ch.cmdBusFree(now))
            return StallCause::TimingCmdBus;
        const Rank &r = mem_.rank(cmd.at);
        const Bank &b = mem_.bank(cmd.at);
        const Timing &t = mem_.timing();
        switch (cmd.type) {
          case CmdType::Precharge:
            if (!b.isOpen())
                return StallCause::WrongState;
            if (now < b.preAllowedAt())
                return b.preBlockCause();
            return StallCause::None;
          case CmdType::Activate:
            if (b.isOpen())
                return StallCause::WrongState;
            if (mem_.refreshDraining(cmd.at.channel, cmd.at.rank))
                return StallCause::RefreshDrain;
            if (now < b.actAllowedAt())
                return b.actBlockCause();
            return activateBlock(cmd.at, now);
          case CmdType::Read:
            if (!b.isOpen() || b.openRow() != cmd.at.row)
                return StallCause::WrongState;
            if (now < b.rdAllowedAt())
                return StallCause::TimingTRCD;
            if (!r.canRead(now))
                return StallCause::TimingTWTR;
            return dataStartBlock(ch, now + t.tCL, cmd.at.rank, false);
          case CmdType::Write:
            if (!b.isOpen() || b.openRow() != cmd.at.row)
                return StallCause::WrongState;
            if (now < b.wrAllowedAt())
                return StallCause::TimingTRCD;
            return dataStartBlock(ch, now + t.tWL, cmd.at.rank, true);
          case CmdType::RefreshAll:
            if (!r.allBanksClosed())
                return StallCause::WrongState;
            for (std::uint32_t i = 0; i < r.numBanks(); ++i)
                if (now < r.bank(i).actAllowedAt())
                    return r.bank(i).actBlockCause();
            return StallCause::None;
        }
        return StallCause::WrongState;
    }

    Tick
    blockedUntil(const Command &cmd, Tick now) const
    {
        const Channel &ch = mem_.channel(cmd.at);
        if (!ch.cmdBusFree(now))
            return ch.cmdBusFreeAt();
        const Rank &r = mem_.rank(cmd.at);
        const Bank &b = mem_.bank(cmd.at);
        const Timing &t = mem_.timing();
        switch (cmd.type) {
          case CmdType::Precharge:
            if (!b.isOpen())
                return kTickMax;
            return now < b.preAllowedAt() ? b.preAllowedAt() : now;
          case CmdType::Activate:
            if (b.isOpen() ||
                mem_.refreshDraining(cmd.at.channel, cmd.at.rank))
                return kTickMax;
            if (now < b.actAllowedAt())
                return b.actAllowedAt();
            return activateBlockedUntil(cmd.at, now);
          case CmdType::Read:
          case CmdType::Write: {
            const bool wr = cmd.type == CmdType::Write;
            if (!b.isOpen() || b.openRow() != cmd.at.row)
                return kTickMax;
            const Tick gate = wr ? b.wrAllowedAt() : b.rdAllowedAt();
            if (now < gate)
                return gate;
            if (!wr && !r.canRead(now))
                return r.readAllowedAt();
            const Tick lead = wr ? t.tWL : t.tCL;
            if (dataStartBlock(ch, now + lead, cmd.at.rank, wr) ==
                StallCause::None)
                return now;
            const Tick expiry =
                ch.earliestDataStart(cmd.at.rank, wr, t) - lead;
            const Tick flip = ch.dataBusFreeAt() - lead;
            return flip > now && flip < expiry ? flip : expiry;
          }
          case CmdType::RefreshAll:
            if (!r.allBanksClosed())
                return kTickMax;
            for (std::uint32_t i = 0; i < r.numBanks(); ++i)
                if (now < r.bank(i).actAllowedAt())
                    return r.bank(i).actAllowedAt();
            return now;
        }
        return kTickMax;
    }

    Tick
    readyAt(const Command &cmd, Tick now) const
    {
        const Channel &ch = mem_.channel(cmd.at);
        const Rank &r = mem_.rank(cmd.at);
        const Bank &b = mem_.bank(cmd.at);
        const Timing &t = mem_.timing();
        Tick ready = std::max(now, ch.cmdBusFreeAt());
        switch (cmd.type) {
          case CmdType::Precharge:
            return b.isOpen() ? std::max(ready, b.preAllowedAt())
                              : kTickMax;
          case CmdType::Activate: {
            if (b.isOpen() ||
                mem_.refreshDraining(cmd.at.channel, cmd.at.rank))
                return kTickMax;
            ready = std::max(ready, b.actAllowedAt());
            const ActShadow &a = acts(cmd.at);
            if (a.any && t.tRRD)
                ready = std::max(ready, a.last + t.tRRD);
            if (t.tFAW && a.window[a.pos] != 0)
                ready = std::max(ready, a.window[a.pos] + t.tFAW);
            return ready;
          }
          case CmdType::Read:
          case CmdType::Write: {
            const bool wr = cmd.type == CmdType::Write;
            if (!b.isOpen() || b.openRow() != cmd.at.row)
                return kTickMax;
            ready = std::max(ready, wr ? b.wrAllowedAt() : b.rdAllowedAt());
            if (!wr)
                ready = std::max(ready, r.readAllowedAt());
            const Tick lead = wr ? t.tWL : t.tCL;
            const Tick eds = ch.earliestDataStart(cmd.at.rank, wr, t);
            return eds > ready + lead ? eds - lead : ready;
          }
          case CmdType::RefreshAll:
            if (!r.allBanksClosed())
                return kTickMax;
            for (std::uint32_t i = 0; i < r.numBanks(); ++i)
                ready = std::max(ready, r.bank(i).actAllowedAt());
            return ready;
        }
        return kTickMax;
    }

  private:
    struct ActShadow
    {
        std::array<Tick, 4> window{};
        std::size_t pos = 0;
        Tick last = 0;
        bool any = false;
    };

    ActShadow &
    acts(const Coords &c)
    {
        return acts_[c.channel * mem_.config().ranksPerChannel + c.rank];
    }
    const ActShadow &
    acts(const Coords &c) const
    {
        return acts_[c.channel * mem_.config().ranksPerChannel + c.rank];
    }

    StallCause
    activateBlock(const Coords &c, Tick now) const
    {
        const ActShadow &a = acts(c);
        const Timing &t = mem_.timing();
        if (a.any && t.tRRD && now < a.last + t.tRRD)
            return StallCause::TimingTRRD;
        if (t.tFAW && a.window[a.pos] != 0 &&
            now < a.window[a.pos] + t.tFAW)
            return StallCause::TimingTFAW;
        return StallCause::None;
    }

    Tick
    activateBlockedUntil(const Coords &c, Tick now) const
    {
        const ActShadow &a = acts(c);
        const Timing &t = mem_.timing();
        if (a.any && t.tRRD && now < a.last + t.tRRD)
            return a.last + t.tRRD;
        if (t.tFAW && a.window[a.pos] != 0 &&
            now < a.window[a.pos] + t.tFAW)
            return a.window[a.pos] + t.tFAW;
        return now;
    }

    StallCause
    dataStartBlock(const Channel &ch, Tick want_by, std::uint32_t rank,
                   bool is_write) const
    {
        if (ch.earliestDataStart(rank, is_write, mem_.timing()) <= want_by)
            return StallCause::None;
        return ch.dataBusFreeAt() > want_by ? StallCause::TimingDataBus
                                            : StallCause::TimingTurnaround;
    }

    const MemorySystem &mem_;
    std::vector<ActShadow> acts_;
};

struct ProbeOrg
{
    const char *name;
    std::uint32_t channels;
    std::uint32_t ranks;
    PagePolicy policy;
};

/**
 * Replay a random legal command stream on @p timing / @p org. At every
 * tick, for every bank and every command type (the open row and another
 * row for column accesses), probe() must equal the reference walks on
 * all three fields. The stream also checks the epoch contract the skip
 * engine's caches rest on: while a channel's epoch() holds, a command's
 * readyAt at a later tick is its first readyAt under that epoch floored
 * at the tick, and a command or a drain toggle bumps only its own
 * channel's epoch. Returns the causes seen, for coverage.
 */
std::set<StallCause>
replayAgainstReference(const Timing &timing, const ProbeOrg &org,
                       std::uint64_t seed)
{
    DramConfig cfg;
    cfg.channels = org.channels;
    cfg.ranksPerChannel = org.ranks;
    cfg.banksPerRank = 8;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = timing;
    cfg.timing.tREFI = 0;
    cfg.pagePolicy = org.policy;
    MemorySystem mem(cfg);
    ReferenceWalks ref(mem);
    Rng rng(seed);
    std::set<StallCause> seen;

    std::uint64_t id = 1;
    std::vector<Command> legal;
    // First probe of each (type, channel, rank, bank, row) under the
    // channel's current epoch.
    struct Snapshot
    {
        std::uint64_t epoch;
        Tick at;
        Tick readyAt;
    };
    std::map<std::tuple<CmdType, std::uint32_t, std::uint32_t,
                        std::uint32_t, std::uint32_t>,
             Snapshot>
        first;
    const auto epochs = [&] {
        std::vector<std::uint64_t> e;
        for (std::uint32_t ch = 0; ch < org.channels; ++ch)
            e.push_back(mem.epoch(ch));
        return e;
    };
    const auto expectOnlyBumped = [&](const std::vector<std::uint64_t> &
                                          before,
                                      std::uint32_t bumped, Tick now) {
        for (std::uint32_t ch = 0; ch < org.channels; ++ch) {
            if (ch == bumped) {
                EXPECT_GT(mem.epoch(ch), before[ch]) << "at " << now;
            } else {
                EXPECT_EQ(mem.epoch(ch), before[ch])
                    << "ch" << ch << " moved by ch" << bumped << " at "
                    << now;
            }
        }
    };
    const auto probeAll = [&](Tick now) {
        legal.clear();
        for (std::uint32_t ch = 0; ch < org.channels; ++ch)
            for (std::uint32_t r = 0; r < org.ranks; ++r)
                for (std::uint32_t b = 0; b < cfg.banksPerRank; ++b) {
                    Coords c{ch, r, b, 0, 0};
                    const Bank &bank = mem.bank(c);
                    const std::uint32_t rows[] = {
                        bank.isOpen() ? bank.openRow() : 0,
                        std::uint32_t(rng.below(4))};
                    for (CmdType type :
                         {CmdType::Precharge, CmdType::Activate,
                          CmdType::Read, CmdType::Write,
                          CmdType::RefreshAll})
                        for (std::uint32_t row : rows) {
                            c.row = row;
                            const Command cmd{type, c, id};
                            const Probe p = mem.probe(cmd, now);
                            const StallCause want =
                                ref.whyBlocked(cmd, now);
                            EXPECT_EQ(p.cause, want)
                                << cmdName(type) << " at " << now;
                            EXPECT_EQ(p.causeUntil,
                                      ref.blockedUntil(cmd, now))
                                << cmdName(type) << " at " << now;
                            EXPECT_EQ(p.readyAt, ref.readyAt(cmd, now))
                                << cmdName(type) << " at " << now;
                            EXPECT_EQ(mem.canIssue(cmd, now),
                                      want == StallCause::None);
                            const Snapshot fresh{mem.epoch(ch), now,
                                                 p.readyAt};
                            Snapshot &s =
                                first.try_emplace({type, ch, r, b, row},
                                                  fresh)
                                    .first->second;
                            if (s.epoch != fresh.epoch)
                                s = fresh;
                            EXPECT_EQ(p.readyAt, std::max(now, s.readyAt))
                                << cmdName(type) << " at " << now
                                << " vs " << s.at;
                            seen.insert(want);
                            if (want == StallCause::None)
                                legal.push_back(cmd);
                        }
                }
    };
    for (Tick now = 0; now < 4000 && !testing::Test::HasFailure(); ++now) {
        // Toggle refresh drain gates now and then (the controller's job
        // in a real run) so the RefreshDrain state gate is exercised.
        if (rng.chance(0.01)) {
            const std::uint32_t ch = std::uint32_t(rng.below(org.channels));
            const std::uint32_t r = std::uint32_t(rng.below(org.ranks));
            const auto before = epochs();
            mem.setRefreshDrain(ch, r, !mem.refreshDraining(ch, r));
            expectOnlyBumped(before, ch, now);
        }
        probeAll(now);
        // Issue most ticks, preferring column accesses (data bus and
        // turnaround contention) and activates (tRRD / tFAW windows).
        if (legal.empty() || !rng.chance(0.8))
            continue;
        std::vector<Command> pool;
        const CmdType prefer =
            rng.chance(0.5) ? CmdType::Activate : CmdType::Read;
        for (const Command &cmd : legal)
            if (cmd.type == prefer ||
                (prefer == CmdType::Read && cmd.type == CmdType::Write))
                pool.push_back(cmd);
        if (pool.empty())
            pool = legal;
        const Command cmd = pool[rng.below(pool.size())];
        ref.note(cmd, now);
        const auto before = epochs();
        mem.issue(cmd, now);
        expectOnlyBumped(before, cmd.at.channel, now);
        id += 1;
        probeAll(now); // the command bus is now taken for this tick
    }
    return seen;
}

} // namespace

TEST(MemorySystemProbe, EqualsReferenceWalksOnRandomLegalStreams)
{
    const ProbeOrg orgs[] = {
        {"1ch-1rank", 1, 1, PagePolicy::OpenPage},
        {"2ch-2rank", 2, 2, PagePolicy::OpenPage},
        {"1ch-2rank-cpa", 1, 2, PagePolicy::ClosePageAuto},
    };
    std::set<StallCause> seen;
    std::uint64_t seed = 1;
    for (const Timing &t :
         {Timing::ddr2_800(), Timing::ddr_266(), Timing::figure1Example()})
        for (const ProbeOrg &org : orgs) {
            SCOPED_TRACE(t.name + " / " + org.name);
            const auto s = replayAgainstReference(t, org, seed++);
            seen.insert(s.begin(), s.end());
            ASSERT_FALSE(HasFailure());
        }
    // The streams must reach every cause the walk can report, or the
    // equivalence above proves less than it claims.
    for (StallCause c :
         {StallCause::None, StallCause::TimingCmdBus,
          StallCause::WrongState, StallCause::RefreshDrain,
          StallCause::TimingTRCD, StallCause::TimingTRP,
          StallCause::TimingTRC, StallCause::TimingTRAS,
          StallCause::TimingTWR, StallCause::TimingTRTP,
          StallCause::TimingTRRD, StallCause::TimingTFAW,
          StallCause::TimingTWTR, StallCause::TimingTurnaround,
          StallCause::TimingDataBus})
        EXPECT_TRUE(seen.count(c)) << "never saw " << stallCauseName(c);
}

TEST(MemorySystemProbe, DataBusCauseFlipsToTurnaround)
{
    // Rank 0 streams a read burst; a read to rank 1 first waits on the
    // busy bus, then only on the tRTRS gap: one probe reports the flip.
    MemorySystem mem(smallConfig());
    const Coords a{0, 0, 0, 5, 0};
    const Coords b{0, 1, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, a, 1}, now);
    ++now;
    issueWhenReady(mem, {CmdType::Activate, b, 2}, now);
    now += 20; // both rows open, every window past
    const IssueResult ra = mem.issue({CmdType::Read, a, 1}, now);
    const Timing &t = mem.timing();
    const Probe p = mem.probe({CmdType::Read, b, 2}, now + 1);
    EXPECT_EQ(p.cause, StallCause::TimingDataBus);
    EXPECT_EQ(p.causeUntil, ra.dataEnd - t.tCL);
    EXPECT_EQ(p.readyAt, ra.dataEnd + t.tRTRS - t.tCL);
    const Probe q = mem.probe({CmdType::Read, b, 2}, p.causeUntil);
    EXPECT_EQ(q.cause, StallCause::TimingTurnaround);
    EXPECT_EQ(q.causeUntil, p.readyAt);
    EXPECT_EQ(q.readyAt, p.readyAt);
    EXPECT_TRUE(mem.canIssue({CmdType::Read, b, 2}, p.readyAt));
}
