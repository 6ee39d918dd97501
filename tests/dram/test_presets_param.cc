/**
 * @file
 * Property tests parameterized over both device generations (DDR2-800
 * and DDR-266): every core timing rule must hold for any preset, not
 * just the baseline.
 */

#include <gtest/gtest.h>

#include "dram/memory_system.hh"

using namespace bsim;
using namespace bsim::dram;

namespace
{

DramConfig
configFor(const Timing &t)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.ranksPerChannel = 2;
    cfg.banksPerRank = 2;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = t;
    cfg.timing.tREFI = 0;
    return cfg;
}

IssueResult
issueWhenReady(MemorySystem &mem, const Command &cmd, Tick &now)
{
    while (!mem.canIssue(cmd, now))
        ++now;
    return mem.issue(cmd, now);
}

} // namespace

namespace bsim::dram
{

// Print a preset by name. gtest's default byte dump would include the
// heap address held by `name`, which changes from run to run and so
// would make the discovered test names unstable.
void
PrintTo(const Timing &t, std::ostream *os)
{
    *os << t.name;
}

} // namespace bsim::dram

class PresetParam : public testing::TestWithParam<Timing>
{
  protected:
    Timing timing() const { return GetParam(); }
};

TEST_P(PresetParam, RowHitLatencyIsTcl)
{
    MemorySystem mem(configFor(timing()));
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    now += 100; // quiesce
    Tick t = now;
    const IssueResult r = issueWhenReady(mem, {CmdType::Read, c, 1}, t);
    EXPECT_EQ(t, now) << "row hit must issue immediately on idle device";
    EXPECT_EQ(r.dataStart - t, timing().tCL);
}

TEST_P(PresetParam, RowEmptyLatencyIsTrcdPlusTcl)
{
    MemorySystem mem(configFor(timing()));
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    Tick t = now + 1;
    const IssueResult r = issueWhenReady(mem, {CmdType::Read, c, 1}, t);
    EXPECT_EQ(r.dataStart - now, timing().tRCD + timing().tCL);
}

TEST_P(PresetParam, RowConflictPaysFullPenalty)
{
    MemorySystem mem(configFor(timing()));
    Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    now += 200; // let tRAS/tRC settle
    const Tick start = now;
    Coords other = c;
    other.row = 9;
    issueWhenReady(mem, {CmdType::Precharge, other, 2}, now);
    ++now;
    issueWhenReady(mem, {CmdType::Activate, other, 2}, now);
    ++now;
    Tick t = now;
    const IssueResult r =
        issueWhenReady(mem, {CmdType::Read, other, 2}, t);
    EXPECT_EQ(r.dataStart - start,
              timing().tRP + timing().tRCD + timing().tCL);
}

TEST_P(PresetParam, BackToBackRowHitsHaveNoBubbles)
{
    MemorySystem mem(configFor(timing()));
    Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick prev_end = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        c.col = i;
        Tick t = now;
        const IssueResult r = issueWhenReady(mem, {CmdType::Read, c, 1}, t);
        if (i) {
            EXPECT_EQ(r.dataStart, prev_end);
        }
        prev_end = r.dataEnd;
        now = t + 1;
    }
}

TEST_P(PresetParam, WriteDataUsesWriteLatency)
{
    MemorySystem mem(configFor(timing()));
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    ++now;
    Tick t = now;
    const IssueResult r = issueWhenReady(mem, {CmdType::Write, c, 1}, t);
    EXPECT_EQ(r.dataStart - t, timing().tWL);
    EXPECT_EQ(r.dataEnd - r.dataStart, timing().dataCycles());
}

TEST_P(PresetParam, WriteToReadTurnaroundEnforced)
{
    MemorySystem mem(configFor(timing()));
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
    EXPECT_GE(rd_t, wr.dataEnd + timing().tWTR);
}

TEST_P(PresetParam, ActivateToActivateSameBankNeedsTrc)
{
    MemorySystem mem(configFor(timing()));
    const Coords c{0, 0, 0, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, now);
    const Tick first_act = now;
    Tick t = now + timing().tRAS; // earliest precharge
    issueWhenReady(mem, {CmdType::Precharge, c, 1}, t);
    ++t;
    Tick act2 = t;
    issueWhenReady(mem, {CmdType::Activate, c, 1}, act2);
    EXPECT_GE(act2 - first_act, Tick(timing().tRC));
    EXPECT_GE(act2 - first_act, Tick(timing().tRAS + timing().tRP));
}

TEST_P(PresetParam, DataBusNeverDoubleBooked)
{
    MemorySystem mem(configFor(timing()));
    // Alternate reads between two banks as fast as legal; engine panics
    // internally if data windows ever overlap.
    Coords a{0, 0, 0, 5, 0}, b{0, 0, 1, 5, 0};
    Tick now = 0;
    issueWhenReady(mem, {CmdType::Activate, a, 1}, now);
    ++now;
    issueWhenReady(mem, {CmdType::Activate, b, 2}, now);
    ++now;
    Tick prev_end = 0;
    for (int i = 0; i < 8; ++i) {
        Coords &c = i % 2 ? b : a;
        c.col = std::uint32_t(i);
        Tick t = now;
        const IssueResult r =
            issueWhenReady(mem, {CmdType::Read, c, 1}, t);
        EXPECT_GE(r.dataStart, prev_end);
        prev_end = r.dataEnd;
        now = t + 1;
    }
}

INSTANTIATE_TEST_SUITE_P(Devices, PresetParam,
                         testing::Values(Timing::ddr2_800(),
                                         Timing::ddr_266()),
                         [](const auto &info) {
                             return info.param.tCL == 5 ? "DDR2_800"
                                                        : "DDR_266";
                         });
