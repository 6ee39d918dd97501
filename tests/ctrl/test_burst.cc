/**
 * @file
 * Burst scheduler tests — the paper's mechanism (Section 3): burst
 * formation and joining (Figure 4), the bank arbiter with read
 * preemption and write piggybacking (Figure 5), and the Table 2
 * transaction priorities (Figure 6).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ctrl/schedulers/burst.hh"
#include "sched_test_util.hh"

using namespace bsim;
using schedtest::Harness;

namespace
{

ctrl::SchedulerParams
thParams(std::size_t threshold, std::size_t cap = 64)
{
    ctrl::SchedulerParams p;
    p.threshold = threshold;
    p.writeCap = cap;
    return p;
}

const ctrl::BurstScheduler &
burstOf(Harness &h)
{
    return static_cast<const ctrl::BurstScheduler &>(h.sched());
}

} // namespace

TEST(Burst, SameRowReadsFormOneBurst)
{
    Harness h(ctrl::Mechanism::Burst);
    h.add(AccessType::Read, 0, 0, 1, 0, 0);
    h.add(AccessType::Read, 0, 0, 1, 1, 1);
    h.add(AccessType::Read, 0, 0, 1, 2, 2);
    const auto &bursts = burstOf(h).burstsOfBank(0);
    ASSERT_EQ(bursts.size(), 1u);
    EXPECT_EQ(bursts.front().reads.size(), 3u);
    EXPECT_EQ(bursts.front().row, 1u);
}

TEST(Burst, DifferentRowsFormSeparateBursts)
{
    Harness h(ctrl::Mechanism::Burst);
    h.add(AccessType::Read, 0, 0, 1, 0, 0);
    h.add(AccessType::Read, 0, 0, 2, 0, 1);
    h.add(AccessType::Read, 0, 0, 1, 1, 2); // joins the first burst
    const auto &bursts = burstOf(h).burstsOfBank(0);
    ASSERT_EQ(bursts.size(), 2u);
    EXPECT_EQ(bursts[0].reads.size(), 2u);
    EXPECT_EQ(bursts[1].reads.size(), 1u);
}

TEST(Burst, BurstsOrderedByFirstArrival)
{
    // A growing burst must not starve an older single-access burst in
    // the same bank: bursts are served in order of their first access.
    Harness h(ctrl::Mechanism::Burst);
    auto *old_single = h.add(AccessType::Read, 0, 0, 5, 0, 0);
    auto *b1 = h.add(AccessType::Read, 0, 0, 7, 0, 1);
    auto *b2 = h.add(AccessType::Read, 0, 0, 7, 1, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], old_single);
    EXPECT_EQ(order[1], b1);
    EXPECT_EQ(order[2], b2);
}

TEST(Burst, BurstRowHitsScheduleBackToBack)
{
    // The design goal (Section 3): within a burst every access after the
    // first is a row hit and data transfers run back to back.
    Harness h(ctrl::Mechanism::Burst);
    for (std::uint32_t i = 0; i < 4; ++i)
        h.add(AccessType::Read, 0, 0, 1, i, i);
    Tick now = 0;
    std::vector<Tick> data_start, data_end;
    while (h.sched().hasWork()) {
        auto issued = h.tick(now);
        if (issued.columnAccess) {
            data_end.push_back(issued.dataEnd);
            data_start.push_back(issued.dataEnd -
                                 h.mem().timing().dataCycles());
        }
        ++now;
    }
    ASSERT_EQ(data_end.size(), 4u);
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(data_start[i], data_end[i - 1]) << "bubble before " << i;
}

TEST(Burst, NewReadJoinsBurstBeingScheduled)
{
    Harness h(ctrl::Mechanism::Burst);
    h.add(AccessType::Read, 0, 0, 1, 0, 0);
    h.add(AccessType::Read, 0, 0, 1, 1, 0);
    Tick now = 0;
    // Start servicing: activate + first column.
    while (true) {
        auto issued = h.tick(now++);
        if (issued.columnAccess)
            break;
    }
    // The burst is mid-flight; a same-row read must join it and be
    // serviced as a row hit, before any new-row burst.
    auto *late_join = h.add(AccessType::Read, 0, 0, 1, 2, now);
    auto *other_row = h.add(AccessType::Read, 0, 0, 9, 0, now);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], late_join);
    EXPECT_EQ(order[2], other_row);
}

TEST(Burst, InterleavesBurstsAcrossBanks)
{
    // Bursts from different banks are interleaved so one bank's long
    // burst cannot monopolize the channel (Section 3, Table 2 gives
    // same-rank other-bank column accesses priority 2).
    Harness h(ctrl::Mechanism::Burst);
    std::vector<ctrl::MemAccess *> bank0, bank1;
    for (std::uint32_t i = 0; i < 3; ++i)
        bank0.push_back(h.add(AccessType::Read, 0, 0, 1, i, i));
    for (std::uint32_t i = 0; i < 3; ++i)
        bank1.push_back(h.add(AccessType::Read, 0, 1, 1, i, i));
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 6u);
    // Not fully serialized: some bank1 access completes before the last
    // bank0 access.
    std::size_t last_b0 = 0, first_b1 = order.size();
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] == bank0[2])
            last_b0 = i;
        if (order[i] == bank1[0])
            first_b1 = std::min(first_b1, i);
    }
    EXPECT_LT(first_b1, last_b0);
}

TEST(Burst, WritesWaitWhileReadsOutstanding)
{
    Harness h(ctrl::Mechanism::Burst);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    auto *r = h.add(AccessType::Read, 0, 1, 2, 0, 1);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], r);
    EXPECT_EQ(order[1], w);
}

TEST(Burst, FullWriteQueueForcesWriteService)
{
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(),
              thParams(52, /*cap*/ 2));
    auto *w0 = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    auto *w1 = h.add(AccessType::Write, 0, 0, 1, 1, 1);
    h.add(AccessType::Read, 0, 1, 2, 0, 2);
    // Global write count == cap (2): Figure 5 line 2 applies; the
    // oldest write must be selected even though a read is outstanding.
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_TRUE(order[0] == w0 || order[1] == w0);
    (void)w1;
}

TEST(BurstRP, ReadPreemptsOngoingWrite)
{
    Harness h(ctrl::Mechanism::BurstRP);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    Tick now = 0;
    h.tick(now++); // activate for the write; write is ongoing
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], r);
    EXPECT_EQ(order[1], w);
    EXPECT_GE(h.sched().extraStats().at("preemptions"), 1.0);
}

TEST(BurstRP, PreemptedWriteSeesRowEmptyAfterPrecharge)
{
    // Section 5.2: an ongoing write interrupted after its precharge but
    // before its activate leaves the bank closed — the preempting read
    // becomes a row empty.
    Harness h(ctrl::Mechanism::BurstRP);
    // Open a row so the write needs a precharge first.
    auto *opener = h.add(AccessType::Read, 0, 0, 5, 0, 0);
    Tick now = 0;
    while (h.sched().hasWork())
        h.tick(now++);
    (void)opener;
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, now);
    // Service the write up to its precharge.
    while (true) {
        auto issued = h.tick(now++);
        if (issued.access == w && issued.cmd == dram::CmdType::Precharge)
            break;
    }
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    while (h.sched().hasWork())
        h.tick(now++);
    ASSERT_TRUE(r->outcomeValid);
    EXPECT_EQ(r->outcome, dram::RowOutcome::Empty);
}

TEST(BurstTH, NoPreemptionAboveThreshold)
{
    Harness h(ctrl::Mechanism::BurstTH, schedtest::smallDram(),
              thParams(/*threshold*/ 1));
    // Two writes outstanding (> threshold 1): preemption is disabled.
    auto *w0 = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    h.add(AccessType::Write, 0, 0, 1, 1, 1);
    Tick now = 0;
    h.tick(now++); // write activate
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], w0) << "write must not be preempted above TH";
    (void)r;
}

TEST(BurstWP, QualifiedWritePiggybacksAtEndOfBurst)
{
    Harness h(ctrl::Mechanism::BurstWP);
    // A read burst in row 1 and one write to the same row, one to a
    // different row.
    auto *r0 = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *r1 = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    auto *w_same = h.add(AccessType::Write, 0, 0, 1, 5, 2);
    auto *w_other = h.add(AccessType::Write, 0, 0, 3, 0, 3);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], r0);
    EXPECT_EQ(order[1], r1);
    EXPECT_EQ(order[2], w_same) << "same-row write piggybacks first";
    EXPECT_EQ(order[3], w_other);
    EXPECT_GE(h.sched().extraStats().at("piggybacks"), 1.0);
    // The piggybacked write is a row hit by construction.
    EXPECT_EQ(w_same->outcome, dram::RowOutcome::Hit);
}

TEST(BurstWP, OldestQualifiedWriteFirst)
{
    // WAW safety (Section 3.4): among qualified same-row writes the
    // oldest is selected first, so same-row writes stay in program order.
    Harness h(ctrl::Mechanism::BurstWP);
    h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *w_old = h.add(AccessType::Write, 0, 0, 1, 5, 1);
    auto *w_new = h.add(AccessType::Write, 0, 0, 1, 5, 2); // same block!
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], w_old);
    EXPECT_EQ(order[2], w_new);
}

TEST(BurstWP, NoQualifiedWriteStartsNextBurst)
{
    Harness h(ctrl::Mechanism::BurstWP);
    auto *r0 = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *w_other = h.add(AccessType::Write, 0, 0, 3, 0, 1);
    auto *r1 = h.add(AccessType::Read, 0, 0, 2, 0, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], r0);
    // No row-1 write exists: the next burst (row 2) starts; the
    // unqualified write waits until reads drain.
    EXPECT_EQ(order[1], r1);
    EXPECT_EQ(order[2], w_other);
}

TEST(BurstWP, PiggybackChainsDrainRowLocalWrites)
{
    Harness h(ctrl::Mechanism::BurstWP);
    h.add(AccessType::Read, 0, 0, 1, 0, 0);
    std::vector<ctrl::MemAccess *> ws;
    for (std::uint32_t i = 0; i < 3; ++i)
        ws.push_back(h.add(AccessType::Write, 0, 0, 1, 4 + i, 1 + i));
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[1], ws[0]);
    EXPECT_EQ(order[2], ws[1]);
    EXPECT_EQ(order[3], ws[2]);
    EXPECT_GE(h.sched().extraStats().at("piggybacks"), 3.0);
}

TEST(BurstHorizon, FullWriteQueuePinsWriteDrainOverQueuedBursts)
{
    // Figure 5 line 2 comes before the bursts: a bank holding read
    // bursts takes its oldest write while the write queue is full, and
    // the horizon names that move.
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(),
              thParams(52, /*cap*/ 2));
    auto *w0 = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    h.add(AccessType::Write, 0, 0, 1, 1, 1);
    h.add(AccessType::Read, 0, 0, 2, 0, 2);
    EXPECT_EQ(h.sched().nextEventTick(0), 0u);
    EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::WriteDrain);
    EXPECT_EQ(h.tick(0).access, w0);
}

TEST(BurstHorizon, EndOfBurstPiggybackPinsPiggyback)
{
    // Above the threshold (Burst_WP's is 0), at the end of a burst, an
    // open-row write piggybacks before the next queued burst starts,
    // and the horizon names the piggyback.
    Harness h(ctrl::Mechanism::BurstWP);
    h.add(AccessType::Read, 0, 0, 1, 0, 0);
    Tick now = 0;
    while (!h.tick(now++).columnAccess) {
    }
    auto *w = h.add(AccessType::Write, 0, 0, 1, 5, now);
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    EXPECT_EQ(h.sched().nextEventTick(now), now);
    EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::Piggyback);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], w);
    EXPECT_EQ(order[1], r);
    EXPECT_EQ(h.sched().extraStats().at("piggybacks"), 1.0);
}

TEST(BurstTH, ThresholdAboveCapFullQueueClosesThePreemptGate)
{
    // With the threshold above the write-queue capacity, a full write
    // queue still closes the preempt gate: Figure 5 line 2 would take
    // the preempted write straight back. The write stays ongoing, no
    // preemption is counted and the horizon waits on its timing.
    Harness h(ctrl::Mechanism::BurstTH, schedtest::smallDram(),
              thParams(/*threshold*/ 128, /*cap*/ 2));
    auto *w0 = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    auto *w1 = h.add(AccessType::Write, 0, 0, 1, 1, 0);
    Tick now = 0;
    ASSERT_EQ(h.tick(now++).access, w0); // w0's activate
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    for (int i = 0; i < 3; ++i) { // within tRCD: nothing can issue
        EXPECT_GT(h.sched().nextEventTick(now), now);
        EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::Timing);
        EXPECT_EQ(h.tick(now++).access, nullptr);
    }
    EXPECT_EQ(h.sched().extraStats().at("preemptions"), 0.0);
    EXPECT_EQ(w0->pickedAt, 0u);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], w0);
    EXPECT_EQ(order[1], r);
    EXPECT_EQ(order[2], w1);
    EXPECT_EQ(h.sched().extraStats().at("preemptions"), 0.0);
}

TEST(Burst, Table2PrioritySameBankColumnFirst)
{
    // After a column access in bank 0, another unblocked column access
    // in bank 0 (same burst) has priority 1 and goes before a column
    // access in bank 1 (priority 2), even if the bank-1 access is older.
    Harness h(ctrl::Mechanism::Burst);
    auto *b1 = h.add(AccessType::Read, 0, 1, 1, 0, 0); // older
    auto *a0 = h.add(AccessType::Read, 0, 0, 1, 0, 1);
    auto *a1 = h.add(AccessType::Read, 0, 0, 1, 1, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    // b1 is older so its burst starts first; once bank1's column issued,
    // bank0 bursts; a0 and a1 run back to back (same bank priority).
    EXPECT_EQ(order[0], b1);
    EXPECT_EQ(order[1], a0);
    EXPECT_EQ(order[2], a1);
}

TEST(Burst, Table2ReadColumnBeatsWriteColumn)
{
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(),
              thParams(52, /*cap*/ 1));
    // One write (queue full at cap 1 -> bank arbiter selects it) and one
    // read in another bank; both become ongoing. The read's column
    // access must win the bus (priority 2 vs 4).
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    auto *r = h.add(AccessType::Read, 0, 1, 1, 0, 0);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], r);
    EXPECT_EQ(order[1], w);
}

TEST(Burst, SameRankColumnsBeatOtherRank)
{
    // Table 2: column accesses in the last-used rank (prio 2) beat
    // column accesses to other ranks (prio 7), avoiding rank-to-rank
    // turnaround. Both bursts are equally old per bank.
    Harness h(ctrl::Mechanism::Burst);
    auto *r0a = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *r1 = h.add(AccessType::Read, 1, 0, 1, 0, 0); // other rank
    auto *r0b = h.add(AccessType::Read, 0, 1, 1, 0, 1);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    // Once rank 0 owns the bus, the rank-0 access in the other bank goes
    // before the rank-1 access despite r1 being older than r0b.
    EXPECT_EQ(order[0], r0a);
    EXPECT_EQ(order[1], r0b);
    EXPECT_EQ(order[2], r1);
}

TEST(Burst, DrainsAllWorkEventually)
{
    Harness h(ctrl::Mechanism::BurstTH);
    bsim::Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        h.add(rng.chance(0.3) ? AccessType::Write : AccessType::Read,
              std::uint32_t(rng.below(2)), std::uint32_t(rng.below(2)),
              std::uint32_t(rng.below(8)), std::uint32_t(rng.below(32)),
              Tick(i));
    }
    Tick now = 0;
    const auto order = h.drain(now);
    EXPECT_EQ(order.size(), 200u);
}

TEST(BurstExt, SizeSortedBurstsPreferLargest)
{
    ctrl::SchedulerParams params;
    params.sortBurstsBySize = true;
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(), params);
    auto *small_old = h.add(AccessType::Read, 0, 0, 5, 0, 0);
    std::vector<ctrl::MemAccess *> big;
    for (std::uint32_t i = 0; i < 3; ++i)
        big.push_back(h.add(AccessType::Read, 0, 0, 7, i, Tick(1 + i)));
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 4u);
    // The larger (newer) burst jumps ahead of the older single access.
    EXPECT_EQ(order[0], big[0]);
    EXPECT_EQ(order[3], small_old);
}

TEST(BurstExt, SizeSortNeverDisplacesStartedBurst)
{
    ctrl::SchedulerParams params;
    params.sortBurstsBySize = true;
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(), params);
    auto *first = h.add(AccessType::Read, 0, 0, 5, 0, 0);
    auto *second = h.add(AccessType::Read, 0, 0, 5, 1, 1);
    Tick now = 0;
    // Start the row-5 burst.
    while (true) {
        auto issued = h.tick(now++);
        if (issued.columnAccess)
            break;
    }
    // A bigger burst arrives; it must wait for the started burst.
    std::vector<ctrl::MemAccess *> big;
    for (std::uint32_t i = 0; i < 4; ++i)
        big.push_back(h.add(AccessType::Read, 0, 0, 9, i, now));
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order[0], second);
    EXPECT_EQ(order[1], big[0]);
    (void)first;
}

TEST(BurstExt, RankUnawarePrioritiesStillDrain)
{
    ctrl::SchedulerParams params;
    params.rankAware = false;
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(), params);
    for (std::uint32_t r = 0; r < 2; ++r)
        for (std::uint32_t i = 0; i < 4; ++i)
            h.add(AccessType::Read, r, 0, 1, i, Tick(i));
    Tick now = 0;
    const auto order = h.drain(now);
    EXPECT_EQ(order.size(), 8u);
}

TEST(BurstExt, RankUnawareInterleavesRanksSooner)
{
    // Without rank demotion, the other rank's burst is served
    // interleaved rather than after the first rank finishes.
    auto run = [](bool aware) {
        ctrl::SchedulerParams params;
        params.rankAware = aware;
        Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(), params);
        std::vector<ctrl::MemAccess *> rank1;
        for (std::uint32_t i = 0; i < 4; ++i)
            h.add(AccessType::Read, 0, 0, 1, i, 0);
        for (std::uint32_t i = 0; i < 4; ++i)
            rank1.push_back(h.add(AccessType::Read, 1, 0, 1, i, 1));
        Tick now = 0;
        const auto order = h.drain(now);
        std::size_t first_r1 = order.size();
        for (std::size_t i = 0; i < order.size(); ++i)
            if (order[i] == rank1[0]) {
                first_r1 = i;
                break;
            }
        return first_r1;
    };
    EXPECT_LE(run(false), run(true));
}

TEST(BurstExt, DynamicThresholdDrainsWriteHeavyStream)
{
    ctrl::SchedulerParams params;
    params.dynamicThreshold = true;
    params.threshold = 52;
    Harness h(ctrl::Mechanism::BurstTH, schedtest::smallDram(), params);
    bsim::Rng rng(77);
    for (int i = 0; i < 120; ++i) {
        h.add(rng.chance(0.6) ? AccessType::Write : AccessType::Read,
              std::uint32_t(rng.below(2)), std::uint32_t(rng.below(2)),
              std::uint32_t(rng.below(4)), std::uint32_t(rng.below(32)),
              Tick(i));
    }
    Tick now = 0;
    const auto order = h.drain(now);
    EXPECT_EQ(order.size(), 120u);
    // Write-heavy mix: the adaptive threshold must have enabled
    // piggybacking.
    EXPECT_GE(h.sched().extraStats().at("piggybacks"), 1.0);
}

TEST(BurstExt, CriticalReadJumpsQueueWithinBurst)
{
    ctrl::SchedulerParams params;
    params.criticalFirst = true;
    Harness h(ctrl::Mechanism::Burst, schedtest::smallDram(), params);
    auto *x0 = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *x1 = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    auto *xc = h.addCritical(0, 0, 1, 2, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    // Intra-burst reordering is free (any member can open the row), so
    // the critical read heads the whole burst.
    EXPECT_EQ(order[0], xc) << "critical read must jump the queue";
    EXPECT_EQ(order[1], x0);
    EXPECT_EQ(order[2], x1);
}

TEST(BurstExt, CriticalFirstOffPreservesArrivalOrder)
{
    Harness h(ctrl::Mechanism::Burst);
    auto *x0 = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *x1 = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    auto *xc = h.addCritical(0, 0, 1, 2, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], x0);
    EXPECT_EQ(order[1], x1);
    EXPECT_EQ(order[2], xc);
}
