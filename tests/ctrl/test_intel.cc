/**
 * @file
 * Intel scheduler tests: read priority over writes, write-queue flush
 * behaviour, and read preemption (Intel_RP).
 */

#include <gtest/gtest.h>

#include "sched_test_util.hh"

using namespace bsim;
using schedtest::Harness;

TEST(Intel, ReadsBypassOlderWrites)
{
    Harness h(ctrl::Mechanism::Intel);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, 1);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], r);
    EXPECT_EQ(order[1], w);
}

TEST(Intel, WritesDrainWhenNoReads)
{
    Harness h(ctrl::Mechanism::Intel);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], w);
}

TEST(Intel, RowHitReadPreferredWithinWindow)
{
    Harness h(ctrl::Mechanism::Intel);
    auto *opener = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *conflict = h.add(AccessType::Read, 0, 0, 2, 0, 1);
    auto *hit = h.add(AccessType::Read, 0, 0, 1, 1, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], opener);
    EXPECT_EQ(order[1], hit); // row hit bypasses the conflict
    EXPECT_EQ(order[2], conflict);
}

TEST(Intel, RowHitBeyondReorderWindowNotFound)
{
    // "Best effort" grouping: the row-hit search only examines the head
    // of the per-bank queue (window of 4).
    Harness h(ctrl::Mechanism::Intel);
    auto *opener = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    std::vector<ctrl::MemAccess *> conflicts;
    for (int i = 0; i < 4; ++i)
        conflicts.push_back(
            h.add(AccessType::Read, 0, 0, 2 + std::uint32_t(i), 0,
                  Tick(1 + i)));
    auto *hit = h.add(AccessType::Read, 0, 0, 1, 1, 9);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], opener);
    // The row hit sits outside the 4-deep window, so the oldest conflict
    // goes next instead.
    EXPECT_EQ(order[1], conflicts[0]);
    (void)hit;
}

TEST(Intel, FullWriteQueueTriggersFlush)
{
    ctrl::SchedulerParams params;
    params.writeCap = 4;
    Harness h(ctrl::Mechanism::Intel, schedtest::smallDram(), params);
    // Saturate the write queue, keep a stream of reads available.
    std::vector<ctrl::MemAccess *> writes;
    for (int i = 0; i < 4; ++i)
        writes.push_back(
            h.add(AccessType::Write, 0, 0, 1, std::uint32_t(i), Tick(i)));
    auto *r = h.add(AccessType::Read, 0, 1, 1, 0, 10);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 5u);
    // With the queue full the flush starts; at least the first writes
    // must not wait behind the read's completion.
    EXPECT_TRUE(order[0] == writes[0] || order[0] == r);
    std::size_t w_pos = 0;
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] == writes[0])
            w_pos = i;
    EXPECT_LT(w_pos, 2u);
}

TEST(IntelRP, ReadPreemptsOngoingWrite)
{
    Harness h(ctrl::Mechanism::IntelRP);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    Tick now = 0;
    // Let the write start (activate issued, column still pending).
    h.tick(now++); // activate
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], r) << "read should preempt the ongoing write";
    EXPECT_EQ(order[1], w);
    EXPECT_GE(h.sched().extraStats().at("preemptions"), 1.0);
}

TEST(Intel, NoPreemptionWithoutRpFlag)
{
    Harness h(ctrl::Mechanism::Intel);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    Tick now = 0;
    h.tick(now++); // write activate: write is ongoing
    auto *r = h.add(AccessType::Read, 0, 0, 2, 0, now);
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], w);
    EXPECT_EQ(order[1], r);
}

TEST(Intel, SingleWriteQueueSharedAcrossBanks)
{
    Harness h(ctrl::Mechanism::Intel);
    h.add(AccessType::Write, 0, 0, 1, 0, 0);
    h.add(AccessType::Write, 0, 1, 1, 0, 1);
    h.add(AccessType::Write, 1, 0, 1, 0, 2);
    EXPECT_EQ(h.sched().writeCount(), 3u);
    Tick now = 0;
    const auto order = h.drain(now);
    EXPECT_EQ(order.size(), 3u);
}

TEST(IntelHorizon, DrainFlipPinnedAtCapAndHalfCap)
{
    ctrl::SchedulerParams params;
    params.writeCap = 4;
    Harness h(ctrl::Mechanism::Intel, schedtest::smallDram(), params);
    // One write per bank fills the queue; a read keeps writes waiting
    // unless a flush runs.
    for (std::uint32_t i = 0; i < 4; ++i)
        h.add(AccessType::Write, i / 2, i % 2, 1, 0, Tick(i));
    h.add(AccessType::Read, 0, 0, 2, 0, 4);
    Tick now = 0;
    // A full queue starts the flush ...
    EXPECT_EQ(h.sched().nextEventTick(now), now);
    EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::DrainFlip);
    // ... and a half-empty one ends it.
    while (h.counts().writesOutstanding > params.writeCap / 2)
        h.tick(now++);
    EXPECT_EQ(h.sched().nextEventTick(now), now);
    EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::DrainFlip);
    h.tick(now++);
    h.sched().nextEventTick(now);
    EXPECT_NE(h.sched().lastHorizonPin(), ctrl::HorizonPin::DrainFlip);
    EXPECT_EQ(h.drain(now).size(), 3u);
}
