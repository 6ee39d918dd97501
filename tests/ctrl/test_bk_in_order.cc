/**
 * @file
 * BkInOrder scheduler tests: arrival order within banks, round robin
 * across banks.
 */

#include <gtest/gtest.h>

#include "sched_test_util.hh"

using namespace bsim;
using schedtest::Harness;

TEST(BkInOrder, PreservesPerBankArrivalOrder)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    // Same bank: a row hit arriving later must NOT bypass an older
    // conflict — that is the whole point of in-order.
    auto *a = h.add(AccessType::Read, 0, 0, /*row*/ 1, 0, 0);
    auto *b = h.add(AccessType::Read, 0, 0, /*row*/ 2, 0, 1);
    auto *c = h.add(AccessType::Read, 0, 0, /*row*/ 1, 1, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], b);
    EXPECT_EQ(order[2], c);
}

TEST(BkInOrder, WritesNotPostponed)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0, 0);
    auto *r = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], w);
    EXPECT_EQ(order[1], r);
}

TEST(BkInOrder, RoundRobinAcrossBanks)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    // Two accesses per bank; service should alternate banks rather than
    // drain one bank first.
    auto *a0 = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *a1 = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    auto *b0 = h.add(AccessType::Read, 0, 1, 1, 0, 2);
    auto *b1 = h.add(AccessType::Read, 0, 1, 1, 1, 3);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 4u);
    // Alternation: the two banks interleave (a0/b0 before a1/b1).
    EXPECT_TRUE((order[0] == a0 && order[1] == b0) ||
                (order[0] == b0 && order[1] == a0));
    EXPECT_TRUE((order[2] == a1 && order[3] == b1) ||
                (order[2] == b1 && order[3] == a1));
}

TEST(BkInOrder, CountsTrackQueues)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    EXPECT_FALSE(h.sched().hasWork());
    h.add(AccessType::Read, 0, 0, 1, 0);
    h.add(AccessType::Write, 0, 1, 1, 0);
    EXPECT_EQ(h.sched().readCount(), 1u);
    EXPECT_EQ(h.sched().writeCount(), 1u);
    EXPECT_TRUE(h.sched().hasWork());
    Tick now = 0;
    h.drain(now);
    EXPECT_EQ(h.sched().readCount(), 0u);
    EXPECT_EQ(h.sched().writeCount(), 0u);
}

TEST(BkInOrder, IdleTickIssuesNothing)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    const auto issued = h.tick(0);
    EXPECT_EQ(issued.access, nullptr);
}

TEST(BkInOrder, FindWriteSeesQueuedWrite)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 0);
    EXPECT_EQ(h.sched().findWrite(w->addr), w);
    Tick now = 0;
    h.drain(now);
    EXPECT_EQ(h.sched().findWrite(w->addr), nullptr);
}

TEST(BkInOrder, LatestWriteWinsForwarding)
{
    Harness h(ctrl::Mechanism::BkInOrder);
    h.add(AccessType::Write, 0, 0, 1, 0);
    auto *w2 = h.add(AccessType::Write, 0, 0, 1, 0); // same block
    EXPECT_EQ(h.sched().findWrite(w2->addr), w2);
}

TEST(BkInOrder, BacklogAfterIssueIsTimingBoundNeverArbFill)
{
    // A FIFO pick reads no bank state, so the slot refills on the
    // column issue itself: the horizon bounds the new front directly
    // and never spends a step on an arbitration fill.
    Harness h(ctrl::Mechanism::BkInOrder);
    auto *first = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *next = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    Tick now = 0;
    for (;; ++now) {
        ASSERT_LT(now, Tick(1000));
        const auto issued = h.tick(now);
        if (issued.columnAccess) {
            ASSERT_EQ(issued.access, first);
            break;
        }
    }
    const dram::Command cmd{h.mem().nextCmdFor(next->coords, next->type),
                            next->coords, next->id};
    const Tick bound = h.mem().probe(cmd, now).readyAt;
    ASSERT_GT(bound, now); // tCCD keeps the next column access out
    EXPECT_EQ(h.sched().nextEventTick(now), bound);
    EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::Timing);
}
