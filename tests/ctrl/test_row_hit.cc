/**
 * @file
 * RowHit (Rixner et al.) scheduler tests: oldest-row-hit-first within a
 * bank, oldest fallback, equal treatment of reads and writes.
 */

#include <gtest/gtest.h>

#include "sched_test_util.hh"

using namespace bsim;
using schedtest::Harness;

TEST(RowHit, RowHitBypassesOlderConflict)
{
    Harness h(ctrl::Mechanism::RowHit);
    auto *a = h.add(AccessType::Read, 0, 0, /*row*/ 1, 0, 0);
    auto *b = h.add(AccessType::Read, 0, 0, /*row*/ 2, 0, 1);
    auto *c = h.add(AccessType::Read, 0, 0, /*row*/ 1, 1, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    // After a opens row 1, c (row hit) bypasses b (conflict).
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], c);
    EXPECT_EQ(order[2], b);
}

TEST(RowHit, OldestRowHitSelectedFirst)
{
    Harness h(ctrl::Mechanism::RowHit);
    auto *a = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *hit_old = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    auto *hit_new = h.add(AccessType::Read, 0, 0, 1, 2, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], hit_old);
    EXPECT_EQ(order[2], hit_new);
}

TEST(RowHit, WritesAreRowHitsToo)
{
    // RowHit treats reads and writes equally: a write row hit bypasses
    // an older read conflict.
    Harness h(ctrl::Mechanism::RowHit);
    auto *a = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *conflict = h.add(AccessType::Read, 0, 0, 2, 0, 1);
    auto *whit = h.add(AccessType::Write, 0, 0, 1, 3, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], whit);
    EXPECT_EQ(order[2], conflict);
}

TEST(RowHit, FallsBackToOldestWhenNoHit)
{
    Harness h(ctrl::Mechanism::RowHit);
    auto *a = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *b = h.add(AccessType::Read, 0, 0, 3, 0, 1);
    auto *c = h.add(AccessType::Read, 0, 0, 2, 0, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], a);
    EXPECT_EQ(order[1], b); // no hit available: oldest first
    EXPECT_EQ(order[2], c);
}

TEST(RowHit, SameBlockReadDoesNotPassOlderWrite)
{
    // Hazard ordering: a read to the same block as an older write in the
    // same row cannot be reordered before it (both are row hits; oldest
    // first breaks the tie).
    Harness h(ctrl::Mechanism::RowHit);
    auto *opener = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *w = h.add(AccessType::Write, 0, 0, 1, 5, 1);
    auto *r = h.add(AccessType::Read, 0, 0, 1, 5, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], opener);
    EXPECT_EQ(order[1], w);
    EXPECT_EQ(order[2], r);
}

TEST(RowHit, BanksServedRoundRobin)
{
    Harness h(ctrl::Mechanism::RowHit);
    auto *a0 = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *a1 = h.add(AccessType::Read, 0, 0, 1, 1, 1);
    auto *b0 = h.add(AccessType::Read, 0, 1, 1, 0, 2);
    Tick now = 0;
    const auto order = h.drain(now);
    ASSERT_EQ(order.size(), 3u);
    // b0 must not wait for both a-accesses.
    EXPECT_TRUE(order[1] == b0 || order[0] == b0);
    (void)a0;
    (void)a1;
}

TEST(RowHit, SlotFillsOnlyWhenTheRotationReachesItsBank)
{
    // Bank B (flat bank 0) is open on row 1 and holds an older conflict
    // (row 2); bank A (flat bank 1) wins the next rotation. B's slot
    // must stay empty through that tick, so a row-1 access arriving
    // right after it is the open-row hit B serves first. Filling every
    // slot up front would have committed B to the conflict.
    Harness h(ctrl::Mechanism::RowHit);
    auto *opener = h.add(AccessType::Read, 0, 0, 1, 0, 0);
    auto *conflict = h.add(AccessType::Read, 0, 0, 2, 0, 1);
    Tick now = 0;
    for (;; ++now) {
        ASSERT_LT(now, Tick(1000));
        const auto issued = h.tick(now);
        if (issued.columnAccess) {
            ASSERT_EQ(issued.access, opener);
            break;
        }
    }
    ++now;
    auto *other = h.add(AccessType::Read, 0, 1, 5, 0, now);
    const auto act = h.tick(now);
    ASSERT_EQ(act.access, other); // A's activate wins the rotation
    ASSERT_FALSE(act.columnAccess);
    ++now;
    auto *hit = h.add(AccessType::Read, 0, 0, 1, 1, now);
    std::vector<ctrl::MemAccess *> bank_b;
    for (ctrl::MemAccess *a : h.drain(now))
        if (a != other)
            bank_b.push_back(a);
    ASSERT_EQ(bank_b.size(), 2u);
    EXPECT_EQ(bank_b[0], hit);
    EXPECT_EQ(bank_b[1], conflict);
}
