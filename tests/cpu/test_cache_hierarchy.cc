/**
 * @file
 * Cache hierarchy tests: hit levels, MSHR merging, writeback routing and
 * back-pressure retries.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/cache_hierarchy.hh"

using namespace bsim;
using namespace bsim::cpu;

namespace
{

/** Records requests; capacity-limited to test retries. */
struct FakePort : MemPort
{
    bool
    canSend(unsigned n) const override
    {
        return reads.size() + writes.size() + n <= cap;
    }

    void sendRead(Addr a, bool) override { reads.push_back(a); }
    void sendWrite(Addr a) override { writes.push_back(a); }

    std::vector<Addr> reads, writes;
    std::size_t cap = 1000;
};

HierarchyConfig
tinyConfig()
{
    HierarchyConfig cfg;
    cfg.l1d = {512, 2, 64};       // 8 blocks
    cfg.l2 = {2048, 2, 64};       // 32 blocks
    cfg.l1LatencyCpu = 3;
    cfg.l2LatencyCpu = 15;
    cfg.mshrs = 4;
    return cfg;
}

} // namespace

TEST(Hierarchy, ColdLoadMissesToMemory)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    const auto r = h.access(0x1000, false, 7);
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    ASSERT_EQ(port.reads.size(), 1u);
    EXPECT_EQ(port.reads[0], 0x1000u);
    EXPECT_EQ(h.mshrsInUse(), 1u);
}

TEST(Hierarchy, ResponseReleasesWaiters)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, false, 7);
    h.access(0x1000, false, 8); // merges
    EXPECT_EQ(h.mshrMerges(), 1u);
    EXPECT_EQ(port.reads.size(), 1u) << "merged access must not refetch";
    const auto waiters = h.onMemResponse(0x1000);
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0], 7u);
    EXPECT_EQ(waiters[1], 8u);
    EXPECT_EQ(h.mshrsInUse(), 0u);
}

TEST(Hierarchy, L1HitAfterFill)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, false, 7);
    h.onMemResponse(0x1000);
    const auto r = h.access(0x1000, false, 9);
    EXPECT_EQ(r.outcome, CacheOutcome::L1Hit);
    EXPECT_EQ(r.latencyCpu, 3u);
}

TEST(Hierarchy, L2HitWhenL1Evicted)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, false);
    h.onMemResponse(0x1000);
    // Evict 0x1000 from L1 (set-conflicting fills), keeping it in L2.
    h.access(0x1000 + 512, false);
    h.onMemResponse(0x1000 + 512);
    h.access(0x1000 + 1024, false);
    h.onMemResponse(0x1000 + 1024);
    const auto r = h.access(0x1000, false);
    EXPECT_EQ(r.outcome, CacheOutcome::L2Hit);
    EXPECT_EQ(r.latencyCpu, 15u);
}

TEST(Hierarchy, SubBlockAccessesShareMshr)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, false, 1);
    h.access(0x1020, false, 2); // same 64 B block
    EXPECT_EQ(port.reads.size(), 1u);
    EXPECT_EQ(h.onMemResponse(0x1000).size(), 2u);
}

TEST(Hierarchy, MshrLimitForcesRetry)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_EQ(h.access(a * 64, false).outcome, CacheOutcome::Miss);
    const auto r = h.access(4 * 64, false);
    EXPECT_EQ(r.outcome, CacheOutcome::Retry);
    h.onMemResponse(0);
    EXPECT_EQ(h.access(4 * 64, false).outcome, CacheOutcome::Miss);
}

TEST(Hierarchy, PortBackPressureForcesRetry)
{
    FakePort port;
    port.cap = 1; // a miss needs headroom of 2 (fill + writeback)
    CacheHierarchy h(tinyConfig(), port);
    const auto r = h.access(0x1000, false);
    EXPECT_EQ(r.outcome, CacheOutcome::Retry);
    EXPECT_EQ(h.mshrsInUse(), 0u) << "retry must not leak an MSHR";
}

TEST(Hierarchy, StoreMissAllocatesAndDirties)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    EXPECT_EQ(h.access(0x1000, true).outcome, CacheOutcome::Miss);
    EXPECT_EQ(port.reads.size(), 1u); // write-allocate fill
    h.onMemResponse(0x1000);
    // Push the dirty block out of both levels: its L2 eviction must
    // produce a memory write of exactly that block. (The dirty bit lives
    // in L1 until the L1 victim folds into L2, which also refreshes the
    // line's LRU position there — so a few conflicting fills are needed
    // before the dirty copy becomes the L2 victim.)
    for (Addr t = 1; t <= 4 && port.writes.empty(); ++t) {
        h.access(0x1000 + t * 2048, false);
        h.onMemResponse(0x1000 + t * 2048);
    }
    ASSERT_EQ(port.writes.size(), 1u);
    EXPECT_EQ(port.writes[0], 0x1000u);
}

TEST(Hierarchy, DirtyL1VictimFoldsIntoL2)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, true);
    h.onMemResponse(0x1000);
    // Conflict 0x1000 out of L1 only.
    h.access(0x1000 + 512, false);
    h.onMemResponse(0x1000 + 512);
    h.access(0x1000 + 1024, false);
    h.onMemResponse(0x1000 + 1024);
    EXPECT_TRUE(port.writes.empty()) << "L1->L2 writeback is internal";
    // The block must still be dirty in L2: hitting it and evicting it
    // from L2 later writes it back.
    EXPECT_EQ(h.access(0x1000, false).outcome, CacheOutcome::L2Hit);
}

TEST(Hierarchy, StoreMergingIntoInflightFillDirtiesLine)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, false, 1); // load miss starts fill
    const auto r = h.access(0x1000, true); // store merges
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    EXPECT_EQ(h.mshrMerges(), 1u);
}

TEST(Hierarchy, PrefillInstallsWithoutTraffic)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.prefill(0x2000, /*dirty*/ true, /*also_l1*/ true);
    EXPECT_TRUE(port.reads.empty());
    EXPECT_TRUE(port.writes.empty());
    EXPECT_EQ(h.access(0x2000, false).outcome, CacheOutcome::L1Hit);
}

TEST(Hierarchy, PrefillL2OnlyByDefault)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.prefill(0x2000, false);
    EXPECT_EQ(h.access(0x2000, false).outcome, CacheOutcome::L2Hit);
}

TEST(Hierarchy, StatsCount)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.access(0x1000, false, 1);
    h.onMemResponse(0x1000);
    h.access(0x1000, false, 2);
    EXPECT_EQ(h.memReads(), 1u);
    EXPECT_EQ(h.l1d().hits(), 1u);
    EXPECT_EQ(h.l1d().misses(), 1u);
}

TEST(Hierarchy, RetryCountsNoMiss)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    for (Addr a = 0; a < 4; ++a)
        h.access(a * 64, false);
    const std::uint64_t l1 = h.l1d().misses(), l2 = h.l2().misses();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(h.access(4 * 64, false).outcome, CacheOutcome::Retry);
    EXPECT_EQ(h.l1d().misses(), l1) << "a Retry is not a lookup";
    EXPECT_EQ(h.l2().misses(), l2);
    h.onMemResponse(0);
    EXPECT_EQ(h.access(4 * 64, false).outcome, CacheOutcome::Miss);
    EXPECT_EQ(h.l1d().misses(), l1 + 1) << "the final outcome counts once";
    EXPECT_EQ(h.l2().misses(), l2 + 1);
}

TEST(Hierarchy, HitsStillServedWhileFillsAreBlocked)
{
    FakePort port;
    port.cap = 0; // no fill can start
    CacheHierarchy h(tinyConfig(), port);
    h.prefill(0x1000, false, /*also_l1*/ true);
    h.prefill(0x2000, false);
    EXPECT_EQ(h.access(0x1000, false).outcome, CacheOutcome::L1Hit);
    EXPECT_EQ(h.access(0x2000, false).outcome, CacheOutcome::L2Hit);
    EXPECT_EQ(h.access(0x3000, false).outcome, CacheOutcome::Retry);
    EXPECT_EQ(h.l1d().misses(), 1u) << "only the L2 hit missed in L1";
    EXPECT_EQ(h.l2().misses(), 0u);
}

TEST(Hierarchy, WakeEpochMovesOnlyOnWakeEvents)
{
    FakePort port;
    CacheHierarchy h(tinyConfig(), port);
    h.prefill(0x8000, false, /*also_l1*/ true);
    h.prefill(0x9000, false);
    std::uint64_t e = h.wakeEpoch();

    // Hits, merges, Retries and responses to blocks without an MSHR
    // cannot turn a Retry into a success.
    h.access(0x8000, false);
    h.access(0x9000, true);
    EXPECT_EQ(h.wakeEpoch(), e);

    // 1. An MSHR allocation (a merge into it becomes possible).
    for (Addr a = 0; a < 4; ++a) {
        h.access(a * 64, false);
        EXPECT_EQ(h.wakeEpoch(), ++e);
    }
    h.access(0, false); // merge
    EXPECT_EQ(h.access(4 * 64, false).outcome, CacheOutcome::Retry);
    EXPECT_TRUE(h.onMemResponse(0x7000).empty());
    EXPECT_EQ(h.wakeEpoch(), e);

    // 2. An MSHR release.
    h.onMemResponse(0);
    EXPECT_EQ(h.wakeEpoch(), ++e);

    // 3. Room in the port.
    h.onPortRoom();
    EXPECT_EQ(h.wakeEpoch(), ++e);
}

TEST(Hierarchy, EveryCountedL2MissIsOneMemoryRead)
{
    // Heavy back-pressure: two MSHRs and a port that holds two
    // requests, drained one request at a time.
    FakePort port;
    port.cap = 2;
    HierarchyConfig cfg = tinyConfig();
    cfg.mshrs = 2;
    CacheHierarchy h(cfg, port);
    std::vector<Addr> inflight;
    std::uint64_t retries = 0;
    for (std::uint32_t i = 0; i < 4000; ++i) {
        const Addr a = Addr((i * 2654435761u) % 512) * 64;
        const auto r = h.access(a, i % 3 == 0);
        retries += r.outcome == CacheOutcome::Retry;
        if (!port.reads.empty()) {
            inflight.push_back(port.reads.front());
            port.reads.erase(port.reads.begin());
        }
        if (!port.writes.empty())
            port.writes.erase(port.writes.begin());
        if (i % 4 == 3 && !inflight.empty()) {
            h.onMemResponse(inflight.front());
            inflight.erase(inflight.begin());
        }
    }
    EXPECT_GT(retries, 100u) << "the stream must exercise back-pressure";
    EXPECT_GT(h.l2().misses(), 100u);
    EXPECT_EQ(h.l2().misses(), h.memReads());
}
