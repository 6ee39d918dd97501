/**
 * @file
 * Set-associative cache tests: hits/misses, LRU replacement, dirty
 * writebacks and invalidation.
 */

#include <gtest/gtest.h>

#include "cpu/cache.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::cpu;

namespace
{

/** Tiny cache: 4 sets x 2 ways x 64 B = 512 B. */
CacheConfig
tinyConfig()
{
    return {512, 2, 64};
}

/** Address of block @p i within set @p set for the tiny config. */
Addr
addrOf(std::uint64_t set, std::uint64_t tag)
{
    return (tag << (6 + 2)) | (set << 6);
}

} // namespace

TEST(Cache, GeometryDerivation)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.config().numSets(), 4u);
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.access(addrOf(0, 1), false));
    c.insert(addrOf(0, 1), false);
    EXPECT_TRUE(c.access(addrOf(0, 1), false));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SubBlockOffsetsAlias)
{
    Cache c(tinyConfig());
    c.insert(addrOf(1, 5), false);
    EXPECT_TRUE(c.access(addrOf(1, 5) + 63, false));
    EXPECT_TRUE(c.contains(addrOf(1, 5) + 17));
}

TEST(Cache, DistinctTagsDoNotAlias)
{
    Cache c(tinyConfig());
    c.insert(addrOf(1, 5), false);
    EXPECT_FALSE(c.contains(addrOf(1, 6)));
    EXPECT_FALSE(c.contains(addrOf(2, 5)));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), false);
    c.insert(addrOf(0, 2), false);
    c.access(addrOf(0, 1), false); // make tag 1 MRU
    const Eviction ev = c.insert(addrOf(0, 3), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, addrOf(0, 2));
    EXPECT_TRUE(c.contains(addrOf(0, 1)));
    EXPECT_FALSE(c.contains(addrOf(0, 2)));
}

TEST(Cache, InsertPrefersInvalidWay)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), false);
    const Eviction ev = c.insert(addrOf(0, 2), false);
    EXPECT_FALSE(ev.valid);
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), /*dirty*/ true);
    c.insert(addrOf(0, 2), false);
    const Eviction ev = c.insert(addrOf(0, 3), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, addrOf(0, 1));
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNotDirty)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), false);
    c.insert(addrOf(0, 2), false);
    const Eviction ev = c.insert(addrOf(0, 3), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.dirty);
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(Cache, WriteAccessSetsDirty)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), false);
    c.access(addrOf(0, 1), /*write*/ true);
    c.insert(addrOf(0, 2), false);
    const Eviction ev = c.insert(addrOf(0, 3), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InsertExistingMergesDirtyBit)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), false);
    const Eviction ev = c.insert(addrOf(0, 1), true); // re-insert dirty
    EXPECT_FALSE(ev.valid);
    c.insert(addrOf(0, 2), false);
    const Eviction ev2 = c.insert(addrOf(0, 3), false);
    ASSERT_TRUE(ev2.valid);
    EXPECT_TRUE(ev2.dirty); // the merged dirty bit survived
}

TEST(Cache, InvalidatePresentBlock)
{
    Cache c(tinyConfig());
    c.insert(addrOf(2, 7), true);
    const Eviction ev = c.invalidate(addrOf(2, 7));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, addrOf(2, 7));
    EXPECT_FALSE(c.contains(addrOf(2, 7)));
}

TEST(Cache, InvalidateAbsentBlockIsNoop)
{
    Cache c(tinyConfig());
    const Eviction ev = c.invalidate(addrOf(2, 7));
    EXPECT_FALSE(ev.valid);
}

TEST(Cache, SetsAreIndependent)
{
    Cache c(tinyConfig());
    // Fill set 0 beyond capacity; set 1 must be untouched.
    c.insert(addrOf(1, 9), false);
    for (std::uint64_t t = 0; t < 5; ++t)
        c.insert(addrOf(0, t), false);
    EXPECT_TRUE(c.contains(addrOf(1, 9)));
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    Cache c(tinyConfig());
    c.insert(addrOf(0, 1), false);
    c.insert(addrOf(0, 2), false);
    c.contains(addrOf(0, 1)); // probe only
    const Eviction ev = c.insert(addrOf(0, 3), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, addrOf(0, 1)) << "probe must not refresh LRU";
}

TEST(CacheDeath, RejectsNonPowerOfTwoGeometry)
{
    EXPECT_SIM_ERROR(Cache({500, 2, 64}), bsim::ErrorCategory::Config, "power of two");
}

TEST(Cache, Table3Geometries)
{
    // The baseline machine's caches build and have the right set counts.
    Cache l1({128 * 1024, 2, 64});
    Cache l2({2 * 1024 * 1024, 16, 64});
    EXPECT_EQ(l1.config().numSets(), 1024u);
    EXPECT_EQ(l2.config().numSets(), 2048u);
}

TEST(CacheDeath, RejectsAssocOutsideOneToMaxAssoc)
{
    // Valid and dirty bits are one 64-bit mask per set.
    EXPECT_SIM_ERROR(Cache({128 * 64, 128, 64}), bsim::ErrorCategory::Config,
                     "assoc (128) must be between 1 and 64");
    EXPECT_SIM_ERROR(Cache({65 * 64, 65, 64}), bsim::ErrorCategory::Config,
                     "assoc (65)");
    EXPECT_SIM_ERROR(Cache({512, 0, 64}), bsim::ErrorCategory::Config,
                     "assoc (0)");
    Cache widest({kMaxAssoc * 64, kMaxAssoc, 64});
    EXPECT_EQ(widest.config().numSets(), 1u);
}
