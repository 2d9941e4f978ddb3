/**
 * @file
 * Tests for the versioned cache: geometry, lookup, version
 * co-residency (CRL), victim-class priority, pinning.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"
#include "mem/geometry.hpp"

using namespace tlsim;
using namespace tlsim::mem;

namespace {

CacheLineState
line(Addr addr, TaskId producer, bool dirty = false, bool spec = false)
{
    CacheLineState cl;
    cl.line = addr;
    cl.version = VersionTag{producer, 1};
    cl.dirty = dirty;
    cl.speculative = spec;
    return cl;
}

} // namespace

TEST(Geometry, AddressDecomposition)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 1u);
    EXPECT_EQ(wordIndex(0), 0u);
    EXPECT_EQ(wordIndex(8), 1u);
    EXPECT_EQ(wordIndex(56), 7u);
    EXPECT_EQ(wordIndex(64), 0u);
    EXPECT_EQ(wordBit(16), 0x04);
    EXPECT_EQ(wordAddr(24), 3u);
}

TEST(Geometry, SetCountAndIndex)
{
    CacheGeometry g = CacheGeometry::of(32 * 1024, 2);
    EXPECT_EQ(g.numSets(), 256u);
    EXPECT_EQ(g.setIndex(0), 0u);
    EXPECT_EQ(g.setIndex(256), 0u);
    EXPECT_EQ(g.setIndex(257), 1u);

    // The cache indexes sets with a mask; it must pick the same set as
    // the geometry's modulo for every geometry the machines use.
    for (CacheGeometry geo :
         {g, CacheGeometry::of(4096, 2), CacheGeometry::of(256 * 1024, 4),
          CacheGeometry::of(512 * 1024, 4),
          CacheGeometry::of(16ULL * 1024 * 1024, 4)}) {
        VersionedCache c(geo, true);
        for (Addr a : {Addr(0), Addr(1), Addr(255), Addr(256), Addr(257),
                       Addr(0x1000'0000 / kLineBytes) + 3,
                       Addr(0xdead'beef'1234ULL), ~Addr(0)}) {
            EXPECT_EQ(c.setIndex(a), a % geo.numSets())
                << "sets=" << geo.numSets() << " line=" << a;
            EXPECT_EQ(c.setIndex(a), geo.setIndex(a));
        }
    }
}

TEST(GeometryDeathTest, NonPowerOfTwoSetCountIsRejected)
{
    // 3 sets of 2 ways: a mask cannot index it, so construction fails
    // instead of silently folding sets together.
    EXPECT_DEATH(VersionedCache(CacheGeometry::of(3 * 2 * kLineBytes, 2),
                                true),
                 "not a power of two");
    EXPECT_DEATH(VersionedCache(CacheGeometry::of(0, 2), true),
                 "zero sets");
}

TEST(VersionedCache, InsertAndFindVersion)
{
    VersionedCache c(CacheGeometry::of(4096, 2), true);
    auto res = c.insert(line(5, 3), 0);
    ASSERT_NE(res.frame, nullptr);
    EXPECT_FALSE(res.evicted);
    EXPECT_NE(c.findVersion(5, VersionTag{3, 1}), nullptr);
    EXPECT_EQ(c.findVersion(5, VersionTag{4, 1}), nullptr);
    EXPECT_NE(c.findAnyOf(5), nullptr);
    EXPECT_EQ(c.findAnyOf(6), nullptr);
}

TEST(VersionedCache, MultiVersionKeepsSeveralVersionsOfOneLine)
{
    // The MultiT&MV ability (CTID + CRL): same address tag, different
    // task IDs, co-resident in one set.
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    c.insert(line(5, 1, true, true), 0);
    c.insert(line(5, 2, true, true), 1);
    c.insert(line(5, 3, true, true), 2);
    EXPECT_EQ(c.versionsResident(5), 3u);
    EXPECT_NE(c.findVersion(5, VersionTag{2, 1}), nullptr);
}

TEST(VersionedCache, SingleVersionReplacesInPlace)
{
    VersionedCache c(CacheGeometry::of(4096, 4), false);
    c.insert(line(5, 1), 0);
    auto res = c.insert(line(5, 2), 1);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.version.producer, 1u);
    EXPECT_EQ(c.versionsResident(5), 1u);
}

TEST(VersionedCache, SameVersionReinsertUpdatesInPlace)
{
    VersionedCache c(CacheGeometry::of(4096, 2), true);
    c.insert(line(5, 1), 0);
    auto res = c.insert(line(5, 1), 1);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(c.residentLines(), 1u);
}

TEST(VersionedCache, VictimPrefersCleanOverCommittedOverSpeculative)
{
    // One set, 4 ways: fill with clean, committedDirty, spec, spec.
    VersionedCache c(CacheGeometry::of(64 * 4, 4), true); // 1 set
    c.insert(line(0, 0), 0); // clean replica
    CacheLineState committed = line(1, 1);
    committed.committedDirty = true;
    c.insert(committed, 1);
    c.insert(line(2, 2, true, true), 2);
    c.insert(line(3, 3, true, true), 3);

    auto res = c.insert(line(4, 4, true, true), 4);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.line, 0u); // the clean one goes first

    auto res2 = c.insert(line(5, 5, true, true), 5);
    ASSERT_TRUE(res2.evicted);
    EXPECT_TRUE(res2.victim.committedDirty); // then committed-dirty

    auto res3 = c.insert(line(6, 6, true, true), 6);
    ASSERT_TRUE(res3.evicted);
    EXPECT_TRUE(res3.victim.speculative); // speculative last
}

TEST(VersionedCache, LruWithinClass)
{
    VersionedCache c(CacheGeometry::of(64 * 2, 2), true); // 1 set, 2 way
    c.insert(line(0, 0), 10);
    c.insert(line(1, 0), 20);
    // Touch line 0 so line 1 becomes LRU.
    c.findVersion(0, VersionTag{0, 1})->lastUse = 30;
    auto res = c.insert(line(2, 0), 40);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.line, 1u);
}

TEST(VersionedCache, InvalidateVersionRemovesExactlyOne)
{
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    c.insert(line(5, 1), 0);
    c.insert(line(5, 2), 1);
    c.invalidateVersion(5, VersionTag{1, 1});
    EXPECT_EQ(c.findVersion(5, VersionTag{1, 1}), nullptr);
    EXPECT_NE(c.findVersion(5, VersionTag{2, 1}), nullptr);
}

TEST(VersionedCache, IncarnationsDistinguishReexecutions)
{
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    CacheLineState old_inc = line(5, 3);
    old_inc.version.incarnation = 1;
    c.insert(old_inc, 0);
    EXPECT_EQ(c.findVersion(5, VersionTag{3, 2}), nullptr);
}
