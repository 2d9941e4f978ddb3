/**
 * @file
 * Tests for the global version bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>

#include "tls/version_map.hpp"

using namespace tlsim;
using namespace tlsim::tls;
using mem::VersionTag;

TEST(VersionMap, EmptyLineHasNoVersions)
{
    VersionMap map;
    EXPECT_EQ(map.latestVisible(5, 10), nullptr);
    EXPECT_FALSE(map.anyVersion(5));
}

TEST(VersionMap, LatestVisibleRespectsTaskOrder)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.create(5, VersionTag{9, 1}, 2);

    EXPECT_EQ(map.latestVisible(5, 2), nullptr);  // before all versions
    EXPECT_EQ(map.latestVisible(5, 3)->tag.producer, 3u); // own version
    EXPECT_EQ(map.latestVisible(5, 5)->tag.producer, 3u);
    EXPECT_EQ(map.latestVisible(5, 8)->tag.producer, 7u);
    EXPECT_EQ(map.latestVisible(5, 100)->tag.producer, 9u);
}

TEST(VersionMap, CreateKeepsSortedOrderRegardlessOfInsertion)
{
    VersionMap map;
    map.create(5, VersionTag{9, 1}, 0);
    map.create(5, VersionTag{3, 1}, 1);
    map.create(5, VersionTag{7, 1}, 2);
    auto &versions = map.versionsOf(5);
    ASSERT_EQ(versions.size(), 3u);
    EXPECT_EQ(versions[0].tag.producer, 3u);
    EXPECT_EQ(versions[1].tag.producer, 7u);
    EXPECT_EQ(versions[2].tag.producer, 9u);
}

TEST(VersionMap, RemoveDropsExactlyThatVersion)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.remove(5, VersionTag{3, 1});
    EXPECT_EQ(map.find(5, VersionTag{3, 1}), nullptr);
    EXPECT_NE(map.find(5, VersionTag{7, 1}), nullptr);
    EXPECT_EQ(map.totalVersions(), 1u);
    map.remove(5, VersionTag{7, 1});
    EXPECT_FALSE(map.anyVersion(5));
}

TEST(VersionMap, RemoveWrongIncarnationIsNoOp)
{
    VersionMap map;
    map.create(5, VersionTag{3, 2}, 0);
    map.remove(5, VersionTag{3, 1});
    EXPECT_NE(map.find(5, VersionTag{3, 2}), nullptr);
}

TEST(VersionMap, MemoryHolderFindsTheVersionInMemory)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    auto &v7 = map.create(5, VersionTag{7, 1}, 1);
    EXPECT_EQ(map.memoryHolder(5), nullptr);
    v7.inMemory = true;
    ASSERT_NE(map.memoryHolder(5), nullptr);
    EXPECT_EQ(map.memoryHolder(5)->tag.producer, 7u);
}

TEST(VersionMap, LatestCommittedIgnoresSpeculativeVersions)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1); // speculative
    EXPECT_EQ(map.latestCommitted(5), nullptr);
    // (pointers are invalidated by create: re-find before mutating)
    map.find(5, VersionTag{3, 1})->committed = true;
    EXPECT_EQ(map.latestCommitted(5)->tag.producer, 3u);
}

TEST(VersionMap, LatestWordWriterUsesWriteMasks)
{
    // Word-granularity visibility for violation detection: a version
    // only "wrote" the words in its mask.
    VersionMap map;
    auto &v3 = map.create(5, VersionTag{3, 1}, 0);
    v3.writeMask = 0x01; // word 0
    auto &v7 = map.create(5, VersionTag{7, 1}, 1);
    v7.writeMask = 0x02; // word 1

    EXPECT_EQ(map.latestWordWriter(5, 0x01, 10), 3u);
    EXPECT_EQ(map.latestWordWriter(5, 0x02, 10), 7u);
    EXPECT_EQ(map.latestWordWriter(5, 0x04, 10), 0u); // nobody: arch
    EXPECT_EQ(map.latestWordWriter(5, 0x02, 5), 0u);  // v7 not visible
}

TEST(VersionMap, ForEachVisitsEveryVersion)
{
    VersionMap map;
    map.create(1, VersionTag{1, 1}, 0);
    map.create(1, VersionTag{2, 1}, 0);
    map.create(2, VersionTag{3, 1}, 0);
    int n = 0;
    map.forEach([&](Addr, VersionInfo &) { ++n; });
    EXPECT_EQ(n, 3);
    EXPECT_EQ(map.linesTracked(), 2u);
    map.clear();
    EXPECT_EQ(map.totalVersions(), 0u);
}

TEST(VersionMapDeath, DuplicateProducerPanics)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    EXPECT_DEATH(map.create(5, VersionTag{3, 2}, 0), "duplicate");
}

TEST(VersionMap, ReachabilityPredicate)
{
    VersionInfo v;
    v.cacheOwner = kNoProc;
    EXPECT_FALSE(v.reachable());
    v.inMhb = true;
    EXPECT_TRUE(v.reachable());
    v.inMhb = false;
    v.inMemory = true;
    EXPECT_TRUE(v.reachable());
    v.inMemory = false;
    v.cacheOwner = 3;
    EXPECT_TRUE(v.reachable());
}

TEST(VersionMap, RandomChurnMatchesModel)
{
    // Seeded create/remove/mask churn against a std::map model of each
    // line's versions (producer -> incarnation, write mask); the
    // visibility and word-writer queries must agree after every step.
    struct Version {
        std::uint32_t incarnation;
        std::uint8_t mask;
    };
    std::mt19937_64 rng(0x7e55);
    VersionMap map;
    std::map<Addr, std::map<TaskId, Version>> model;
    std::size_t versions = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr line = Addr(rng() % 40) * 64;
        const TaskId producer = TaskId(1 + rng() % 20);
        const auto incarnation = std::uint32_t(1 + rng() % 2);
        const VersionTag tag{producer, incarnation};
        const auto bit = std::uint8_t(1u << (rng() % 8));
        auto &lineModel = model[line];
        auto it = lineModel.find(producer);
        switch (rng() % 4) {
        case 0: // a store creates its version, or widens its mask
            if (it == lineModel.end()) {
                map.create(line, tag, ProcId(producer % 16)).writeMask =
                    bit;
                lineModel.emplace(producer, Version{incarnation, bit});
                ++versions;
            } else {
                VersionInfo *v = map.find(
                    line, VersionTag{producer, it->second.incarnation});
                ASSERT_NE(v, nullptr) << "op " << i;
                v->writeMask |= bit;
                it->second.mask |= bit;
            }
            break;
        case 1: // squash or merge: remove; a wrong incarnation is a no-op
            map.remove(line, tag);
            if (it != lineModel.end() &&
                it->second.incarnation == incarnation) {
                lineModel.erase(it);
                --versions;
            }
            break;
        default: { // a load's queries
            const TaskId reader = TaskId(rng() % 24);
            VersionInfo *seen = map.latestVisible(line, reader);
            auto vis = lineModel.upper_bound(reader);
            if (vis == lineModel.begin()) {
                ASSERT_EQ(seen, nullptr) << "op " << i;
            } else {
                --vis;
                ASSERT_NE(seen, nullptr) << "op " << i;
                EXPECT_EQ(seen->tag.producer, vis->first);
                EXPECT_EQ(seen->tag.incarnation, vis->second.incarnation);
                EXPECT_EQ(seen->writeMask, vis->second.mask);
            }
            TaskId writer = 0;
            for (const auto &[p, v] : lineModel) {
                if (p <= reader && (v.mask & bit))
                    writer = p;
            }
            ASSERT_EQ(map.latestWordWriter(line, bit, reader), writer)
                << "op " << i;
            break;
        }
        }
        if (lineModel.empty())
            model.erase(line);
        ASSERT_EQ(map.totalVersions(), versions) << "op " << i;
        ASSERT_EQ(map.linesTracked(), model.size()) << "op " << i;
    }
    for (const auto &[line, lineModel] : model) {
        const VersionList &list = map.versionsOf(line);
        ASSERT_EQ(list.size(), lineModel.size());
        auto v = list.begin();
        for (const auto &[producer, version] : lineModel) {
            EXPECT_EQ(v->tag.producer, producer);
            EXPECT_EQ(v->tag.incarnation, version.incarnation);
            ++v;
        }
    }
}
