/**
 * @file
 * Tests for the global version bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <vector>

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

TEST(VersionMap, SetMemoryHolderKeepsOneHolderPerLine)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.create(9, VersionTag{4, 1}, 2);
    VersionInfo *v3 = map.find(5, VersionTag{3, 1});
    VersionInfo *v7 = map.find(5, VersionTag{7, 1});
    VersionInfo *other = map.find(9, VersionTag{4, 1});

    EXPECT_EQ(map.setMemoryHolder(5, v3), nullptr); // no previous holder
    EXPECT_EQ(map.setMemoryHolder(9, other), nullptr);
    EXPECT_EQ(map.memoryHolder(5), v3);
    EXPECT_EQ(map.setMemoryHolder(5, v3), nullptr); // already the holder
    EXPECT_TRUE(v3->inMemory);

    // A second holder clears the first and returns it.
    EXPECT_EQ(map.setMemoryHolder(5, v7), v3);
    EXPECT_FALSE(v3->inMemory);
    EXPECT_TRUE(v7->inMemory);
    EXPECT_EQ(map.memoryHolder(5), v7);
    EXPECT_TRUE(other->inMemory); // other lines are untouched

    // nullptr: memory now holds a version that is no longer tracked.
    EXPECT_EQ(map.setMemoryHolder(5, nullptr), v7);
    EXPECT_FALSE(v7->inMemory);
    EXPECT_EQ(map.memoryHolder(5), nullptr);
    EXPECT_EQ(map.setMemoryHolder(5, nullptr), nullptr);
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

TEST(VersionMap, LongListsMatchModel)
{
    // Lines with a few hundred producers each, as Eager AMM's kept
    // write history builds them, created in random producer order and
    // interleaved across lines, against a std::map model. Producer-keyed
    // lookups, removal, the memory holder and the latest committed
    // version must agree after every step.
    struct Version {
        std::uint32_t incarnation;
        bool committed = false;
    };
    constexpr Addr kLines[] = {0x40, 0x1000, 0x1040, 0x7fc0};
    constexpr TaskId kProducers = 300;
    std::mt19937_64 rng(0x10e6);
    std::vector<std::pair<Addr, TaskId>> pending;
    for (Addr line : kLines)
        for (TaskId p = 1; p <= kProducers; ++p)
            pending.emplace_back(line, p);
    std::shuffle(pending.begin(), pending.end(), rng);

    VersionMap map;
    std::map<Addr, std::map<TaskId, Version>> model;
    std::map<Addr, TaskId> holder; // line -> producer held in memory
    std::size_t versions = 0;

    // A random version of a line's model, or end() when it has none.
    auto pick = [&](Addr line) {
        auto &lm = model[line];
        if (lm.empty())
            return lm.end();
        auto it = lm.begin();
        std::advance(it, rng() % lm.size());
        return it;
    };
    auto check = [&](Addr line, int step) {
        const auto &lm = model[line];
        if (auto it = pick(line); it != model[line].end()) {
            const VersionTag tag{it->first, it->second.incarnation};
            VersionInfo *v = map.find(line, tag);
            ASSERT_NE(v, nullptr) << "step " << step;
            EXPECT_EQ(v->tag, tag);
            EXPECT_EQ(v->committed, it->second.committed);
            EXPECT_EQ(map.find(line, VersionTag{it->first,
                                                tag.incarnation + 1}),
                      nullptr)
                << "step " << step;
        }
        const TaskId absent = 1 + rng() % (kProducers + 20);
        if (!lm.count(absent)) {
            EXPECT_EQ(map.find(line, VersionTag{absent, 1}), nullptr)
                << "step " << step;
        }
        VersionInfo *held = map.memoryHolder(line);
        auto h = holder.find(line);
        if (h == holder.end()) {
            EXPECT_EQ(held, nullptr) << "step " << step;
        } else {
            ASSERT_NE(held, nullptr) << "step " << step;
            EXPECT_EQ(held->tag.producer, h->second);
        }
        VersionInfo *latest = map.latestCommitted(line);
        auto lc = std::find_if(lm.rbegin(), lm.rend(), [](const auto &e) {
            return e.second.committed;
        });
        if (lc == lm.rend()) {
            EXPECT_EQ(latest, nullptr) << "step " << step;
        } else {
            ASSERT_NE(latest, nullptr) << "step " << step;
            EXPECT_EQ(latest->tag.producer, lc->first);
        }
    };

    for (int step = 0; !pending.empty(); ++step) {
        const Addr line = kLines[rng() % std::size(kLines)];
        switch (rng() % 8) {
        case 0: { // squash: remove, with a wrong incarnation half the time
            auto it = pick(line);
            if (it == model[line].end())
                break;
            const bool wrong = rng() % 2;
            map.remove(line, VersionTag{it->first,
                                        it->second.incarnation + wrong});
            if (!wrong) {
                if (holder.count(line) && holder[line] == it->first)
                    holder.erase(line);
                model[line].erase(it);
                --versions;
            }
            break;
        }
        case 1: { // commit
            auto it = pick(line);
            if (it == model[line].end())
                break;
            map.find(line, VersionTag{it->first, it->second.incarnation})
                ->committed = true;
            it->second.committed = true;
            break;
        }
        case 2: { // write-back: exactly one holder per line
            auto it = pick(line);
            if (it == model[line].end())
                break;
            if (holder.count(line)) {
                map.find(line,
                         VersionTag{holder[line],
                                    model[line][holder[line]].incarnation})
                    ->inMemory = false;
            }
            map.find(line, VersionTag{it->first, it->second.incarnation})
                ->inMemory = true;
            holder[line] = it->first;
            break;
        }
        default: { // the next store creates its version
            const auto [l, producer] = pending.back();
            pending.pop_back();
            const auto incarnation = std::uint32_t(1 + rng() % 3);
            map.create(l, VersionTag{producer, incarnation},
                       ProcId(producer % 16));
            model[l].emplace(producer, Version{incarnation});
            ++versions;
            break;
        }
        }
        ASSERT_EQ(map.totalVersions(), versions) << "step " << step;
        for (Addr l : kLines) {
            check(l, step);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
    std::size_t longest = 0;
    for (Addr line : kLines)
        longest = std::max(longest, map.versionsOf(line).size());
    EXPECT_GE(longest, 200u); // the lists really grew long
}
