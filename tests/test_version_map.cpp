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
    VersionMap map(Merging::LazyAMM);
    EXPECT_EQ(map.listOf(5), nullptr);
    EXPECT_FALSE(map.anyVersion(5));
}

TEST(VersionMap, LatestVisibleRespectsTaskOrder)
{
    VersionMap map(Merging::LazyAMM);
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.create(5, VersionTag{9, 1}, 2);
    VersionList &list = *map.listOf(5);

    // before all versions
    EXPECT_EQ(VersionMap::latestVisibleIn(list, 2), nullptr);
    // own version
    EXPECT_EQ(VersionMap::latestVisibleIn(list, 3)->tag.producer, 3u);
    EXPECT_EQ(VersionMap::latestVisibleIn(list, 5)->tag.producer, 3u);
    EXPECT_EQ(VersionMap::latestVisibleIn(list, 8)->tag.producer, 7u);
    EXPECT_EQ(VersionMap::latestVisibleIn(list, 100)->tag.producer, 9u);
}

TEST(VersionMap, CreateKeepsSortedOrderRegardlessOfInsertion)
{
    VersionMap map(Merging::FMM);
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
    VersionMap map(Merging::FMM);
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
    VersionMap map(Merging::FMM);
    map.create(5, VersionTag{3, 2}, 0);
    map.remove(5, VersionTag{3, 1});
    EXPECT_NE(map.find(5, VersionTag{3, 2}), nullptr);
}

TEST(VersionMap, MemoryHolderFindsTheVersionInMemory)
{
    VersionMap map(Merging::LazyAMM);
    map.create(5, VersionTag{3, 1}, 0);
    auto &v7 = map.create(5, VersionTag{7, 1}, 1);
    EXPECT_EQ(map.memoryHolder(5), nullptr);
    map.commit(5, v7);
    map.writeBack(5, &v7);
    ASSERT_NE(map.memoryHolder(5), nullptr);
    EXPECT_EQ(map.memoryHolder(5)->tag.producer, 7u);
}

TEST(VersionMap, SetMemoryHolderKeepsOneHolderPerLine)
{
    VersionMap map(Merging::FMM);
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.create(9, VersionTag{4, 1}, 2);
    VersionInfo *v3 = map.find(5, VersionTag{3, 1});
    VersionInfo *v7 = map.find(5, VersionTag{7, 1});
    VersionInfo *other = map.find(9, VersionTag{4, 1});

    EXPECT_EQ(map.writeBack(5, v3), nullptr); // no previous holder
    EXPECT_EQ(map.writeBack(9, other), nullptr);
    EXPECT_EQ(map.memoryHolder(5), v3);
    EXPECT_EQ(v3->cacheOwner, kNoProc); // the cached copy went home
    EXPECT_EQ(map.writeBack(5, v3), nullptr); // already the holder
    EXPECT_TRUE(v3->inMemory);

    // A second holder clears the first and returns it; under FMM the
    // caller parks it, since memory was its only copy.
    EXPECT_EQ(map.writeBack(5, v7), v3);
    EXPECT_FALSE(v3->inMemory);
    map.parkInMhb(5, *v3, 1);
    EXPECT_TRUE(v7->inMemory);
    EXPECT_EQ(map.memoryHolder(5), v7);
    EXPECT_TRUE(other->inMemory); // other lines are untouched

    // nullptr: memory now holds a version that is no longer tracked.
    EXPECT_EQ(map.writeBack(5, nullptr), v7);
    EXPECT_FALSE(v7->inMemory);
    map.parkInMhb(5, *v7, 1);
    EXPECT_EQ(map.memoryHolder(5), nullptr);
    EXPECT_EQ(map.writeBack(5, nullptr), nullptr);
}

TEST(VersionMap, RestoreKeepsCachedCopies)
{
    // FMM recovery puts an older version back into memory; the copies
    // it already had stay where they are.
    VersionMap map(Merging::FMM);
    map.create(5, VersionTag{3, 1}, 2);
    VersionInfo *v3 = map.find(5, VersionTag{3, 1});
    EXPECT_EQ(map.restore(5, v3), nullptr);
    EXPECT_TRUE(v3->inMemory);
    EXPECT_EQ(v3->cacheOwner, 2u);
}

TEST(VersionMap, LatestCommittedIgnoresSpeculativeVersions)
{
    VersionMap map(Merging::LazyAMM);
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1); // speculative
    EXPECT_EQ(map.latestCommitted(5), nullptr);
    // (pointers are invalidated by create: re-find before mutating)
    map.commit(5, *map.find(5, VersionTag{3, 1}));
    EXPECT_EQ(map.latestCommitted(5)->tag.producer, 3u);
}

TEST(VersionMap, LatestWordWriterUsesWriteMasks)
{
    // Word-granularity visibility for violation detection: a version
    // only "wrote" the words in its mask.
    VersionMap map(Merging::LazyAMM);
    map.create(5, VersionTag{3, 1}, 0).writeMask = 0x01; // word 0
    map.create(5, VersionTag{7, 1}, 1).writeMask = 0x02; // word 1
    const VersionList &list = *map.listOf(5);

    EXPECT_EQ(VersionMap::latestWordWriterIn(list, 0x01, 10), 3u);
    EXPECT_EQ(VersionMap::latestWordWriterIn(list, 0x02, 10), 7u);
    // nobody: arch
    EXPECT_EQ(VersionMap::latestWordWriterIn(list, 0x04, 10), 0u);
    // v7 not visible
    EXPECT_EQ(VersionMap::latestWordWriterIn(list, 0x02, 5), 0u);
}

TEST(VersionMap, ForEachVisitsEveryVersion)
{
    VersionMap map(Merging::LazyAMM);
    map.create(1, VersionTag{1, 1}, 0);
    map.create(1, VersionTag{2, 1}, 0);
    map.create(2, VersionTag{3, 1}, 0);
    int n = 0;
    map.forEach([&](Addr, VersionInfo &) { ++n; });
    EXPECT_EQ(n, 3);
    EXPECT_EQ(map.linesTracked(), 2u);
    map.spill(1, *map.find(1, VersionTag{1, 1}));
    map.clear();
    EXPECT_EQ(map.totalVersions(), 0u);
    EXPECT_EQ(map.spilledBy(0), 0u);
}

TEST(VersionMap, SpillAndRefillCountPerOwner)
{
    VersionMap map(Merging::EagerAMM);
    map.create(1, VersionTag{1, 1}, 0);
    map.create(2, VersionTag{1, 1}, 0);
    map.create(1, VersionTag{2, 1}, 3);
    map.spill(1, *map.find(1, VersionTag{1, 1}));
    map.spill(2, *map.find(2, VersionTag{1, 1}));
    map.spill(1, *map.find(1, VersionTag{2, 1}));
    EXPECT_EQ(map.spilledBy(0), 2u);
    EXPECT_EQ(map.spilledBy(3), 1u);
    EXPECT_EQ(map.spilledBy(7), 0u); // never spilled: no slot needed

    VersionInfo *v = map.find(2, VersionTag{1, 1});
    map.refill(2, *v, 0);
    EXPECT_FALSE(v->inOverflow);
    EXPECT_EQ(v->cacheOwner, 0u);
    EXPECT_EQ(map.spilledBy(0), 1u);
    map.remove(1, VersionTag{2, 1}); // a squash frees the spilled copy
    EXPECT_EQ(map.spilledBy(3), 0u);
}

TEST(VersionMap, SupersededCommittedVersionsMayHaveNoLocation)
{
    // Eager AMM's kept write history: once a later committed version
    // is memory's holder, the earlier one has no copy anywhere.
    VersionMap map(Merging::EagerAMM);
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    VersionInfo *v3 = map.find(5, VersionTag{3, 1});
    VersionInfo *v7 = map.find(5, VersionTag{7, 1});
    map.commit(5, *v3);
    map.writeBack(5, v3);
    map.commit(5, *v7);
    EXPECT_EQ(map.writeBack(5, v7), v3);
    EXPECT_FALSE(v3->inMemory);
    EXPECT_EQ(v3->cacheOwner, kNoProc);
    EXPECT_EQ(v3->mhbProc, kNoProc);
}

TEST(VersionMapDeath, DuplicateProducerPanics)
{
    VersionMap map(Merging::LazyAMM);
    map.create(5, VersionTag{3, 1}, 0);
    EXPECT_DEATH(map.create(5, VersionTag{3, 2}, 0), "duplicate");
}

TEST(VersionMapDeath, SpillingTwicePanics)
{
    VersionMap map(Merging::LazyAMM);
    VersionInfo &v = map.create(5, VersionTag{3, 1}, 0);
    map.spill(5, v);
    EXPECT_DEATH(map.spill(5, v), "no L2 copy to spill");
}

TEST(VersionMapDeath, AmmWriteBackLeftCachedPanics)
{
    // Under AMM every write-back takes the version out of the caches;
    // a version that memory holds and an L2 caches again is illegal
    // (only FMM refetches its own version out of memory).
    VersionMap map(Merging::LazyAMM);
    VersionInfo &v = map.create(5, VersionTag{3, 1}, 0);
    map.commit(5, v);
    map.writeBack(5, &v);
    EXPECT_DEATH(map.refill(5, v, 0),
                 "both memory's holder and cached under AMM");
}

TEST(VersionMapDeath, ParkInMhbUnderAmmPanics)
{
    VersionMap map(Merging::EagerAMM);
    VersionInfo &v = map.create(5, VersionTag{3, 1}, 0);
    EXPECT_DEATH(map.parkInMhb(5, v, 1), "in an MHB under AMM");
}

TEST(VersionMapDeath, UncommittedVersionWithNoLocationPanics)
{
    VersionMap map(Merging::LazyAMM);
    VersionInfo &v = map.create(5, VersionTag{3, 1}, 0);
    EXPECT_DEATH(map.dropCopy(5, v), "left with no location");
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
    VersionMap map(Merging::FMM);
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
            VersionList *list = map.listOf(line);
            VersionInfo *seen =
                list ? VersionMap::latestVisibleIn(*list, reader) : nullptr;
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
            ASSERT_EQ(list ? VersionMap::latestWordWriterIn(*list, bit, reader)
                           : 0,
                      writer)
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

    VersionMap map(Merging::FMM);
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
            map.commit(line, *map.find(line, VersionTag{
                                             it->first,
                                             it->second.incarnation}));
            it->second.committed = true;
            break;
        }
        case 2: { // write-back: exactly one holder per line
            auto it = pick(line);
            if (it == model[line].end())
                break;
            VersionInfo *old = map.writeBack(
                line,
                map.find(line, VersionTag{it->first, it->second.incarnation}));
            // The displaced holder's only copy goes to an MHB (FMM).
            if (old)
                map.parkInMhb(line, *old, 0);
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

TEST(VersionMap, LocationChurnMatchesModel)
{
    // Seeded churn over every location transition, under FMM (whose
    // legal states are the widest), against a model of each version's
    // location. A step only takes a transition whose result is legal —
    // the engine's own preconditions; the death tests cover the rest.
    // Each processor's spilled count is recounted from the model after
    // every step.
    struct Loc {
        std::uint32_t incarnation;
        ProcId cacheOwner;
        bool committed = false;
        bool inMemory = false;
        bool inOverflow = false;
        ProcId mhbProc = kNoProc;
    };
    constexpr ProcId kProcs = 6;
    std::mt19937_64 rng(0x10ca7e);
    VersionMap map(Merging::FMM);
    std::map<Addr, std::map<TaskId, Loc>> model;
    std::size_t spills = 0, refills = 0, writeBacks = 0, parks = 0;

    auto same = [](const VersionInfo &v, const Loc &m) {
        return v.committed == m.committed && v.inMemory == m.inMemory &&
               v.cacheOwner == m.cacheOwner &&
               v.inOverflow == m.inOverflow && v.mhbProc == m.mhbProc;
    };
    for (int i = 0; i < 20000; ++i) {
        const Addr line = Addr(rng() % 24) * 64;
        const TaskId producer = TaskId(1 + rng() % 12);
        const unsigned op = unsigned(rng() % 8);
        const ProcId proc = ProcId(rng() % kProcs);
        auto &lm = model[line];
        auto it = lm.find(producer);
        if (it == lm.end()) { // a store creates the version
            const auto incarnation = std::uint32_t(1 + rng() % 2);
            map.create(line, VersionTag{producer, incarnation}, proc);
            lm.emplace(producer, Loc{incarnation, proc});
            continue;
        }
        Loc &m = it->second;
        VersionInfo &v =
            *map.find(line, VersionTag{producer, m.incarnation});
        switch (op) {
        case 0:
            map.commit(line, v);
            m.committed = true;
            break;
        case 1: // L2 displacement
            if (m.cacheOwner == kNoProc || m.inOverflow)
                break;
            map.spill(line, v);
            m.inOverflow = true;
            ++spills;
            break;
        case 2: // back into an L2: from the overflow area, or FMM's
                // refetch out of memory or an MHB
            if (m.inOverflow) {
                map.refill(line, v, m.cacheOwner);
                m.inOverflow = false;
            } else if (m.cacheOwner == kNoProc) {
                map.refill(line, v, proc);
                m.cacheOwner = proc;
            } else {
                break;
            }
            ++refills;
            break;
        case 3: { // write-back; memory's displaced only copy is parked
            auto held = std::find_if(lm.begin(), lm.end(), [](auto &e) {
                return e.second.inMemory;
            });
            VersionInfo *old = map.writeBack(line, &v);
            if (held == lm.end() || held == it) {
                ASSERT_EQ(old, nullptr) << "op " << i;
            } else {
                ASSERT_NE(old, nullptr) << "op " << i;
                ASSERT_EQ(old->tag.producer, held->first) << "op " << i;
                held->second.inMemory = false;
                if (old->cacheOwner == kNoProc && old->mhbProc == kNoProc) {
                    map.parkInMhb(line, *old, proc);
                    held->second.mhbProc = proc;
                }
                EXPECT_TRUE(same(*old, held->second)) << "op " << i;
            }
            m.inMemory = true;
            m.cacheOwner = kNoProc;
            m.inOverflow = false;
            ++writeBacks;
            break;
        }
        case 4: // drop the cached copy where another copy stays
            if (!m.inMemory && m.mhbProc == kNoProc)
                break;
            map.dropCopy(line, v);
            m.cacheOwner = kNoProc;
            m.inOverflow = false;
            break;
        case 5:
            map.parkInMhb(line, v, proc);
            m.mhbProc = proc;
            ++parks;
            break;
        default: // squash
            map.remove(line, v.tag);
            lm.erase(it);
            break;
        }
        if (op < 6) {
            VersionInfo *now =
                map.find(line, VersionTag{producer, m.incarnation});
            ASSERT_NE(now, nullptr) << "op " << i;
            ASSERT_TRUE(same(*now, m)) << "op " << i << ": "
                                        << describeVersion(now);
        }
        std::size_t spilled[kProcs] = {};
        for (const auto &[l, versions] : model)
            for (const auto &[p, loc] : versions)
                if (loc.inOverflow)
                    ++spilled[loc.cacheOwner];
        for (ProcId p = 0; p < kProcs; ++p)
            ASSERT_EQ(map.spilledBy(p), spilled[p])
                << "op " << i << " proc " << p;
    }
    std::size_t versions = 0;
    for (const auto &[line, lm] : model) {
        for (const auto &[producer, m] : lm) {
            VersionInfo *v =
                map.find(line, VersionTag{producer, m.incarnation});
            ASSERT_NE(v, nullptr);
            EXPECT_TRUE(same(*v, m)) << describeVersion(v);
            ++versions;
        }
    }
    EXPECT_EQ(map.totalVersions(), versions);
    // Every transition really ran.
    EXPECT_GT(spills, 500u);
    EXPECT_GT(refills, 500u);
    EXPECT_GT(writeBacks, 500u);
    EXPECT_GT(parks, 500u);
}
