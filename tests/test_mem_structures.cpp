/**
 * @file
 * Tests for the undo log (MHB), the MTID table and machine parameters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include "mem/machine_params.hpp"
#include "mem/mtid_table.hpp"
#include "mem/undo_log.hpp"

using namespace tlsim;
using namespace tlsim::mem;

TEST(UndoLog, GroupsByOverwritingTask)
{
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{3, 1}});
    log.append(5, UndoLogEntry{11, VersionTag{4, 1}});
    log.append(6, UndoLogEntry{10, VersionTag{5, 1}});
    EXPECT_EQ(log.countOf(5), 2u);
    EXPECT_EQ(log.countOf(6), 1u);
    EXPECT_EQ(log.size(), 3u);
}

TEST(UndoLog, RecoveryReturnsEntriesInReverseOrder)
{
    // FMM recovery replays the MHB in strict reverse order.
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}});
    log.append(5, UndoLogEntry{11, VersionTag{2, 1}});
    log.append(5, UndoLogEntry{12, VersionTag{3, 1}});
    auto entries = log.takeForRecovery(5);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].line, 12u);
    EXPECT_EQ(entries[2].line, 10u);
    EXPECT_EQ(log.countOf(5), 0u);
    EXPECT_EQ(log.size(), 0u);
}

TEST(UndoLog, CommitFreesTheGroup)
{
    // "When an instruction commits, its history buffer entry is freed."
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}});
    log.dropTask(5);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_TRUE(log.takeForRecovery(5).empty());
    EXPECT_EQ(log.totalAppends(), 1u);
}

TEST(UndoLog, RecoveryDrainsOnlyTheSquashedTasksSlab)
{
    // A squash must replay exactly the squashed task's group; groups
    // of other in-flight tasks stay untouched and the drained slab no
    // longer reports entries.
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}});
    log.append(6, UndoLogEntry{20, VersionTag{2, 1}});
    log.append(5, UndoLogEntry{11, VersionTag{3, 1}});
    log.append(7, UndoLogEntry{30, VersionTag{4, 1}});

    std::vector<UndoLogEntry> scratch;
    scratch.push_back(UndoLogEntry{99, VersionTag{9, 9}});
    log.takeForRecovery(5, scratch); // overwrites, never appends
    ASSERT_EQ(scratch.size(), 2u);
    EXPECT_EQ(scratch[0].line, 11u); // reverse append order
    EXPECT_EQ(scratch[1].line, 10u);

    // Task 5's slab is drained...
    EXPECT_EQ(log.countOf(5), 0u);
    EXPECT_TRUE(log.entriesOf(5).empty());
    // ...while the other tasks' groups are intact, entry for entry.
    EXPECT_EQ(log.size(), 2u);
    ASSERT_EQ(log.countOf(6), 1u);
    ASSERT_EQ(log.countOf(7), 1u);
    EXPECT_EQ(log.entriesOf(6)[0].line, 20u);
    EXPECT_EQ(log.entriesOf(6)[0].oldVersion.producer, 2u);
    EXPECT_EQ(log.entriesOf(7)[0].line, 30u);

    // The by-value overload agrees with the in-place one.
    auto six = log.takeForRecovery(6);
    ASSERT_EQ(six.size(), 1u);
    EXPECT_EQ(six[0].line, 20u);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(log.countOf(7), 1u);
}

TEST(UndoLog, RecycledSlotStartsEmptyForTheNextTask)
{
    // Commit and recovery return slab slots to the free list; a task
    // that later reuses the slot must not see stale entries.
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}});
    log.append(5, UndoLogEntry{11, VersionTag{2, 1}});
    log.dropTask(5);
    log.append(8, UndoLogEntry{40, VersionTag{3, 1}});
    EXPECT_EQ(log.countOf(8), 1u);
    EXPECT_EQ(log.entriesOf(8)[0].line, 40u);
    EXPECT_EQ(log.size(), 1u);

    std::vector<UndoLogEntry> scratch;
    log.takeForRecovery(8, scratch);
    ASSERT_EQ(scratch.size(), 1u);
    log.append(9, UndoLogEntry{50, VersionTag{4, 1}});
    EXPECT_EQ(log.countOf(9), 1u);
    EXPECT_EQ(log.entriesOf(9)[0].line, 50u);
}

TEST(MtidTable, DefaultIsArchitectural)
{
    MtidTable t;
    EXPECT_TRUE(t.versionOf(99).isArch());
}

TEST(MtidTable, AcceptsNewerRejectsOlder)
{
    // Zhang99&T: memory selectively rejects write-backs of earlier
    // versions.
    MtidTable t;
    EXPECT_TRUE(t.writeBack(10, VersionTag{5, 1}));
    EXPECT_FALSE(t.wouldAccept(10, VersionTag{3, 1}));
    EXPECT_FALSE(t.writeBack(10, VersionTag{3, 1}));
    EXPECT_TRUE(t.writeBack(10, VersionTag{7, 1}));
    EXPECT_EQ(t.versionOf(10).producer, 7u);
    EXPECT_EQ(t.accepts(), 2u);
    EXPECT_EQ(t.rejects(), 1u);
}

TEST(MtidTable, ReexecutionIncarnationIsAccepted)
{
    MtidTable t;
    t.writeBack(10, VersionTag{5, 1});
    EXPECT_TRUE(t.wouldAccept(10, VersionTag{5, 2}));
    EXPECT_FALSE(t.wouldAccept(10, VersionTag{5, 0}));
}

TEST(MtidTable, RecoveryRestoreBypassesCheck)
{
    MtidTable t;
    t.writeBack(10, VersionTag{5, 1});
    t.set(10, VersionTag{2, 1}); // recovery restores an older version
    EXPECT_EQ(t.versionOf(10).producer, 2u);
    t.set(10, VersionTag::arch());
    EXPECT_EQ(t.taggedLines(), 0u);
}

// Seeded random churn against small std-container models: every
// answer and every counter must match the model's.

TEST(MtidTable, RandomChurnMatchesModel)
{
    std::mt19937_64 rng(0x3717d);
    MtidTable t;
    std::unordered_map<Addr, VersionTag> model;
    std::uint64_t accepts = 0, rejects = 0;
    auto held = [&](Addr line) {
        auto it = model.find(line);
        return it == model.end() ? VersionTag::arch() : it->second;
    };
    auto hold = [&](Addr line, VersionTag tag) {
        if (tag.isArch())
            model.erase(line);
        else
            model[line] = tag;
    };
    for (int i = 0; i < 20000; ++i) {
        const Addr line = Addr(rng() % 64) * 64;
        // Producer 0 is the architectural version; incarnations 0..2
        // cover the same-producer re-execution rule.
        const VersionTag tag{TaskId(rng() % 24),
                             std::uint32_t(rng() % 3)};
        const VersionTag cur = held(line);
        const bool accept =
            tag.producer > cur.producer ||
            (tag.producer == cur.producer &&
             tag.incarnation >= cur.incarnation);
        ASSERT_EQ(t.wouldAccept(line, tag), accept) << "op " << i;
        if (rng() % 4 == 0) { // recovery restore: bypasses the check
            t.set(line, tag);
            hold(line, tag);
        } else {
            ASSERT_EQ(t.writeBack(line, tag), accept) << "op " << i;
            if (accept) {
                ++accepts;
                hold(line, tag);
            } else {
                ++rejects;
            }
        }
        ASSERT_EQ(t.taggedLines(), model.size()) << "op " << i;
    }
    for (Addr line = 0; line < 64 * 64; line += 64)
        EXPECT_EQ(t.versionOf(line), held(line)) << "line " << line;
    EXPECT_EQ(t.accepts(), accepts);
    EXPECT_EQ(t.rejects(), rejects);
}

TEST(UndoLog, RandomChurnRecoversInReverseOrder)
{
    std::mt19937_64 rng(0x0dd);
    UndoLog log;
    std::map<TaskId, std::vector<UndoLogEntry>> model;
    std::vector<UndoLogEntry> scratch;
    std::uint64_t appends = 0;
    for (int i = 0; i < 20000; ++i) {
        const TaskId task = TaskId(1 + rng() % 16);
        const unsigned roll = unsigned(rng() % 10);
        if (roll < 7) {
            const UndoLogEntry e{Addr(rng() % 256) * 64,
                                 VersionTag{TaskId(rng() % 16), 1}};
            log.append(task, e);
            model[task].push_back(e);
            ++appends;
        } else if (roll < 9) { // squash: replay the group backwards
            log.takeForRecovery(task, scratch);
            std::vector<UndoLogEntry> want(model[task].rbegin(),
                                           model[task].rend());
            model.erase(task);
            ASSERT_EQ(scratch.size(), want.size()) << "op " << i;
            for (std::size_t k = 0; k < want.size(); ++k) {
                ASSERT_EQ(scratch[k].line, want[k].line) << "op " << i;
                ASSERT_EQ(scratch[k].oldVersion, want[k].oldVersion);
            }
        } else { // commit: the group is freed
            log.dropTask(task);
            model.erase(task);
        }
        std::size_t live = 0;
        for (const auto &[t, group] : model)
            live += group.size();
        ASSERT_EQ(log.size(), live) << "op " << i;
        ASSERT_EQ(log.countOf(task),
                  model.count(task) ? model[task].size() : 0u);
    }
    EXPECT_EQ(log.totalAppends(), appends);
}

TEST(MachineParams, PaperConfigurations)
{
    MachineParams numa = MachineParams::numa16();
    EXPECT_EQ(numa.numProcs, 16u);
    EXPECT_EQ(numa.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(numa.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(numa.latL2, 12u);
    EXPECT_EQ(numa.latRemote3Hop, 291u);

    MachineParams cmp = MachineParams::cmp8();
    EXPECT_EQ(cmp.numProcs, 8u);
    EXPECT_EQ(cmp.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cmp.latL3, 38u);
    EXPECT_EQ(cmp.latLocalMem, 102u);
    EXPECT_LT(cmp.latL2, numa.latL2);
}

TEST(MachineParams, NumaHomesCoverAllNodesForStridedPages)
{
    // The page-hash must spread power-of-two allocation strides (the
    // regression behind the node-0 hotspot).
    MachineParams numa = MachineParams::numa16();
    std::vector<int> hits(numa.numProcs, 0);
    for (Addr t = 0; t < 256; ++t) {
        Addr line = (Addr(t) << 22) / 64; // 4 MB strided slices
        ++hits[numa.homeOf(line)];
    }
    for (unsigned n = 0; n < numa.numProcs; ++n)
        EXPECT_GT(hits[n], 0) << "node " << n << " never a home";
}

TEST(MachineParams, CmpBanksLineInterleaved)
{
    MachineParams cmp = MachineParams::cmp8();
    EXPECT_EQ(cmp.homeOf(0), 0u);
    EXPECT_EQ(cmp.homeOf(1), 1u);
    EXPECT_EQ(cmp.homeOf(8), 0u);
}
