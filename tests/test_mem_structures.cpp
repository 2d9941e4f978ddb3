/**
 * @file
 * Tests for the MTID table and machine parameters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "mem/machine_params.hpp"
#include "mem/mtid_table.hpp"

using namespace tlsim;
using namespace tlsim::mem;

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

// Seeded random churn against a small std-container model: every
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
