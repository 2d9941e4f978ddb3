/**
 * @file
 * Tests for the scaled machine configurations (mesh64/128/256, CMP-32):
 * factory/byName sanity, hierarchical-directory fields, full synthetic
 * runs on the largest machines, and an overflow area that grows past
 * thousands of spilled versions.
 */

#include <gtest/gtest.h>

#include "apps/synth_workload.hpp"
#include "mem/machine_params.hpp"
#include "sim/study.hpp"
#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using mem::MachineParams;

TEST(MachineScale, ByNameResolvesEveryConfiguration)
{
    const struct {
        const char *name;
        unsigned procs;
    } expected[] = {
        {"numa16", 16}, {"cmp8", 8},     {"mesh64", 64},
        {"mesh128", 128}, {"mesh256", 256}, {"cmp32", 32},
    };
    for (const auto &e : expected) {
        MachineParams m;
        ASSERT_TRUE(MachineParams::byName(e.name, &m)) << e.name;
        EXPECT_EQ(m.name, e.name);
        EXPECT_EQ(m.numProcs, e.procs) << e.name;
    }
    MachineParams m;
    EXPECT_FALSE(MachineParams::byName("mesh32", &m));
    EXPECT_FALSE(MachineParams::byName("", &m));
}

TEST(MachineScale, MeshLatenciesGrowWithNodeCount)
{
    MachineParams base = MachineParams::numa16();
    MachineParams prev = base;
    for (unsigned nodes : {64u, 128u, 256u}) {
        MachineParams m = MachineParams::mesh(nodes);
        EXPECT_EQ(m.numProcs, nodes);
        EXPECT_TRUE(m.isNuma());
        // Wire/hop-delay scaling: strictly longer remote round trips
        // than the next-smaller mesh, local latencies untouched.
        EXPECT_GT(m.latRemote2Hop, prev.latRemote2Hop);
        EXPECT_GT(m.latRemote3Hop, prev.latRemote3Hop);
        EXPECT_EQ(m.latLocalMem, base.latLocalMem);
        EXPECT_EQ(m.latL2, base.latL2);
        prev = m;
    }
}

TEST(MachineScale, ScaledMachinesBankDirectoriesHierarchically)
{
    for (const char *name : {"mesh64", "mesh128", "mesh256", "cmp32"}) {
        MachineParams m;
        ASSERT_TRUE(MachineParams::byName(name, &m));
        EXPECT_GT(m.dirClusterNodes, 1u) << name;
        EXPECT_GT(m.latDirCluster, 0u) << name;
        EXPECT_EQ(m.numProcs % m.dirClusterNodes, 0u) << name;
    }
    // The paper's machines stay flat.
    EXPECT_EQ(MachineParams::numa16().dirClusterNodes, 0u);
    EXPECT_EQ(MachineParams::cmp8().dirClusterNodes, 0u);
}

// ---------------------------------------------------------------------
// A full synthetic sweep point on the largest machines completes.

namespace {

void
runAllKinds(const MachineParams &machine)
{
    // Modest per-kind sizes; every scheme that stresses a different
    // structure (MTID tags, overflow area, FMM undo log).
    const std::vector<tls::SchemeConfig> schemes = {
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::EagerAMM),
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::LazyAMM),
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::FMM),
    };
    for (apps::SynthSpec spec :
         apps::synthSuite(/*tasks=*/16, /*footprint=*/64, 0xabcULL)) {
        for (const tls::SchemeConfig &scheme : schemes) {
            tls::RunResult res =
                sim::runSynthScheme(spec, scheme, machine);
            EXPECT_EQ(res.committedTasks, spec.tasks)
                << machine.name << " " << spec.canonical() << " "
                << scheme.name();
        }
    }
}

} // namespace

TEST(MachineScale, Mesh256CompletesSynthRuns)
{
    runAllKinds(MachineParams::mesh(256));
}

TEST(MachineScale, Cmp32CompletesSynthRuns)
{
    runAllKinds(MachineParams::cmp32());
}

TEST(MachineScale, OverflowAreaGrowsPastTheOldFrozenCapacity)
{
    // One task stores 4200 distinct lines through a 32-line L2 under
    // Lazy AMM: nearly every version spills, more than the 4096 a
    // processor's overflow area was once capped at on the scaled
    // machines. The area grows and every line commits.
    constexpr int kLines = 4200;
    MachineParams m = MachineParams::mesh(64);
    m.l2 = mem::CacheGeometry::of(16 * 64 * 2, 2);
    m.l1 = mem::CacheGeometry::of(4 * 64 * 2, 2);
    std::vector<cpu::Op> ops;
    for (int w = 0; w < kLines; ++w)
        ops.push_back(cpu::Op::store(0x4000'0000 + Addr(w) * 64));
    tls::EngineConfig cfg;
    cfg.scheme = tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                         tls::Merging::LazyAMM);
    cfg.machine = m;
    tls::ScriptedWorkload wl({ops});
    tls::RunResult res = tls::SpeculationEngine(cfg, wl).run();
    EXPECT_EQ(res.committedTasks, 1u);
    EXPECT_GT(res.counters.get("overflow_spills"), 4096u);
    EXPECT_EQ(res.memStateLines, std::uint64_t(kLines));
}
