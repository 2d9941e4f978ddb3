/**
 * @file
 * Engine basics on scripted workloads: lifecycle, commit ordering,
 * accounting invariants, sequential baseline, invocation barriers.
 */

#include <gtest/gtest.h>

#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using namespace tlsim::tls;
using cpu::Op;

namespace {

std::vector<Op>
simpleTask(Addr base, unsigned writes = 4, unsigned instrs = 400)
{
    std::vector<Op> ops;
    ops.push_back(Op::compute(instrs / 2));
    for (unsigned i = 0; i < writes; ++i)
        ops.push_back(Op::store(base + i * 8));
    ops.push_back(Op::compute(instrs / 2));
    for (unsigned i = 0; i < writes; ++i)
        ops.push_back(Op::load(base + i * 8));
    return ops;
}

EngineConfig
numaConfig(Separation sep, Merging merge, bool sw = false)
{
    EngineConfig cfg;
    cfg.scheme = SchemeConfig::make(sep, merge, sw);
    cfg.machine = mem::MachineParams::numa16();
    return cfg;
}

} // namespace

TEST(EngineBasic, SingleTaskRunsAndCommits)
{
    ScriptedWorkload wl({simpleTask(0x1000)});
    SpeculationEngine engine(
        numaConfig(Separation::MultiTMV, Merging::EagerAMM), wl);
    RunResult res = engine.run();
    EXPECT_EQ(res.committedTasks, 1u);
    EXPECT_GT(res.execTime, 0u);
    EXPECT_EQ(res.squashEvents, 0u);
}

TEST(EngineBasic, AllTasksCommitUnderEveryScheme)
{
    for (const SchemeConfig &scheme : SchemeConfig::evaluatedSchemes()) {
        std::vector<std::vector<Op>> tasks;
        for (int t = 0; t < 40; ++t)
            tasks.push_back(simpleTask(0x4000'0000 + Addr(t) * 4096));
        ScriptedWorkload wl(std::move(tasks));
        EngineConfig cfg;
        cfg.scheme = scheme;
        cfg.machine = mem::MachineParams::numa16();
        SpeculationEngine engine(cfg, wl);
        RunResult res = engine.run();
        EXPECT_EQ(res.committedTasks, 40u) << scheme.name();
    }
}

TEST(EngineBasic, BreakdownSumsToExecTimePerProcessor)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < 48; ++t)
        tasks.push_back(simpleTask(0x4000'0000 + Addr(t) * 4096, 8));
    ScriptedWorkload wl(std::move(tasks));
    SpeculationEngine engine(
        numaConfig(Separation::MultiTMV, Merging::LazyAMM), wl);
    RunResult res = engine.run();
    for (const CycleBreakdown &b : res.perProc)
        EXPECT_EQ(b.total(), res.execTime);
}

TEST(EngineBasic, CommitsRespectTaskOrder)
{
    // Task 1 is much longer than the rest: nobody may commit before it.
    std::vector<std::vector<Op>> tasks;
    tasks.push_back(
        {Op::compute(50'000), Op::store(0x5000'0000)});
    for (int t = 1; t < 16; ++t)
        tasks.push_back(simpleTask(0x4000'0000 + Addr(t) * 4096));
    ScriptedWorkload wl(std::move(tasks));
    SpeculationEngine engine(
        numaConfig(Separation::MultiTMV, Merging::EagerAMM), wl);
    RunResult res = engine.run();
    Cycle commit1 = res.timelines[0].commitEnd;
    for (const TaskTimeline &tl : res.timelines)
        EXPECT_GE(tl.commitEnd, commit1);
    // And commit order is strictly increasing in task id.
    for (std::size_t i = 1; i < res.timelines.size(); ++i)
        EXPECT_GE(res.timelines[i].commitEnd,
                  res.timelines[i - 1].commitEnd);
}

TEST(EngineBasic, SequentialBaselineUsesOneProcessor)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < 8; ++t)
        tasks.push_back(simpleTask(0x4000'0000 + Addr(t) * 4096));
    ScriptedWorkload wl(std::move(tasks));
    EngineConfig cfg =
        numaConfig(Separation::MultiTMV, Merging::EagerAMM);
    cfg.sequential = true;
    SpeculationEngine engine(cfg, wl);
    RunResult res = engine.run();
    EXPECT_EQ(res.committedTasks, 8u);
    // Only processor 0 accumulates busy time.
    EXPECT_GT(res.perProc[0].busy(), 0u);
    for (std::size_t p = 1; p < res.perProc.size(); ++p)
        EXPECT_EQ(res.perProc[p].busy(), 0u);
}

TEST(EngineBasic, ParallelBeatsSequentialOnIndependentTasks)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < 64; ++t)
        tasks.push_back(
            simpleTask(0x4000'0000 + Addr(t) * 4096, 4, 4000));
    ScriptedWorkload wl(tasks);
    ScriptedWorkload wl2(tasks);

    EngineConfig cfg =
        numaConfig(Separation::MultiTMV, Merging::LazyAMM);
    SpeculationEngine par(cfg, wl);
    Cycle par_time = par.run().execTime;

    cfg.sequential = true;
    SpeculationEngine seq(cfg, wl2);
    Cycle seq_time = seq.run().execTime;

    EXPECT_LT(par_time * 4, seq_time); // at least 4x on 16 procs
}

TEST(EngineBasic, DeterministicAcrossRuns)
{
    auto make_tasks = [] {
        std::vector<std::vector<Op>> tasks;
        for (int t = 0; t < 32; ++t)
            tasks.push_back(
                simpleTask(0x4000'0000 + Addr(t) * 4096, 6));
        return tasks;
    };
    ScriptedWorkload a(make_tasks()), b(make_tasks());
    EngineConfig cfg =
        numaConfig(Separation::MultiTMV, Merging::LazyAMM);
    Cycle t1 = SpeculationEngine(cfg, a).run().execTime;
    Cycle t2 = SpeculationEngine(cfg, b).run().execTime;
    EXPECT_EQ(t1, t2);
}

TEST(EngineBasic, InvocationBarriersSeparateBatches)
{
    // 2 invocations of 8 tasks: no task of invocation 2 may start
    // executing before every task of invocation 1 committed.
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < 16; ++t)
        tasks.push_back(simpleTask(0x4000'0000 + Addr(t) * 4096));
    ScriptedWorkload wl(std::move(tasks), 8);
    SpeculationEngine engine(
        numaConfig(Separation::MultiTMV, Merging::EagerAMM), wl);
    RunResult res = engine.run();
    Cycle last_commit_1 = 0;
    for (int t = 0; t < 8; ++t)
        last_commit_1 =
            std::max(last_commit_1, res.timelines[t].commitEnd);
    for (int t = 8; t < 16; ++t)
        EXPECT_GE(res.timelines[t].execStart, last_commit_1);
    EXPECT_EQ(res.counters.get("invocations"), 1u); // one barrier crossed
}

TEST(EngineBasic, BusyCyclesIdenticalAcrossSchemesWithoutSquashes)
{
    // The instruction stream is scheme-independent; with no squashes,
    // total Busy must match across every scheme.
    auto make_tasks = [] {
        std::vector<std::vector<Op>> tasks;
        for (int t = 0; t < 24; ++t)
            tasks.push_back(
                simpleTask(0x4000'0000 + Addr(t) * 4096, 8, 2000));
        return tasks;
    };
    Cycle reference = 0;
    for (const SchemeConfig &scheme :
         SchemeConfig::evaluatedSchemes()) {
        if (scheme.softwareLog)
            continue; // FMM.Sw adds logging instructions by design
        ScriptedWorkload wl(make_tasks());
        EngineConfig cfg;
        cfg.scheme = scheme;
        cfg.machine = mem::MachineParams::numa16();
        SpeculationEngine engine(cfg, wl);
        RunResult res = engine.run();
        Cycle busy = res.total.get(CycleKind::Busy);
        if (reference == 0)
            reference = busy;
        EXPECT_EQ(busy, reference) << scheme.name();
    }
}

TEST(EngineBasic, WrittenFootprintIsMeasured)
{
    // 16 distinct words = 128 bytes = 0.125 KB.
    std::vector<Op> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(Op::store(0x1000'0000 + i * 8));
    ScriptedWorkload wl({ops});
    SpeculationEngine engine(
        numaConfig(Separation::MultiTMV, Merging::EagerAMM), wl);
    RunResult res = engine.run();
    EXPECT_NEAR(res.avgWrittenKb, 0.125, 1e-9);
    EXPECT_DOUBLE_EQ(res.privFraction, 1.0); // all in the priv region
}
