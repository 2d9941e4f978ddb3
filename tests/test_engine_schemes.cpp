/**
 * @file
 * Scheme-specific engine behavior: SingleT token stalls, MultiT&SV
 * second-version stalls, MultiT&MV version co-existence, Lazy VCL
 * activity, FMM logging and MTID write-backs.
 */

#include <gtest/gtest.h>

#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using namespace tlsim::tls;
using cpu::Op;

namespace {

/** Tasks that all write the same "privatization" line early. */
std::vector<std::vector<Op>>
privTasks(int n, unsigned instrs = 2000)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < n; ++t) {
        std::vector<Op> ops;
        ops.push_back(Op::compute(50));
        for (int w = 0; w < 8; ++w)
            ops.push_back(Op::store(0x1000'0000 + w * 8)); // same line
        ops.push_back(Op::compute(instrs));
        for (int w = 0; w < 8; ++w)
            ops.push_back(Op::load(0x1000'0000 + w * 8));
        tasks.push_back(std::move(ops));
    }
    return tasks;
}

/** Tasks with disjoint footprints. */
std::vector<std::vector<Op>>
disjointTasks(int n, unsigned instrs = 2000)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < n; ++t) {
        std::vector<Op> ops;
        Addr base = 0x4000'0000 + Addr(t) * 4096;
        ops.push_back(Op::compute(instrs / 2));
        for (int w = 0; w < 8; ++w)
            ops.push_back(Op::store(base + w * 8));
        ops.push_back(Op::compute(instrs / 2));
        tasks.push_back(std::move(ops));
    }
    return tasks;
}

RunResult
run(std::vector<std::vector<Op>> tasks, Separation sep, Merging merge,
    bool sw = false, bool numa = true,
    Validation val = Validation::None)
{
    ScriptedWorkload wl(std::move(tasks));
    EngineConfig cfg;
    cfg.scheme = SchemeConfig::make(sep, merge, sw, val);
    cfg.machine = numa ? mem::MachineParams::numa16()
                       : mem::MachineParams::cmp8();
    SpeculationEngine engine(cfg, wl);
    return engine.run();
}

/**
 * Stable producer under squash-and-rewrite churn: task 1's late write
 * squashes task 2 (which early-read it), and task 2's re-execution
 * rewrites the shared word X with the SAME producer id but a new
 * incarnation tag — invalidating every consumer's cached replica.
 * Consumers' first-round reads of X trained their processors'
 * predictors with producer 2; the re-reads after the churn predict
 * that producer, skip the read record, and validate cleanly at commit
 * (the value of a word is a function of its producer alone).
 */
std::vector<std::vector<Op>>
stableProducerTasks(int n)
{
    std::vector<std::vector<Op>> tasks;
    std::vector<Op> trigger;
    trigger.push_back(Op::compute(3000));
    trigger.push_back(Op::store(0x7000'0100)); // D, late
    tasks.push_back(std::move(trigger));
    std::vector<Op> producer;
    producer.push_back(Op::compute(50));
    producer.push_back(Op::load(0x7000'0100)); // D, early: squashed
    producer.push_back(Op::store(0x6000'0000)); // X
    producer.push_back(Op::compute(30'000));
    tasks.push_back(std::move(producer));
    for (int t = 2; t < n; ++t) {
        std::vector<Op> ops;
        ops.push_back(Op::compute(400));
        ops.push_back(Op::load(0x6000'0000));
        ops.push_back(Op::compute(2000));
        Addr base = 0x4000'0000 + Addr(t) * 4096;
        for (int w = 0; w < 4; ++w)
            ops.push_back(Op::store(base + w * 8));
        tasks.push_back(std::move(ops));
    }
    return tasks;
}

/**
 * Early-read / late-write chain over one shared word (the adversarial
 * squash-storm shape): the word's producer migrates with every task,
 * so predictions made from stale training mispredict and squash at
 * commit-token acquisition.
 */
std::vector<std::vector<Op>>
stormTasks(int n)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < n; ++t) {
        std::vector<Op> ops;
        ops.push_back(Op::compute(50));
        if (t > 0)
            ops.push_back(Op::load(0x6000'0000));
        ops.push_back(Op::compute(3000));
        ops.push_back(Op::store(0x6000'0000));
        tasks.push_back(std::move(ops));
    }
    return tasks;
}

} // namespace

TEST(SchemeBehavior, SingleTStallsForTheToken)
{
    RunResult res =
        run(disjointTasks(64), Separation::SingleT, Merging::EagerAMM);
    EXPECT_GT(res.total.get(CycleKind::TokenStall), 0u);
    // SingleT cannot buffer more than one speculative task per proc.
    EXPECT_LE(res.avgSpecTasksPerProc, 1.01);
}

TEST(SchemeBehavior, SingleTEagerDoesCommitWorkOnTheProcessor)
{
    RunResult res =
        run(disjointTasks(64), Separation::SingleT, Merging::EagerAMM);
    EXPECT_GT(res.total.get(CycleKind::CommitWork), 0u);
    RunResult lazy =
        run(disjointTasks(64), Separation::SingleT, Merging::LazyAMM);
    EXPECT_EQ(lazy.total.get(CycleKind::CommitWork), 0u);
}

TEST(SchemeBehavior, MultiTSvStallsOnSecondLocalVersion)
{
    // Mostly-privatization pattern written early: the paper's
    // Figure 5-(b) second-version stall.
    RunResult res =
        run(privTasks(64), Separation::MultiTSV, Merging::EagerAMM);
    EXPECT_GT(res.total.get(CycleKind::VersionStall), 0u);
    EXPECT_GT(res.counters.get("sv_stalls"), 0u);
}

TEST(SchemeBehavior, MultiTMvDoesNotStallOnVersions)
{
    RunResult res =
        run(privTasks(64), Separation::MultiTMV, Merging::EagerAMM);
    EXPECT_EQ(res.total.get(CycleKind::VersionStall), 0u);
    EXPECT_EQ(res.counters.get("sv_stalls"), 0u);
}

TEST(SchemeBehavior, MultiTMvOutperformsSingleTOnPrivPatterns)
{
    // Figure 5-(c) vs 5-(a). Tasks long enough that the commit
    // wavefront is not the bottleneck for either scheme.
    Cycle single = run(privTasks(64, 40'000), Separation::SingleT,
                       Merging::EagerAMM)
                       .execTime;
    Cycle multi = run(privTasks(64, 40'000), Separation::MultiTMV,
                      Merging::EagerAMM)
                      .execTime;
    EXPECT_LT(multi, single);
}

TEST(SchemeBehavior, SvMatchesMvWithoutPrivPatterns)
{
    // Section 5.1: MultiT&SV largely matches MultiT&MV when
    // mostly-privatization patterns are rare.
    Cycle sv = run(disjointTasks(64), Separation::MultiTSV,
                   Merging::EagerAMM)
                   .execTime;
    Cycle mv = run(disjointTasks(64), Separation::MultiTMV,
                   Merging::EagerAMM)
                   .execTime;
    EXPECT_NEAR(double(sv), double(mv), 0.05 * double(mv));
}

TEST(SchemeBehavior, LazyPassesTheTokenFast)
{
    RunResult eager =
        run(disjointTasks(64), Separation::MultiTMV, Merging::EagerAMM);
    RunResult lazy =
        run(disjointTasks(64), Separation::MultiTMV, Merging::LazyAMM);
    // Mean commit duration (C of the C/E ratio) shrinks to ~token pass.
    EXPECT_LT(lazy.commitExecRatio, eager.commitExecRatio);
}

TEST(SchemeBehavior, LazyMergesCommittedVersionsEventually)
{
    RunResult res =
        run(privTasks(48), Separation::MultiTMV, Merging::LazyAMM);
    // Superseded committed versions are combined/invalidated by VCL
    // (displacement or final merge).
    EXPECT_GT(res.counters.get("final_merge_lines") +
                  res.counters.get("vcl_writebacks"),
              0u);
}

TEST(SchemeBehavior, FmmLogsBeforeCreatingVersions)
{
    RunResult res =
        run(privTasks(48), Separation::MultiTMV, Merging::FMM);
    // One MHB entry per version created (first write to each line).
    EXPECT_EQ(res.counters.get("log_appends"),
              res.counters.get("versions_created"));
}

TEST(SchemeBehavior, FmmSwChargesLoggingInstructions)
{
    RunResult hw =
        run(privTasks(48), Separation::MultiTMV, Merging::FMM);
    RunResult sw =
        run(privTasks(48), Separation::MultiTMV, Merging::FMM, true);
    EXPECT_EQ(hw.total.get(CycleKind::LogOverhead), 0u);
    EXPECT_GT(sw.total.get(CycleKind::LogOverhead), 0u);
    // Busy (paper definition) grows under software logging.
    EXPECT_GT(sw.total.busy(), hw.total.busy());
}

TEST(SchemeBehavior, FmmCommitIsFree)
{
    RunResult fmm =
        run(disjointTasks(64), Separation::MultiTMV, Merging::FMM);
    // Commit = token pass only: mean commit duration is tiny.
    EXPECT_LT(fmm.commitExecRatio, 0.02);
    EXPECT_EQ(fmm.counters.get("eager_writebacks"), 0u);
}

TEST(SchemeBehavior, PredictValidatePredictsStableProducers)
{
    RunResult none = run(stableProducerTasks(64), Separation::MultiTMV,
                         Merging::EagerAMM);
    RunResult pv = run(stableProducerTasks(64), Separation::MultiTMV,
                       Merging::EagerAMM, false, true,
                       Validation::PredictValidate);
    // The baseline never touches the prediction machinery.
    EXPECT_EQ(none.counters.get("value_predictions"), 0u);
    // A stable producer predicts and validates without a single
    // misprediction.
    EXPECT_GT(pv.counters.get("value_predictions"), 0u);
    EXPECT_EQ(pv.counters.get("value_mispredicts"), 0u);
    EXPECT_EQ(pv.counters.get("value_validations"),
              pv.counters.get("value_predictions"));
    // Prediction is time-only by construction: final memory state is
    // identical to the unpredicted run.
    EXPECT_EQ(pv.memStateHash, none.memStateHash);
    EXPECT_EQ(pv.committedTasks, none.committedTasks);
}

TEST(SchemeBehavior, PredictValidateMispredictionSquashesAndRecovers)
{
    RunResult none = run(stormTasks(48), Separation::MultiTMV,
                         Merging::EagerAMM);
    RunResult pv = run(stormTasks(48), Separation::MultiTMV,
                       Merging::EagerAMM, false, true,
                       Validation::PredictValidate);
    // Migrating producers mispredict; the squash flows through the
    // ordinary violation path and the task re-executes to completion.
    EXPECT_GT(pv.counters.get("value_predictions"), 0u);
    EXPECT_GT(pv.counters.get("value_mispredicts"), 0u);
    EXPECT_GT(pv.tasksSquashed, 0u);
    EXPECT_EQ(pv.memStateHash, none.memStateHash);
    EXPECT_EQ(pv.committedTasks, none.committedTasks);
}

TEST(SchemeBehavior, PredictValidateRunsOnEverySchemePoint)
{
    for (const SchemeConfig &scheme :
         SchemeConfig::evaluatedSchemes()) {
        SchemeConfig pv =
            scheme.withValidation(Validation::PredictValidate);
        ScriptedWorkload wl(stormTasks(24));
        EngineConfig cfg;
        cfg.scheme = pv;
        cfg.machine = mem::MachineParams::numa16();
        SpeculationEngine engine(cfg, wl);
        EXPECT_EQ(engine.run().committedTasks, 24u) << pv.name();
    }
}

TEST(SchemeBehavior, CmpMachineRunsEveryScheme)
{
    for (const SchemeConfig &scheme :
         SchemeConfig::evaluatedSchemes()) {
        std::vector<std::vector<Op>> tasks = disjointTasks(24);
        ScriptedWorkload wl(std::move(tasks));
        EngineConfig cfg;
        cfg.scheme = scheme;
        cfg.machine = mem::MachineParams::cmp8();
        SpeculationEngine engine(cfg, wl);
        EXPECT_EQ(engine.run().committedTasks, 24u) << scheme.name();
    }
}
