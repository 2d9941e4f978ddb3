/**
 * @file
 * Violation, squash and recovery behavior of the engine.
 */

#include <gtest/gtest.h>

#include "common/trace.hpp"
#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using namespace tlsim::tls;
using cpu::Op;

namespace {

constexpr Addr kDepWord = 0x7000'0000;

/**
 * Producer (task 1) writes the dependence word late; consumer
 * (task 2) reads it early: with both running concurrently this is an
 * out-of-order RAW to the same word.
 */
std::vector<std::vector<Op>>
violationPair(unsigned producer_len = 20'000,
              unsigned consumer_prefix = 100)
{
    std::vector<std::vector<Op>> tasks;
    tasks.push_back({Op::compute(producer_len), Op::store(kDepWord),
                     Op::compute(100)});
    tasks.push_back({Op::compute(consumer_prefix), Op::load(kDepWord),
                     Op::compute(5000)});
    return tasks;
}

RunResult
run(std::vector<std::vector<Op>> tasks, Merging merge,
    bool sw = false)
{
    ScriptedWorkload wl(std::move(tasks));
    EngineConfig cfg;
    cfg.scheme =
        SchemeConfig::make(Separation::MultiTMV, merge, sw);
    cfg.machine = mem::MachineParams::numa16();
    SpeculationEngine engine(cfg, wl);
    return engine.run();
}

} // namespace

TEST(Squash, OutOfOrderRawSquashesTheReader)
{
    RunResult res = run(violationPair(), Merging::EagerAMM);
    EXPECT_EQ(res.squashEvents, 1u);
    EXPECT_GE(res.tasksSquashed, 1u);
    EXPECT_EQ(res.committedTasks, 2u); // re-executed and committed
    EXPECT_EQ(res.timelines[1].squashes, 1u);
    EXPECT_EQ(res.timelines[0].squashes, 0u); // the writer survives
}

TEST(Squash, InOrderRawIsNotAViolation)
{
    // Consumer reads long after the producer wrote: the read returns
    // the producer's version, no squash.
    std::vector<std::vector<Op>> tasks;
    tasks.push_back({Op::store(kDepWord), Op::compute(100)});
    tasks.push_back({Op::compute(40'000), Op::load(kDepWord)});
    RunResult res = run(std::move(tasks), Merging::EagerAMM);
    EXPECT_EQ(res.squashEvents, 0u);
    EXPECT_EQ(res.committedTasks, 2u);
}

TEST(Squash, SuccessorsOfTheVictimAreSquashedToo)
{
    auto tasks = violationPair();
    // Add successors that will be in flight when the squash hits.
    for (int t = 0; t < 8; ++t)
        tasks.push_back({Op::compute(8000),
                         Op::store(0x4000'0000 + Addr(t) * 4096)});
    RunResult res = run(std::move(tasks), Merging::EagerAMM);
    EXPECT_EQ(res.squashEvents, 1u);
    EXPECT_GT(res.tasksSquashed, 1u);
    EXPECT_EQ(res.committedTasks, 10u);
}

TEST(Squash, ReexecutionConsumesTheCorrectVersion)
{
    // After the squash, the consumer re-reads and must observe the
    // producer's version: no second violation.
    RunResult res = run(violationPair(), Merging::EagerAMM);
    EXPECT_EQ(res.squashEvents, 1u);
}

TEST(Squash, AmmRecoveryIsCheapBookkeeping)
{
    RunResult res = run(violationPair(), Merging::EagerAMM);
    Cycle recovery = res.total.get(CycleKind::RecoveryWork);
    EXPECT_GT(recovery, 0u);
    EXPECT_LT(recovery, 2000u); // discard-from-MROB, not log replay
}

TEST(Squash, FmmRecoveryReplaysTheUndoLog)
{
    auto make = [] {
        auto tasks = violationPair();
        // Give the consumer a footprint so its log is non-trivial.
        for (int w = 0; w < 32; ++w)
            tasks[1].push_back(
                Op::store(0x4100'0000 + Addr(w) * 8));
        tasks[1].push_back(Op::compute(30'000));
        return tasks;
    };
    RunResult amm = run(make(), Merging::EagerAMM);
    trace::reset();
    trace::Options opts;
    opts.mask = trace::kMaskAudit;
    trace::start(opts);
    RunResult fmm = run(make(), Merging::FMM);
    trace::stop();
    trace::TraceFile file = trace::drainFile();
    trace::reset();
    ASSERT_EQ(fmm.squashEvents, 1u);
    ASSERT_EQ(fmm.tasksSquashed, 1u);
    // Recovery replays one MHB entry per version the squashed first
    // incarnation of the consumer created (its 32 stores span 4 lines)...
    std::uint64_t squashed_versions = 0;
    for (const trace::Record &r : file.records) {
        if (trace::Kind(r.kind) == trace::Kind::VersionCreate &&
            r.task == 2 && r.arg == 1)
            ++squashed_versions;
    }
    EXPECT_EQ(squashed_versions, 4u);
    EXPECT_EQ(fmm.counters.get("recovery_entries_replayed"),
              squashed_versions);
    // ...and the undo records (append, recover, drop) audit clean.
    trace::AuditReport report = trace::audit(file);
    EXPECT_TRUE(report.ok()) << report.summary();
    // FMM recovery (software handler, log replay) costs more than
    // AMM's discard (Section 3.3.4).
    EXPECT_GT(fmm.total.get(CycleKind::RecoveryWork),
              amm.total.get(CycleKind::RecoveryWork));
}

TEST(Squash, SquashedVersionsDisappearFromTheSystem)
{
    // The squashed consumer wrote the priv region; its versions must
    // not be visible after the run (all committed state is the
    // re-execution's).
    auto tasks = violationPair();
    tasks[1].push_back(Op::store(0x1000'0000));
    RunResult res = run(std::move(tasks), Merging::LazyAMM);
    EXPECT_EQ(res.committedTasks, 2u);
    // Footprint statistics count only committed incarnations.
    EXPECT_GT(res.avgWrittenKb, 0.0);
}

TEST(Squash, WarAndWawDoNotSquash)
{
    // Multi-version buffering renames WAR/WAW: task 2 writes what
    // task 1 reads/writes, no violation in either direction.
    std::vector<std::vector<Op>> tasks;
    tasks.push_back({Op::load(kDepWord), Op::compute(20'000),
                     Op::store(kDepWord)});
    tasks.push_back({Op::store(kDepWord), Op::compute(100)});
    RunResult res = run(std::move(tasks), Merging::EagerAMM);
    EXPECT_EQ(res.squashEvents, 0u);
}

TEST(Squash, FrequentSquashesHurtFmmMoreThanLazy)
{
    // The Euler effect (Figure 10): with frequent violations, Lazy
    // AMM recovers faster than FMM.
    std::vector<std::vector<Op>> tasks;
    for (int pair = 0; pair < 12; ++pair) {
        Addr word = kDepWord + Addr(pair) * 8;
        std::vector<Op> producer{Op::compute(15'000), Op::store(word)};
        std::vector<Op> consumer{Op::compute(50), Op::load(word)};
        for (int w = 0; w < 64; ++w)
            consumer.push_back(
                Op::store(0x4200'0000 + Addr(pair) * 65536 +
                          Addr(w) * 8));
        consumer.push_back(Op::compute(10'000));
        tasks.push_back(std::move(producer));
        // Put distance between producer and consumer so both run
        // concurrently on the 16-proc machine.
        for (int f = 0; f < 2; ++f)
            tasks.push_back({Op::compute(12'000)});
        tasks.push_back(std::move(consumer));
    }
    ScriptedWorkload wl_lazy(tasks), wl_fmm(tasks);
    EngineConfig cfg;
    cfg.machine = mem::MachineParams::numa16();
    cfg.scheme =
        SchemeConfig::make(Separation::MultiTMV, Merging::LazyAMM);
    SpeculationEngine lazy(cfg, wl_lazy);
    RunResult lazy_res = lazy.run();
    cfg.scheme = SchemeConfig::make(Separation::MultiTMV, Merging::FMM);
    SpeculationEngine fmm(cfg, wl_fmm);
    RunResult fmm_res = fmm.run();

    ASSERT_GT(lazy_res.squashEvents, 3u);
    ASSERT_GT(fmm_res.squashEvents, 3u);
    EXPECT_GT(fmm_res.total.get(CycleKind::RecoveryWork),
              lazy_res.total.get(CycleKind::RecoveryWork));
}

// ---------------------------------------------------------------------
// SquashStorm regressions: the generated adversarial workload against
// every evaluated scheme, the budgeted fault-squash caps, and the FMM
// memory-holder invariant under injected squashes.

#include "apps/synth_workload.hpp"
#include "sim/study.hpp"

namespace {

apps::SynthSpec
stormSpec()
{
    apps::SynthSpec spec;
    spec.kind = apps::SynthKind::SquashStorm;
    spec.tasks = 24;
    spec.footprint = 64;
    spec.conflict = 0.4;
    spec.tasksPerInvocation = 8;
    spec.seed = 0x57;
    return spec;
}

} // namespace

TEST(SquashStorm, EveryEvaluatedSchemeRidesOutTheStorm)
{
    const apps::SynthSpec spec = stormSpec();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    std::uint64_t total_squashes = 0;
    for (const SchemeConfig &scheme :
         SchemeConfig::evaluatedSchemes()) {
        RunResult res = sim::runSynthScheme(spec, scheme, machine);
        EXPECT_EQ(res.committedTasks, spec.tasks) << scheme.name();
        total_squashes += res.squashEvents;
    }
    // The storm must actually storm somewhere.
    EXPECT_GT(total_squashes, 0u);
}

TEST(SquashStorm, FinalMemoryStateAgreesAcrossAllSchemes)
{
    // Squash recovery differs wildly between AMM bookkeeping and FMM
    // log replay, but what commits must not: every scheme converges on
    // the same committed image of the same stream.
    const apps::SynthSpec spec = stormSpec();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    const auto schemes = SchemeConfig::evaluatedSchemes();
    RunResult base = sim::runSynthScheme(spec, schemes[0], machine);
    ASSERT_GT(base.memStateLines, 0u);
    for (std::size_t s = 1; s < schemes.size(); ++s) {
        RunResult res = sim::runSynthScheme(spec, schemes[s], machine);
        EXPECT_EQ(res.memStateHash, base.memStateHash)
            << schemes[s].name();
        EXPECT_EQ(res.memStateLines, base.memStateLines)
            << schemes[s].name();
    }
}

TEST(SquashStorm, BudgetedFaultSquashesRespectTheirCaps)
{
    fault::FaultSpec faults;
    faults.seed = 0x51ab;
    faults.squashProb = 0.05;
    faults.squashMax = 10;
    faults.commitSquashProb = 0.05;
    faults.commitSquashMax = 5;

    const apps::SynthSpec spec = stormSpec();
    for (Merging merge : {Merging::LazyAMM, Merging::FMM}) {
        RunResult res = sim::runSynthScheme(
            spec, SchemeConfig::make(Separation::MultiTMV, merge),
            mem::MachineParams::numa16(), faults);
        EXPECT_EQ(res.committedTasks, spec.tasks);
        EXPECT_GT(res.faults.spuriousSquashes, 0u);
        EXPECT_LE(res.faults.spuriousSquashes, faults.squashMax);
        EXPECT_LE(res.faults.commitSquashes, faults.commitSquashMax);
    }
}

TEST(SquashStorm, FmmMemoryHolderSurvivesInjectedSquashes)
{
    // FMM's main memory holds futures; a squash wave replayed through
    // the MHB must leave exactly the committed image of a clean run.
    fault::FaultSpec faults;
    faults.seed = 0x77aa;
    faults.squashProb = 0.02;
    faults.squashMax = 16;

    const apps::SynthSpec spec = stormSpec();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    for (bool sw : {false, true}) {
        SchemeConfig fmm = SchemeConfig::make(Separation::MultiTMV,
                                              Merging::FMM, sw);
        RunResult clean = sim::runSynthScheme(spec, fmm, machine);
        RunResult faulted =
            sim::runSynthScheme(spec, fmm, machine, faults);
        EXPECT_EQ(faulted.committedTasks, spec.tasks) << fmm.name();
        EXPECT_EQ(faulted.memStateHash, clean.memStateHash)
            << fmm.name();
        EXPECT_EQ(faulted.memStateLines, clean.memStateLines)
            << fmm.name();
    }
}
