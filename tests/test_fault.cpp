/**
 * @file
 * Tests for the deterministic fault-injection subsystem: spec parsing
 * round-trips, the determinism contract (thread-count independence),
 * the no-op guarantee of an empty spec, and the time-only contract
 * (injected squashes leave the committed memory state and the trace
 * invariants intact).
 */

#include <gtest/gtest.h>

#include "common/fault.hpp"
#include "common/trace.hpp"
#include "sim/study.hpp"

using namespace tlsim;

namespace {

apps::AppParams
tinyApp()
{
    apps::AppParams p;
    p.name = "fault-tiny";
    p.numTasks = 24;
    p.instrPerTask = 800;
    p.sizeSigma = 0.3;
    p.writtenKb = 1.0;
    p.sharedReadKb = 0.2;
    p.depProb = 0.04;
    p.depDistance = 3;
    p.seed = 0xfa17;
    return p;
}

fault::FaultSpec
allSitesSpec()
{
    fault::FaultSpec spec;
    spec.seed = 99;
    spec.nocDelayProb = 0.05;
    spec.nocDelayCycles = 15;
    spec.nocStallProb = 0.01;
    spec.nocStallCycles = 60;
    spec.nocRetryMax = 3;
    spec.spillProb = 0.03;
    spec.overflowCap = 12;
    spec.overflowPressureCycles = 40;
    spec.undoStressProb = 0.4;
    spec.undoStressCycles = 30;
    spec.squashProb = 0.004;
    spec.squashMax = 32;
    spec.commitSquashProb = 0.01;
    spec.commitSquashMax = 16;
    return spec;
}

/** Field-by-field RunResult comparison for the no-op guarantee. */
void
expectIdenticalResults(const tls::RunResult &a, const tls::RunResult &b)
{
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committedTasks, b.committedTasks);
    EXPECT_EQ(a.squashEvents, b.squashEvents);
    EXPECT_EQ(a.tasksSquashed, b.tasksSquashed);
    EXPECT_EQ(a.memStateHash, b.memStateHash);
    EXPECT_EQ(a.memStateLines, b.memStateLines);
    EXPECT_EQ(a.counters.entries(), b.counters.entries());
    ASSERT_EQ(a.perProc.size(), b.perProc.size());
    for (std::size_t p = 0; p < a.perProc.size(); ++p)
        for (unsigned k = 0; k < unsigned(CycleKind::NumKinds); ++k)
            EXPECT_EQ(a.perProc[p].get(CycleKind(k)),
                      b.perProc[p].get(CycleKind(k)));
}

} // namespace

// --------------------------------------------------------------------
// Spec parsing
// --------------------------------------------------------------------

TEST(FaultSpec, ParsesEveryKey)
{
    fault::FaultSpec spec;
    std::string err;
    ASSERT_TRUE(fault::FaultSpec::parse(
        "seed=7,noc-delay=0.1:25,noc-stall=0.02:80:5,spill=0.05,"
        "ovf-cap=16:45,undo=0.3:60,squash=0.004:40,commit-squash=0.01:8",
        &spec, &err))
        << err;
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_DOUBLE_EQ(spec.nocDelayProb, 0.1);
    EXPECT_EQ(spec.nocDelayCycles, 25u);
    EXPECT_DOUBLE_EQ(spec.nocStallProb, 0.02);
    EXPECT_EQ(spec.nocStallCycles, 80u);
    EXPECT_EQ(spec.nocRetryMax, 5u);
    EXPECT_DOUBLE_EQ(spec.spillProb, 0.05);
    EXPECT_EQ(spec.overflowCap, 16u);
    EXPECT_EQ(spec.overflowPressureCycles, 45u);
    EXPECT_DOUBLE_EQ(spec.undoStressProb, 0.3);
    EXPECT_EQ(spec.undoStressCycles, 60u);
    EXPECT_DOUBLE_EQ(spec.squashProb, 0.004);
    EXPECT_EQ(spec.squashMax, 40u);
    EXPECT_DOUBLE_EQ(spec.commitSquashProb, 0.01);
    EXPECT_EQ(spec.commitSquashMax, 8u);
    EXPECT_TRUE(spec.anyEnabled());
}

TEST(FaultSpec, CanonicalRoundTrips)
{
    fault::FaultSpec spec = allSitesSpec();
    fault::FaultSpec reparsed;
    std::string err;
    ASSERT_TRUE(
        fault::FaultSpec::parse(spec.canonical(), &reparsed, &err))
        << err;
    EXPECT_EQ(spec, reparsed);
    // And the canonical form is a fixed point.
    EXPECT_EQ(spec.canonical(), reparsed.canonical());
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    fault::FaultSpec spec;
    const char *bad[] = {
        "bogus-key=1",        // unknown key
        "squash",             // missing value
        "squash=1.5",         // probability out of range
        "squash=-0.1",        // negative probability
        "squash=0.1:2:3",     // too many fields
        "noc-stall=0.1:50:0", // zero retries
        "seed=abc",           // non-numeric
        "noc-delay=0.1:xyz",  // non-numeric cycles
    };
    for (const char *text : bad) {
        std::string err;
        fault::FaultSpec before = spec;
        EXPECT_FALSE(fault::FaultSpec::parse(text, &spec, &err)) << text;
        EXPECT_FALSE(err.empty()) << text;
        EXPECT_EQ(spec, before) << "failed parse must not modify out";
    }
}

TEST(FaultSpec, EmptyAndSeedOnlySpecsAreInert)
{
    fault::FaultSpec spec;
    ASSERT_TRUE(fault::FaultSpec::parse("", &spec, nullptr));
    EXPECT_FALSE(spec.anyEnabled());
    ASSERT_TRUE(fault::FaultSpec::parse("seed=123", &spec, nullptr));
    EXPECT_FALSE(spec.anyEnabled());
    EXPECT_FALSE(fault::FaultPlan(spec).active());
}

// --------------------------------------------------------------------
// Plan determinism
// --------------------------------------------------------------------

TEST(FaultPlan, SiteStreamsAreIndependent)
{
    // Consulting one site must not perturb another site's schedule:
    // draw the spill stream with and without interleaved squash draws.
    fault::FaultSpec spec = allSitesSpec();
    fault::FaultPlan a(spec);
    fault::FaultPlan b(spec);
    std::vector<bool> a_spills, b_spills;
    for (int i = 0; i < 500; ++i) {
        a_spills.push_back(a.forceSpill());
        b.spuriousViolation(); // extra traffic on an unrelated site
        b_spills.push_back(b.forceSpill());
    }
    EXPECT_EQ(a_spills, b_spills);
}

TEST(FaultPlan, SquashBudgetCapsInjections)
{
    fault::FaultSpec spec;
    spec.squashProb = 1.0; // fire on every consult ...
    spec.squashMax = 5;    // ... but at most 5 times
    fault::FaultPlan plan(spec);
    unsigned fired = 0;
    for (int i = 0; i < 100; ++i)
        fired += plan.spuriousViolation() ? 1 : 0;
    EXPECT_EQ(fired, 5u);
    EXPECT_EQ(plan.counters().spuriousSquashes, 5u);
}

TEST(FaultStudy, SweepIsThreadCountIndependent)
{
    // The whole determinism contract end to end: a faulted sweep at 1
    // thread and at 8 threads must produce identical results, fault
    // tallies included (per-engine plans, identity-hashed seeds).
    fault::FaultSpec spec = allSitesSpec();
    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::FMM, false},
    };
    std::vector<apps::AppParams> apps = {tinyApp()};
    std::vector<sim::AppStudy> one = sim::runStudySweep(
        apps, schemes, mem::MachineParams::numa16(), 1, 1, spec);
    std::vector<sim::AppStudy> eight = sim::runStudySweep(
        apps, schemes, mem::MachineParams::numa16(), 1, 8, spec);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        const tls::RunResult &a = one[0].outcomes[s].result;
        const tls::RunResult &b = eight[0].outcomes[s].result;
        expectIdenticalResults(a, b);
        EXPECT_EQ(a.faults.total(), b.faults.total());
        EXPECT_EQ(a.faults.spuriousSquashes, b.faults.spuriousSquashes);
        EXPECT_EQ(a.faults.nocDelays, b.faults.nocDelays);
        EXPECT_EQ(a.faults.forcedSpills, b.faults.forcedSpills);
        EXPECT_GT(a.faults.total(), 0u)
            << "spec must actually inject for this test to mean much";
    }
}

// --------------------------------------------------------------------
// No-op guarantee
// --------------------------------------------------------------------

TEST(FaultStudy, InertSpecIsByteIdenticalToNoSpec)
{
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::LazyAMM, false};
    fault::FaultSpec seed_only;
    seed_only.seed = 0xabcdef;
    tls::RunResult plain = sim::runScheme(
        tinyApp(), scheme, mem::MachineParams::numa16());
    tls::RunResult inert = sim::runScheme(
        tinyApp(), scheme, mem::MachineParams::numa16(), seed_only);
    expectIdenticalResults(plain, inert);
    EXPECT_EQ(inert.faults.total(), 0u);
}

// --------------------------------------------------------------------
// Time-only contract
// --------------------------------------------------------------------

TEST(FaultStudy, InjectedSquashesPreserveStateAndPassAudit)
{
    fault::FaultSpec spec;
    spec.seed = 5;
    spec.squashProb = 0.01;
    spec.squashMax = 24;
    spec.commitSquashProb = 0.02;
    spec.commitSquashMax = 12;

    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::FMM, false},
    };
    std::vector<apps::AppParams> apps = {tinyApp()};

    trace::Options opts;
    opts.mask = trace::kMaskAudit;
    trace::start(opts);

    std::vector<sim::AppStudy> faulted = sim::runStudySweep(
        apps, schemes, mem::MachineParams::numa16(), 1, 1, spec);
    std::vector<sim::AppStudy> clean = sim::runStudySweep(
        apps, schemes, mem::MachineParams::numa16(), 1, 1, {});

    for (std::size_t s = 0; s < schemes.size(); ++s) {
        const tls::RunResult &f = faulted[0].outcomes[s].result;
        const tls::RunResult &c = clean[0].outcomes[s].result;
        EXPECT_EQ(f.committedTasks, tinyApp().numTasks);
        EXPECT_GT(f.faults.spuriousSquashes + f.faults.commitSquashes,
                  0u);
        EXPECT_GT(f.squashEvents, c.squashEvents);
        // Time-only: what commits is untouched by the injections.
        EXPECT_EQ(f.memStateHash, c.memStateHash);
        EXPECT_EQ(f.memStateLines, c.memStateLines);
    }

    trace::stop();
    trace::TraceFile file = trace::drainFile();
    trace::reset();
    trace::AuditReport report = trace::audit(file);
    EXPECT_GT(report.records, 0u);
    EXPECT_TRUE(report.ok()) << report.summary();
}
