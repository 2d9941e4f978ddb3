/**
 * @file
 * Property-based tests: randomized sweeps over cache geometries,
 * interconnect sizes, machine parameters and detection granularity.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/loop_workload.hpp"
#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "mem/geometry.hpp"
#include "noc/mesh.hpp"
#include "sim/study.hpp"
#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using cpu::Op;

// ---------------------------------------------------------------
// Cache properties across geometries
// ---------------------------------------------------------------

struct CacheGeoCase {
    std::uint64_t size;
    unsigned assoc;
    bool multiVersion;
};

class CacheGeometrySweep
    : public ::testing::TestWithParam<CacheGeoCase>
{
};

TEST_P(CacheGeometrySweep, OccupancyNeverExceedsCapacity)
{
    const CacheGeoCase &g = GetParam();
    mem::VersionedCache cache(mem::CacheGeometry::of(g.size, g.assoc),
                              g.multiVersion);
    std::size_t capacity = g.size / mem::kLineBytes;
    Rng rng(g.size ^ g.assoc);
    for (int i = 0; i < 5000; ++i) {
        mem::CacheLineState cl;
        cl.line = rng.below(1 << 16);
        cl.version = mem::VersionTag{rng.below(8) + 1, 1};
        cl.dirty = rng.chance(0.5);
        cl.speculative = cl.dirty && rng.chance(0.5);
        cache.insert(cl, Cycle(i));
        ASSERT_LE(cache.residentLines(), capacity);
    }
}

TEST_P(CacheGeometrySweep, InsertedLineIsFindable)
{
    const CacheGeoCase &g = GetParam();
    mem::VersionedCache cache(mem::CacheGeometry::of(g.size, g.assoc),
                              g.multiVersion);
    Rng rng(g.size + g.assoc);
    for (int i = 0; i < 1000; ++i) {
        mem::CacheLineState cl;
        cl.line = rng.below(1 << 14);
        cl.version = mem::VersionTag{rng.below(4) + 1, 1};
        auto res = cache.insert(cl, Cycle(i));
        ASSERT_NE(res.frame, nullptr);
        ASSERT_NE(cache.findVersion(cl.line, cl.version), nullptr);
    }
}

TEST_P(CacheGeometrySweep, SingleVersionCachesHoldOneFramePerLine)
{
    const CacheGeoCase &g = GetParam();
    if (g.multiVersion)
        GTEST_SKIP();
    mem::VersionedCache cache(mem::CacheGeometry::of(g.size, g.assoc),
                              false);
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        mem::CacheLineState cl;
        cl.line = rng.below(256);
        cl.version = mem::VersionTag{rng.below(16) + 1, 1};
        cache.insert(cl, Cycle(i));
        ASSERT_LE(cache.versionsResident(cl.line), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(CacheGeoCase{4096, 1, false},
                      CacheGeoCase{4096, 4, true},
                      CacheGeoCase{32 * 1024, 2, false},
                      CacheGeoCase{64 * 1024, 8, true},
                      CacheGeoCase{512 * 1024, 4, true},
                      CacheGeoCase{64 * 16, 16, true}));

// ---------------------------------------------------------------
// Mesh properties across shapes
// ---------------------------------------------------------------

class MeshShapeSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(MeshShapeSweep, HopMetricProperties)
{
    auto [rows, cols] = GetParam();
    noc::Mesh2D mesh(rows, cols);
    unsigned n = rows * cols;
    for (noc::NodeId a = 0; a < n; ++a) {
        EXPECT_EQ(mesh.hops(a, a), 0u);
        for (noc::NodeId b = 0; b < n; ++b) {
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
            EXPECT_LE(mesh.hops(a, b), rows + cols - 2);
            for (noc::NodeId c = 0; c < n; ++c) {
                EXPECT_LE(mesh.hops(a, c),
                          mesh.hops(a, b) + mesh.hops(b, c));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshShapeSweep,
                         ::testing::Values(std::make_pair(1u, 2u),
                                           std::make_pair(2u, 2u),
                                           std::make_pair(4u, 4u),
                                           std::make_pair(3u, 5u)));

// ---------------------------------------------------------------
// Engine properties
// ---------------------------------------------------------------

namespace {

std::vector<std::vector<Op>>
squashFreeTasks(int n)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < n; ++t) {
        std::vector<Op> ops;
        Addr base = 0x4000'0000 + Addr(t) * 8192;
        ops.push_back(Op::compute(1500));
        for (int w = 0; w < 16; ++w)
            ops.push_back(Op::store(base + w * 8));
        ops.push_back(Op::compute(1500));
        for (int w = 0; w < 16; ++w)
            ops.push_back(Op::load(base + w * 8));
        tasks.push_back(std::move(ops));
    }
    return tasks;
}

Cycle
execWith(mem::MachineParams machine)
{
    tls::ScriptedWorkload wl(squashFreeTasks(48));
    tls::EngineConfig cfg;
    cfg.scheme = tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                         tls::Merging::LazyAMM);
    cfg.machine = machine;
    tls::SpeculationEngine engine(cfg, wl);
    return engine.run().execTime;
}

} // namespace

TEST(EngineProperties, SlowerMemoryNeverHelps)
{
    mem::MachineParams fast = mem::MachineParams::numa16();
    mem::MachineParams slow = fast;
    slow.latLocalMem *= 2;
    slow.latRemote2Hop *= 2;
    slow.latRemote3Hop *= 2;
    EXPECT_LE(execWith(fast), execWith(slow));
}

TEST(EngineProperties, MoreProcessorsNeverHurtSquashFreeRuns)
{
    mem::MachineParams m8 = mem::MachineParams::numa16();
    m8.numProcs = 8;
    mem::MachineParams m16 = mem::MachineParams::numa16();
    EXPECT_LE(execWith(m16), execWith(m8));
}

TEST(EngineProperties, SlowerDispatchMonotone)
{
    mem::MachineParams a = mem::MachineParams::numa16();
    mem::MachineParams b = a;
    b.dispatchCycles = 500;
    EXPECT_LT(execWith(a), execWith(b));
}

TEST(EngineProperties, LineGranularityDetectionSquashesAtLeastAsOften)
{
    // False sharing: consecutive tasks touch different words of the
    // same line; word-granular detection sees no dependence at all,
    // line-granular detection squashes.
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < 24; ++t) {
        Addr line_base = 0x9000'0000; // one shared line
        std::vector<Op> ops;
        ops.push_back(Op::load(line_base + Addr((t + 1) % 8) * 8));
        ops.push_back(Op::compute(4000));
        ops.push_back(Op::store(line_base + Addr(t % 8) * 8));
        tasks.push_back(std::move(ops));
    }
    // +VP consults the same detection granule when it trains its
    // predictor on a declined read and when it validates at commit.
    for (tls::Validation val :
         {tls::Validation::None, tls::Validation::PredictValidate}) {
        SCOPED_TRACE(val == tls::Validation::None ? "None" : "+VP");
        auto run_with = [&](bool word_gran) {
            tls::ScriptedWorkload wl(tasks);
            tls::EngineConfig cfg;
            cfg.scheme =
                tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                        tls::Merging::LazyAMM)
                    .withValidation(val);
            cfg.machine = mem::MachineParams::numa16();
            cfg.machine.wordGranularityDetection = word_gran;
            tls::SpeculationEngine engine(cfg, wl);
            return engine.run();
        };
        tls::RunResult word = run_with(true);
        tls::RunResult line = run_with(false);
        EXPECT_GT(line.squashEvents, word.squashEvents);
        EXPECT_EQ(word.committedTasks, 24u);
        EXPECT_EQ(line.committedTasks, 24u);
        if (val == tls::Validation::PredictValidate) {
            // The line-granular run predicts, so it trained first.
            EXPECT_GT(line.counters.get("value_predictions"), 0u);
        }
    }
}

// ---------------------------------------------------------------
// Accounting invariants over the scheme x app grid
// ---------------------------------------------------------------

namespace {

/** Scaled-down app so the full grid stays fast. */
apps::AppParams
sampledApp(apps::AppParams p)
{
    p.numTasks = 24;
    p.instrPerTask = 2500;
    return p;
}

} // namespace

TEST(AccountingInvariants, HoldForEverySchemeOnSampledAppGrid)
{
    // A sample of the suite spanning the behavior space: dominant
    // privatization (Tree), high C/E (Apsi), frequent squashes
    // (Euler), heavy imbalance + buffered state (P3m).
    std::vector<apps::AppParams> grid = {
        sampledApp(apps::tree()), sampledApp(apps::apsi()),
        sampledApp(apps::euler()), sampledApp(apps::p3m())};

    for (const mem::MachineParams &machine :
         {mem::MachineParams::numa16(), mem::MachineParams::cmp8()}) {
        for (const tls::SchemeConfig &scheme :
             tls::SchemeConfig::evaluatedSchemes()) {
            for (const apps::AppParams &app : grid) {
                SCOPED_TRACE(app.name + " / " + scheme.name() + " / " +
                             machine.name);
                tls::RunResult r = sim::runScheme(app, scheme, machine);

                // Every processor's cycle breakdown partitions the
                // run's wall clock exactly.
                ASSERT_EQ(r.perProc.size(), machine.numProcs);
                Cycle breakdown_sum = 0;
                for (const CycleBreakdown &b : r.perProc) {
                    EXPECT_EQ(b.total(), r.execTime);
                    breakdown_sum += b.total();
                }
                EXPECT_EQ(r.total.total(), breakdown_sum);

                // Squash accounting: every violation event throws away
                // at least the offending task, and nothing is squashed
                // without an event.
                EXPECT_GE(r.tasksSquashed, r.squashEvents);
                if (r.squashEvents == 0) {
                    EXPECT_EQ(r.tasksSquashed, 0u);
                }

                // Every task eventually commits exactly once.
                EXPECT_EQ(r.committedTasks, app.numTasks);
            }
        }
    }
}

TEST(EngineProperties, ReplicatedSeedsPerturbExecTimeOnly)
{
    // Changing the workload seed must not break any invariant.
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        Rng rng(seed);
        std::vector<std::vector<Op>> tasks;
        for (int t = 0; t < 20; ++t) {
            std::vector<Op> ops;
            ops.push_back(Op::compute(
                std::uint32_t(500 + rng.below(3000))));
            for (unsigned w = 0; w < 4 + rng.below(12); ++w)
                ops.push_back(Op::store(0x4000'0000 +
                                        Addr(t) * 4096 + w * 8));
            tasks.push_back(std::move(ops));
        }
        tls::ScriptedWorkload wl(std::move(tasks));
        tls::EngineConfig cfg;
        cfg.scheme = tls::SchemeConfig::make(
            tls::Separation::MultiTSV, tls::Merging::EagerAMM);
        cfg.machine = mem::MachineParams::cmp8();
        tls::SpeculationEngine engine(cfg, wl);
        tls::RunResult res = engine.run();
        ASSERT_EQ(res.committedTasks, 20u);
        for (const CycleBreakdown &b : res.perProc)
            ASSERT_EQ(b.total(), res.execTime);
    }
}

// ---------------------------------------------------------------
// Written-footprint statistic against a count from the traces alone
// ---------------------------------------------------------------

namespace {

/**
 * Figure 1's Written/task and Priv % columns, counted independently of
 * the engine: the distinct words each task's trace stores to, and how
 * many of them the workload calls mostly-private. Every task commits
 * once, and a re-executed task replays the same trace.
 */
struct WrittenOracle {
    double avgWrittenKb = 0.0;
    double privFraction = 0.0;
};

WrittenOracle
countWrittenFromTraces(tls::Workload &wl)
{
    std::uint64_t words = 0;
    std::uint64_t priv = 0;
    for (TaskId t = 1; t <= wl.numTasks(); ++t) {
        std::set<Addr> seen;
        auto trace = wl.makeTrace(t);
        for (Op op = trace->next(); op.kind != Op::Kind::End;
             op = trace->next()) {
            if (op.kind == Op::Kind::Store &&
                seen.insert(mem::wordAddr(op.addr)).second &&
                wl.isPrivAddr(op.addr))
                ++priv;
        }
        words += seen.size();
    }
    WrittenOracle o;
    o.avgWrittenKb = double(words) * mem::kWordBytes / 1024.0 /
                     double(wl.numTasks());
    if (words > 0)
        o.privFraction = double(priv) / double(words);
    return o;
}

/** Run @p wl under @p scheme and compare with the trace count. */
void
expectWrittenFootprintMatchesTraces(tls::Workload &wl,
                                    tls::Workload &oracle_wl,
                                    const tls::SchemeConfig &scheme,
                                    const mem::MachineParams &machine,
                                    bool expect_squashes)
{
    SCOPED_TRACE(wl.name() + " / " + scheme.name() + " / " +
                 machine.name);
    tls::EngineConfig cfg;
    cfg.scheme = scheme;
    cfg.machine = machine;
    tls::SpeculationEngine engine(cfg, wl);
    tls::RunResult r = engine.run();
    ASSERT_EQ(r.committedTasks, wl.numTasks());
    if (expect_squashes) {
        EXPECT_GT(r.tasksSquashed, 0u);
    }

    WrittenOracle o = countWrittenFromTraces(oracle_wl);
    EXPECT_DOUBLE_EQ(r.avgWrittenKb, o.avgWrittenKb);
    EXPECT_DOUBLE_EQ(r.privFraction, o.privFraction);
}

} // namespace

TEST(WrittenFootprint, MatchesTraceCountForEverySchemeOnNuma16)
{
    // Apsi writes both inside (60%) and outside its mostly-private
    // region, so both columns are exercised.
    apps::AppParams app = sampledApp(apps::apsi());
    {
        apps::LoopWorkload oracle_wl(app);
        WrittenOracle o = countWrittenFromTraces(oracle_wl);
        ASSERT_GT(o.privFraction, 0.0);
        ASSERT_LT(o.privFraction, 1.0);
    }
    for (const tls::SchemeConfig &scheme :
         tls::SchemeConfig::evaluatedSchemes()) {
        apps::LoopWorkload wl(app);
        apps::LoopWorkload oracle_wl(app);
        expectWrittenFootprintMatchesTraces(
            wl, oracle_wl, scheme, mem::MachineParams::numa16(), false);
    }
}

TEST(WrittenFootprint, MatchesTraceCountOnSquashingMesh64Synth)
{
    // Squashed incarnations' stores must not count; only the
    // committed incarnation's words do.
    apps::SynthSpec spec;
    std::string err;
    ASSERT_TRUE(apps::SynthSpec::parse(
        "kind=graph,tasks=48,conflict=0.2,seed=5", &spec, &err))
        << err;
    const tls::SchemeConfig mv_lazy{tls::Separation::MultiTMV,
                                    tls::Merging::LazyAMM, false};
    apps::SynthWorkload wl(spec);
    apps::SynthWorkload oracle_wl(spec);
    expectWrittenFootprintMatchesTraces(
        wl, oracle_wl, mv_lazy, mem::MachineParams::mesh(64), true);
}

TEST(WrittenFootprint, MatchesTraceCountOnOooCore)
{
    apps::AppParams app = sampledApp(apps::apsi());
    mem::MachineParams numa = mem::MachineParams::numa16();
    numa.coreModel = mem::CoreModelKind::OutOfOrder;
    apps::LoopWorkload wl(app);
    apps::LoopWorkload oracle_wl(app);
    expectWrittenFootprintMatchesTraces(
        wl, oracle_wl,
        tls::SchemeConfig{tls::Separation::MultiTMV, tls::Merging::LazyAMM,
                          false},
        numa, false);
}
