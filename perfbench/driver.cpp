/**
 * @file
 * tlsbench — the tlsim benchmark driver (README.md in this directory).
 *
 * Links the simulator libraries and calls their public entry points
 * from outside, timing each call on the host clock:
 *
 *   tlsbench --workload figures|adversarial|serve --seed N --seconds S
 *            --trace 0|1 --reference DIR --serve-bin PATH --work-dir DIR
 *   tlsbench --workload W --write-reference FILE   (all input sets)
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}; --trace 0 reports the end-to-end metrics,
 * --trace 1 the per-layer ones. Human-readable notes go to stderr.
 */

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app_suite.hpp"
#include "apps/synth_workload.hpp"
#include "common/task_pool.hpp"
#include "common/trace.hpp"
#include "mem/machine_params.hpp"
#include "sim/result_cache.hpp"
#include "sim/study.hpp"
#include "tls/scheme.hpp"

#include "harness.hpp"

using namespace tlsim;
using perfbench::median;
using perfbench::nowSeconds;
using perfbench::PointOutcome;
using perfbench::quantile;
using perfbench::SpanLog;

namespace {

// ---------------------------------------------------------------------
// Fixed benchmark parameters
// ---------------------------------------------------------------------

/** Sweep fan-out: one fixed count, so runs on any host compare. */
constexpr unsigned kThreads = 4;
/** Input sets with a committed reference; --seed picks one. */
constexpr unsigned kInputSets = 8;
/** Host-time budgets, 10-20x what was measured: a lone point took at
 *  most 0.9 s, a cold serve request about 0.2 s and a sweep call 4 s. */
constexpr double kPointBudget = 20.0;
constexpr double kPassBudget = 60.0;
constexpr double kRequestBudget = 20.0;
/** Set-ups per batch run (setup_s is their median). */
constexpr int kSetups = 15;
/** Fewest measured passes per run, whatever --seconds says. */
constexpr int kMinPasses = 3;
/** synthSuite size of every synth point (the calibrated full size). */
constexpr unsigned kSynthTasks = 48;
constexpr unsigned kSynthFootprint = 192;
/** Adversarial: synthSuite draws per input set. */
constexpr unsigned kAdversarialDraws = 2;
/** Serve: a round sends kNovelEvery - 1 hits before each of its
 *  kNovelDraws novel requests. */
constexpr unsigned kWorkingDraws = 2;
constexpr unsigned kNovelDraws = 4;
constexpr unsigned kNovelEvery = 5;
/** Tracer kinds recorded: the audit set, NoC sends, LSQ replays and
 *  value prediction. NocDeliver and the OoO core's per-op issue/retire
 *  records are left out: they would triple the buffered volume and
 *  count nothing the per-layer metrics need. */
constexpr std::uint32_t kTraceMask =
    trace::kMaskAudit | trace::kindBit(trace::Kind::NocSend) |
    trace::kindBit(trace::Kind::LsqReplay) | trace::kMaskValue;
/** Tracer ring per thread (records); sized so nothing is dropped. */
constexpr std::size_t kTraceRing = std::size_t(1) << 23;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Base seed of input set @p set for generator stream @p salt. */
std::uint64_t
setSeed(unsigned set, unsigned salt)
{
    return mix64(0x7e1bbe4c00000000ULL + set * 64 + salt);
}

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

/** The inputs of one study-sweep call: app or synth items on one
 *  machine under a list of schemes, plus per-item baselines. */
struct Sweep {
    mem::MachineParams machine;
    std::vector<apps::AppParams> apps;
    std::vector<apps::SynthSpec> synths;
    std::vector<std::string> itemLabels;
    std::vector<tls::SchemeConfig> schemes;

    bool isSynth() const { return !synths.empty(); }
    std::size_t items() const { return itemLabels.size(); }

    std::string
    tag() const
    {
        return machine.name + "." +
               mem::coreModelName(machine.coreModel);
    }

    /** Point label; scheme -1 is the item's sequential baseline. */
    std::string
    label(std::size_t item, int scheme) const
    {
        return tag() + "/" + itemLabels[item] + "/" +
               (scheme < 0 ? std::string("seq") : std::to_string(scheme));
    }
};

struct Point {
    const Sweep *sweep = nullptr;
    std::size_t item = 0;
    int scheme = -1;
    std::string label() const { return sweep->label(item, scheme); }
};

/** Serve: one synthSuite draw, sent as one request for every kind
 *  under every scheme. Whole draws keep requests alike in cost. */
struct Draw {
    std::string name;
    std::vector<apps::SynthSpec> specs;
    std::vector<std::string> labels; ///< item label of each spec
};

struct Inputs {
    std::vector<Sweep> sweeps;
    /** Serve only: the stored working set and the novel requests. */
    std::vector<Draw> working, novel;

    std::vector<Point>
    points() const
    {
        std::vector<Point> out;
        for (const Sweep &s : sweeps)
            for (std::size_t i = 0; i < s.items(); ++i)
                for (int k = -1; k < int(s.schemes.size()); ++k)
                    out.push_back({&s, i, k});
        return out;
    }
};

mem::MachineParams
machineNamed(const char *name, mem::CoreModelKind core)
{
    mem::MachineParams m;
    if (!mem::MachineParams::byName(name, &m))
        throw std::runtime_error(std::string("unknown machine ") + name);
    m.coreModel = core;
    return m;
}

Inputs
makeInputs(const std::string &workload, unsigned set)
{
    const auto schemes = tls::SchemeConfig::evaluatedSchemes();
    Inputs in;
    if (workload == "figures") {
        // The paper's grid: the seven apps under the eight evaluated
        // schemes on both machines of Figs. 9-11, 1 replication.
        std::vector<apps::AppParams> suite = apps::appSuite();
        std::vector<std::string> names;
        for (apps::AppParams &a : suite) {
            a.seed = mix64(a.seed ^ setSeed(set, 0));
            names.push_back(a.name);
        }
        for (const char *m : {"numa16", "cmp8"})
            in.sweeps.push_back({machineNamed(m, mem::CoreModelKind::InOrder),
                                 suite, {}, names, schemes});
    } else if (workload == "adversarial") {
        // Calibrated, tpi-windowed synth specs under the schemes with
        // and without Predict+Validate, on both core models. Two suite
        // draws per input set even out how much squashing one draw
        // happens to cause.
        std::vector<tls::SchemeConfig> both = schemes;
        for (const tls::SchemeConfig &s : schemes)
            both.push_back(
                s.withValidation(tls::Validation::PredictValidate));
        std::vector<apps::SynthSpec> specs;
        std::vector<std::string> names;
        for (unsigned d = 0; d < kAdversarialDraws; ++d)
            for (const apps::SynthSpec &s :
                 apps::synthSuite(kSynthTasks, kSynthFootprint,
                                  setSeed(set, 8 + d))) {
                specs.push_back(s);
                names.push_back("d" + std::to_string(d) + "." +
                                apps::synthKindName(s.kind));
            }
        for (auto core : {mem::CoreModelKind::InOrder,
                          mem::CoreModelKind::OutOfOrder})
            in.sweeps.push_back(
                {machineNamed("mesh64", core), {}, specs, names, both});
    } else if (workload == "serve") {
        // kWorkingDraws suite draws form the stored working set,
        // kNovelDraws more the novel requests; one cmp8 sweep over all
        // of them feeds the per-layer passes and the reference.
        Sweep all{machineNamed("cmp8", mem::CoreModelKind::InOrder),
                  {}, {}, {}, schemes};
        for (unsigned d = 0; d < kWorkingDraws + kNovelDraws; ++d) {
            const bool novel = d >= kWorkingDraws;
            Draw draw;
            draw.name = (novel ? "n" : "w") +
                        std::to_string(novel ? d - kWorkingDraws : d);
            draw.specs = apps::synthSuite(kSynthTasks, kSynthFootprint,
                                          setSeed(set, 2 + d));
            for (const apps::SynthSpec &s : draw.specs) {
                draw.labels.push_back(draw.name + "." +
                                      apps::synthKindName(s.kind));
                all.synths.push_back(s);
                all.itemLabels.push_back(draw.labels.back());
            }
            (novel ? in.novel : in.working).push_back(std::move(draw));
        }
        in.sweeps.push_back(std::move(all));
    } else {
        throw std::runtime_error("unknown workload " + workload);
    }
    return in;
}

// ---------------------------------------------------------------------
// Calls into the simulator
// ---------------------------------------------------------------------

PointOutcome
outcomeOf(const tls::RunResult &r)
{
    PointOutcome o;
    o.execTime = r.execTime;
    o.memStateHash = r.memStateHash;
    o.committedTasks = r.committedTasks;
    o.tasksSquashed = r.tasksSquashed;
    o.squashEvents = r.squashEvents;
    o.accesses = r.counters.get("loads") + r.counters.get("stores");
    return o;
}

/** A point's scheme; a baseline gets the default one, which the
 *  sequential engine and its store key ignore. */
tls::SchemeConfig
schemeOf(const Point &p)
{
    return p.scheme < 0 ? tls::SchemeConfig{} : p.sweep->schemes[p.scheme];
}

/** An app point's parameters: a TLS point gets the seed the study
 *  sweep derives for it, a baseline keeps the item's own. */
apps::AppParams
appOf(const Point &p)
{
    apps::AppParams app = p.sweep->apps[p.item];
    if (p.scheme >= 0)
        app.seed = sim::derivePointSeed(app.seed, app.name, schemeOf(p), 0);
    return app;
}

/** One point through the tls-layer entry points (runScheme & co). */
tls::RunResult
runPoint(const Point &p)
{
    const Sweep &s = *p.sweep;
    if (s.isSynth())
        return p.scheme < 0 ? sim::runSynthSequential(s.synths[p.item],
                                                      s.machine)
                            : sim::runSynthScheme(s.synths[p.item],
                                                  schemeOf(p), s.machine);
    return p.scheme < 0 ? sim::runSequential(appOf(p), s.machine)
                        : sim::runScheme(appOf(p), schemeOf(p), s.machine);
}

/** Outcomes of one study-sweep call, in Inputs::points() order.
 *  A sweep reports only the execution time of its baselines. */
std::vector<PointOutcome>
runSweep(const Sweep &s)
{
    std::vector<PointOutcome> out;
    auto add = [&](Cycle seq, const auto &outcomes) {
        PointOutcome base;
        base.execTime = seq;
        out.push_back(base);
        for (const auto &o : outcomes)
            out.push_back(outcomeOf(o.result));
    };
    if (s.isSynth())
        for (const sim::SynthStudy &st :
             sim::runSynthSweep(s.synths, s.schemes, s.machine, kThreads))
            add(st.seqTime, st.outcomes);
    else
        for (const sim::AppStudy &st : sim::runStudySweep(
                 s.apps, s.schemes, s.machine, 1, kThreads))
            add(st.seqTime, st.outcomes);
    return out;
}

// ---------------------------------------------------------------------
// Correctness accounting
// ---------------------------------------------------------------------

enum Fields : unsigned {
    kExec = 1,
    kHash = 2,
    kCommitted = 4,
    kTasksSquashed = 8,
    kSquashEvents = 16,
    kAccesses = 32,
    kFull = 63,
    /** What a tlsim_serve response carries per point. */
    kServed = kExec | kHash | kCommitted | kSquashEvents,
};

struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const perfbench::Reference *ref = nullptr;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failed <= 10)
            std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }

    /** Compare @p got with the reference on @p fields. */
    bool
    matches(const std::string &label, const PointOutcome &got,
            unsigned fields) const
    {
        const PointOutcome *want = ref->find(label);
        if (want == nullptr)
            return false;
        auto same = [&](unsigned f, std::uint64_t a, std::uint64_t b) {
            return !(fields & f) || a == b;
        };
        return same(kExec, got.execTime, want->execTime) &&
               same(kHash, got.memStateHash, want->memStateHash) &&
               same(kCommitted, got.committedTasks, want->committedTasks) &&
               same(kTasksSquashed, got.tasksSquashed,
                    want->tasksSquashed) &&
               same(kSquashEvents, got.squashEvents, want->squashEvents) &&
               same(kAccesses, got.accesses, want->accesses);
    }

    /** One attempted point; counts it failed unless it matches. */
    void
    point(const std::string &label, const PointOutcome &got,
          unsigned fields)
    {
        ++attempted;
        if (!matches(label, got, fields))
            fail(label + " differs from the reference (exec " +
                 std::to_string(got.execTime) + ")");
    }
};

// ---------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------

struct Metrics {
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        values;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        values.push_back({name, {value, unit}});
    }

    void
    print(const Tally &t) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    t.failed == 0 ? "true" : "false",
                    std::max<std::uint64_t>(t.attempted, 1), t.failed);
        for (std::size_t i = 0; i < values.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", values[i].first.c_str(),
                        values[i].second.first,
                        values[i].second.second.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }
};

// ---------------------------------------------------------------------
// Run context, set-up and batch workloads (figures, adversarial)
// ---------------------------------------------------------------------

struct Context {
    std::string workload;
    unsigned set = 0;
    double seconds = 10;
    std::string referenceDir;
    std::string serveBin;
    std::string workDir;
    perfbench::Reference ref;
    perfbench::Budget budget;
    Tally tally;
    SpanLog *spans = nullptr; ///< non-null in the traced run
    /** Multiplies every host-time budget (the self-test shrinks it). */
    double budgetScale = 1.0;

    double budgetFor(double seconds) const { return seconds * budgetScale; }
};

/** Set-up of a run: generate the inputs, load their reference,
 *  construct every item's workload once (its generator's set-up) and
 *  simulate one warm-up point, so allocator pools and code pages are
 *  warm before anything is timed. The warm-up point is the first point
 *  of input set 0 whatever the seed: it is the same work in every run,
 *  where the first point of each set varies with the seed (P3m's
 *  heavy-tailed task sizes alone move it 2x). */
Inputs
setUp(Context &ctx)
{
    SpanLog::Scope span(ctx.spans, "bench", "setup");
    Inputs in = makeInputs(ctx.workload, ctx.set);
    ctx.ref = perfbench::Reference();
    if (!ctx.ref.load(ctx.referenceDir + "/" + ctx.workload + ".txt",
                      ctx.set))
        throw std::runtime_error("cannot read the reference in " +
                                 ctx.referenceDir);
    for (const Sweep &s : in.sweeps)
        for (std::size_t i = 0; i < s.items(); ++i) {
            std::unique_ptr<tls::Workload> w;
            if (s.isSynth())
                w = std::make_unique<apps::SynthWorkload>(s.synths[i]);
            else
                w = apps::makeWorkload(s.apps[i]);
            if (w->numTasks() == 0)
                throw std::runtime_error("empty workload " +
                                         s.itemLabels[i]);
        }
    const Inputs warm = makeInputs(ctx.workload, 0);
    runPoint(warm.points().front());
    return in;
}

/** Tracer records of a traced pass, by kind. */
struct TraceCounts {
    std::uint64_t records = 0, dropped = 0;
    std::uint64_t kinds[trace::kNumKinds] = {};

    void
    add(const trace::TraceFile &file)
    {
        records += file.records.size();
        dropped += file.dropped;
        for (const trace::Record &rec : file.records)
            ++kinds[rec.kind < trace::kNumKinds ? rec.kind : 0];
    }
};

/**
 * Every study-sweep call in @p calls once, each checked against the
 * reference. Returns the host time of the pass, or a negative value if
 * a call overran its budget; @p accesses receives the simulated
 * accesses.
 */
double
sweepPass(Context &ctx, const std::vector<Sweep> &calls,
          std::uint64_t *accesses)
{
    const double t0 = nowSeconds();
    *accesses = 0;
    for (const Sweep &s : calls) {
        // The call owns what it touches: an overrunning call outlives
        // this frame (see perfbench::Budget).
        auto results = std::make_shared<std::vector<PointOutcome>>();
        bool done;
        {
            SpanLog::Scope span(ctx.spans, "study",
                                s.isSynth() ? "runSynthSweep"
                                            : "runStudySweep");
            done = ctx.budget.run(ctx.budgetFor(kPassBudget),
                                  [results, s] { *results = runSweep(s); });
        }
        if (!done) {
            for (std::size_t i = 0; i < s.items(); ++i)
                for (int j = -1; j < int(s.schemes.size()); ++j) {
                    ++ctx.tally.attempted;
                    ctx.tally.fail(s.label(i, j) +
                                   " overran the sweep budget");
                }
            return -1.0;
        }
        std::size_t r = 0;
        for (std::size_t i = 0; i < s.items(); ++i)
            for (int j = -1; j < int(s.schemes.size()); ++j, ++r) {
                const PointOutcome &o = (*results)[r];
                ctx.tally.point(s.label(i, j), o, j < 0 ? kExec : kFull);
                *accesses += o.accesses;
            }
    }
    return nowSeconds() - t0;
}

/** Measured passes until --seconds is spent (at least kMinPasses). */
template <typename Pass>
std::vector<double>
measurePasses(Context &ctx, Pass &&pass)
{
    std::vector<double> times;
    const double t0 = nowSeconds();
    while (int(times.size()) < kMinPasses ||
           nowSeconds() - t0 + median(times) <= ctx.seconds) {
        const double cpu0 = perfbench::selfCpuSeconds();
        double t = pass();
        if (t < 0)
            break;
        times.push_back(t);
        std::fprintf(stderr, "pass %zu: %.3f s wall, %.3f s cpu\n",
                     times.size(), t, perfbench::selfCpuSeconds() - cpu0);
    }
    return times;
}

void
batchEndToEnd(Context &ctx, Metrics &m)
{
    std::vector<double> setups;
    Inputs in;
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = nowSeconds();
        in = setUp(ctx);
        setups.push_back(nowSeconds() - t0);
    }
    std::vector<double> rates;
    std::vector<double> passes = measurePasses(ctx, [&] {
        std::uint64_t acc = 0;
        double t = sweepPass(ctx, in.sweeps, &acc);
        if (t > 0)
            rates.push_back(double(acc) / t);
        return t;
    });
    m.add("setup_s", median(setups), "s");
    m.add("wall_s", median(passes), "s");
    m.add("sim_accesses_per_s", median(rates), "1/s");
    m.add("peak_rss_mb", perfbench::selfPeakRssMb(), "MB");
    m.add("p50_ms", median(passes) * 1e3, "ms");
}

// ---------------------------------------------------------------------
// Per-layer passes (traced run)
// ---------------------------------------------------------------------

struct LayerTotals {
    // apps
    double traceGenS = 0;
    std::uint64_t ops = 0;
    // tls (+ mem/cpu counters of the same points)
    std::vector<double> pointTimes;
    std::vector<tls::RunResult> results;
    std::uint64_t accesses = 0;
    CounterSet counters;
    std::uint64_t simCycles = 0;
    // study
    std::vector<double> sweeps;
    // tracer: the traced point pass
    TraceCounts tracer;
    double tracedPointSum = 0;
};

/** apps: build each point's workload and drain every task's trace. */
void
appsPass(Context &ctx, const std::vector<Point> &points, LayerTotals &lt)
{
    for (const Point &p : points) {
        SpanLog::Scope span(ctx.spans, "apps", "makeTrace");
        const double t0 = nowSeconds();
        std::unique_ptr<tls::Workload> w;
        if (p.sweep->isSynth())
            w = std::make_unique<apps::SynthWorkload>(
                p.sweep->synths[p.item]);
        else
            w = apps::makeWorkload(appOf(p));
        for (TaskId t = 1; t <= w->numTasks(); ++t) {
            auto trace = w->makeTrace(t);
            while (trace->next().kind != cpu::Op::Kind::End)
                ++lt.ops;
        }
        lt.traceGenS += nowSeconds() - t0;
    }
}

/**
 * tls: every point alone on one thread, under the point budget. With
 * @p traced, each point runs in its own tracer session, drained into
 * lt.tracer after the point's time is taken (one point's records at a
 * time keeps the tracer's memory bounded); only the time is kept then.
 */
void
pointPass(Context &ctx, const std::vector<Point> &points, LayerTotals &lt,
          bool traced)
{
    for (const Point &p : points) {
        if (traced) {
            trace::Options opts;
            opts.mask = kTraceMask;
            opts.ringCapacity = kTraceRing;
            trace::start(opts);
        }
        // As in sweepPass, the call owns what it touches.
        auto result = std::make_shared<tls::RunResult>();
        const double t0 = nowSeconds();
        bool done;
        {
            SpanLog::Scope span(ctx.spans, "tls",
                                p.scheme < 0 ? "runSequential"
                                             : "runScheme");
            done = ctx.budget.run(
                ctx.budgetFor(kPointBudget),
                [result, sweep = *p.sweep, item = p.item, k = p.scheme] {
                    *result = runPoint({&sweep, item, k});
                });
        }
        tls::RunResult &r = *result;
        const double t = nowSeconds() - t0;
        if (!done) {
            ++ctx.tally.attempted;
            ctx.tally.fail(p.label() + " overran the point budget");
            return;
        }
        const PointOutcome o = outcomeOf(r);
        ctx.tally.point(p.label(), o, kFull);
        if (traced) {
            trace::stop();
            SpanLog::Scope span(ctx.spans, "trace", "drainFile");
            lt.tracer.add(trace::drainFile());
            trace::reset();
            lt.tracedPointSum += t;
            continue;
        }
        lt.pointTimes.push_back(t);
        lt.accesses += o.accesses;
        lt.simCycles += r.execTime;
        lt.counters.merge(r.counters);
        lt.results.push_back(std::move(r));
    }
}

/** study: passes of the workload's own sweep calls until @p until. */
void
studyPasses(Context &ctx, const Inputs &in, LayerTotals &lt, double until)
{
    do {
        std::uint64_t acc = 0;
        double t = sweepPass(ctx, in.sweeps, &acc);
        if (t < 0)
            return;
        lt.sweeps.push_back(t);
    } while (nowSeconds() < until);
}

/** store: key, miss, store and hit of every point on a fresh store. */
struct StoreProbe {
    std::vector<double> key, miss, store, hit, bytes;
};

StoreProbe
storeProbe(Context &ctx, const std::vector<Point> &points,
           const LayerTotals &lt)
{
    StoreProbe sp;
    const std::string dir = ctx.workDir + "/store-probe";
    std::filesystem::remove_all(dir);
    {
        sim::ResultCache cache(dir);
        for (std::size_t i = 0; i < lt.results.size(); ++i) {
            const Point &p = points[i];
            const Sweep &s = *p.sweep;
            double t0 = nowSeconds();
            sim::PointKey key;
            {
                SpanLog::Scope span(ctx.spans, "store", "pointKey");
                key = s.isSynth()
                          ? sim::synthPointKey(s.synths[p.item], schemeOf(p),
                                               s.machine, {}, p.scheme < 0)
                          : sim::appPointKey(appOf(p), schemeOf(p),
                                             s.machine, {}, p.scheme < 0);
            }
            double t1 = nowSeconds();
            tls::RunResult got;
            bool missed;
            {
                SpanLog::Scope span(ctx.spans, "store", "fetch");
                missed = !cache.fetch(key, &got);
            }
            double t2 = nowSeconds();
            {
                SpanLog::Scope span(ctx.spans, "store", "store");
                cache.store(key, lt.results[i]);
            }
            double t3 = nowSeconds();
            bool hit;
            {
                SpanLog::Scope span(ctx.spans, "store", "fetch");
                hit = cache.fetch(key, &got);
            }
            double t4 = nowSeconds();
            ++ctx.tally.attempted;
            if (!missed || !hit ||
                !(outcomeOf(got) == outcomeOf(lt.results[i])))
                ctx.tally.fail(p.label() + " did not round-trip through "
                                           "the result store");
            sp.key.push_back(t1 - t0);
            sp.miss.push_back(t2 - t1);
            sp.store.push_back(t3 - t2);
            sp.hit.push_back(t4 - t3);
            sp.bytes.push_back(
                double(sim::serializeRunResult(lt.results[i]).size()));
        }
    }
    std::filesystem::remove_all(dir);
    return sp;
}

// ---------------------------------------------------------------------
// Serve workload
// ---------------------------------------------------------------------

/** Value of a numeric or string field in a flat JSON object. */
std::string
jsonField(const std::string &obj, const char *key)
{
    const std::string pat = std::string("\"") + key + "\": ";
    std::size_t at = obj.find(pat);
    if (at == std::string::npos)
        return {};
    at += pat.size();
    if (obj[at] == '"') {
        std::size_t end = obj.find('"', at + 1);
        return obj.substr(at + 1, end - at - 1);
    }
    std::size_t end = obj.find_first_of(",}]", at);
    return obj.substr(at, end - at);
}

struct Request {
    std::string id;
    const Draw *draw = nullptr;
    bool novel = false;
};

struct Reply {
    double latencyS = 0;
    double elapsedMs = 0;
    std::size_t bytes = 0;
    std::uint64_t hits = 0, misses = 0;
};

/** One tlsim_serve process on a fresh store, for one round. */
class ServeRound
{
  public:
    ServeRound(Context &ctx, int round) : ctx_(ctx)
    {
        dir_ = ctx.workDir + "/serve-store-" + std::to_string(round);
        std::filesystem::remove_all(dir_);
    }
    ~ServeRound() { std::filesystem::remove_all(dir_); }

    bool
    start()
    {
        return child_.start({ctx_.serveBin, "--cache-dir=" + dir_,
                             "--threads=" + std::to_string(kThreads)});
    }

    /** Send @p req and check the reply; false if the server stalled
     *  or broke (the round cannot go on). */
    bool
    send(const Request &req, Reply *reply)
    {
        SpanLog::Scope span(ctx_.spans, "serve", req.id);
        std::string line = "{\"id\": \"" + req.id +
                           "\", \"machine\": \"cmp8\", \"synth\": [";
        for (std::size_t i = 0; i < req.draw->specs.size(); ++i)
            line += (i ? ", \"" : "\"") + req.draw->specs[i].canonical() +
                    "\"";
        line += "]}";
        const double t0 = nowSeconds();
        std::string resp;
        ++ctx_.tally.attempted;
        if (!child_.writeLine(line) ||
            !child_.readLine(ctx_.budgetFor(kRequestBudget), &resp)) {
            ctx_.tally.fail("request " + req.id +
                            " got no reply (server gone or over budget)");
            child_.kill();
            return false;
        }
        reply->latencyS = nowSeconds() - t0;
        reply->bytes = resp.size();
        reply->elapsedMs = std::atof(jsonField(resp, "elapsed_ms").c_str());
        reply->hits = std::strtoull(jsonField(resp, "hits").c_str(),
                                    nullptr, 10);
        reply->misses = std::strtoull(jsonField(resp, "misses").c_str(),
                                      nullptr, 10);
        if (!checkReply(req, resp))
            ctx_.tally.fail("request " + req.id + " answered wrongly: " +
                            resp.substr(0, 200));
        return true;
    }

    /** Peak RSS of the server in MB, or -1 if it did not exit cleanly. */
    double
    finish()
    {
        long kb = child_.finish(10.0);
        return kb < 0 ? -1.0 : double(kb) / 1024.0;
    }

  private:
    bool
    checkReply(const Request &req, const std::string &resp) const
    {
        if (jsonField(resp, "ok") != "true")
            return false;
        const std::size_t begin = resp.find("\"points\": [");
        const std::size_t end = resp.find("], \"baselines\"");
        if (begin == std::string::npos || end == std::string::npos)
            return false;
        const std::size_t schemes = 8;
        std::size_t n = 0;
        for (std::size_t at = resp.find('{', begin); at < end;
             at = resp.find('{', at + 1), ++n) {
            if (n >= req.draw->labels.size() * schemes)
                return false;
            const std::string obj =
                resp.substr(at, resp.find('}', at) - at + 1);
            PointOutcome o;
            o.execTime = std::strtoull(jsonField(obj, "exec").c_str(),
                                       nullptr, 10);
            o.memStateHash = std::strtoull(
                jsonField(obj, "memhash").c_str(), nullptr, 16);
            o.committedTasks = std::strtoull(
                jsonField(obj, "committed").c_str(), nullptr, 10);
            o.squashEvents = std::strtoull(
                jsonField(obj, "squashes").c_str(), nullptr, 10);
            const std::string label = "cmp8.inorder/" +
                                      req.draw->labels[n / schemes] + "/" +
                                      std::to_string(n % schemes);
            if (!ctx_.tally.matches(label, o, kServed))
                return false;
        }
        return n == req.draw->labels.size() * schemes;
    }

    Context &ctx_;
    std::string dir_;
    perfbench::Child child_;
};

struct ServeStats {
    std::vector<double> setups, walls, rates, hitLat, missLat, allLat;
    std::vector<double> overheadMs, bytes;
    std::uint64_t hits = 0, misses = 0;
    double peakRssMb = 0;
};

/**
 * Closed-loop rounds, one client. Each round starts a fresh server on
 * an empty store; its set-up stores the working set, then it sends
 * kNovelEvery - 1 requests for stored draws (hits, picked by a seeded
 * generator) before each novel draw (misses plus store writes).
 */
void
serveRounds(Context &ctx, const Inputs &in, ServeStats &st, double until)
{
    std::uint64_t rng = mix64(ctx.set);
    std::uint64_t novelAccesses = 0;
    for (const Draw &d : in.novel)
        for (const std::string &label : d.labels)
            for (int k = 0; k < 8; ++k)
                if (const PointOutcome *o = ctx.ref.find(
                        "cmp8.inorder/" + label + "/" + std::to_string(k)))
                    novelAccesses += o->accesses;
    for (int round = 0; int(st.walls.size()) < kMinPasses ||
                        nowSeconds() + median(st.walls) +
                                median(st.setups) <=
                            until;
         ++round) {
        ServeRound sr(ctx, round);
        const double t0 = nowSeconds();
        {
            SpanLog::Scope span(ctx.spans, "bench", "serve-setup");
            if (!sr.start()) {
                ++ctx.tally.attempted;
                ctx.tally.fail("cannot start " + ctx.serveBin);
                return;
            }
            for (const Draw &d : in.working) {
                Reply r;
                if (!sr.send({"prefill:" + d.name, &d, false}, &r))
                    return;
            }
        }
        const double t1 = nowSeconds();
        for (const Draw &novel : in.novel) {
            for (unsigned i = 0; i < kNovelEvery; ++i) {
                Request req{"novel:" + novel.name, &novel, true};
                if (i + 1 < kNovelEvery) {
                    rng = mix64(rng);
                    const Draw &d = in.working[rng % in.working.size()];
                    req = {"hit:" + d.name, &d, false};
                }
                Reply r;
                if (!sr.send(req, &r))
                    return;
                (req.novel ? st.missLat : st.hitLat).push_back(r.latencyS);
                st.allLat.push_back(r.latencyS);
                st.overheadMs.push_back(r.latencyS * 1e3 - r.elapsedMs);
                st.bytes.push_back(double(r.bytes));
                st.hits += r.hits;
                st.misses += r.misses;
            }
        }
        const double t2 = nowSeconds();
        const double rss = sr.finish();
        if (rss < 0) {
            ++ctx.tally.attempted;
            ctx.tally.fail("tlsim_serve did not exit cleanly");
            return;
        }
        st.peakRssMb = std::max(st.peakRssMb, rss);
        st.setups.push_back(t1 - t0);
        st.walls.push_back(t2 - t1);
        st.rates.push_back(double(novelAccesses) / (t2 - t1));
    }
}

void
serveEndToEnd(Context &ctx, Metrics &m)
{
    Inputs in = setUp(ctx);
    ServeStats st;
    serveRounds(ctx, in, st, nowSeconds() + ctx.seconds);
    m.add("setup_s", median(st.setups), "s");
    m.add("wall_s", median(st.walls), "s");
    m.add("sim_accesses_per_s", median(st.rates), "1/s");
    m.add("peak_rss_mb", st.peakRssMb, "MB");
    m.add("p50_ms", median(st.allLat) * 1e3, "ms");
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

void
tracedRun(Context &ctx, Metrics &m)
{
    SpanLog spans;
    ctx.spans = &spans;
    const double start = nowSeconds();
    LayerTotals lt;
    StoreProbe sp;
    ServeStats st;
    Inputs in;
    {
        SpanLog::Scope root(&spans, "bench", "run");
        in = setUp(ctx);
        const std::vector<Point> points = in.points();
        appsPass(ctx, points, lt);
        pointPass(ctx, points, lt, false);
        if (!ctx.budget.overran())
            pointPass(ctx, points, lt, true);
        if (!ctx.budget.overran()) {
            sp = storeProbe(ctx, points, lt);
            const double left = ctx.seconds - (nowSeconds() - start);
            if (ctx.workload == "serve") {
                studyPasses(ctx, in, lt, nowSeconds() + left / 2);
                serveRounds(ctx, in, st, start + ctx.seconds);
            } else {
                studyPasses(ctx, in, lt, start + ctx.seconds);
            }
        }
    }
    const std::string spanFile = ctx.workDir + "/spans-" + ctx.workload +
                                 "-set" + std::to_string(ctx.set) +
                                 ".json";
    spans.writeJson(spanFile);
    std::fprintf(stderr, "%zu spans written to %s\n", spans.size(),
                 spanFile.c_str());

    const double pointSum = [&] {
        double s = 0;
        for (double t : lt.pointTimes)
            s += t;
        return s;
    }();
    auto c = [&](const char *name) {
        return double(lt.counters.get(name));
    };
    const double commits = c("commits");
    const double squashed = c("tasks_squashed");
    using trace::Kind;
    auto kind = [&](Kind k) { return double(lt.tracer.kinds[unsigned(k)]); };

    m.add("apps.trace_gen_s", lt.traceGenS, "s");
    m.add("apps.ops", double(lt.ops), "count");
    m.add("tls.point_p50_s", median(lt.pointTimes), "s");
    m.add("tls.point_max_s", quantile(lt.pointTimes, 1.0), "s");
    m.add("tls.ns_per_access",
          lt.accesses ? pointSum * 1e9 / double(lt.accesses) : 0, "ns");
    m.add("tls.commits", commits, "count");
    m.add("tls.tasks_squashed", squashed, "count");
    m.add("tls.useful_ratio",
          commits + squashed > 0 ? commits / (commits + squashed) : 0,
          "ratio");
    m.add("tls.versions_created", c("versions_created"), "count");
    m.add("tls.final_merge_lines", c("final_merge_lines"), "count");
    m.add("tls.sim_cycles", double(lt.simCycles), "cycles");
    for (const char *n : {"l1_hits", "l2_hits", "l3_hits", "memory_fetches",
                          "remote_cache_fetches", "overflow_spills",
                          "log_appends", "recovery_entries_replayed"})
        m.add(std::string("mem.") + n, c(n), "count");
    m.add("noc.messages", kind(Kind::NocSend), "count");
    m.add("cpu.lsq_replays", kind(Kind::LsqReplay), "count");
    m.add("cpu.value_predictions", c("value_predictions"), "count");
    m.add("cpu.value_mispredicts", c("value_mispredicts"), "count");

    // The longest point of each sweep call bounds that call from below.
    const double sweep = median(lt.sweeps);
    double tail = 0;
    for (std::size_t i = 0, k = 0; k < in.sweeps.size(); ++k) {
        double longest = 0;
        const Sweep &s = in.sweeps[k];
        for (std::size_t n = 0; n < s.items() * (s.schemes.size() + 1) &&
                                i < lt.pointTimes.size();
             ++n, ++i)
            longest = std::max(longest, lt.pointTimes[i]);
        tail += longest;
    }
    m.add("study.sweep_s", sweep, "s");
    m.add("study.point_sum_s", pointSum, "s");
    m.add("study.fanout_efficiency",
          sweep > 0 ? pointSum / (sweep * kThreads) : 0, "ratio");
    m.add("study.tail_point_s", tail, "s");

    m.add("store.key_us", median(sp.key) * 1e6, "us");
    m.add("store.fetch_hit_us", median(sp.hit) * 1e6, "us");
    m.add("store.fetch_miss_us", median(sp.miss) * 1e6, "us");
    m.add("store.store_us", median(sp.store) * 1e6, "us");
    m.add("store.hit_ratio",
          st.hits + st.misses ? double(st.hits) / double(st.hits + st.misses)
                              : 0,
          "ratio");
    m.add("store.entry_bytes", median(sp.bytes), "bytes");

    m.add("serve.hit_p50_ms", quantile(st.hitLat, 0.5) * 1e3, "ms");
    m.add("serve.hit_p90_ms", quantile(st.hitLat, 0.9) * 1e3, "ms");
    m.add("serve.miss_p50_ms", quantile(st.missLat, 0.5) * 1e3, "ms");
    m.add("serve.overhead_ms", median(st.overheadMs), "ms");
    m.add("serve.response_bytes", median(st.bytes), "bytes");

    m.add("trace.records", double(lt.tracer.records), "count");
    m.add("trace.dropped", double(lt.tracer.dropped), "count");
    m.add("trace.overhead_s", lt.tracedPointSum - pointSum, "s");
    m.add("bench.peak_rss_mb", perfbench::selfPeakRssMb(), "MB");

    std::fprintf(stderr, "tracer records by kind (traced point pass):\n");
    for (unsigned k = 0; k < trace::kNumKinds; ++k)
        if (lt.tracer.kinds[k] != 0)
            std::fprintf(stderr, "  %-16s %12" PRIu64 "\n",
                         trace::kindName(trace::Kind(k)),
                         lt.tracer.kinds[k]);
    std::fprintf(stderr, "self time per layer (s):\n");
    const std::map<std::string, double> self = spans.selfTimes();
    for (const char *layer :
         {"bench", "apps", "tls", "study", "store", "serve", "trace"}) {
        auto it = self.find(layer);
        const double t = it == self.end() ? 0.0 : it->second;
        std::fprintf(stderr, "  %-6s %10.4f\n", layer, t);
        m.add(std::string("self.") + layer + "_s", t, "s");
    }
}

// ---------------------------------------------------------------------
// Reference generation
// ---------------------------------------------------------------------

int
writeReference(const std::string &workload, const std::string &path)
{
    std::string text = "# tlsim benchmark reference: " + workload +
                        " (perfbench/README.md). Columns: set label exec "
                        "memhash committed tasks_squashed squash_events "
                        "accesses\n";
    for (unsigned set = 0; set < kInputSets; ++set) {
        const Inputs in = makeInputs(workload, set);
        const std::vector<Point> points = in.points();
        std::vector<PointOutcome> out(points.size());
        parallelFor(
            points.size(),
            [&](std::size_t i) { out[i] = outcomeOf(runPoint(points[i])); },
            kThreads);
        for (std::size_t i = 0; i < points.size(); ++i)
            text += perfbench::Reference::line(set, points[i].label(),
                                               out[i]);
        std::fprintf(stderr, "set %u: %zu points\n", set, points.size());
    }
    std::ofstream(path) << text;
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "tlsbench: %s\nusage: tlsbench --workload "
                 "figures|adversarial|serve --seed N --seconds S "
                 "--trace 0|1 --reference DIR --serve-bin PATH "
                 "--work-dir DIR\n       tlsbench --workload W "
                 "--write-reference FILE\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    std::uint64_t seed = 0;
    bool traced = false, haveSeed = false;
    std::string writeRef;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            ctx.workload = v;
        else if (flag == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10), haveSeed = true;
        else if (flag == "--seconds")
            ctx.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            traced = v == "1";
        else if (flag == "--reference")
            ctx.referenceDir = v;
        else if (flag == "--serve-bin")
            ctx.serveBin = v;
        else if (flag == "--work-dir")
            ctx.workDir = v;
        else if (flag == "--budget-scale")
            ctx.budgetScale = std::atof(v.c_str());
        else if (flag == "--write-reference")
            writeRef = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (ctx.workload.empty())
        usage("--workload is required");
    if (!writeRef.empty())
        return writeReference(ctx.workload, writeRef);
    if (!haveSeed || ctx.referenceDir.empty() || ctx.serveBin.empty() ||
        ctx.workDir.empty())
        usage("--seed, --reference, --serve-bin and --work-dir are "
              "required");
    // A server that dies must fail its request, not end this process.
    std::signal(SIGPIPE, SIG_IGN);
    ctx.set = unsigned(seed % kInputSets);
    ctx.tally.ref = &ctx.ref;
    std::filesystem::create_directories(ctx.workDir);
    std::fprintf(stderr, "tlsbench: workload %s, seed %" PRIu64
                 " -> input set %u, %u threads, code version %s\n",
                 ctx.workload.c_str(), seed, ctx.set, kThreads,
                 sim::codeVersion());

    Metrics m;
    try {
        if (traced)
            tracedRun(ctx, m);
        else if (ctx.workload == "serve")
            serveEndToEnd(ctx, m);
        else
            batchEndToEnd(ctx, m);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tlsbench: %s\n", e.what());
        return 1;
    }
    m.print(ctx.tally);
    if (ctx.budget.overran())
        std::_Exit(0); // a runaway point is still running: see Budget
    return 0;
}
