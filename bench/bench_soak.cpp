/**
 * @file
 * Fault-injection soak runner: randomized (but fully deterministic)
 * fault schedules across every evaluated scheme, checking the three
 * robustness oracles on every point:
 *
 *   (a) completion — every task commits despite injected squashes,
 *       NoC stalls and forced buffer spills;
 *   (b) state — the final committed memory image (RunResult
 *       memStateHash/memStateLines) is byte-identical to the
 *       fault-free run of the same workload seed: faults may only
 *       move events in time, never change what commits;
 *   (c) audit — the recorded task-lifetime trace replays cleanly
 *       through the docs/TRACING.md invariants (same checker as
 *       `bench_inspect --audit`).
 *
 * Every schedule is drawn from a seeded generator, so a failing round
 * reproduces exactly from its printed spec: re-run with
 * `--faults=<spec>` on any figure driver or re-run the soak with the
 * same `--seed`.
 *
 * Flags: --short (CI-sized rounds), --rounds=N, --seed=N, --threads=N,
 * --trace=FILE (write the recorded soak trace for offline
 * `bench_inspect --audit`).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "sim/study.hpp"

using namespace tlsim;

namespace {

/** Squash-prone app: cross-task dependences plus spurious squashes. */
apps::AppParams
soakSquashy(unsigned tasks)
{
    apps::AppParams app;
    app.name = "soak-squashy";
    app.numTasks = tasks;
    app.instrPerTask = 900;
    app.sizeSigma = 0.4;
    app.writtenKb = 0.8;
    app.sharedReadKb = 0.2;
    app.depProb = 0.05;
    app.depDistance = 3;
    return app;
}

/** Buffer-hungry app: a large written footprint pressures the L2 and
 *  the (fault-capped) overflow area. */
apps::AppParams
soakHungry(unsigned tasks)
{
    apps::AppParams app;
    app.name = "soak-hungry";
    app.numTasks = tasks;
    app.instrPerTask = 1'400;
    app.sizeSigma = 0.2;
    app.writtenKb = 6.0;
    app.sharedReadKb = 0.3;
    app.depProb = 0.01;
    app.depDistance = 2;
    return app;
}

/**
 * Draw one randomized fault schedule. Every site gets a nonzero rate —
 * the soak's job is to exercise all of them at once — with magnitudes
 * kept in ranges where runs still finish quickly.
 */
fault::FaultSpec
drawSchedule(Rng &rng)
{
    fault::FaultSpec spec;
    spec.seed = rng.next();
    spec.nocDelayProb = 0.02 + 0.08 * rng.uniform();
    spec.nocDelayCycles = Cycle(rng.range(10, 30));
    spec.nocStallProb = 0.005 + 0.015 * rng.uniform();
    spec.nocStallCycles = Cycle(rng.range(40, 120));
    spec.nocRetryMax = unsigned(rng.range(3, 5));
    spec.spillProb = 0.01 + 0.04 * rng.uniform();
    spec.overflowCap = std::size_t(rng.range(8, 40));
    spec.overflowPressureCycles = Cycle(rng.range(30, 90));
    spec.undoStressProb = 0.2 + 0.4 * rng.uniform();
    spec.undoStressCycles = Cycle(rng.range(20, 80));
    spec.squashProb = 0.002 + 0.006 * rng.uniform();
    // Budgeted: spurious squashes fire per store and re-executed
    // stores draw again, so an uncapped rate explodes under FMM's
    // serialized recovery (each squash wipes every younger task).
    spec.squashMax = rng.range(24, 64);
    spec.commitSquashProb = 0.002 + 0.008 * rng.uniform();
    spec.commitSquashMax = rng.range(12, 32);
    return spec;
}

void
addFaults(fault::FaultCounters &into, const fault::FaultCounters &c)
{
    into.nocDelays += c.nocDelays;
    into.nocStalls += c.nocStalls;
    into.nocRetries += c.nocRetries;
    into.forcedSpills += c.forcedSpills;
    into.overflowPressure += c.overflowPressure;
    into.undoStressEvents += c.undoStressEvents;
    into.undoStressCycles += c.undoStressCycles;
    into.spuriousSquashes += c.spuriousSquashes;
    into.commitSquashes += c.commitSquashes;
}

/** Oracle outcomes of one table row (a round or a phase). */
struct SoakPhase {
    unsigned points = 0;
    bool stateOk = true;
    fault::FaultCounters injected;
};

struct SoakTally {
    unsigned points = 0;
    unsigned completionFailures = 0;
    unsigned stateMismatches = 0;
    fault::FaultCounters injected;

    /**
     * Apply the oracles to one point: the faulted run @p f and the
     * clean run @p c both commit all @p tasks tasks, f's memory image
     * equals c's and, when the phase has one, c's equals the
     * reference run @p ref's (the in-order core, or no prediction),
     * compared as @p ref_what. @p label names the point and @p repro
     * reproduces it in failure messages. f's injected faults fold
     * into the tally and @p phase.
     */
    void
    check(SoakPhase &phase, const std::string &label,
          const std::string &repro, unsigned tasks,
          const tls::RunResult &f, const tls::RunResult &c,
          const tls::RunResult *ref = nullptr,
          const char *ref_what = "")
    {
        ++points;
        ++phase.points;
        if (f.committedTasks != tasks || c.committedTasks != tasks) {
            ++completionFailures;
            std::fprintf(stderr, "soak: %s committed %llu/%u tasks\n",
                         label.c_str(),
                         (unsigned long long)f.committedTasks, tasks);
        }
        auto same_image = [&](const tls::RunResult &a,
                              const tls::RunResult &b,
                              const char *what) {
            if (a.memStateHash == b.memStateHash &&
                a.memStateLines == b.memStateLines)
                return;
            ++stateMismatches;
            phase.stateOk = false;
            std::fprintf(stderr,
                         "soak: %s %s memory-state divergence "
                         "(%016llx/%llu lines vs %016llx/%llu)\n"
                         "  %s\n",
                         label.c_str(), what,
                         (unsigned long long)a.memStateHash,
                         (unsigned long long)a.memStateLines,
                         (unsigned long long)b.memStateHash,
                         (unsigned long long)b.memStateLines,
                         repro.c_str());
        };
        same_image(f, c, "faulted-vs-clean");
        if (ref != nullptr)
            same_image(c, *ref, ref_what);
        addFaults(injected, f.faults);
        addFaults(phase.injected, f.faults);
    }
};

/** The injected-fault cell of a phase that reports squashes only. */
std::string
squashCell(const SoakPhase &phase)
{
    char cell[96];
    std::snprintf(cell, sizeof(cell), "sq %llu+%llu",
                  (unsigned long long)phase.injected.spuriousSquashes,
                  (unsigned long long)phase.injected.commitSquashes);
    return cell;
}

bool
parseFlag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return true;
    return false;
}

std::uint64_t
parseU64Flag(int argc, char **argv, const char *prefix,
             std::uint64_t fallback)
{
    std::size_t len = std::strlen(prefix);
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], prefix, len) == 0)
            return std::strtoull(argv[i] + len, nullptr, 10);
    return fallback;
}

std::string
parseTracePath(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0)
            return argv[i] + 8;
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            return argv[i + 1];
    }
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    const bool short_mode = parseFlag(argc, argv, "--short");
    const unsigned threads = bench::parseThreads(argc, argv);
    const std::uint64_t seed =
        parseU64Flag(argc, argv, "--seed=", 0x50a4'50a4ULL);
    const unsigned rounds = unsigned(parseU64Flag(
        argc, argv, "--rounds=", short_mode ? 2 : 4));
    const std::string trace_path = parseTracePath(argc, argv);
    const unsigned tasks = short_mode ? 48 : 96;
    // A --faults=SPEC override replays that exact schedule in every
    // round instead of drawing randomized ones (failure reproduction).
    const fault::FaultSpec fixed_spec = bench::parseFaults(argc, argv);
    bench::CacheSession cache_session(argc, argv);

    std::vector<apps::AppParams> apps = {soakSquashy(tasks),
                                         soakHungry(tasks)};
    std::vector<tls::SchemeConfig> schemes =
        tls::SchemeConfig::evaluatedSchemes();
    // --scheme=N narrows to one evaluated scheme (failure isolation).
    std::uint64_t scheme_pick =
        parseU64Flag(argc, argv, "--scheme=", ~0ULL);
    if (scheme_pick < schemes.size())
        schemes = {schemes[scheme_pick]};

    // One in-memory trace session spans the whole soak; each sweep's
    // points get distinct streams (app, machine, sweep ordinal), so a
    // single end-of-run audit covers every round, faulted and clean.
    trace::Options trace_opts;
    trace_opts.mask = trace::kMaskAudit;
    trace_opts.ringCapacity = std::size_t(1) << (short_mode ? 21 : 23);
    trace::start(trace_opts);

    std::printf("Fault-injection soak: %u rounds x %zu apps x %zu "
                "schemes (seed 0x%llx%s)\n\n",
                rounds, apps.size(), schemes.size(),
                (unsigned long long)seed, short_mode ? ", short" : "");

    Rng master(seed);
    SoakTally tally;
    TextTable table({"Round", "Machine", "Schedule", "Points",
                     "Injected faults", "State"});

    for (unsigned round = 0; round < rounds; ++round) {
        fault::FaultSpec spec =
            fixed_spec.anyEnabled() ? fixed_spec : drawSchedule(master);
        // Alternate machines so both NoC fault paths (mesh links,
        // crossbar ports) see stalls and delays.
        mem::MachineParams machine = (round % 2 == 0)
                                         ? mem::MachineParams::numa16()
                                         : mem::MachineParams::cmp8();

        // Fresh workload draw per round: the fault seed is derived
        // from the app seed (deriveFaultSeed), so the faulted and
        // fault-free sweeps pair point-by-point.
        std::vector<apps::AppParams> round_apps = apps;
        std::uint64_t mix = seed + 0x9e3779b97f4a7c15ULL * (round + 1);
        for (std::size_t a = 0; a < round_apps.size(); ++a) {
            std::uint64_t s = mix + a;
            round_apps[a].seed = splitmix64(s);
        }

        std::vector<sim::AppStudy> faulted = sim::runStudySweep(
            round_apps, schemes, machine, 1, threads, spec);
        std::vector<sim::AppStudy> clean = sim::runStudySweep(
            round_apps, schemes, machine, 1, threads, {});

        SoakPhase row;
        for (std::size_t a = 0; a < round_apps.size(); ++a) {
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                tally.check(row,
                            "round " + std::to_string(round) + " " +
                                round_apps[a].name + "/" +
                                schemes[s].name(),
                            "schedule: " + spec.canonical(),
                            round_apps[a].numTasks,
                            faulted[a].outcomes[s].result,
                            clean[a].outcomes[s].result);
            }
        }

        const fault::FaultCounters &inj = row.injected;
        char injected[96];
        std::snprintf(injected, sizeof(injected),
                      "noc %llu+%llu spill %llu ovf %llu undo %llu "
                      "sq %llu+%llu",
                      (unsigned long long)inj.nocDelays,
                      (unsigned long long)inj.nocStalls,
                      (unsigned long long)inj.forcedSpills,
                      (unsigned long long)inj.overflowPressure,
                      (unsigned long long)inj.undoStressEvents,
                      (unsigned long long)inj.spuriousSquashes,
                      (unsigned long long)inj.commitSquashes);
        table.addRow({std::to_string(round),
                      (round % 2 == 0) ? "NUMA-16" : "CMP-8",
                      spec.canonical(), std::to_string(row.points),
                      injected, row.stateOk ? "match" : "DIVERGED"});
    }

    // Synthetic-workload phase: one generated stream per kind on each
    // machine class, faulted vs clean, against the same three oracles.
    // Streams are a pure function of (spec, seed), so this also soaks
    // the generator itself: a nondeterministic stream shows up as a
    // faulted-vs-clean memStateHash divergence.
    {
        const unsigned synth_tasks = short_mode ? 24 : 48;
        const unsigned synth_fp = short_mode ? 96 : 192;
        std::uint64_t synth_seed = seed;
        const std::vector<apps::SynthSpec> specs = apps::synthSuite(
            synth_tasks, synth_fp, splitmix64(synth_seed));
        const fault::FaultSpec spec = fixed_spec.anyEnabled()
                                          ? fixed_spec
                                          : drawSchedule(master);
        const std::vector<mem::MachineParams> synth_machines = {
            mem::MachineParams::mesh(64), mem::MachineParams::cmp32()};
        for (const mem::MachineParams &machine : synth_machines) {
            std::vector<sim::SynthStudy> faulted = sim::runSynthSweep(
                specs, schemes, machine, threads, spec);
            std::vector<sim::SynthStudy> clean = sim::runSynthSweep(
                specs, schemes, machine, threads, {});

            SoakPhase row;
            for (std::size_t a = 0; a < specs.size(); ++a) {
                for (std::size_t s = 0; s < schemes.size(); ++s) {
                    tally.check(row,
                                "synth " + machine.name + "/" +
                                    specs[a].name() + "/" +
                                    schemes[s].name(),
                                "spec: " + specs[a].canonical() +
                                    "\n  schedule: " + spec.canonical(),
                                specs[a].tasks,
                                faulted[a].outcomes[s].result,
                                clean[a].outcomes[s].result);
                }
            }
            table.addRow({"synth", machine.name, spec.canonical(),
                          std::to_string(row.points), squashCell(row),
                          row.stateOk ? "match" : "DIVERGED"});
        }
    }

    // The core-pipeline records roughly triple the OoO phase's
    // memory-op record volume, so it gets its own trace session: a
    // shared ring sized for the audit mask would wrap, and the audit
    // flags wrap-around truncation as an issue. The in-order phases'
    // trace is drained here and audited at the end alongside the OoO
    // one.
    trace::stop();
    trace::TraceFile inorder_file = trace::drainFile();
    trace::reset();
    // The value category rides along so the predict+validate phase
    // below is covered by audit invariant 8 (every predicted read
    // validated or squashed).
    trace_opts.mask =
        trace::kMaskAudit | trace::kMaskCore | trace::kMaskValue;
    // ~2 core records per memory op on top of the audit kinds: the
    // phase needs roughly twice the ring of an audit-only round set.
    trace_opts.ringCapacity = std::size_t(1) << (short_mode ? 22 : 23);
    trace::start(trace_opts);

    // Out-of-order core phase: the squashy/hungry apps again, now
    // under the bounded-window OoO model (docs/OOO_CORE.md), faulted
    // vs clean, against the same three oracles. Additionally the
    // clean OoO memory image must equal the clean in-order image —
    // the core timing model may reorder events in time but must
    // never change what commits.
    {
        mem::MachineParams machine = mem::MachineParams::numa16();
        machine.coreModel = mem::CoreModelKind::OutOfOrder;
        mem::MachineParams inorder_machine = mem::MachineParams::numa16();
        const fault::FaultSpec spec = fixed_spec.anyEnabled()
                                          ? fixed_spec
                                          : drawSchedule(master);
        std::vector<apps::AppParams> ooo_apps = apps;
        std::uint64_t mix = seed + 0xc2b2ae3d27d4eb4fULL;
        for (std::size_t a = 0; a < ooo_apps.size(); ++a) {
            std::uint64_t s = mix + a;
            ooo_apps[a].seed = splitmix64(s);
        }

        std::vector<sim::AppStudy> faulted = sim::runStudySweep(
            ooo_apps, schemes, machine, 1, threads, spec);
        std::vector<sim::AppStudy> clean = sim::runStudySweep(
            ooo_apps, schemes, machine, 1, threads, {});
        std::vector<sim::AppStudy> inorder = sim::runStudySweep(
            ooo_apps, schemes, inorder_machine, 1, threads, {});

        SoakPhase row;
        for (std::size_t a = 0; a < ooo_apps.size(); ++a) {
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                tally.check(row,
                            "ooo " + ooo_apps[a].name + "/" +
                                schemes[s].name(),
                            "schedule: " + spec.canonical(),
                            ooo_apps[a].numTasks,
                            faulted[a].outcomes[s].result,
                            clean[a].outcomes[s].result,
                            &inorder[a].outcomes[s].result,
                            "ooo-vs-inorder");
            }
        }
        table.addRow({"ooo", "NUMA-16", spec.canonical(),
                      std::to_string(row.points), squashCell(row),
                      row.stateOk ? "match" : "DIVERGED"});
    }

    // Predict+Validate phase: the synthetic suite (whose SquashStorm
    // and Reduce kinds manufacture the invalidation churn the
    // predictor feeds on) under every evaluated scheme with the
    // validation axis enabled. On top of the usual faulted-vs-clean
    // pair, the clean Predict+Validate image must equal the clean
    // validation=None image: prediction is a timing policy and may
    // never change what commits (DESIGN.md §11).
    std::uint64_t vp_predictions = 0;
    {
        mem::MachineParams machine = mem::MachineParams::numa16();
        const fault::FaultSpec spec = fixed_spec.anyEnabled()
                                          ? fixed_spec
                                          : drawSchedule(master);
        std::vector<tls::SchemeConfig> vp_schemes;
        for (const tls::SchemeConfig &s : schemes)
            vp_schemes.push_back(
                s.withValidation(tls::Validation::PredictValidate));
        const unsigned vp_tasks = short_mode ? 24 : 48;
        const unsigned vp_fp = short_mode ? 96 : 192;
        std::uint64_t vp_seed = seed + 0xa0761d6478bd642fULL;
        const std::vector<apps::SynthSpec> vp_specs = apps::synthSuite(
            vp_tasks, vp_fp, splitmix64(vp_seed));

        std::vector<sim::SynthStudy> faulted = sim::runSynthSweep(
            vp_specs, vp_schemes, machine, threads, spec);
        std::vector<sim::SynthStudy> clean = sim::runSynthSweep(
            vp_specs, vp_schemes, machine, threads, {});
        std::vector<sim::SynthStudy> baseline = sim::runSynthSweep(
            vp_specs, schemes, machine, threads, {});

        SoakPhase row;
        for (std::size_t a = 0; a < vp_specs.size(); ++a) {
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                const tls::RunResult &f = faulted[a].outcomes[s].result;
                const tls::RunResult &c = clean[a].outcomes[s].result;
                vp_predictions += f.counters.get("value_predictions") +
                                  c.counters.get("value_predictions");
                tally.check(row,
                            "vp " + vp_specs[a].name() + "/" +
                                vp_schemes[s].name(),
                            "spec: " + vp_specs[a].canonical() +
                                "\n  schedule: " + spec.canonical(),
                            vp_specs[a].tasks, f, c,
                            &baseline[a].outcomes[s].result,
                            "predicted-vs-baseline");
            }
        }
        table.addRow({"vp", "NUMA-16", spec.canonical(),
                      std::to_string(row.points), squashCell(row),
                      row.stateOk ? "match" : "DIVERGED"});
    }

    std::fputs(table.render().c_str(), stdout);

    // The soak must actually have exercised every fault site: a soak
    // where (say) no NoC stall ever fired proves nothing about stalls.
    // The predict+validate phase likewise proves nothing if the
    // predictor never fired.
    bool coverage_ok = tally.injected.nocDelays > 0 &&
                       tally.injected.nocStalls > 0 &&
                       tally.injected.forcedSpills > 0 &&
                       tally.injected.overflowPressure > 0 &&
                       tally.injected.undoStressEvents > 0 &&
                       tally.injected.spuriousSquashes > 0 &&
                       tally.injected.commitSquashes > 0 &&
                       vp_predictions > 0;

    std::size_t audit_issues = 0;
    trace::stop();
    trace::TraceFile ooo_file = trace::drainFile();
    trace::reset();
    auto audit_one = [&](const char *label,
                         const trace::TraceFile &file,
                         const std::string &path) {
        trace::AuditReport report = trace::audit(file);
        audit_issues += report.issues.size();
        std::printf("\nTrace audit (%s): %zu records, %zu "
                    "streams, %zu checks, %zu issues\n",
                    label, report.records, report.streams,
                    report.checks, report.issues.size());
        if (!report.ok())
            std::fputs(report.summary().c_str(), stderr);
        if (!path.empty()) {
            std::string err;
            if (trace::writeBinary(path, file, &err))
                std::fprintf(stderr, "soak: trace -> %s\n",
                             path.c_str());
            else
                std::fprintf(stderr, "soak: %s\n", err.c_str());
        }
    };
    audit_one("in-order phases", inorder_file, trace_path);
    audit_one("ooo phase", ooo_file,
              trace_path.empty() ? std::string()
                                 : trace_path + ".ooo");

    std::printf("\nSoak summary: %u points, %u completion failures, "
                "%u state mismatches, %llu injected faults, "
                "%llu value predictions%s\n",
                tally.points, tally.completionFailures,
                tally.stateMismatches,
                (unsigned long long)tally.injected.total(),
                (unsigned long long)vp_predictions,
                coverage_ok ? "" : " (COVERAGE GAP: some fault site "
                                   "or the value predictor never "
                                   "fired)");

    bool ok = tally.completionFailures == 0 &&
              tally.stateMismatches == 0 && coverage_ok &&
              audit_issues == 0;
    std::printf("SOAK %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
