/**
 * @file
 * Synthetic-workload Pareto sweep: topology x workload kind x scheme.
 *
 * Extends Tables 1-2 from a support checklist to a cost axis: every
 * (machine, kind, scheme) point is simulated and plotted as
 * (dedicated buffering hardware in KB, speedup over sequential), with
 * Pareto-optimal schemes marked per workload. The driver also checks
 * every point against the paper's calibrated expectation — speedup
 * non-decreasing along the Table 2 support-upgrade path — and reports
 * each ranking inversion the synthetic workloads manufacture.
 *
 * Usage:
 *   bench_synth_sweep [--quick] [--threads N] [--faults SPEC]
 *                     [--machines a,b,c] [--csv FILE]
 *
 * Output is byte-identical at any --threads value (the sweep runner
 * indexes results by point identity, never draw order).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/synth_workload.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "sim/study.hpp"

using namespace tlsim;

namespace {

struct Options {
    bool quick = false;
    bool validate = false;
    unsigned threads = 0;
    std::vector<std::string> machines = {"numa16", "mesh64", "cmp32"};
    std::string csvPath;
    fault::FaultSpec faults;
    mem::CoreModelKind core = mem::CoreModelKind::InOrder;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    opt.threads = bench::parseThreads(argc, argv);
    opt.faults = bench::parseFaults(argc, argv);
    opt.core = bench::parseCoreModel(argc, argv);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *list = nullptr;
        if (std::strcmp(arg, "--quick") == 0) {
            opt.quick = true;
        } else if (std::strcmp(arg, "--validate") == 0) {
            opt.validate = true;
        } else if (std::strncmp(arg, "--machines=", 11) == 0) {
            list = arg + 11;
        } else if (std::strcmp(arg, "--machines") == 0 && i + 1 < argc) {
            list = argv[++i];
        } else if (std::strncmp(arg, "--csv=", 6) == 0) {
            opt.csvPath = arg + 6;
        } else if (std::strcmp(arg, "--csv") == 0 && i + 1 < argc) {
            opt.csvPath = argv[++i];
        }
        if (list != nullptr) {
            opt.machines.clear();
            std::string item;
            for (const char *p = list;; ++p) {
                if (*p == ',' || *p == '\0') {
                    if (!item.empty())
                        opt.machines.push_back(item);
                    item.clear();
                    if (*p == '\0')
                        break;
                } else {
                    item += *p;
                }
            }
        }
    }
    return opt;
}

/**
 * Table 2's support-upgrade paths, as index chains into
 * SchemeConfig::evaluatedSchemes(). On the paper's calibrated loops
 * each step adds hardware and does not lose performance; a synthetic
 * point where a later chain member is slower is a ranking inversion.
 */
const std::vector<std::vector<std::size_t>> &
upgradeChains()
{
    // evaluatedSchemes() order: 0 SingleT Eager, 1 SingleT Lazy,
    // 2 MultiT&SV Eager, 3 MultiT&SV Lazy, 4 MultiT&MV Eager,
    // 5 MultiT&MV Lazy, 6 MultiT&MV FMM, 7 MultiT&MV FMM.Sw.
    static const std::vector<std::vector<std::size_t>> kChains = {
        {0, 2, 4, 5, 6}, // eager separation ladder, then lazier merging
        {1, 3, 5, 6},    // lazy ladder into FMM
    };
    return kChains;
}

/** True if outcome a Pareto-dominates b (cheaper-or-equal and
 *  faster-or-equal, at least one strict). */
bool
dominates(const sim::SynthOutcome &a, const sim::SynthOutcome &b)
{
    if (a.bufferCostKb > b.bufferCostKb || a.speedup < b.speedup)
        return false;
    return a.bufferCostKb < b.bufferCostKb || a.speedup > b.speedup;
}

struct Inversion {
    std::string machine;
    std::string spec;
    std::string cheaper; ///< earlier chain member that wins
    std::string costlier;
    double cheaperSpeedup = 0.0;
    double costlierSpeedup = 0.0;
    double costDeltaKb = 0.0;
};

/**
 * Table 2 chain edges whose costlier member is slower than the
 * cheaper one by more than @p eps, deduplicated across chains.
 */
std::vector<std::pair<std::size_t, std::size_t>>
invertedEdges(const std::vector<sim::SynthOutcome> &outcomes,
              double eps)
{
    std::vector<std::pair<std::size_t, std::size_t>> seen, inverted;
    for (const auto &chain : upgradeChains()) {
        for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
            auto edge = std::make_pair(chain[k], chain[k + 1]);
            if (std::find(seen.begin(), seen.end(), edge) !=
                seen.end())
                continue;
            seen.push_back(edge);
            if (outcomes[edge.second].speedup <
                outcomes[edge.first].speedup * (1.0 - eps))
                inverted.push_back(edge);
        }
    }
    return inverted;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    bench::TraceSession session(argc, argv, trace::kMaskAudit,
                                1u << 20);
    bench::CacheSession cache_session(argc, argv);

    const std::vector<tls::SchemeConfig> schemes =
        tls::SchemeConfig::evaluatedSchemes();

    // One spec per kind, calibrated defaults (synthSuite); quick mode
    // shrinks the points for CI without changing the grid shape.
    const unsigned tasks = opt.quick ? 24 : 48;
    const unsigned footprint = opt.quick ? 96 : 192;
    const std::vector<apps::SynthSpec> specs =
        apps::synthSuite(tasks, footprint, 0x5e1f);

    std::printf("Synthetic-workload Pareto sweep "
                "(speedup vs dedicated buffering cost)\n");
    std::printf("grid: %zu machines x %zu kinds x %zu schemes%s\n\n",
                opt.machines.size(), specs.size(), schemes.size(),
                opt.quick ? " [quick]" : "");

    std::ofstream csv;
    if (!opt.csvPath.empty()) {
        csv.open(opt.csvPath);
        if (!csv) {
            std::fprintf(stderr, "cannot open %s\n",
                         opt.csvPath.c_str());
            return 1;
        }
        csv << "machine,kind,spec,scheme,seq_cycles,exec_cycles,"
               "speedup,cost_kb,squashes,pareto\n";
    }

    std::vector<Inversion> inversions;
    std::vector<std::string> rankingChanges;
    // Relative slowdown a costlier chain member must show before a
    // pair counts as inverted (filters timing noise-scale effects).
    const double kEps = 0.02;

    for (const std::string &mname : opt.machines) {
        mem::MachineParams machine;
        if (!mem::MachineParams::byName(mname, &machine)) {
            std::fprintf(stderr, "unknown machine '%s'\n",
                         mname.c_str());
            return 1;
        }
        machine.coreModel = opt.core;

        std::vector<sim::SynthStudy> studies = sim::runSynthSweep(
            specs, schemes, machine, opt.threads, opt.faults);

        TextTable table({"Kind", "Scheme", "Speedup", "Cost KB",
                         "Pareto", "Squashes"});
        for (const sim::SynthStudy &study : studies) {
            std::vector<bool> pareto(study.outcomes.size(), true);
            for (std::size_t i = 0; i < study.outcomes.size(); ++i)
                for (std::size_t j = 0; j < study.outcomes.size(); ++j)
                    if (j != i && dominates(study.outcomes[j],
                                            study.outcomes[i]))
                        pareto[i] = false;

            for (std::size_t i = 0; i < study.outcomes.size(); ++i) {
                const sim::SynthOutcome &out = study.outcomes[i];
                table.addRow({
                    i == 0 ? apps::synthKindName(study.spec.kind) : "",
                    out.scheme.name(),
                    TextTable::fmt(out.speedup, 2),
                    TextTable::fmt(out.bufferCostKb, 0),
                    pareto[i] ? "*" : "",
                    std::to_string(out.result.squashEvents),
                });
                if (csv.is_open())
                    csv << machine.name << ','
                        << apps::synthKindName(study.spec.kind) << ','
                        << '"' << study.spec.canonical() << "\","
                        << out.scheme.name() << ',' << study.seqTime
                        << ',' << out.result.execTime << ','
                        << TextTable::fmt(out.speedup, 4) << ','
                        << TextTable::fmt(out.bufferCostKb, 1) << ','
                        << out.result.squashEvents << ','
                        << (pareto[i] ? 1 : 0) << '\n';
            }
            table.addSeparator();

            for (const auto &edge : invertedEdges(study.outcomes, kEps)) {
                const sim::SynthOutcome &lo = study.outcomes[edge.first];
                const sim::SynthOutcome &hi = study.outcomes[edge.second];
                inversions.push_back(
                    {machine.name, apps::synthKindName(study.spec.kind),
                     lo.scheme.name(), hi.scheme.name(), lo.speedup,
                     hi.speedup, hi.bufferCostKb - lo.bufferCostKb});
            }
        }
        std::printf("== %s ==\n%s\n", machine.name.c_str(),
                    table.render().c_str());

        // --validate: rerun the grid with Predict+Validate and report
        // per-point deltas plus every Table 2 chain edge whose
        // inversion status flips under the validation axis.
        if (opt.validate) {
            std::vector<tls::SchemeConfig> vp_schemes;
            for (const tls::SchemeConfig &s : schemes)
                vp_schemes.push_back(s.withValidation(
                    tls::Validation::PredictValidate));
            std::vector<sim::SynthStudy> vp = sim::runSynthSweep(
                specs, vp_schemes, machine, opt.threads, opt.faults);

            TextTable vt({"Kind", "Scheme", "Speedup", "+VP",
                          "Delta %", "Pred", "Mispred"});
            for (std::size_t a = 0; a < studies.size(); ++a) {
                for (std::size_t i = 0; i < schemes.size(); ++i) {
                    const sim::SynthOutcome &base =
                        studies[a].outcomes[i];
                    const sim::SynthOutcome &pvo = vp[a].outcomes[i];
                    double delta =
                        100.0 * (pvo.speedup / base.speedup - 1.0);
                    vt.addRow({
                        i == 0 ? apps::synthKindName(
                                     studies[a].spec.kind)
                               : "",
                        schemes[i].name(),
                        TextTable::fmt(base.speedup, 2),
                        TextTable::fmt(pvo.speedup, 2),
                        TextTable::fmt(delta, 1),
                        std::to_string(pvo.result.counters.get(
                            "value_predictions")),
                        std::to_string(pvo.result.counters.get(
                            "value_mispredicts")),
                    });
                }
                vt.addSeparator();

                auto noneInv =
                    invertedEdges(studies[a].outcomes, kEps);
                auto vpInv = invertedEdges(vp[a].outcomes, kEps);
                const char *kind =
                    apps::synthKindName(studies[a].spec.kind);
                for (const auto &e : noneInv) {
                    if (std::find(vpInv.begin(), vpInv.end(), e) ==
                        vpInv.end())
                        rankingChanges.push_back(
                            std::string(machine.name) + "/" + kind +
                            ": validation repairs " +
                            schemes[e.first].name() + " > " +
                            schemes[e.second].name() + " (" +
                            TextTable::fmt(
                                vp[a].outcomes[e.first].speedup, 2) +
                            "x vs " +
                            TextTable::fmt(
                                vp[a].outcomes[e.second].speedup, 2) +
                            "x under +VP)");
                }
                for (const auto &e : vpInv) {
                    if (std::find(noneInv.begin(), noneInv.end(),
                                  e) == noneInv.end())
                        rankingChanges.push_back(
                            std::string(machine.name) + "/" + kind +
                            ": validation introduces " +
                            schemes[e.first].name() + " > " +
                            schemes[e.second].name() + " (" +
                            TextTable::fmt(
                                vp[a].outcomes[e.first].speedup, 2) +
                            "x vs " +
                            TextTable::fmt(
                                vp[a].outcomes[e.second].speedup, 2) +
                            "x under +VP)");
                }
            }
            std::printf("== %s: validation axis (+VP vs None) ==\n%s\n",
                        machine.name.c_str(), vt.render().c_str());
        }
    }

    std::printf("Ranking inversions vs the paper's Table 2 upgrade "
                "path (%zu):\n",
                inversions.size());
    for (const Inversion &inv : inversions)
        std::printf("  %s/%s: %s (+%.0f KB) %.2fx < %s %.2fx\n",
                    inv.machine.c_str(), inv.spec.c_str(),
                    inv.costlier.c_str(), inv.costDeltaKb,
                    inv.costlierSpeedup, inv.cheaper.c_str(),
                    inv.cheaperSpeedup);
    if (inversions.empty())
        std::printf("  (none at this grid)\n");

    if (opt.validate) {
        std::printf("\nValidation ranking changes (Table 2 chain "
                    "edges whose inversion status flips under "
                    "Predict+Validate): %zu\n",
                    rankingChanges.size());
        for (const std::string &line : rankingChanges)
            std::printf("  %s\n", line.c_str());
        if (rankingChanges.empty())
            std::printf("  (none at this grid)\n");
    }

    return 0;
}
