/**
 * @file
 * Persistent sweep service ("tlsim serve", DESIGN.md §10).
 *
 * Speaks JSON lines over a pair of streams (the tlsim_serve binary
 * wires these to stdin/stdout, so any client that can spawn a process
 * can drive it — tools/sweep_client.py is the reference client). Each
 * request names a sweep slice — machine × workloads × schemes × reps ×
 * faults — and gets one response line back. Novel points are sharded
 * across a TaskPool under the same thread budget as batch sweeps
 * (resolveThreadCount); points already in the installed ResultCache
 * are answered from the store, and every response carries the
 * request's hit/miss/recompute tallies.
 *
 * Request object, one per line (unknown fields are ignored):
 *
 *   {"id": "warmup-1",            // echoed back; optional
 *    "machine": "numa16",         // required, MachineParams::byName
 *    "apps": ["P3m", "Tree"],     // suite apps by name
 *    "synth": ["conflict:tasks=64"], // SynthSpec::parse strings
 *    "schemes": [0, "FMM"],       // indices or names into
 *                                 // SchemeConfig::evaluatedSchemes();
 *                                 // default: all of them
 *    "reps": 2,                   // replications, default 1
 *    "faults": "noc-delay:p=0.1", // FaultSpec::parse, default none
 *    "baseline": true}            // also run sequential baselines
 *
 * Response: {"id": ..., "ok": true, "points": [...], "baselines":
 * [...], "stats": {hits, misses, stores, corrupt, verified},
 * "elapsed_ms": ...} with one points[] entry per (workload, scheme,
 * rep) in deterministic request order, or {"ok": false, "error": ...}.
 */

#ifndef TLSIM_SIM_SERVE_HPP
#define TLSIM_SIM_SERVE_HPP

#include <iosfwd>

namespace tlsim::sim {

struct ServeOptions {
    /** Sweep thread budget; 0 = TLSIM_THREADS / hardware default. */
    unsigned threads = 0;
};

/**
 * Serve requests from @p in until EOF, one JSON object per line,
 * writing one response line each to @p out (flushed per response, so
 * a pipe client can run request/response lockstep). Blank lines are
 * ignored; malformed requests get {"ok": false} responses rather than
 * terminating the loop. Returns the number of requests answered.
 */
std::size_t runServeLoop(std::istream &in, std::ostream &out,
                         const ServeOptions &opts);

} // namespace tlsim::sim

#endif // TLSIM_SIM_SERVE_HPP
