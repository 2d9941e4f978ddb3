/**
 * @file
 * The boundary between a processor core and the speculative memory
 * system (implemented by tls::SpeculationEngine).
 */

#ifndef TLSIM_CPU_MEM_IF_HPP
#define TLSIM_CPU_MEM_IF_HPP

#include "common/types.hpp"

namespace tlsim::cpu {

/** Why a store could not proceed and the processor must suspend. */
enum class StoreStall : std::uint8_t {
    None,
    /**
     * MultiT&SV: the local buffer already holds a speculative version
     * of this variable from an earlier local task; stall until that
     * task becomes non-speculative.
     */
    SecondVersion
};

/** Reply to a load request. */
struct LoadReply {
    Cycle latency = 0; ///< round-trip time of the access
};

/** Reply to a store request (checked at issue). */
struct StoreReply {
    Cycle latency = 0;            ///< drain time once accepted
    StoreStall stall = StoreStall::None;
    std::uint32_t extraLogInstrs = 0; ///< FMM.Sw software-logging work
};

/**
 * Memory interface a core uses for the current task's accesses.
 *
 * The in-order core makes all calls at issue time. When a store
 * replies with a stall, the engine remembers the (proc, addr) waiter
 * and later calls Core::resumeStall(); the core then re-issues the
 * same store.
 *
 * The OoO core splits the load path: specLoadIssue performs the
 * access (timing and traffic) when the load issues, possibly long
 * before older stores have performed, and noteLoadRetire registers
 * the read with the violation detector when the load retires in
 * program order — the relaxed-memory discipline of docs/OOO_CORE.md.
 * Stores always perform through specStore, at retirement.
 */
class SpecMemoryIf
{
  public:
    virtual ~SpecMemoryIf() = default;

    /** Read by the current task of processor @p proc. */
    virtual LoadReply specLoad(ProcId proc, Addr addr, Cycle now) = 0;

    /** Write by the current task of processor @p proc. */
    virtual StoreReply specStore(ProcId proc, Addr addr, Cycle now) = 0;

    /**
     * Perform a speculative load early (OoO issue) without recording
     * it with the violation detector. Defaults to specLoad so simple
     * memories (tests) need not distinguish the two.
     */
    virtual LoadReply
    specLoadIssue(ProcId proc, Addr addr, Cycle now)
    {
        return specLoad(proc, addr, now);
    }

    /**
     * The load issued earlier via specLoadIssue reached in-order
     * retirement: register the read (violation-detection bookkeeping
     * only; no latency). Default: nothing to record.
     */
    virtual void
    noteLoadRetire(ProcId proc, Addr addr, Cycle now)
    {
        (void)proc;
        (void)addr;
        (void)now;
    }
};

} // namespace tlsim::cpu

#endif // TLSIM_CPU_MEM_IF_HPP
