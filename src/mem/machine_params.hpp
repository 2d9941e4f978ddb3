/**
 * @file
 * Full machine description: the two configurations evaluated in the
 * paper (16-node CC-NUMA and 8-processor CMP) plus every timing knob.
 */

#ifndef TLSIM_MEM_MACHINE_PARAMS_HPP
#define TLSIM_MEM_MACHINE_PARAMS_HPP

#include <string>

#include "common/types.hpp"
#include "mem/geometry.hpp"

namespace tlsim::mem {

/** Which machine of the paper's Section 4.1 is being modeled. */
enum class MachineKind { Numa16, Cmp8 };

/** Which processor timing model drives the cores (DESIGN.md §5). */
enum class CoreModelKind : std::uint8_t { InOrder, OutOfOrder };

/** Stable lower-case name ("inorder"/"ooo"); drivers' --core values. */
const char *coreModelName(CoreModelKind kind);

/** Parse a --core value; returns false on an unknown name. */
bool parseCoreModelName(const std::string &name, CoreModelKind *out);

/**
 * Machine parameters.
 *
 * Latencies are the paper's *minimum round-trip* values; contention is
 * added on top by Resource/Interconnect occupancy. Factory functions
 * numa16() and cmp8() reproduce Section 4.1; individual fields can be
 * overridden afterwards (e.g. the Lazy.L2 experiment enlarges the L2).
 */
struct MachineParams {
    MachineKind kind = MachineKind::Numa16;
    std::string name = "numa16";
    unsigned numProcs = 16;

    CacheGeometry l1 = CacheGeometry::of(32 * 1024, 2);
    CacheGeometry l2 = CacheGeometry::of(512 * 1024, 4);

    /** @name Round-trip latency table (cycles) */
    ///@{
    Cycle latL1 = 2;
    Cycle latL2 = 12;
    Cycle latLocalMem = 75;   ///< NUMA: memory in the local node
    Cycle latRemote2Hop = 208; ///< NUMA: 2 protocol hops
    Cycle latRemote3Hop = 291; ///< NUMA: 3 protocol hops (owner forward)
    Cycle latOtherL2 = 18;    ///< CMP: another processor's L2
    Cycle latL3 = 38;         ///< CMP: shared off-chip L3 data
    ///@}

    /** @name Resource occupancies (cycles held per request) */
    ///@{
    Cycle occL2Port = 2;
    Cycle occDirBank = 4;
    Cycle occMemBank = 20;  ///< DRAM bank per line access
    Cycle occL3Bank = 8;    ///< CMP L3 bank per line access
    ///@}

    /** Number of directory/memory banks (CMP: 8 on-chip banks). */
    unsigned numBanks = 16;

    /** @name Hierarchical directory banking (scaled machines)
     *
     * Flat per-node directories stop scaling past a few dozen nodes:
     * the 64–256-node meshes and CMP-32 bank their directories in two
     * levels, clusters of @ref dirClusterNodes nodes sharing a
     * first-level slice. A lookup whose requester and home live in
     * different clusters pays @ref latDirCluster extra cycles for the
     * second-level hop. 0/1 cluster nodes = flat (the paper's
     * machines). */
    ///@{
    unsigned dirClusterNodes = 0;
    Cycle latDirCluster = 0;
    ///@}

    /** Page size used for NUMA home assignment (round-robin). */
    unsigned pageBytes = 4096;

    /** @name Processor model */
    ///@{
    double ipc = 2.0;          ///< sustained non-memory IPC (4-issue core)
    Cycle loadHide = 12;       ///< load latency the OoO window hides
    unsigned storeBufEntries = 16;
    unsigned maxPendingLoads = 8; ///< OoO outstanding-miss (MLP) cap
    /** Which timing model drives the processors (docs/OOO_CORE.md).
     *  InOrder is the byte-identical default; OutOfOrder enables the
     *  bounded-window core with relaxed-order speculative loads. */
    CoreModelKind coreModel = CoreModelKind::InOrder;
    unsigned oooWindow = 64;    ///< unretired memory-op window depth
    unsigned oooIssueWidth = 4; ///< memory-op issues/cycle (paper: 4)
    unsigned lsqEntries = 16;   ///< unperformed stores the LSQ holds
    Cycle lsqForwardCycles = 2; ///< store-to-load forward latency
    ///@}

    /** @name TLS overheads */
    ///@{
    /** Fixed cost of an eager commit: token handling, protocol
     *  handshakes and starting the write-back table walk. */
    Cycle commitFixedCycles = 900;
    /** Cycles between successive write-backs of an eager merge (table
     *  walk + write-back issue). */
    Cycle commitIssueGap = 8;
    /** Issue gap of the Lazy final-merge cache sweep (pipelined
     *  hardware walk; banks and links throttle it further). */
    Cycle finalMergeGap = 4;
    Cycle dispatchCycles = 30;      ///< dynamic scheduling per task
    Cycle tokenPassCycles = 10;     ///< commit-token handoff
    Cycle recoveryPerTask = 60;     ///< AMM squash bookkeeping per task
    Cycle recoveryPerLogEntry = 55; ///< FMM handler work per MHB entry
    unsigned swLogInstrPerEntry = 24; ///< FMM.Sw added instructions
    /** Extra cycles an L2 miss pays to consult the overflow-area
     *  tables while the area is non-empty (AMM only; FMM displaces
     *  into plain main memory and needs no such structure). */
    Cycle overflowCheckCycles = 35;
    /** Detect out-of-order RAWs at word granularity (the paper's
     *  protocol). false = line granularity: false sharing between
     *  tasks manufactures extra squashes (ablation). */
    bool wordGranularityDetection = true;
    ///@}

    bool isNuma() const { return kind == MachineKind::Numa16; }

    /**
     * Home node of a line. NUMA pages are distributed by a page-number
     * hash (plain modulo would alias large power-of-two allocation
     * strides onto one node and fabricate a hotspot); CMP banks are
     * line-interleaved.
     */
    unsigned
    homeOf(Addr line_addr) const
    {
        if (!isNuma())
            return unsigned(line_addr % numBanks);
        Addr page = line_addr * kLineBytes / pageBytes;
        // splitmix64-style finalizer over the page number.
        page = (page ^ (page >> 30)) * 0xbf58476d1ce4e5b9ULL;
        page = (page ^ (page >> 27)) * 0x94d049bb133111ebULL;
        page ^= page >> 31;
        return unsigned(page % numProcs);
    }

    /** The paper's CC-NUMA configuration (Section 4.1). */
    static MachineParams numa16();
    /** The paper's CMP configuration (Section 4.1). */
    static MachineParams cmp8();

    /**
     * Scaled CC-NUMA mesh beyond the paper: @p nodes in {64, 128, 256}
     * (name "mesh64"...). Remote latencies grow with the mean Manhattan
     * distance of the larger mesh (first-order wire/hop-delay scaling)
     * and directories go hierarchical. The speculative structures (MTID
     * table, overflow areas, undo logs) grow on demand, as on the
     * paper's machines.
     */
    static MachineParams mesh(unsigned nodes);

    /** Scaled 32-processor CMP with two-level banked directories. */
    static MachineParams cmp32();

    /**
     * Machine by name: "numa16", "cmp8", "mesh64", "mesh128",
     * "mesh256", "cmp32". Returns false for unknown names.
     */
    static bool byName(const std::string &name, MachineParams *out);
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_MACHINE_PARAMS_HPP
