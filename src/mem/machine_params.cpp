#include "mem/machine_params.hpp"

#include <cmath>

#include "common/log.hpp"

namespace tlsim::mem {

namespace {

/** Rows of the square-ish mesh used for n nodes (engine's meshRows). */
unsigned
meshRowsOf(unsigned n)
{
    unsigned r = 1;
    while (r * r < n)
        ++r;
    return r;
}

/**
 * Mean Manhattan distance of an RxC mesh relative to the paper's 4x4:
 * the hop-proportional share of the remote round-trip latencies scales
 * with this ratio (wire/hop delay; bank and protocol costs do not).
 */
double
meshDistanceRatio(unsigned nodes)
{
    unsigned rows = meshRowsOf(nodes);
    unsigned cols = (nodes + rows - 1) / rows;
    double mean = (double(rows) + double(cols)) / 3.0;
    double base = (4.0 + 4.0) / 3.0; // numa16's 4x4
    return mean / base;
}

} // namespace

const char *
coreModelName(CoreModelKind kind)
{
    switch (kind) {
      case CoreModelKind::InOrder:
        return "inorder";
      case CoreModelKind::OutOfOrder:
        return "ooo";
    }
    return "?";
}

bool
parseCoreModelName(const std::string &name, CoreModelKind *out)
{
    if (name == "inorder")
        *out = CoreModelKind::InOrder;
    else if (name == "ooo")
        *out = CoreModelKind::OutOfOrder;
    else
        return false;
    return true;
}

MachineParams
MachineParams::numa16()
{
    MachineParams p;
    p.kind = MachineKind::Numa16;
    p.name = "numa16";
    p.numProcs = 16;
    p.l1 = CacheGeometry::of(32 * 1024, 2);
    p.l2 = CacheGeometry::of(512 * 1024, 4);
    p.latL1 = 2;
    p.latL2 = 12;
    p.latLocalMem = 75;
    p.latRemote2Hop = 208;
    p.latRemote3Hop = 291;
    p.numBanks = 16; // one per node
    p.occMemBank = 20;
    p.commitFixedCycles = 900;
    p.commitIssueGap = 8;
    return p;
}

MachineParams
MachineParams::cmp8()
{
    MachineParams p;
    p.kind = MachineKind::Cmp8;
    p.name = "cmp8";
    p.numProcs = 8;
    p.l1 = CacheGeometry::of(32 * 1024, 2);
    p.l2 = CacheGeometry::of(256 * 1024, 4);
    p.latL1 = 2;
    p.latL2 = 8;
    p.latOtherL2 = 18;
    p.latL3 = 38;
    p.latLocalMem = 102; // off-chip main memory
    p.numBanks = 8;      // on-chip directory/L3-tag banks
    p.occMemBank = 12;   // more bandwidth in the tightly coupled CMP
    p.occL3Bank = 8;
    p.loadHide = 8;
    p.overflowCheckCycles = 22;
    p.commitFixedCycles = 250;
    p.commitIssueGap = 4;
    return p;
}

MachineParams
MachineParams::mesh(unsigned nodes)
{
    if (nodes != 64 && nodes != 128 && nodes != 256)
        fatal("MachineParams::mesh: supported sizes are 64/128/256, "
              "got " +
              std::to_string(nodes));

    MachineParams p = numa16();
    p.name = "mesh" + std::to_string(nodes);
    p.numProcs = nodes;
    p.numBanks = nodes; // one directory/memory bank per node

    // Remote round trips: the local-memory share (DRAM + protocol,
    // 75 cycles) is size-independent; the network share grows with the
    // mean hop distance of the bigger mesh.
    double ratio = meshDistanceRatio(nodes);
    p.latRemote2Hop =
        Cycle(75 + std::lround((208.0 - 75.0) * ratio));
    p.latRemote3Hop =
        Cycle(75 + std::lround((291.0 - 75.0) * ratio));

    // Two-level directories: 4x4 clusters (the paper's machine is one
    // cluster); a cross-cluster lookup pays a second-level hop.
    p.dirClusterNodes = 16;
    p.latDirCluster = 30;

    // Commit token handoffs also cross a bigger machine.
    p.tokenPassCycles = Cycle(std::lround(10.0 * ratio));
    return p;
}

MachineParams
MachineParams::cmp32()
{
    MachineParams p = cmp8();
    p.name = "cmp32";
    p.numProcs = 32;
    p.numBanks = 32; // on-chip directory/L3-tag banks
    p.l2 = CacheGeometry::of(256 * 1024, 4);

    // A 32-core die is physically larger: cross-chip L2-to-L2 and L3
    // trips lengthen, and the directory banks go hierarchical (8-bank
    // clusters sharing a second-level slice).
    p.latOtherL2 = 26;
    p.latL3 = 46;
    p.latLocalMem = 120;
    p.dirClusterNodes = 8;
    p.latDirCluster = 10;
    p.commitFixedCycles = 300;
    return p;
}

bool
MachineParams::byName(const std::string &name, MachineParams *out)
{
    if (name == "numa16")
        *out = numa16();
    else if (name == "cmp8")
        *out = cmp8();
    else if (name == "mesh64")
        *out = mesh(64);
    else if (name == "mesh128")
        *out = mesh(128);
    else if (name == "mesh256")
        *out = mesh(256);
    else if (name == "cmp32")
        *out = cmp32();
    else
        return false;
    return true;
}

} // namespace tlsim::mem
