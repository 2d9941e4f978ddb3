/**
 * @file
 * Global version bookkeeping: for every line touched under speculation,
 * which versions exist, who produced them, and where their data lives.
 *
 * This is the simulator's omniscient view of the distributed version
 * state (MROB or MHB plus memory). Real machines reconstruct this
 * information with the CTID/CRL/VCL/MTID supports; the engine charges
 * the corresponding latencies, while this map answers the questions
 * exactly. The simulator tracks no data values: a version is pure
 * metadata (see DESIGN.md).
 */

#ifndef TLSIM_TLS_VERSION_MAP_HPP
#define TLSIM_TLS_VERSION_MAP_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"
#include "tls/scheme.hpp"

namespace tlsim::tls {

/**
 * Where the data of one version can be found. The location fields
 * (committed through mhbProc) are written only by VersionMap's
 * transitions, each of which checks that the result is legal for the
 * map's merging policy (DESIGN.md §6c).
 */
struct VersionInfo {
    mem::VersionTag tag;
    std::uint8_t writeMask = 0;
    /** Producing task has committed. */
    bool committed = false;
    /** Main memory holds this version (authoritative copy). */
    bool inMemory = false;
    /** Processor whose L2 holds the dirty authoritative copy. */
    ProcId cacheOwner = kNoProc;
    /** The copy lives in cacheOwner's overflow area, not its L2. */
    bool inOverflow = false;
    /** Processor whose MHB (undo log) holds a backup copy, or none. */
    ProcId mhbProc = kNoProc;
};

/** Diagnostic string for location-invariant panics. */
std::string describeVersion(const VersionInfo *v);

/**
 * Per-line version list.
 *
 * Inline storage for two versions: almost every line has one producer
 * plus at most the architectural-successor version, so the common case
 * allocates nothing. Heavily multi-versioned lines (the P3m pattern)
 * spill to the heap transparently.
 */
using VersionList = SmallVec<VersionInfo, 2>;

/**
 * Versions of all lines, ordered by producer within each line, and the
 * one record of where each version's data lives.
 *
 * Two invariants per line let lookups skip the line's history: the
 * list is sorted by producer with unique producers (create() panics on
 * a duplicate), so producer-keyed lookups binary-search; and at most
 * one version has inMemory set (writeBack() and restore() are the only
 * ways it moves), so memoryHolder() scans from the youngest end, where
 * the holder almost always is.
 *
 * Every location change is one of the named transitions below. Each
 * checks the fields it leaves against the legal combinations of the
 * map's merging policy and panics with describeVersion() on an illegal
 * one. The transitions also keep each processor's count of
 * versions in its overflow area (spilledBy()).
 *
 * The line→versions index is an open-addressed FlatMap: one probe per
 * access instead of a node chase, and squash-time line removals shift
 * in place instead of freeing nodes. Pointers and list references are
 * invalidated by create()/remove() on *any* line (the table may grow
 * or backward-shift); callers already refetch after structural calls.
 * The *In() statics let the engine resolve several questions from one
 * listOf() probe on the hot path.
 */
class VersionMap
{
  public:
    /** @p merging fixes which location states are legal. */
    explicit VersionMap(Merging merging) : merging_(merging) {}

    /** The version with exactly @p tag, or nullptr. */
    VersionInfo *find(Addr line, mem::VersionTag tag);

    /** The version currently held by main memory, or nullptr (arch). */
    VersionInfo *memoryHolder(Addr line);

    /** The youngest committed version of @p line, or nullptr. */
    VersionInfo *latestCommitted(Addr line);

    /** All versions of @p line (ascending producer). */
    VersionList &versionsOf(Addr line);

    /** @p line's list without inserting, or nullptr if untracked. */
    VersionList *
    listOf(Addr line)
    {
        return lines_.find(line);
    }

    /**
     * The youngest version with producer <= @p reader, or nullptr when
     * the reader should see the architectural/pre-section state.
     */
    static VersionInfo *
    latestVisibleIn(VersionList &list, TaskId reader)
    {
        for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
            if (rit->tag.producer <= reader)
                return &*rit;
        }
        return nullptr;
    }

    /**
     * find over an already-fetched list: a binary search on the
     * producer (unique per line), then a full-tag compare so a stale
     * incarnation misses.
     */
    static VersionInfo *
    findIn(VersionList &list, mem::VersionTag tag)
    {
        VersionInfo *pos = lowerBound(list, tag.producer);
        return pos != list.end() && pos->tag == tag ? pos : nullptr;
    }

    /**
     * Word-granularity visibility for violation detection: producer of
     * the youngest version <= @p reader that wrote the word selected
     * by @p word_bit, or 0 (architectural).
     */
    static TaskId
    latestWordWriterIn(const VersionList &list, std::uint8_t word_bit,
                       TaskId reader)
    {
        for (auto rit = list.rbegin(); rit != list.rend(); ++rit) {
            if (rit->tag.producer <= reader && (rit->writeMask & word_bit))
                return rit->tag.producer;
        }
        return 0;
    }

    /** True if any version of @p line exists. */
    bool
    anyVersion(Addr line) const
    {
        return lines_.contains(line);
    }

    /**
     * Create a version cached in @p owner's L2 (keeps the per-line
     * vector sorted by producer).
     * @pre no version with the same producer exists for the line.
     */
    VersionInfo &create(Addr line, mem::VersionTag tag, ProcId owner);

    /** Remove the version with @p tag (squash). No-op if absent. */
    void remove(Addr line, mem::VersionTag tag);

    /** @name Location transitions (@p v is a version of @p line) */
    ///@{
    /** The producing task committed. */
    void commit(Addr line, VersionInfo &v);

    /** @p v leaves its owner's L2 for that processor's overflow area. */
    void spill(Addr line, VersionInfo &v);

    /**
     * @p v comes back into @p proc's L2: out of the overflow area (then
     * @p proc is already its owner), or, under FMM only, out of memory
     * or an MHB, which keep their copies.
     */
    void refill(Addr line, VersionInfo &v, ProcId proc);

    /**
     * @p v (nullptr: a version that is no longer tracked) becomes
     * memory's holder and loses its cached copy, in the L2 or the
     * overflow area. Returns the displaced holder, or nullptr when
     * there was none or it already was @p v. Under FMM the caller
     * parks a displaced holder left without a copy (parkInMhb).
     */
    VersionInfo *writeBack(Addr line, VersionInfo *v);

    /**
     * FMM recovery: memory holds @p v (nullptr: untracked) again,
     * while its cached copies stay where they are. Returns the
     * displaced holder as writeBack() does.
     */
    VersionInfo *restore(Addr line, VersionInfo *v);

    /** @p v loses its cached copy without a write-back (superseded). */
    void dropCopy(Addr line, VersionInfo &v);

    /** FMM: @p proc's MHB saves a backup copy of @p v. */
    void parkInMhb(Addr line, VersionInfo &v, ProcId proc);
    ///@}

    /** Versions in @p proc's overflow area. */
    std::size_t
    spilledBy(ProcId proc) const
    {
        return proc < spilled_.size() ? spilled_[proc] : 0;
    }

    /**
     * Apply @p fn(Addr, VersionInfo &) to every (line, version) pair,
     * in index order (not sorted). No structural calls from @p fn.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        lines_.forEach([&fn](const Addr &line, VersionList &vec) {
            for (auto &v : vec)
                fn(line, v);
        });
    }

    /** Number of lines with at least one version. */
    std::size_t linesTracked() const { return lines_.size(); }

    /** Total versions across all lines. */
    std::size_t totalVersions() const { return totalVersions_; }

    void clear();

  private:
    /** First version of @p list with producer >= @p producer. */
    static VersionInfo *
    lowerBound(VersionList &list, TaskId producer)
    {
        return std::lower_bound(list.begin(), list.end(), producer,
                                [](const VersionInfo &v, TaskId p) {
                                    return v.tag.producer < p;
                                });
    }

    /** Make @p holder memory's only holder; return the previous one. */
    VersionInfo *moveMemoryHolder(Addr line, VersionInfo *holder);
    /** Take @p v out of its owner's overflow area, if it is there. */
    void unspill(VersionInfo &v);
    /** Panic unless @p v's location fields are legal (DESIGN.md §6c). */
    void check(Addr line, const VersionInfo &v);

    Merging merging_;
    FlatMap<Addr, VersionList> lines_;
    std::size_t totalVersions_ = 0;
    /** Per processor: versions in its overflow area. */
    std::vector<std::size_t> spilled_;
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_VERSION_MAP_HPP
