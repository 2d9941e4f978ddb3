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

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::tls {

/** Where the data of one version can be found. */
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
 * Versions of all lines, ordered by producer within each line.
 *
 * Two invariants per line let lookups skip the line's history: the
 * list is sorted by producer with unique producers (create() panics on
 * a duplicate), so producer-keyed lookups binary-search; and at most
 * one version has inMemory set (setMemoryHolder() is the only way the
 * engine moves it), so memoryHolder() scans from the youngest end,
 * where the holder almost always is.
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
    /**
     * The youngest version with producer <= @p reader, or nullptr when
     * the reader should see the architectural/pre-section state.
     */
    VersionInfo *latestVisible(Addr line, TaskId reader);

    /** The version with exactly @p tag, or nullptr. */
    VersionInfo *find(Addr line, mem::VersionTag tag);

    /** The version currently held by main memory, or nullptr (arch). */
    VersionInfo *memoryHolder(Addr line);

    /**
     * Make @p holder (a version of @p line, or nullptr when memory now
     * holds a version that is no longer tracked) the line's only
     * in-memory version: clears the previous holder's flag and returns
     * it, or nullptr when there was none or it already was @p holder.
     */
    VersionInfo *setMemoryHolder(Addr line, VersionInfo *holder);

    /** The youngest committed version of @p line, or nullptr. */
    VersionInfo *latestCommitted(Addr line);

    /**
     * Word-granularity visibility for violation detection: producer of
     * the youngest version <= @p reader that wrote the word selected
     * by @p word_bit, or 0 (architectural).
     */
    TaskId latestWordWriter(Addr line, std::uint8_t word_bit,
                            TaskId reader);

    /** All versions of @p line (ascending producer). */
    VersionList &versionsOf(Addr line);

    /** @p line's list without inserting, or nullptr if untracked. */
    VersionList *
    listOf(Addr line)
    {
        return lines_.find(line);
    }

    /** latestVisible over an already-fetched list. */
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

    /** latestWordWriter over an already-fetched list. */
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
     * Create a version (keeps the per-line vector sorted by producer).
     * @pre no version with the same producer exists for the line.
     */
    VersionInfo &create(Addr line, mem::VersionTag tag, ProcId owner);

    /** Remove the version with @p tag (squash). No-op if absent. */
    void remove(Addr line, mem::VersionTag tag);

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

    FlatMap<Addr, VersionList> lines_;
    std::size_t totalVersions_ = 0;
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_VERSION_MAP_HPP
