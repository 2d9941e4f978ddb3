/**
 * @file
 * Set-associative cache holding (possibly multiple) versions of lines.
 *
 * This is the container half of the paper's buffering support: the
 * CTID tag is CacheLineState::version, and the MultiT&MV ability to
 * keep several lines with the same address tag but different task IDs
 * in one set (serviced by the Cache Retrieval Logic) corresponds to
 * constructing the cache with multi_version = true.
 */

#ifndef TLSIM_MEM_CACHE_HPP
#define TLSIM_MEM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/geometry.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::mem {

/**
 * State of one cache line (frame).
 *
 * dirty distinguishes the authoritative copy of a version from clean
 * replicas fetched for reading. committedDirty marks Lazy-AMM lines
 * whose producing task has committed but whose data has not merged
 * with main memory yet.
 */
struct CacheLineState {
    Addr line = 0;
    VersionTag version = VersionTag::arch();
    bool valid = false;
    bool dirty = false;
    bool speculative = false;
    bool committedDirty = false;
    Cycle lastUse = 0;
};

/**
 * Result of an insertion attempt.
 */
struct InsertResult {
    /** Frame now holding the new line. */
    CacheLineState *frame = nullptr;
    /** True if a victim was displaced (victim holds its pre-eviction state). */
    bool evicted = false;
    /** Copy of the displaced line, meaningful when evicted. */
    CacheLineState victim;
};

/**
 * Set-associative, LRU-within-priority-class cache.
 *
 * Victim priority (most evictable first): invalid frames, clean lines,
 * committed-dirty lines, speculative-dirty lines. The engine decides
 * what displacing each class means (silent drop, lazy merge via VCL,
 * spill to the overflow area, or an MTID-guarded write-back).
 */
class VersionedCache
{
  public:
    /**
     * @param geo cache geometry; its set count must be a power of two
     *        (the set index is a mask, not a division)
     * @param multi_version allow several versions of one line per set
     *        (MultiT&MV). When false, at most one frame per line
     *        address may be resident.
     */
    VersionedCache(CacheGeometry geo, bool multi_version);

    const CacheGeometry &geometry() const { return geo_; }

    /** Set holding @p line: geometry().setIndex(line), without a divide. */
    unsigned setIndex(Addr line) const { return unsigned(line & setMask_); }
    bool multiVersion() const { return multiVersion_; }

    /** Find the frame holding exactly (line, version), or nullptr. */
    CacheLineState *findVersion(Addr line, VersionTag version);

    /** Find any valid frame for @p line (single-version caches). */
    CacheLineState *findAnyOf(Addr line);

    /**
     * Insert a line, choosing a victim if the set is full.
     *
     * @param want the new line contents (valid is forced true)
     * @param now current time, recorded as LRU timestamp
     */
    InsertResult insert(const CacheLineState &want, Cycle now);

    /** Invalidate one frame (no write-back; the engine handles data). */
    void invalidate(CacheLineState *frame);

    /** Invalidate the frame holding (line, version), if resident. */
    void invalidateVersion(Addr line, VersionTag version);

    /** Count of valid frames. */
    std::size_t residentLines() const;

    /** Number of valid frames whose line address equals @p line. */
    unsigned versionsResident(Addr line);

  private:
    CacheGeometry geo_;
    bool multiVersion_;
    Addr setMask_; // numSets - 1
    std::vector<CacheLineState> frames_; // numSets * assoc

    CacheLineState *
    setBase(Addr line)
    {
        return &frames_[std::size_t(setIndex(line)) * geo_.assoc];
    }
    static int evictClass(const CacheLineState &frame);
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_CACHE_HPP
