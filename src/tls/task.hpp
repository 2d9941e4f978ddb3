/**
 * @file
 * Per-task bookkeeping: lifecycle state, speculative footprint, and the
 * timeline data used to draw the paper's wavefront figures.
 */

#ifndef TLSIM_TLS_TASK_HPP
#define TLSIM_TLS_TASK_HPP

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::tls {

/** Lifecycle of one speculative task. */
enum class TaskState : std::uint8_t {
    Pending,    ///< not dispatched (or re-queued after a squash)
    Running,    ///< executing on a processor
    Finished,   ///< done executing, still speculative
    Committing, ///< owns the commit token; merge in progress
    Committed   ///< architectural
};

const char *taskStateName(TaskState s);

/**
 * Footprint storage of one task's current incarnation. It lives only
 * while the task is speculative: the engine hands a recycled one out
 * at first dispatch and takes it back at commit, so set capacity is
 * reused across tasks instead of regrowing from empty for each.
 */
struct TaskFootprint {
    /** Lines with a version produced by the current incarnation. */
    std::vector<Addr> dirtyLines;
    FlatSet<Addr> dirtyLineSet;
    /** Distinct words read (read-set; violation-record cleanup). */
    FlatSet<Addr> readWords;
    /**
     * Distinct words written and how many of them are in the
     * workload's mostly-private region — sequential baseline only.
     * It creates no versions, so no write mask records its stores;
     * a speculative task's written words are the bits of its own
     * versions' write masks, counted at commit.
     */
    FlatSet<Addr> writtenWords;
    std::uint64_t privWords = 0;

    void
    clear()
    {
        dirtyLines.clear();
        dirtyLineSet.clear();
        readWords.clear();
        writtenWords.clear();
        privWords = 0;
    }
};

/**
 * Everything the engine tracks about one task.
 */
struct TaskRecord {
    TaskId id = 0;
    TaskState state = TaskState::Pending;
    ProcId proc = kNoProc;
    /** Bumped at each dispatch; 1 on first execution. */
    std::uint32_t incarnation = 0;
    /** Times squashed. */
    std::uint32_t squashes = 0;

    /** Speculative footprint (empty storage once committed). */
    TaskFootprint footprint;

    /** @name Timeline (last incarnation) */
    ///@{
    Cycle execStart = 0;
    Cycle execEnd = 0;
    Cycle commitStart = 0;
    Cycle commitEnd = 0;
    ///@}

    mem::VersionTag
    tag() const
    {
        return mem::VersionTag{id, incarnation};
    }

    bool
    isSpeculativeState() const
    {
        return state == TaskState::Running || state == TaskState::Finished;
    }

    void
    noteDirtyLine(Addr line)
    {
        if (footprint.dirtyLineSet.insert(line))
            footprint.dirtyLines.push_back(line);
    }
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_TASK_HPP
