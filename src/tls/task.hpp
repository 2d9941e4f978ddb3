/**
 * @file
 * Per-task bookkeeping: lifecycle state, speculative footprint, and the
 * timeline data used to draw the paper's wavefront figures.
 */

#ifndef TLSIM_TLS_TASK_HPP
#define TLSIM_TLS_TASK_HPP

#include <cstdint>
#include <utility>
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
 * One MHB record of an FMM task (the ULOG support of Table 1): the
 * version of a line that the task's first store to it overwrote. See
 * Figure 7-(c) of the paper.
 */
struct UndoLogEntry {
    Addr line = 0;
    /** Producer of the version that was overwritten. */
    mem::VersionTag oldVersion = mem::VersionTag::arch();
};

/** One Predict+Validate record: a word consumed speculatively by value. */
struct ValidationEntry {
    /** Word index (byte address / kWordBytes). */
    Addr word = 0;
    /** Producer whose modeled value the consumer used. */
    TaskId predictedProducer = kNoTask;
};

/**
 * Footprint storage of one task's current incarnation: every piece of
 * speculative state that belongs to the task alone. It lives while the
 * task is speculative and, after a squash, until the task is
 * dispatched again (FMM recovery replays its MHB group from here).
 * The engine hands a recycled one out at first dispatch and takes it
 * back at commit, so capacity is reused across tasks instead of
 * regrowing from empty for each.
 */
struct TaskFootprint {
    /**
     * Lines with a version produced by the current incarnation. A
     * store notes its line only when it creates the task's version of
     * it, so the entries are distinct.
     */
    std::vector<Addr> dirtyLines;
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
    /**
     * FMM: the task's MHB group, in append order — one entry per line
     * the incarnation created a version of. Dropped at commit; replayed
     * newest first by the recovery handler after a squash.
     */
    std::vector<UndoLogEntry> undo;
    /** Predict+Validate: predicted reads, checked at commit-token
     *  acquisition (one per word: a predicted word joins readWords). */
    std::vector<ValidationEntry> predictions;
    /** MultiT&SV: (proc, stalled task) pairs waiting for this task's
     *  versions to commit. */
    std::vector<std::pair<ProcId, TaskId>> svWaiters;

    void
    clear()
    {
        dirtyLines.clear();
        readWords.clear();
        writtenWords.clear();
        privWords = 0;
        undo.clear();
        predictions.clear();
        svWaiters.clear();
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
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_TASK_HPP
