/**
 * @file
 * Zero-allocation guards for the simulator's steady-state fast paths.
 *
 * The binary interposes global operator new/delete with a counting
 * wrapper. Each case drives one fast path through a warm-up, so every
 * slab, table and scratch buffer reaches its steady-state capacity,
 * and then through a window that must not allocate at all. No gtest
 * assertion runs inside a window: a failure message allocates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mem/mtid_table.hpp"
#include "sim/result_cache.hpp"
#include "sim/study.hpp"
#include "tls/task.hpp"
#include "tls/version_map.hpp"
#include "tls/violation_detector.hpp"

// --------------------------------------------------------------------
// Counting allocator interposition
// --------------------------------------------------------------------

namespace {
std::atomic<long long> g_allocCount{0};
}

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(std::size_t(al),
                                     (n + std::size_t(al) - 1) /
                                         std::size_t(al) *
                                         std::size_t(al)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

// free() is the right counterpart for both new paths above (malloc and
// aligned_alloc); GCC's -Wmismatched-new-delete can't see that through
// the replaced globals, so quiet it for this shim block.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

using namespace tlsim;

namespace {

/** Allocations performed by @p fn. */
template <typename Fn>
long long
allocationsDuring(Fn &&fn)
{
    const long long before = g_allocCount.load();
    fn();
    return g_allocCount.load() - before;
}

// --------------------------------------------------------------------
// Event kernel
// --------------------------------------------------------------------

/**
 * The simulator's schedule pattern in steady state: every core keeps
 * about one outstanding event, each event reschedules its successor
 * with a short mixed delay, callbacks are the size of Core::wait's
 * lambda (a this pointer plus a continuation-sized payload), and ~1/8
 * of events are scheduled and then cancelled before they fire, like
 * aborted waits on a squash.
 */
struct ChurnDriver {
    EventQueue &eq;
    long quota; // stop rescheduling after this many fires
    long fired = 0;
    std::uint64_t pendingCancel = 0;
    unsigned delay = 0;

    /** Pads the capture to Core::wait's 8 + 32 bytes. */
    struct Payload {
        std::uint64_t pad[4];
    };

    void
    fire(const Payload &)
    {
        ++fired;
        if (fired < quota)
            next();
    }

    void
    next()
    {
        delay = (delay + 11) % 97;
        Payload p{{std::uint64_t(delay) + 1, 0, 0, 0}};
        eq.scheduleIn(Cycle(delay), [this, p] { fire(p); });
        if ((fired & 7) == 3) {
            eq.cancel(pendingCancel);
            Payload q{{1, 0, 0, 0}};
            pendingCancel = eq.scheduleIn(
                Cycle(60 + unsigned(fired % 37)),
                [this, q] { fire(q); });
        }
    }
};

constexpr int kChurnChains = 64; // ~ one outstanding event per core

/** @return events fired by one churn run of @p quota fires. */
long
eventChurn(EventQueue &eq, long quota)
{
    ChurnDriver d{eq, quota};
    for (int i = 0; i < kChurnChains; ++i)
        d.next();
    eq.run();
    return d.fired;
}

TEST(AllocFree, EventQueueScheduleCancelChurn)
{
    EventQueue eq;
    eventChurn(eq, 20'000); // warm the slab and the heap arrays
    long fired = 0;
    const long long allocs =
        allocationsDuring([&] { fired = eventChurn(eq, 300'000); });
    EXPECT_GE(fired, 300'000); // the callbacks actually ran
    EXPECT_EQ(allocs, 0);
}

// --------------------------------------------------------------------
// Counters
// --------------------------------------------------------------------

TEST(AllocFree, InternedCounterInc)
{
    // ~30 live counters, like a speculation run; hit one deep in the
    // table.
    CounterSet c;
    for (int i = 0; i < 30; ++i)
        c.intern("counter_" + std::to_string(i));
    const StatId id = c.intern("counter_22");
    constexpr long kIncs = 1'000'000;
    const long long allocs = allocationsDuring([&] {
        for (long i = 0; i < kIncs; ++i)
            c.inc(id);
    });
    EXPECT_EQ(c.get(id), std::uint64_t(kIncs));
    EXPECT_EQ(allocs, 0);
}

// --------------------------------------------------------------------
// Memory-state access path
// --------------------------------------------------------------------

constexpr std::uint32_t kAccessLines = 1024;
constexpr Addr kAccessLineBase = 0x100000;
constexpr std::uint32_t kAccessWindow = 8;
constexpr std::uint32_t kAccessOpsPerRetire = 48;
constexpr unsigned kAccessProcs = 16;

/**
 * Replays the engine's per-access container traffic on the memory-state
 * structures as the engine composes them: every access probes the
 * version home index (the specLoad visibility query); a quarter are
 * stores that hit their own version or create one (MHB-group append
 * plus sorted version insert); a slice are L2 evictions that either
 * write back through the MTID check or spill through the version map;
 * and a sliding window of in-flight tasks retires in order, committing
 * (group drop) or squashing (MHB recovery replay into the MTID table),
 * and either way removes its versions, spilled or not. Per-task state
 * (MHB group, dirty lines, read/write sets) lives in per-slot storage
 * recycled across the window, as task footprints are in the engine.
 *
 * The footprint is bounded by construction — at most two versions per
 * line (so VersionList stays inline) and a fixed task window — so the
 * steady state must not allocate once warmed.
 */
struct AccessDriver {
    tls::VersionMap vmap{tls::Merging::FMM};
    mem::MtidTable mtid;
    tls::ViolationDetector det;
    std::vector<FlatSet<Addr>> readWords{kAccessWindow};
    std::vector<FlatSet<Addr>> writtenWords{kAccessWindow};
    Rng rng{0x5eed5eedull};

    TaskId oldest = 1;
    TaskId nextTask = 1;
    std::uint32_t sinceRetire = 0;
    std::uint32_t rr = 0; // round-robin reader cursor
    std::vector<std::vector<Addr>> dirty{kAccessWindow};
    std::vector<std::vector<tls::UndoLogEntry>> undo{kAccessWindow};
    std::uint64_t appends = 0;
    std::uint64_t spills = 0;

    /**
     * Accesses visit the window's tasks round-robin, so each task
     * issues exactly kAccessOpsPerRetire accesses over its lifetime — a
     * small, deterministic per-task bound on undo-group size, read/
     * write-set size and dirty lines. Warm every per-task structure to
     * that bound here; the line-keyed tables saturate during the
     * warm-up run.
     */
    AccessDriver()
    {
        constexpr std::uint32_t kPerTask = kAccessOpsPerRetire + 16;
        const TaskId scratchTask = TaskId(1) << 30;
        for (auto &v : dirty)
            v.reserve(kPerTask);
        for (auto &v : undo)
            v.reserve(kPerTask);
        for (auto &s : readWords)
            s.reserve(kPerTask);
        for (auto &s : writtenWords)
            s.reserve(kPerTask);
        // Violation-word table: warm to the hard bound of concurrently
        // live entries (kAccessWindow tasks times kPerTask each), via a
        // throwaway word set.
        FlatSet<Addr> words;
        for (std::uint32_t i = 0; i < kAccessWindow * kPerTask; ++i) {
            const Addr line = kAccessLineBase + Addr(i % kAccessLines) * 64;
            words.insert(line + (i / kAccessLines) % 8);
            det.noteRead(line + (i / kAccessLines) % 8, scratchTask, 0);
        }
        det.dropReader(scratchTask, words);
    }

    static std::size_t
    slotOf(TaskId t)
    {
        return std::size_t(t % kAccessWindow);
    }

    void
    step()
    {
        if (nextTask - oldest < kAccessWindow) {
            dirty[slotOf(nextTask)].clear();
            ++nextTask;
        }
        const Addr line = kAccessLineBase + Addr(rng.below(kAccessLines)) * 64;
        const TaskId reader =
            oldest + TaskId(rr % std::uint32_t(nextTask - oldest));
        rr = (rr + 1) % kAccessWindow;
        const std::size_t slot = slotOf(reader);
        const auto roll = std::uint32_t(rng.next());
        const auto bit = std::uint8_t(1u << (roll & 7u));
        const mem::VersionTag tag{reader, 1};

        // Load path, over one home-index probe: the visibility query,
        // the read-set dedup insert and (for first reads) the
        // word-writer query feeding the violation detector. Reading
        // word `line + slot` keeps readers per word disjoint across the
        // window, which bounds the detector's inline record storage.
        tls::VersionList *list = vmap.listOf(line);
        mem::VersionTag prevTag = mem::VersionTag::arch();
        if (tls::VersionInfo *v =
                list ? tls::VersionMap::latestVisibleIn(*list, reader)
                     : nullptr)
            prevTag = v->tag;
        if (readWords[slot].insert(line + Addr(slot))) {
            det.noteRead(line + Addr(slot), reader,
                         list ? tls::VersionMap::latestWordWriterIn(
                                    *list, bit, reader)
                              : 0);
        }

        tls::VersionInfo *own =
            list ? tls::VersionMap::findIn(*list, tag) : nullptr;
        if ((roll & 3u) == 0) { // store
            const Addr wword = line + Addr((roll >> 8) & 7u);
            writtenWords[slot].insert(wword);
            det.checkWrite(wword, reader);
            if (own != nullptr) {
                own->writeMask |= bit;
            } else if (vmap.versionsOf(line).size() < 2) {
                // versionsOf/create may grow the index: list and own
                // are dead past this point.
                undo[slot].push_back({line, prevTag});
                ++appends;
                vmap.create(line, tag, ProcId(reader % kAccessProcs))
                    .writeMask = bit;
                dirty[slot].push_back(line);
            }
        } else if ((roll & 15u) == 1 && own != nullptr &&
                   !own->inOverflow) {
            // L2 eviction of own version.
            if ((roll & 16u) != 0 && mtid.wouldAccept(line, tag)) {
                mtid.writeBack(line, tag);
            } else {
                vmap.spill(line, *own);
                ++spills;
            }
        }

        if (++sinceRetire >= kAccessOpsPerRetire &&
            nextTask - oldest == kAccessWindow) {
            sinceRetire = 0;
            retire();
        }
    }

    void
    retire()
    {
        const TaskId t = oldest++;
        const std::size_t slot = slotOf(t);
        const mem::VersionTag tag{t, 1};
        std::vector<tls::UndoLogEntry> &group = undo[slot];
        if (rng.below(8) == 0) { // squash: replay the MHB group
            for (auto e = group.rbegin(); e != group.rend(); ++e)
                mtid.set(e->line, e->oldVersion);
        }
        group.clear(); // commit frees it; recovery has drained it
        for (Addr l : dirty[slot])
            vmap.remove(l, tag);
        dirty[slot].clear();
        det.dropReader(t, readWords[slot]);
        readWords[slot].clear();
        writtenWords[slot].clear();
    }

    void
    run(long ops)
    {
        for (long i = 0; i < ops; ++i)
            step();
    }
};

TEST(AllocFree, MemoryStateAccessPath)
{
    AccessDriver d;
    constexpr long kOps = 300'000;
    d.run(kOps); // warm every table and slab to steady-state capacity
    const std::uint64_t appends = d.appends;
    const std::uint64_t spills = d.spills;
    const long long allocs = allocationsDuring([&] { d.run(kOps); });
    // The window created versions and spilled some of them.
    EXPECT_GT(d.appends, appends);
    EXPECT_GT(d.spills, spills);
    EXPECT_EQ(allocs, 0);
}

// --------------------------------------------------------------------
// Result-store key derivation
// --------------------------------------------------------------------

TEST(AllocFree, AppPointKeyDerivation)
{
    // The memo probe sits on every runScheme call, so deriving a key
    // must not touch the heap.
    apps::AppParams app = apps::tree();
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::LazyAMM, false};
    mem::MachineParams machine = mem::MachineParams::numa16();
    fault::FaultSpec faults;
    std::uint64_t sink = 0;
    for (long i = 0; i < 1000; ++i) { // warm
        app.seed = std::uint64_t(i);
        sink += sim::appPointKey(app, scheme, machine, faults, false).lo;
    }
    const long long allocs = allocationsDuring([&] {
        for (long i = 0; i < 50'000; ++i) {
            // Vary the seed so the fold cannot be hoisted; every other
            // field stays fixed, as in a real sweep.
            app.seed = std::uint64_t(i);
            sink +=
                sim::appPointKey(app, scheme, machine, faults, false).lo;
        }
    });
    EXPECT_NE(sink, 0u);
    EXPECT_EQ(allocs, 0);
}

} // namespace
