/**
 * @file
 * SpeculationEngine load/store paths: version lookup and fetch timing,
 * cache insertion and displacement handling (overflow area, VCL,
 * MTID-guarded write-backs), and the sequential-baseline paths.
 */

#include <algorithm>
#include <string>

#include "common/log.hpp"
#include "common/trace.hpp"
#include "mem/geometry.hpp"
#include "tls/engine.hpp"

namespace tlsim::tls {

using mem::CacheLineState;
using mem::VersionTag;

// --------------------------------------------------------------------
// Timing helpers
// --------------------------------------------------------------------

Cycle
SpeculationEngine::dirRoundTrip(ProcId proc, unsigned home, Cycle now,
                                bool data_reply)
{
    // All reservations are made at the request's arrival time: the
    // intra-access offsets (tens of cycles) are far below contention
    // timescales, and reserving at future instants would leave phantom
    // idle gaps in the single-horizon Resource model.
    Cycle d = net_->traverse(now, nodeOfProc_[proc], nodeOfHome_[home],
                             noc::MsgClass::Control);
    d += dirBanks_[dirBankOfHome_[home]].acquire(
        now, cfg_.machine.occDirBank);
    d += dirClusterPenalty(proc, home);
    d += net_->traverse(now, nodeOfHome_[home], nodeOfProc_[proc],
                        data_reply ? noc::MsgClass::Data
                                   : noc::MsgClass::Control);
    return d;
}

Cycle
SpeculationEngine::backgroundWriteBack(ProcId proc, Addr line, Cycle when)
{
    unsigned home = homeOf(line);
    Cycle t = when;
    t += net_->traverse(when, nodeOfProc_[proc], nodeOfHome_[home],
                        noc::MsgClass::Data);
    t += memBanks_.access(home, when);
    return t;
}

Cycle
SpeculationEngine::fetchLatency(ProcId proc, Addr line, VersionInfo *v,
                                Cycle now, Source *src_out)
{
    const mem::MachineParams &m = cfg_.machine;
    unsigned home = homeOf(line);
    Cycle lat = 0;
    Source src = Source::Memory;

    if (m.isNuma()) {
        if (!v || v->inMemory) {
            if (home == proc) {
                lat = m.latLocalMem;
                lat += dirBanks_[dirBankOfHome_[home]].acquire(
                    now, m.occDirBank);
            } else {
                lat = m.latRemote2Hop;
                lat += dirRoundTrip(proc, home, now, true);
            }
            lat += memBanks_.access(home, now);
            src = Source::Memory;
            counters_.inc(sid_.memoryFetches);
        } else if (v->cacheOwner != kNoProc) {
            ProcId q = v->cacheOwner;
            if (q == proc) {
                if (!v->inOverflow)
                    panic("fetchLatency: version claims to be in own L2 "
                          "but lookup missed");
                lat = m.latLocalMem + memBanks_.access(proc, now);
                src = Source::LocalOverflow;
                counters_.inc(sid_.overflowFetches);
            } else {
                bool three_hop = (home != proc && home != q);
                lat = three_hop ? m.latRemote3Hop : m.latRemote2Hop;
                lat += net_->traverse(now, nodeOfProc_[proc],
                                      nodeOfHome_[home],
                                      noc::MsgClass::Control);
                lat += dirBanks_[dirBankOfHome_[home]].acquire(
                    now, m.occDirBank);
                lat += dirClusterPenalty(proc, home);
                lat += net_->traverse(now, nodeOfHome_[home],
                                      nodeOfProc_[q],
                                      noc::MsgClass::Control);
                lat += net_->traverse(now, nodeOfProc_[q],
                                      nodeOfProc_[proc],
                                      noc::MsgClass::Data);
                if (v->inOverflow) {
                    lat += m.latLocalMem / 2 + memBanks_.access(q, now);
                    src = Source::RemoteOverflow;
                    counters_.inc(sid_.overflowFetches);
                } else {
                    lat += l2Ports_[q].acquire(now, m.occL2Port);
                    src = Source::RemoteCache;
                    counters_.inc(sid_.remoteCacheFetches);
                }
            }
        } else if (v->mhbProc != kNoProc) {
            // "Rare retrieval" from a log structure: locate the entry
            // in the owner's log region and read it from memory.
            lat = m.latRemote3Hop + m.latLocalMem;
            lat += memBanks_.access(v->mhbProc, now);
            lat += memBanks_.access(v->mhbProc, now);
            src = Source::Mhb;
            counters_.inc(sid_.mhbFetches);
        } else {
            panic("fetchLatency: unreachable version (numa): " +
                  describeVersion(v));
        }
    } else { // CMP
        if (!v || v->inMemory) {
            VersionTag tag = v ? v->tag : VersionTag::arch();
            lat = net_->traverse(now, nodeOfProc_[proc],
                                 nodeOfHome_[home],
                                 noc::MsgClass::Control);
            lat += dirBanks_[dirBankOfHome_[home]].acquire(
                now, m.occDirBank);
            lat += dirClusterPenalty(proc, home);
            if (CacheLineState *f3 = l3_->findVersion(line, tag)) {
                f3->lastUse = now;
                lat += m.latL3 + l3Banks_.access(home, now);
                counters_.inc(sid_.l3Hits);
            } else {
                lat += m.latLocalMem + memBanks_.access(home, now);
                CacheLineState cl;
                cl.line = line;
                cl.version = tag;
                l3_->insert(cl, now);
                counters_.inc(sid_.memoryFetches);
            }
            lat += net_->traverse(now, nodeOfHome_[home],
                                  nodeOfProc_[proc],
                                  noc::MsgClass::Data);
            src = Source::Memory;
        } else if (v->cacheOwner != kNoProc) {
            ProcId q = v->cacheOwner;
            if (v->inOverflow) {
                lat = m.latLocalMem + memBanks_.access(home, now);
                src = q == proc ? Source::LocalOverflow
                                : Source::RemoteOverflow;
                counters_.inc(sid_.overflowFetches);
            } else if (q == proc) {
                panic("fetchLatency: version claims to be in own L2 "
                      "but lookup missed");
            } else {
                lat = m.latOtherL2;
                lat += net_->traverse(now, nodeOfProc_[proc],
                                      nodeOfProc_[q],
                                      noc::MsgClass::Control);
                lat += l2Ports_[q].acquire(now, m.occL2Port);
                lat += net_->traverse(now, nodeOfProc_[q],
                                      nodeOfProc_[proc],
                                      noc::MsgClass::Data);
                src = Source::RemoteCache;
                counters_.inc(sid_.remoteCacheFetches);
            }
        } else if (v->mhbProc != kNoProc) {
            lat = m.latLocalMem + m.latLocalMem / 2;
            lat += memBanks_.access(home, now);
            src = Source::Mhb;
            counters_.inc(sid_.mhbFetches);
        } else {
            panic("fetchLatency: unreachable version (cmp): " +
                  describeVersion(v));
        }
    }

    if (src_out)
        *src_out = src;
    return lat;
}

// --------------------------------------------------------------------
// Cache insertion / displacement
// --------------------------------------------------------------------

void
SpeculationEngine::insertLineL1(ProcId proc, Addr line, VersionTag tag,
                                Cycle now)
{
    CacheLineState cl;
    cl.line = line;
    cl.version = tag;
    l1_[proc]->insert(cl, now); // L1 victims are clean replicas
}

Cycle
SpeculationEngine::insertLineL2(ProcId proc, const CacheLineState &want,
                                Cycle now)
{
    mem::InsertResult res = l2_[proc]->insert(want, now);
    if (res.evicted) {
        bool spec_victim = res.victim.dirty && res.victim.speculative;
        handleL2Eviction(proc, res.victim, now);
        if (spec_victim && cfg_.scheme.isAmm()) {
            // The controller finishes the overflow spill (update the
            // overflow tables in local memory) before the new line can
            // fill: foreground cost for the displacing access.
            return cfg_.machine.overflowCheckCycles;
        }
    }
    return 0;
}

void
SpeculationEngine::handleL2Eviction(ProcId proc,
                                    const CacheLineState &victim,
                                    Cycle now)
{
    // The matching L1 copy must not outlive the L2 line (inclusion).
    l1_[proc]->invalidateVersion(victim.line, victim.version);

    if (!victim.dirty && !victim.committedDirty)
        return; // clean replica: silent drop

    Addr line = victim.line;

    if (cfg_.sequential || victim.version.isArch()) {
        // Plain dirty data: background write-back to local memory.
        memBanks_.access(proc % cfg_.machine.numBanks, now);
        return;
    }

    if (victim.committedDirty) {
        if (cfg_.scheme.merging == Merging::LazyAMM) {
            counters_.inc(sid_.vclDisplacements);
            vclMergeLine(line, now);
        } else if (cfg_.scheme.merging == Merging::FMM) {
            VersionInfo *v = versions_.find(line, victim.version);
            if (mtid_.wouldAccept(line, victim.version)) {
                if (v && !v->inMemory)
                    TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, proc,
                                      victim.version.producer, line,
                                      victim.version.incarnation);
                saveDisplacedHolder(line, versions_.writeBack(line, v),
                                    proc);
                mtid_.writeBack(line, victim.version);
                backgroundWriteBack(proc, line, now);
                counters_.inc(sid_.fmmWritebacks);
            } else {
                mtid_.writeBack(line, victim.version); // counts reject
                // Superseded committed version: dead, drop it.
                versions_.remove(line, victim.version);
            }
        }
        // Eager AMM: committed lines were cleaned at merge; nothing.
        return;
    }

    // Speculative dirty victim.
    VersionInfo *v = versions_.find(line, victim.version);
    if (!v)
        return; // squashed concurrently

    if (cfg_.scheme.isAmm()) {
        versions_.spill(line, *v);
        memBanks_.access(proc % cfg_.machine.numBanks, now);
        counters_.inc(sid_.overflowSpills);
    } else {
        if (mtid_.wouldAccept(line, victim.version)) {
            TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, proc,
                              victim.version.producer, line,
                              victim.version.incarnation);
            saveDisplacedHolder(line, versions_.writeBack(line, v), proc);
            mtid_.writeBack(line, victim.version);
            backgroundWriteBack(proc, line, now);
            counters_.inc(sid_.fmmWritebacks);
        } else {
            // Memory already holds a later version: the line must not
            // vanish while its task is alive. Park it in the owner's
            // spill region (see DESIGN.md).
            mtid_.writeBack(line, victim.version); // counts reject
            versions_.spill(line, *v);
            counters_.inc(sid_.mtidRejectedSpills);
        }
    }
}

Cycle
SpeculationEngine::faultSpillVersion(ProcId proc, Addr line,
                                     VersionTag tag, Cycle now)
{
    CacheLineState *f2 = l2_[proc]->findVersion(line, tag);
    if (!f2 || !f2->speculative || !f2->dirty)
        return 0; // already displaced: nothing to do
    CacheLineState victim = *f2;
    l2_[proc]->invalidateVersion(line, tag);
    handleL2Eviction(proc, victim, now);
    // The controller finishes the spill before the store retires,
    // same foreground cost as a displacement-triggered spill.
    return cfg_.machine.overflowCheckCycles;
}

bool
SpeculationEngine::overflowPressured(ProcId proc) const
{
    std::size_t cap = faults_.overflowFaultCapacity();
    return cap != 0 && versions_.spilledBy(proc) >= cap;
}

void
SpeculationEngine::saveDisplacedHolder(Addr line, VersionInfo *old,
                                       ProcId proc)
{
    // Memory was the holder's only copy. The FMM hardware saves the
    // displaced version into the local history buffer before the
    // overwrite reaches memory; without this, an uncommitted (or
    // still-needed committed) version would become unreachable the
    // moment a later write-back lands.
    if (old && old->cacheOwner == kNoProc && old->mhbProc == kNoProc)
        versions_.parkInMhb(line, *old, proc);
}

void
SpeculationEngine::vclMergeLine(Addr line, Cycle now)
{
    VersionInfo *latest = versions_.latestCommitted(line);
    if (!latest)
        return;
    VersionTag keep = latest->tag;

    if (!latest->inMemory) {
        ProcId owner = latest->cacheOwner;
        bool spilled = latest->inOverflow;
        versions_.writeBack(line, latest);
        TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, owner, keep.producer,
                          line, keep.incarnation);
        if (owner != kNoProc) {
            if (!spilled) {
                l2_[owner]->invalidateVersion(line, keep);
                l1_[owner]->invalidateVersion(line, keep);
            }
            backgroundWriteBack(owner, line, now);
        }
        mtid_.set(line, keep);
        counters_.inc(sid_.vclWritebacks);
    }

    // Earlier committed versions are superseded and dead: invalidate
    // their copies and drop them (remove() frees an overflowed copy).
    // The scan's tag list lives in a member scratch buffer;
    // vclMergeLine never reenters itself.
    deadScratch_.clear();
    for (auto &vv : versions_.versionsOf(line)) {
        if (vv.committed && !(vv.tag == keep)) {
            if (vv.cacheOwner != kNoProc && !vv.inOverflow) {
                l2_[vv.cacheOwner]->invalidateVersion(line, vv.tag);
                l1_[vv.cacheOwner]->invalidateVersion(line, vv.tag);
            }
            deadScratch_.push_back(vv.tag);
        }
    }
    for (VersionTag tag : deadScratch_) {
        versions_.remove(line, tag);
        counters_.inc(sid_.vclInvalidations);
    }
}

// --------------------------------------------------------------------
// Speculative access paths
// --------------------------------------------------------------------

TaskId
SpeculationEngine::observedProducerIn(VersionList *list, Addr addr,
                                      TaskId reader) const
{
    if (!list)
        return 0;
    if (cfg_.machine.wordGranularityDetection)
        return VersionMap::latestWordWriterIn(*list, mem::wordBit(addr),
                                              reader);
    VersionInfo *v = VersionMap::latestVisibleIn(*list, reader);
    return v ? v->tag.producer : 0;
}

TaskId
SpeculationEngine::observedProducer(Addr addr, TaskId reader)
{
    return observedProducerIn(versions_.listOf(mem::lineAddr(addr)), addr,
                              reader);
}

cpu::LoadReply
SpeculationEngine::specLoad(ProcId proc, Addr addr, Cycle now)
{
    return loadForTask(proc, addr, now, /*note=*/true);
}

cpu::LoadReply
SpeculationEngine::specLoadIssue(ProcId proc, Addr addr, Cycle now)
{
    // OoO issue-time access: full timing and cache effects, but the
    // read record is deferred to noteLoadRetire — undo/version
    // bookkeeping stays per-retirement (program order).
    return loadForTask(proc, addr, now, /*note=*/false);
}

void
SpeculationEngine::noteLoadRetire(ProcId proc, Addr addr, Cycle now)
{
    (void)now;
    if (cfg_.sequential)
        return;
    TaskId task = cores_[proc]->currentTask();
    Addr word = detectionGranule(addr);
    if (rec(task).footprint.readWords.insert(word))
        detector_.noteRead(word, task, observedProducer(addr, task));
}

cpu::LoadReply
SpeculationEngine::loadForTask(ProcId proc, Addr addr, Cycle now,
                               bool note)
{
    if (cfg_.sequential)
        return seqLoad(proc, addr, now);

    counters_.inc(sid_.loads);
    const mem::MachineParams &m = cfg_.machine;
    TaskId task = cores_[proc]->currentTask();
    Addr line = mem::lineAddr(addr);
    Addr word = detectionGranule(addr);

    // One probe of the version index serves visibility, the cache tag
    // and — on the fast path — the observed-producer read record.
    VersionList *list = versions_.listOf(line);
    VersionInfo *v = list ? VersionMap::latestVisibleIn(*list, task)
                          : nullptr;
    VersionTag tag = v ? v->tag : VersionTag::arch();

    if (CacheLineState *f1 = l1_[proc]->findVersion(line, tag)) {
        // Uncontended-hit fast path: the owner-local L1 holds the
        // visible version. No displacement, overflow or directory
        // machinery can engage, so no Resource is touched and the
        // probe above is still valid for the read record (nothing
        // below mutates the version index).
        f1->lastUse = now;
        counters_.inc(sid_.l1Hits);
        if (note && rec(task).footprint.readWords.insert(word))
            detector_.noteRead(word, task,
                               observedProducerIn(list, addr, task));
        return {m.latL1};
    }

    Cycle lat;
    if (CacheLineState *f2 = l2_[proc]->findVersion(line, tag)) {
        f2->lastUse = now;
        lat = m.latL2 + l2Ports_[proc].acquire(now, m.occL2Port);
        insertLineL1(proc, line, tag, now);
        counters_.inc(sid_.l2Hits);
    } else {
        // Predict+Validate: a read whose visible version lives in a
        // remote, uncommitted predecessor would pay a cross-machine
        // fetch (and register with the detector, exposing the task to
        // squash-and-rewrite churn). If the predictor has a confident
        // value for the word, consume it at local-table speed instead:
        // log the prediction for commit-time validation and skip the
        // read record entirely — commit-time compare, not the
        // detector, guards this consumption. Only the first read of a
        // word by a task may predict (its predicted reads hold one
        // entry per word); repeats fall through and fill the caches.
        bool vp_eligible = cfg_.scheme.predictsValues() && v &&
                           !v->committed && v->tag.producer != task &&
                           v->cacheOwner != proc;
        if (vp_eligible) {
            TaskId predicted;
            TaskRecord &pr = rec(task);
            if (predictors_[proc].predict(word, &predicted) &&
                pr.footprint.readWords.insert(word)) {
                pr.footprint.predictions.push_back({word, predicted});
                counters_.inc(sid_.valuePredictions);
                TLSIM_TRACE_EVENT(trace::Kind::ValuePredict, proc,
                                  task, word, pr.incarnation);
                return {m.latL1};
            }
        }
        Source src;
        lat = fetchLatency(proc, line, v, now, &src);
        // While speculative state has spilled, AMM misses must also
        // consult the overflow-area tables in local memory.
        if (cfg_.scheme.isAmm() && versions_.spilledBy(proc) > 0) {
            lat += m.overflowCheckCycles;
            if (overflowPressured(proc))
                lat += faults_.overflowPressurePenalty();
            memBanks_.access(proc % m.numBanks, now);
            counters_.inc(sid_.overflowChecks);
        }
        // Lazy AMM: an external request for a committed version makes
        // the VCL merge the line with memory.
        if (v && cfg_.scheme.merging == Merging::LazyAMM &&
            v->committed && !v->inMemory && src == Source::RemoteCache) {
            vclMergeLine(line, now);
            v = versions_.find(line, tag); // may have been re-homed
        }
        bool allocate = true;
        if (!l2_[proc]->multiVersion()) {
            if (CacheLineState *res = l2_[proc]->findAnyOf(line)) {
                if ((res->dirty || res->committedDirty) &&
                    !(res->version == tag)) {
                    allocate = false; // cannot displace live state
                }
            }
        }
        if (allocate) {
            CacheLineState cl;
            cl.line = line;
            cl.version = tag;
            lat += insertLineL2(proc, cl, now);
            insertLineL1(proc, line, tag, now);
        }
        // Train on the would-stall reads the predictor declined: the
        // producer actually observed is the value a future predicted
        // read of this word must reproduce. Looked up afresh: the
        // insertion above may have removed versions (invalidating v).
        if (vp_eligible)
            predictors_[proc].train(word, observedProducer(addr, task));
    }

    if (note && rec(task).footprint.readWords.insert(word))
        detector_.noteRead(word, task, observedProducer(addr, task));
    return {lat};
}

cpu::StoreReply
SpeculationEngine::specStore(ProcId proc, Addr addr, Cycle now)
{
    if (cfg_.sequential)
        return seqStore(proc, addr, now);

    counters_.inc(sid_.stores);
    const mem::MachineParams &m = cfg_.machine;
    TaskId task = cores_[proc]->currentTask();
    TaskRecord &r = rec(task);
    Addr line = mem::lineAddr(addr);
    Addr word = detectionGranule(addr);
    std::uint8_t bit = mem::wordBit(addr);

    // Out-of-order RAW detection: the store's invalidation/update
    // reaches the directory and squashes any premature readers.
    TaskId victim = detector_.checkWrite(word, task);
    if (victim == kNoTask && faults_.active() &&
        task < workload_.numTasks() && faults_.spuriousViolation()) {
        // Fault injection: the directory raises a violation nobody
        // earned. Successors restart exactly as for a real one — the
        // storing task itself is never the victim (a task cannot
        // squash itself on its own store).
        victim = task + 1;
    }
    if (victim != kNoTask)
        performSquash(victim, proc);

    // OoO cores: in-flight loads to the same detection-granularity
    // word must re-obtain their data before they may retire (the LSQ
    // half of the relaxed-order safety net; already-retired reads are
    // the detector's job above). The snoop is a synchronous mutation
    // in the event queue's total order, so it is deterministic.
    if (oooActive_) {
        for (ProcId q = 0; q < numProcs(); ++q)
            if (q != proc)
                cores_[q]->snoopStore(addr);
    }

    VersionTag my_tag = r.tag();
    // Probed after the squash above (which removes versions); reused
    // for the own-version lookup, the MultiT&SV scan and the previous-
    // version lookup — none of the code in between mutates the index.
    VersionList *list = versions_.listOf(line);
    VersionInfo *own = list ? VersionMap::findIn(*list, my_tag) : nullptr;

    if (own) {
        // Subsequent store to a line this task already versioned.
        own->writeMask |= bit;
        if (CacheLineState *f1 = l1_[proc]->findVersion(line, my_tag)) {
            // Uncontended-hit fast path: own version, own L1. The mask
            // update above is all — no Resource, directory or
            // displacement work is possible.
            f1->lastUse = now;
            return {m.latL1, cpu::StoreStall::None, 0};
        }
        Cycle lat;
        if (CacheLineState *f2 =
                       l2_[proc]->findVersion(line, my_tag)) {
            f2->lastUse = now;
            lat = m.latL2 + l2Ports_[proc].acquire(now, m.occL2Port);
            insertLineL1(proc, line, my_tag, now);
        } else if (own->inOverflow) {
            // Bring the spilled version back into the L2.
            lat = m.latLocalMem +
                  memBanks_.access(proc % m.numBanks, now);
            if (overflowPressured(proc))
                lat += faults_.overflowPressurePenalty();
            versions_.refill(line, *own, proc);
            counters_.inc(sid_.overflowRefetches);
            CacheLineState cl;
            cl.line = line;
            cl.version = my_tag;
            cl.dirty = true;
            cl.speculative = true;
            insertLineL2(proc, cl, now);
            insertLineL1(proc, line, my_tag, now);
        } else if (own->inMemory || own->mhbProc != kNoProc) {
            // FMM: our version was displaced to main memory (or parked
            // in a history buffer by a later write-back); refetch.
            Source src;
            lat = fetchLatency(proc, line, own, now, &src);
            versions_.refill(line, *own, proc);
            CacheLineState cl;
            cl.line = line;
            cl.version = my_tag;
            cl.dirty = true;
            cl.speculative = true;
            insertLineL2(proc, cl, now);
            insertLineL1(proc, line, my_tag, now);
            counters_.inc(sid_.fmmRefetches);
        } else {
            panic("specStore: own version unreachable: " +
                  describeVersion(own));
        }
        return {lat, cpu::StoreStall::None, 0};
    }

    // ---- create a new version ----

    if (!cfg_.scheme.multiVersion() && list) {
        // MultiT&SV (and, defensively, SingleT): stall on a second
        // local speculative version of the same variable.
        for (auto &vv : *list) {
            if (vv.cacheOwner == proc && !vv.committed &&
                vv.tag.producer != task) {
                rec(vv.tag.producer)
                    .footprint.svWaiters.push_back({proc, task});
                counters_.inc(sid_.svStalls);
                return {0, cpu::StoreStall::SecondVersion, 0};
            }
        }
    }

    // Create the version without a read-for-ownership fetch: the line
    // is allocated with a word mask and later reads combine versions
    // (the SVC/Prvulovic01 write-validate style). Only the home
    // directory must learn about the new version.
    VersionInfo *prev =
        list ? VersionMap::latestVisibleIn(*list, task) : nullptr;
    VersionTag prev_tag = prev ? prev->tag : VersionTag::arch();
    unsigned home = homeOf(line);
    Cycle fill;
    if (m.isNuma()) {
        fill = (home == proc ? m.latLocalMem : m.latRemote2Hop) / 2;
    } else {
        fill = m.latL3 / 2; // on-chip directory bank round trip
    }
    fill += dirRoundTrip(proc, home, now, false);

    std::uint32_t extra_instrs = 0;
    if (cfg_.scheme.merging == Merging::FMM) {
        // MHB: save the most recent earlier version before creating
        // our own (Figure 7-c).
        r.footprint.undo.push_back({line, prev_tag});
        TLSIM_TRACE_EVENT(trace::Kind::UndoAppend, ~0u, task, line,
                          prev_tag.producer);
        counters_.inc(sid_.logAppends);
        if (prev)
            versions_.parkInMhb(line, *prev, proc);
        if (cfg_.scheme.softwareLog) {
            // Garzaran01: plain instructions save the old version.
            extra_instrs = m.swLogInstrPerEntry;
        } else {
            // Zhang99&T: the hardware log drains to local memory in
            // the background; extra bank occupancy, no processor time.
            memBanks_.access(proc % m.numBanks, now);
        }
    }

    VersionInfo &nv = versions_.create(line, my_tag, proc);
    nv.writeMask = bit;
    r.footprint.dirtyLines.push_back(line);

    Cycle lat = fill;
    if (cfg_.scheme.isAmm() && versions_.spilledBy(proc) > 0) {
        // The new version's line address must be checked against the
        // overflow-area tables.
        lat += m.overflowCheckCycles;
        if (overflowPressured(proc))
            lat += faults_.overflowPressurePenalty();
        memBanks_.access(proc % m.numBanks, now);
        counters_.inc(sid_.overflowChecks);
    }
    CacheLineState cl;
    cl.line = line;
    cl.version = my_tag;
    cl.dirty = true;
    cl.speculative = true;
    lat += insertLineL2(proc, cl, now);
    insertLineL1(proc, line, my_tag, now);
    counters_.inc(sid_.versionsCreated);
    // Fault injection: forced capacity pressure — displace the fresh
    // version immediately through the regular eviction path (overflow
    // spill under AMM, MTID-guarded write-back under FMM).
    if (faults_.active() && faults_.forceSpill())
        lat += faultSpillVersion(proc, line, my_tag, now);
    return {lat, cpu::StoreStall::None, extra_instrs};
}

// --------------------------------------------------------------------
// Sequential baseline
// --------------------------------------------------------------------

cpu::LoadReply
SpeculationEngine::seqLoad(ProcId proc, Addr addr, Cycle now)
{
    const mem::MachineParams &m = cfg_.machine;
    Addr line = mem::lineAddr(addr);
    VersionTag arch = VersionTag::arch();

    if (CacheLineState *f1 = l1_[proc]->findVersion(line, arch)) {
        f1->lastUse = now;
        return {m.latL1};
    }
    if (CacheLineState *f2 = l2_[proc]->findVersion(line, arch)) {
        f2->lastUse = now;
        insertLineL1(proc, line, arch, now);
        return {m.latL2 + l2Ports_[proc].acquire(now, m.occL2Port)};
    }
    Cycle lat;
    if (l3_) {
        unsigned home = homeOf(line);
        if (CacheLineState *f3 = l3_->findVersion(line, arch)) {
            f3->lastUse = now;
            lat = m.latL3 + l3Banks_.access(home, now);
        } else {
            lat = m.latLocalMem + memBanks_.access(home, now);
            CacheLineState cl;
            cl.line = line;
            cl.version = arch;
            l3_->insert(cl, now);
        }
    } else {
        // Sequential baseline: all data in the local memory module.
        lat = m.latLocalMem + memBanks_.access(proc % m.numBanks, now);
    }
    CacheLineState cl;
    cl.line = line;
    cl.version = arch;
    insertLineL2(proc, cl, now);
    insertLineL1(proc, line, arch, now);
    return {lat};
}

cpu::StoreReply
SpeculationEngine::seqStore(ProcId proc, Addr addr, Cycle now)
{
    const mem::MachineParams &m = cfg_.machine;
    Addr line = mem::lineAddr(addr);
    VersionTag arch = VersionTag::arch();
    TaskId task = cores_[proc]->currentTask();
    // The baseline creates no versions, so no write mask records its
    // stores: the written-footprint statistic needs its own word set.
    TaskFootprint &fp = rec(task).footprint;
    if (fp.writtenWords.insert(mem::wordAddr(addr)) &&
        workload_.isPrivAddr(addr))
        ++fp.privWords;

    Cycle lat;
    CacheLineState *f2 = l2_[proc]->findVersion(line, arch);
    if (l1_[proc]->findVersion(line, arch) && f2) {
        lat = m.latL1;
    } else if (f2) {
        lat = m.latL2 + l2Ports_[proc].acquire(now, m.occL2Port);
        insertLineL1(proc, line, arch, now);
    } else {
        cpu::LoadReply fill = seqLoad(proc, addr, now); // write-allocate
        lat = fill.latency;
        f2 = l2_[proc]->findVersion(line, arch);
    }
    if (f2)
        f2->dirty = true;
    return {lat, cpu::StoreStall::None, 0};
}

} // namespace tlsim::tls
