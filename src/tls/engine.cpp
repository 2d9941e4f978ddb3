/**
 * @file
 * SpeculationEngine lifecycle: construction, dispatch, commit chain,
 * squash and recovery. The load/store paths live in engine_access.cpp.
 */

#include "tls/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/log.hpp"
#include "common/task_pool.hpp"
#include "common/trace.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/geometry.hpp"
#include "noc/crossbar.hpp"
#include "noc/mesh.hpp"

namespace tlsim::tls {

namespace {

/** Rows of the mesh for a NUMA machine with n nodes (4 for n=16). */
unsigned
meshRows(unsigned n)
{
    unsigned r = 1;
    while (r * r < n)
        ++r;
    return r;
}

/**
 * Declare this engine's simulated clock and scheme byte as the
 * ambient trace context of the calling thread. Re-asserted at run()
 * so interleaved construction of several engines on one thread (A/B
 * drivers) still stamps records correctly.
 */
void
bindTraceContext(const EngineConfig &cfg, const EventQueue &eq)
{
    trace::bindClock(eq.nowPtr());
    trace::setScheme(
        cfg.sequential
            ? trace::kSchemeSequential
            : trace::packScheme(unsigned(cfg.scheme.separation),
                                unsigned(cfg.scheme.merging),
                                cfg.scheme.softwareLog,
                                cfg.scheme.predictsValues()));
}

} // namespace

SpeculationEngine::SpeculationEngine(const EngineConfig &cfg,
                                     Workload &workload)
    : cfg_(cfg), workload_(workload),
      memBanks_(cfg.machine.numBanks, cfg.machine.occMemBank),
      l3Banks_(cfg.machine.numBanks, cfg.machine.occL3Bank),
      versions_(cfg.scheme.merging)
{
    const mem::MachineParams &m = cfg_.machine;

    if (m.isNuma()) {
        unsigned rows = meshRows(m.numProcs);
        net_ = std::make_unique<noc::Mesh2D>(rows,
                                             (m.numProcs + rows - 1) /
                                                 rows);
    } else {
        net_ = std::make_unique<noc::Crossbar>(
            std::max(m.numProcs, m.numBanks));
        l3_ = std::make_unique<mem::VersionedCache>(
            mem::CacheGeometry::of(16ULL * 1024 * 1024, 4), false);
    }

    l2Ports_.resize(m.numProcs);
    dirBanks_.resize(m.numBanks);

    // The address-independent pieces of directory routing are fixed at
    // construction: proc→node, home→node and home→directory-bank. The
    // access paths index these tables instead of dividing per access.
    unsigned nodes = net_->numNodes();
    nodeOfProc_.resize(m.numProcs);
    for (unsigned p = 0; p < m.numProcs; ++p)
        nodeOfProc_[p] = p % nodes;
    unsigned home_domain = std::max(m.numProcs, m.numBanks);
    nodeOfHome_.resize(home_domain);
    dirBankOfHome_.resize(home_domain);
    for (unsigned h = 0; h < home_domain; ++h) {
        nodeOfHome_[h] = h % nodes;
        dirBankOfHome_[h] = h % m.numBanks;
    }
    if (m.dirClusterNodes > 1) {
        clusterOfNode_.resize(nodes);
        for (unsigned n = 0; n < nodes; ++n)
            clusterOfNode_[n] = n / m.dirClusterNodes;
    }

    cpu::CoreParams core_params;
    core_params.ipc = m.ipc;
    core_params.loadHide = m.loadHide;
    core_params.storeBufEntries = m.storeBufEntries;
    core_params.oooWindow = m.oooWindow;
    core_params.oooIssueWidth = m.oooIssueWidth;
    core_params.maxPendingLoads = m.maxPendingLoads;
    core_params.lsqEntries = m.lsqEntries;
    core_params.lsqForwardCycles = m.lsqForwardCycles;
    // The LSQ snoop must use the same conflict granularity as the
    // violation detector, or replays and squashes would disagree.
    core_params.conflictShift = m.wordGranularityDetection ? 3 : 6;

    oooActive_ = !cfg_.sequential &&
                 m.coreModel == mem::CoreModelKind::OutOfOrder;
    for (ProcId p = 0; p < m.numProcs; ++p) {
        if (oooActive_)
            cores_.push_back(std::make_unique<cpu::OoOCore>(
                p, eq_, core_params, *this, *this));
        else
            cores_.push_back(std::make_unique<cpu::Core>(
                p, eq_, core_params, *this, *this));
    }
    // The sequential baseline runs on processor 0 alone, so it builds
    // processor 0's caches only: on mesh64 the other 63 would be 20 MB
    // of frames zeroed (and page-faulted) per run and never touched.
    unsigned cache_procs = cfg_.sequential ? 1 : m.numProcs;
    for (ProcId p = 0; p < cache_procs; ++p) {
        l1_.push_back(
            std::make_unique<mem::VersionedCache>(m.l1, false));
        l2_.push_back(std::make_unique<mem::VersionedCache>(
            m.l2, cfg_.scheme.multiVersion()));
    }

    // Fault injection: the plan is engine-local (one RNG set per run,
    // never shared across sweep threads) and each component is only
    // attached when its site can actually fire, so an inert spec adds
    // nothing but one dead branch per hook.
    if (!cfg_.sequential && cfg_.faults.anyEnabled()) {
        faults_ = fault::FaultPlan(cfg_.faults);
        if (faults_.nocActive())
            net_->attachFaults(&faults_);
    }

    // Predict+Validate: per-processor predictors, index hash seeded
    // from the workload's point seed (derivePointSeed already folded
    // the point identity, so replications get independent streams).
    if (!cfg_.sequential && cfg_.scheme.predictsValues()) {
        predictors_.resize(m.numProcs);
        std::uint64_t state =
            workload_.seed() ^ 0x76a7ed5ba11da7eULL;
        for (ProcId p = 0; p < m.numProcs; ++p)
            predictors_[p].configure(1024, splitmix64(state));
    }

    uncommittedFinished_.assign(m.numProcs, 0);
    procInRecovery_.assign(m.numProcs, false);
    recoveryOutstanding_.assign(m.numProcs, 0);
    pendingRecovery_.assign(m.numProcs, 0);
    recoveryBlockActive_.assign(m.numProcs, false);

    TaskId n = workload_.numTasks();
    tasks_.resize(n);
    for (TaskId t = 1; t <= n; ++t)
        tasks_[t - 1].id = t;

    // Intern every hot-path counter once; the access paths increment
    // by id. The order here is the entries() order of every result.
    sid_.loads = counters_.intern("loads");
    sid_.stores = counters_.intern("stores");
    sid_.l1Hits = counters_.intern("l1_hits");
    sid_.l2Hits = counters_.intern("l2_hits");
    sid_.l3Hits = counters_.intern("l3_hits");
    sid_.memoryFetches = counters_.intern("memory_fetches");
    sid_.remoteCacheFetches = counters_.intern("remote_cache_fetches");
    sid_.overflowFetches = counters_.intern("overflow_fetches");
    sid_.mhbFetches = counters_.intern("mhb_fetches");
    sid_.overflowChecks = counters_.intern("overflow_checks");
    sid_.overflowSpills = counters_.intern("overflow_spills");
    sid_.overflowRefetches = counters_.intern("overflow_refetches");
    sid_.svStalls = counters_.intern("sv_stalls");
    sid_.fmmWritebacks = counters_.intern("fmm_writebacks");
    sid_.fmmRefetches = counters_.intern("fmm_refetches");
    sid_.mtidRejectedSpills = counters_.intern("mtid_rejected_spills");
    sid_.vclDisplacements = counters_.intern("vcl_displacements");
    sid_.vclWritebacks = counters_.intern("vcl_writebacks");
    sid_.vclInvalidations = counters_.intern("vcl_invalidations");
    sid_.logAppends = counters_.intern("log_appends");
    sid_.versionsCreated = counters_.intern("versions_created");
    sid_.dispatches = counters_.intern("dispatches");
    sid_.commits = counters_.intern("commits");
    sid_.commitOverflowFetches =
        counters_.intern("commit_overflow_fetches");
    sid_.eagerWritebacks = counters_.intern("eager_writebacks");
    sid_.barrierMergeCycles = counters_.intern("barrier_merge_cycles");
    sid_.invocations = counters_.intern("invocations");
    sid_.finalMergeLines = counters_.intern("final_merge_lines");
    sid_.squashEvents = counters_.intern("squash_events");
    sid_.tasksSquashed = counters_.intern("tasks_squashed");
    sid_.recoveryEntriesReplayed =
        counters_.intern("recovery_entries_replayed");
    sid_.valuePredictions = counters_.intern("value_predictions");
    sid_.valueValidations = counters_.intern("value_validations");
    sid_.valueMispredicts = counters_.intern("value_mispredicts");

    bindTraceContext(cfg_, eq_);
}

SpeculationEngine::~SpeculationEngine()
{
    // The thread's trace clock points into our event queue; detach it
    // before the queue dies.
    trace::bindClock(nullptr);
}

void
SpeculationEngine::specTasksDelta(int delta)
{
    Cycle now = eq_.now();
    specTaskIntegral_ += double(specTasksNow_) * double(now - specTasksSince_);
    specTasksSince_ = now;
    specTasksNow_ = unsigned(int(specTasksNow_) + delta);
}

RunResult
SpeculationEngine::run()
{
    // The sequential baseline runs every task back to back; barriers
    // only matter under speculation.
    invocEnd_ = cfg_.sequential
                    ? workload_.numTasks()
                    : std::min<TaskId>(workload_.numTasks(),
                                       workload_.tasksPerInvocation());
    bindTraceContext(cfg_, eq_);
    scheduler_.init(invocEnd_);
    for (auto &core : cores_)
        core->beginSection();

    if (cfg_.sequential)
        tryDispatch(0);
    else
        tryDispatchAll();

    eq_.run();

    if (!sectionDone_)
        panic("SpeculationEngine: event queue drained before the "
              "section completed (deadlock)");

    return collectResult();
}

void
SpeculationEngine::tryDispatchAll()
{
    for (ProcId p = 0; p < numProcs(); ++p)
        tryDispatch(p);
}

void
SpeculationEngine::tryDispatch(ProcId proc)
{
    if (sectionDone_)
        return;
    if (cfg_.sequential && proc != 0)
        return;
    cpu::CoreModel &core = *cores_[proc];
    if (!core.idle())
        return;
    if (procInRecovery_[proc])
        return;
    if (!cfg_.sequential &&
        cfg_.scheme.separation == Separation::SingleT &&
        uncommittedFinished_[proc] > 0) {
        // SingleT: the processor must hold state for at most one
        // speculative task; stall until the finished task commits.
        core.setIdleKind(CycleKind::TokenStall);
        return;
    }
    if (scheduler_.empty()) {
        core.setIdleKind(CycleKind::EndStall);
        return;
    }

    TaskId id = scheduler_.take();
    TaskRecord &r = rec(id);
    r.state = TaskState::Running;
    r.proc = proc;
    ++r.incarnation;
    if (r.incarnation == 1 && !footprintPool_.empty()) {
        // A squashed task keeps its storage; a first dispatch adopts
        // the storage of the latest commit.
        r.footprint = std::move(footprintPool_.back());
        footprintPool_.pop_back();
    }
    r.footprint.clear();
    r.execStart = eq_.now();
    if (!cfg_.sequential)
        specTasksDelta(+1);
    counters_.inc(sid_.dispatches);
    TLSIM_TRACE_EVENT(r.incarnation == 1 ? trace::Kind::TaskSpawn
                                         : trace::Kind::TaskRestart,
                      proc, id, 0, r.incarnation);
    core.startTask(id, workload_.makeTrace(id),
                   cfg_.sequential ? 0 : cfg_.machine.dispatchCycles);
}

void
SpeculationEngine::onTaskFinished(ProcId proc, TaskId id)
{
    TaskRecord &r = rec(id);
    r.execEnd = eq_.now();
    TLSIM_TRACE_EVENT(trace::Kind::TaskFinish, proc, id, 0,
                      r.incarnation);

    if (cfg_.sequential) {
        r.state = TaskState::Committed;
        TLSIM_TRACE_EVENT(trace::Kind::TaskCommit, proc, id, 0,
                          r.incarnation);
        footprintWords_ += r.footprint.writtenWords.size();
        footprintPrivWords_ += r.footprint.privWords;
        footprintPool_.push_back(std::exchange(r.footprint, {}));
        execDurSum_ += r.execEnd - r.execStart;
        ++commitSamples_;
        if (id == workload_.numTasks()) {
            sectionEnd_ = eq_.now();
            endSection();
        } else {
            tryDispatch(proc);
        }
        return;
    }

    r.state = TaskState::Finished;
    ++uncommittedFinished_[proc];
    if (id == nextCommit_)
        maybeCommit();
    if (!recoveryQueue_.empty())
        runRecoveryQueue(); // a deferred FMM handler may need this core
    tryDispatch(proc);
}

void
SpeculationEngine::maybeCommit()
{
    if (commitInProgress_ || sectionDone_ || barrierActive_)
        return;
    if (nextCommit_ > invocEnd_) {
        advanceInvocation();
        return;
    }
    TaskRecord &r = rec(nextCommit_);
    if (r.state != TaskState::Finished)
        return;

    // Predict+Validate: the task's logged predictions are checked at
    // commit-token acquisition, while every predecessor is already
    // architectural. A misprediction squashes the task through the
    // ordinary violation path (the token is never taken), so the
    // recovery machinery is reused, not duplicated.
    Cycle validateCost = 0;
    if (cfg_.scheme.predictsValues() &&
        !validatePredictions(nextCommit_, &validateCost))
        return;

    commitInProgress_ = true;
    r.state = TaskState::Committing;
    r.commitStart = eq_.now();
    TaskId id = r.id;
    TLSIM_TRACE_EVENT(trace::Kind::TokenHandoff, r.proc, id, 0,
                      r.incarnation);

    if (cfg_.scheme.merging == Merging::EagerAMM) {
        Cycle finish = mergeTaskState(id, eq_.now());
        Cycle dur = std::max<Cycle>(finish - eq_.now(),
                                    cfg_.machine.tokenPassCycles) +
                    validateCost;
        if (cfg_.scheme.separation == Separation::SingleT) {
            // The processor itself performs the merge.
            cpu::CoreModel &core = *cores_[r.proc];
            if (!core.idle())
                panic("SingleT commit: owner core not idle");
            core.startWorkBlock(dur, CycleKind::CommitWork,
                                [this, id]() { finishCommit(id); });
        } else {
            // Background hardware writes the lines back; the commit
            // token still only passes once the merge completes.
            eq_.scheduleIn(dur, [this, id]() { finishCommit(id); });
        }
    } else {
        // Lazy AMM and FMM: commit is just the token handoff (plus
        // the validation-log compare pipeline, when one ran).
        eq_.scheduleIn(cfg_.machine.tokenPassCycles + validateCost,
                       [this, id]() { finishCommit(id); });
    }

    // Fault injection: a violation lands while the token is held (the
    // squash-during-commit corner). The committing task itself is past
    // the speculative states and survives; every later speculative
    // task restarts while the commit machinery is still in flight.
    if (faults_.active() && id < workload_.numTasks() &&
        faults_.commitTokenSquash())
        performSquash(id + 1, rec(id).proc);
}

bool
SpeculationEngine::validatePredictions(TaskId id, Cycle *cost_out)
{
    TaskRecord &r = rec(id);
    const std::vector<ValidationEntry> &entries = r.footprint.predictions;
    if (entries.empty()) {
        *cost_out = 0;
        return true;
    }
    ProcId proc = r.proc;

    // Re-derive the producer each predicted word would observe now,
    // with exactly the lookup the detector's read records use. The
    // simulator carries no data bytes, so a word's value is modeled as
    // a pure function of (word, producer): equal producers mean the
    // predicted and architectural values compare equal.
    for (const ValidationEntry &e : entries) {
        // Validation entries store word indices: rebuild the byte
        // address.
        TaskId actual = observedProducer(e.word * mem::kWordBytes, id);
        if (actual != e.predictedProducer) {
            counters_.inc(sid_.valueMispredicts);
            TLSIM_TRACE_EVENT(trace::Kind::ValueMispredict, proc, id,
                              e.word, r.incarnation);
            // Retrain with the corrected producer so the re-execution
            // predicts it right (no validate/squash livelock).
            predictors_[proc].train(e.word, actual);
            performSquash(id, proc);
            return false;
        }
    }

    // All predictions hold: reinforce the predictor. The compare
    // pipeline walks the entries one per cycle pair (read the logged
    // word, compare against memory state).
    std::size_t n = entries.size();
    for (const ValidationEntry &e : entries) {
        counters_.inc(sid_.valueValidations);
        TLSIM_TRACE_EVENT(trace::Kind::ValueValidate, proc, id, e.word,
                          r.incarnation);
        predictors_[proc].train(e.word, e.predictedProducer);
    }
    *cost_out = Cycle(2 * n);
    return true;
}

Cycle
SpeculationEngine::mergeTaskState(TaskId id, Cycle start)
{
    // Pipelined drain model: the commit engine pays a fixed startup
    // cost, then walks the task's write-back table issuing one line
    // per commitIssueGap; lines that spilled to the overflow area add
    // a local-memory read to the pipeline. Bank and link occupancy is
    // reserved so that concurrent execution feels the merge traffic;
    // the merge's own duration is the issue pipeline plus the one-way
    // drain of the last line.
    TaskRecord &r = rec(id);
    const mem::MachineParams &m = cfg_.machine;
    Cycle issue = start + m.commitFixedCycles;
    Cycle oneway = 0;

    for (Addr line : r.footprint.dirtyLines) {
        VersionInfo *v = versions_.find(line, r.tag());
        if (!v || v->inMemory)
            continue;
        issue += m.commitIssueGap;
        if (v->inOverflow) {
            // Fetch the overflowed line from local memory first.
            issue += m.latLocalMem / 4;
            memBanks_.access(r.proc % m.numBanks, start);
            counters_.inc(sid_.commitOverflowFetches);
        }
        unsigned home = homeOf(line);
        net_->traverse(start, nodeOfProc_[r.proc], nodeOfHome_[home],
                       noc::MsgClass::Data);
        memBanks_.access(home, start);
        Cycle ow;
        if (m.isNuma())
            ow = (home == r.proc ? m.latLocalMem : m.latRemote2Hop) / 2;
        else
            ow = m.latL3 / 2;
        oneway = std::max(oneway, ow);
        counters_.inc(sid_.eagerWritebacks);
    }
    return issue + oneway;
}

void
SpeculationEngine::finishCommit(TaskId id)
{
    TaskRecord &r = rec(id);
    r.state = TaskState::Committed;
    r.commitEnd = eq_.now();
    TLSIM_TRACE_EVENT(trace::Kind::TaskCommit, r.proc, id, 0,
                      r.incarnation);

    execDurSum_ += r.execEnd - r.execStart;
    commitDurSum_ += r.commitEnd - r.commitStart;
    ++commitSamples_;

    if (uncommittedFinished_[r.proc] == 0)
        panic("finishCommit: uncommittedFinished underflow");
    --uncommittedFinished_[r.proc];
    specTasksDelta(-1);

    for (Addr line : r.footprint.dirtyLines) {
        VersionInfo *v = versions_.find(line, r.tag());
        if (!v)
            continue;
        versions_.commit(line, *v);
        // Written-footprint statistic. Every store that did not stall
        // set its word's bit in this task's own version, and own
        // versions survive until commit, so the mask bits are exactly
        // the distinct words the task wrote.
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (!(v->writeMask & (1u << w)))
                continue;
            ++footprintWords_;
            if (workload_.isPrivAddr(line * mem::kLineBytes +
                                     w * mem::kWordBytes))
                ++footprintPrivWords_;
        }
        switch (cfg_.scheme.merging) {
          case Merging::EagerAMM: {
            // Data was written back during the merge.
            if (!v->inMemory)
                TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, r.proc,
                                  id, line, r.incarnation);
            if (v->cacheOwner != kNoProc && !v->inOverflow) {
                // The cached copy becomes a clean replica.
                if (auto *f = l2_[v->cacheOwner]->findVersion(line,
                                                              v->tag)) {
                    f->dirty = false;
                    f->speculative = false;
                }
            }
            versions_.writeBack(line, v);
            mtid_.set(line, v->tag);
            if (l3_) {
                mem::CacheLineState cl;
                cl.line = line;
                cl.version = v->tag;
                l3_->insert(cl, eq_.now());
            }
            break;
          }
          case Merging::LazyAMM:
          case Merging::FMM: {
            // Committed versions linger where they are; displacement
            // or external requests merge them later (VCL under Lazy,
            // MTID-guarded write-backs under FMM).
            if (v->cacheOwner != kNoProc && !v->inOverflow) {
                if (auto *f = l2_[v->cacheOwner]->findVersion(line,
                                                              v->tag)) {
                    f->speculative = false;
                    f->dirty = false;
                    f->committedDirty = true;
                }
            }
            break;
          }
        }
    }

    // FMM: the task's history is no longer needed.
    if (!r.footprint.undo.empty())
        TLSIM_TRACE_EVENT(trace::Kind::UndoDrop, ~0u, id, 0,
                          r.footprint.undo.size());

    detector_.dropReader(id, r.footprint.readWords);

    // Wake MultiT&SV stalls blocked on this task's version. Nothing
    // appends to a committed task's waiters, so the list is stable
    // while the resumed cores run.
    for (auto [proc, task] : r.footprint.svWaiters) {
        cpu::CoreModel &core = *cores_[proc];
        if (core.state() == cpu::CoreModel::State::StallStore &&
            core.currentTask() == task) {
            core.resumeStall();
        }
    }
    footprintPool_.push_back(std::exchange(r.footprint, {}));

    ProcId owner = r.proc;
    commitInProgress_ = false;
    ++nextCommit_;
    counters_.inc(sid_.commits);
    maybeCommit();
    if (!sectionDone_)
        tryDispatch(owner);
}

/**
 * The commit wavefront has crossed the current invocation's end: run
 * the invocation barrier. Under Lazy AMM this is the final merge of
 * the versions still in caches (the "diamonds" of Figure 6-(b)); then
 * either the next invocation starts or the section ends.
 */
void
SpeculationEngine::advanceInvocation()
{
    barrierActive_ = true;
    Cycle finish = eq_.now();
    if (cfg_.scheme.merging == Merging::LazyAMM) {
        // One walk of the version index fills every processor's sweep
        // worklist; each sweep then sorts only its own bucket.
        mergeBuckets_.resize(numProcs());
        for (auto &bucket : mergeBuckets_)
            bucket.clear();
        versions_.forEach([this](Addr line, VersionInfo &v) {
            if (v.committed && !v.inMemory && v.cacheOwner != kNoProc)
                mergeBuckets_[v.cacheOwner].emplace_back(line, &v);
        });
        for (ProcId p = 0; p < numProcs(); ++p)
            finish = std::max(finish, finalMergeProc(p, eq_.now()));
        counters_.inc(sid_.barrierMergeCycles, finish - eq_.now());
    }
    if (invocEnd_ >= workload_.numTasks()) {
        sectionEnd_ = finish;
        if (finish == eq_.now())
            endSection();
        else
            eq_.schedule(finish, [this]() { endSection(); });
        return;
    }
    if (finish == eq_.now()) {
        releaseNextInvocation();
    } else {
        eq_.schedule(finish, [this]() { releaseNextInvocation(); });
    }
}

void
SpeculationEngine::releaseNextInvocation()
{
    barrierActive_ = false;
    TaskId start = invocEnd_ + 1;
    invocEnd_ = std::min<TaskId>(
        workload_.numTasks(),
        invocEnd_ + std::max<TaskId>(1, workload_.tasksPerInvocation()));
    for (TaskId t = start; t <= invocEnd_; ++t)
        scheduler_.requeue(t);
    counters_.inc(sid_.invocations);
    tryDispatchAll();
}

Cycle
SpeculationEngine::finalMergeProc(ProcId proc, Cycle start)
{
    // Same pipelined-drain model as mergeTaskState, but sweeping all
    // of this processor's committed-unmerged versions in parallel with
    // the other processors' sweeps. The sweep order is canonical
    // (ascending line address, then producer): the network traffic it
    // issues reserves shared links, so the order must be defined by
    // the model, not by whatever the version index iterates in.
    const mem::MachineParams &m = cfg_.machine;
    Cycle issue = start;
    Cycle oneway = 0;
    auto &work = mergeBuckets_[proc];
    std::sort(work.begin(), work.end(),
              [](const std::pair<Addr, VersionInfo *> &a,
                 const std::pair<Addr, VersionInfo *> &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second->tag.producer < b.second->tag.producer;
              });
    for (auto &[line, vp] : work) {
        VersionInfo &v = *vp;
        // Only the latest committed version of a line needs a
        // write-back; earlier ones are invalidated by the VCL. Both
        // cost a sweep step, but only the write-back travels.
        VersionInfo *latest = versions_.latestCommitted(line);
        bool spilled = v.inOverflow;
        issue += m.finalMergeGap;
        if (spilled) {
            // Versions in the overflow area have to be accessed
            // eventually (paper Section 5.2): read from local memory.
            issue += m.latLocalMem / 4;
            memBanks_.access(proc % m.numBanks, start);
        }
        counters_.inc(sid_.finalMergeLines);
        if (latest == &v) {
            TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, proc,
                              v.tag.producer, line,
                              v.tag.incarnation);
            unsigned home = homeOf(line);
            net_->traverse(start, nodeOfProc_[proc], nodeOfHome_[home],
                           noc::MsgClass::Data);
            memBanks_.access(home, start);
            Cycle ow;
            if (m.isNuma())
                ow = (home == proc ? m.latLocalMem : m.latRemote2Hop) / 2;
            else
                ow = m.latL3 / 2;
            oneway = std::max(oneway, ow);
            mtid_.set(line, v.tag);
            versions_.writeBack(line, &v);
        } else {
            versions_.dropCopy(line, v);
        }
        if (!spilled) {
            l2_[proc]->invalidateVersion(line, v.tag);
            l1_[proc]->invalidateVersion(line, v.tag);
        }
    }
    return issue + oneway;
}

void
SpeculationEngine::endSection()
{
    sectionDone_ = true;
    if (sectionEnd_ < eq_.now())
        sectionEnd_ = eq_.now();
    specTasksDelta(0); // close the integral
    for (auto &core : cores_)
        core->endSection();
}

// --------------------------------------------------------------------
// Squash and recovery
// --------------------------------------------------------------------

void
SpeculationEngine::performSquash(TaskId first_bad, ProcId writer_proc)
{
    (void)writer_proc;
    ++squashEvents_;
    counters_.inc(sid_.squashEvents);

    std::vector<TaskId> squashed;
    for (TaskId t = first_bad; t <= workload_.numTasks(); ++t) {
        if (rec(t).isSpeculativeState())
            squashed.push_back(t);
    }
    if (squashed.empty())
        return;
    tasksSquashed_ += squashed.size();
    counters_.inc(sid_.tasksSquashed, squashed.size());

    for (TaskId t : squashed)
        squashOne(t);

    // A squashed record keeps its owner and footprint until the task
    // is dispatched again.
    if (cfg_.scheme.merging == Merging::FMM) {
        // Recovery must replay MHB entries in strict reverse task
        // order across the whole machine: queue descending and let
        // the handlers run one after another.
        for (std::size_t i = squashed.size(); i-- > 0;) {
            ProcId owner = rec(squashed[i]).proc;
            recoveryQueue_.push_back(squashed[i]);
            ++recoveryOutstanding_[owner];
            procInRecovery_[owner] = true;
        }
        std::sort(recoveryQueue_.begin(), recoveryQueue_.end(),
                  std::greater<TaskId>());
        runRecoveryQueue();
    } else {
        // AMM: discarding the MROB state is quick, local and can
        // proceed in parallel on every affected processor.
        for (TaskId t : squashed) {
            scheduler_.requeue(t);
            scheduleAmmRecovery(rec(t).proc,
                                cfg_.machine.recoveryPerTask);
        }
        tryDispatchAll();
    }
}

void
SpeculationEngine::squashOne(TaskId id)
{
    TaskRecord &r = rec(id);
    ProcId p = r.proc;
    ++r.squashes;
    TLSIM_TRACE_EVENT(trace::Kind::TaskSquash, p, id, 0,
                      r.incarnation);

    if (r.state == TaskState::Running) {
        cores_[p]->abortTask();
    } else if (r.state == TaskState::Finished) {
        if (uncommittedFinished_[p] == 0)
            panic("squashOne: uncommittedFinished underflow");
        --uncommittedFinished_[p];
    } else {
        panic("squashOne: task not speculative");
    }
    specTasksDelta(-1);

    mem::VersionTag tag = r.tag();
    for (Addr line : r.footprint.dirtyLines) {
        l2_[p]->invalidateVersion(line, tag);
        l1_[p]->invalidateVersion(line, tag);
        versions_.remove(line, tag);
    }

    detector_.dropReader(id, r.footprint.readWords);
    r.state = TaskState::Pending;
}

void
SpeculationEngine::scheduleAmmRecovery(ProcId proc, Cycle cycles)
{
    if (cycles == 0)
        return;
    pendingRecovery_[proc] += cycles;
    procInRecovery_[proc] = true;
    if (recoveryBlockActive_[proc])
        return;
    cpu::CoreModel &core = *cores_[proc];
    if (!core.idle())
        panic("scheduleAmmRecovery: core not idle");
    Cycle dur = pendingRecovery_[proc];
    pendingRecovery_[proc] = 0;
    recoveryBlockActive_[proc] = true;
    core.startWorkBlock(dur, CycleKind::RecoveryWork, [this, proc]() {
        recoveryBlockActive_[proc] = false;
        if (pendingRecovery_[proc] > 0) {
            Cycle more = pendingRecovery_[proc];
            pendingRecovery_[proc] = 0;
            scheduleAmmRecovery(proc, more);
            return;
        }
        procInRecovery_[proc] = false;
        tryDispatch(proc);
    });
}

void
SpeculationEngine::runRecoveryQueue()
{
    if (recoveryActive_ || recoveryQueue_.empty())
        return;

    TaskId id = recoveryQueue_.front();
    const TaskRecord &r = rec(id);
    ProcId proc = r.proc;
    cpu::CoreModel &core = *cores_[proc];
    if (!core.idle()) {
        // The owner is running an unrelated (earlier, unsquashed)
        // task: the recovery handler waits for the processor.
        // procInRecovery_ keeps new work away; onTaskFinished re-polls
        // the queue.
        return;
    }

    recoveryQueue_.pop_front();
    recoveryActive_ = true;

    // The squashed incarnation's MHB group, left in its footprint.
    const std::vector<UndoLogEntry> &undo = r.footprint.undo;
    Cycle stress = 0;
    if (!undo.empty()) {
        // Recovery-path stress (slow log-region reads): zero unless
        // the fault plan enables the undo site.
        stress = faults_.undoRecoveryStress(undo.size());
        TLSIM_TRACE_EVENT(trace::Kind::UndoRecover, ~0u, id, 0,
                          undo.size());
    }
    counters_.inc(sid_.recoveryEntriesReplayed, undo.size());

    // Replay, newest entry first: restore each overwritten version to
    // main memory. The metadata effect is applied now; the handler's
    // time is charged below.
    for (auto e = undo.rbegin(); e != undo.rend(); ++e) {
        mtid_.set(e->line, e->oldVersion);
        VersionInfo *v = versions_.find(e->line, e->oldVersion);
        saveDisplacedHolder(e->line, versions_.restore(e->line, v),
                            proc);
    }

    Cycle dur = 100 +
                Cycle(undo.size()) * cfg_.machine.recoveryPerLogEntry +
                stress;
    core.startWorkBlock(dur, CycleKind::RecoveryWork,
                        [this, proc, id]() {
        scheduler_.requeue(id);
        if (recoveryOutstanding_[proc] == 0)
            panic("recovery outstanding underflow");
        if (--recoveryOutstanding_[proc] == 0)
            procInRecovery_[proc] = false;
        recoveryActive_ = false;
        runRecoveryQueue();
        tryDispatchAll();
    });
}

RunResult
SpeculationEngine::collectResult()
{
    RunResult res;
    res.execTime = sectionEnd_;

    // Final-memory fingerprint (fault-injection oracle): fold the
    // latest committed version of every tracked line, in line order.
    // Producer and write mask are functions of the workload alone —
    // a squashed-and-replayed task recommits identical data — so any
    // divergence here means a fault corrupted state instead of only
    // costing time. Incarnations are excluded for the same reason.
    {
        auto fold = [](std::uint64_t h, std::uint64_t v) {
            std::uint64_t s = h ^ v;
            return splitmix64(s);
        };
        std::vector<Addr> lines;
        lines.reserve(versions_.linesTracked());
        versions_.forEach(
            [&](Addr line, VersionInfo &) { lines.push_back(line); });
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()),
                    lines.end());
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (Addr line : lines) {
            VersionInfo *v = versions_.latestCommitted(line);
            if (v == nullptr)
                continue;
            h = fold(h, line);
            h = fold(h, v->tag.producer);
            h = fold(h, v->writeMask);
            ++res.memStateLines;
        }
        res.memStateHash = h;
    }
    res.faults = faults_.counters();

    for (auto &core : cores_) {
        res.perProc.push_back(core->breakdown());
        res.total += core->breakdown();
    }
    res.counters = counters_;
    res.committedTasks = commitSamples_;
    res.squashEvents = squashEvents_;
    res.tasksSquashed = tasksSquashed_;
    if (sectionEnd_ > 0) {
        res.avgSpecTasksSystem = specTaskIntegral_ / double(sectionEnd_);
        res.avgSpecTasksPerProc =
            res.avgSpecTasksSystem / double(numProcs());
    }
    if (commitSamples_ > 0) {
        res.avgWrittenKb = double(footprintWords_) * mem::kWordBytes /
                           1024.0 / double(commitSamples_);
        if (footprintWords_ > 0)
            res.privFraction =
                double(footprintPrivWords_) / double(footprintWords_);
        double exec_mean = double(execDurSum_) / double(commitSamples_);
        double commit_mean =
            double(commitDurSum_) / double(commitSamples_);
        if (exec_mean > 0)
            res.commitExecRatio = commit_mean / exec_mean;
    }
    for (const TaskRecord &r : tasks_) {
        TaskTimeline tl;
        tl.id = r.id;
        tl.proc = r.proc;
        tl.execStart = r.execStart;
        tl.execEnd = r.execEnd;
        tl.commitStart = r.commitStart;
        tl.commitEnd = r.commitEnd;
        tl.squashes = r.squashes;
        res.timelines.push_back(tl);
    }
    return res;
}

} // namespace tlsim::tls
