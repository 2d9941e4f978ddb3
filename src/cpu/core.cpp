#include "cpu/core.hpp"

#include "common/log.hpp"

namespace tlsim::cpu {

Core::Core(ProcId id, EventQueue &eq, const CoreParams &params,
           SpecMemoryIf &mem, CoreListener &listener)
    : CoreModel(id, eq, params, mem, listener),
      storeBuf_(params.storeBufEntries)
{
}

void
Core::resumeStall()
{
    if (state_ != State::StallStore)
        panic("Core::resumeStall: not stalled");
    breakdown_.add(waitKind_, eq_.now() - waitStart_);
    state_ = State::Running;
    if (issueStore(stalledStoreAddr_))
        step();
}

void
Core::finishTask()
{
    Cycle drain = storeBuf_.drainTime(eq_.now());
    if (drain > 0) {
        wait(drain, CycleKind::MemStall, [this]() { finishTask(); });
        return;
    }
    TaskId done = task_;
    enterIdle();
    listener_.onTaskFinished(id_, done);
}

/**
 * Issue one store at the current time.
 *
 * @return true if execution can continue inline (no wait was
 * scheduled and no stall was entered).
 */
bool
Core::issueStore(Addr addr)
{
    StoreReply reply = mem_.specStore(id_, addr, eq_.now());
    if (reply.stall != StoreStall::None) {
        state_ = State::StallStore;
        stalledStoreAddr_ = addr;
        waitStart_ = eq_.now();
        waitKind_ = CycleKind::VersionStall;
        return false;
    }

    Cycle log_cycles = computeCycles(reply.extraLogInstrs);
    Cycle slot_wait = storeBuf_.waitForSlot(eq_.now());
    storeBuf_.push(eq_.now() + slot_wait + log_cycles + reply.latency);

    if (slot_wait > 0) {
        wait(slot_wait, CycleKind::MemStall, [this, log_cycles]() {
            if (log_cycles > 0) {
                wait(log_cycles, CycleKind::LogOverhead,
                     [this]() { step(); });
            } else {
                step();
            }
        });
        return false;
    }
    if (log_cycles > 0) {
        wait(log_cycles, CycleKind::LogOverhead, [this]() { step(); });
        return false;
    }
    return true;
}

void
Core::step()
{
    // Inline-process cheap ops to keep the event count proportional to
    // time, not to op count; the budget guarantees forward progress in
    // simulated time even for pathological all-zero-cost traces.
    int inline_budget = 64;

    while (state_ == State::Running) {
        Op op = trace_->next();
        switch (op.kind) {
          case Op::Kind::Compute: {
            instrs_ += op.instrs;
            Cycle cycles = computeCycles(op.instrs);
            if (cycles == 0) {
                if (--inline_budget > 0)
                    continue;
                cycles = 1;
            }
            wait(cycles, CycleKind::Busy, [this]() { step(); });
            return;
          }
          case Op::Kind::Load: {
            LoadReply reply = mem_.specLoad(id_, op.addr, eq_.now());
            Cycle stall = reply.latency > params_.loadHide
                              ? reply.latency - params_.loadHide
                              : 0;
            if (stall == 0) {
                if (--inline_budget > 0)
                    continue;
                stall = 1;
            }
            wait(stall, CycleKind::MemStall, [this]() { step(); });
            return;
          }
          case Op::Kind::Store: {
            if (issueStore(op.addr)) {
                if (--inline_budget > 0)
                    continue;
                wait(1, CycleKind::Busy, [this]() { step(); });
                return;
            }
            return;
          }
          case Op::Kind::End:
            finishTask();
            return;
        }
    }
}

} // namespace tlsim::cpu
