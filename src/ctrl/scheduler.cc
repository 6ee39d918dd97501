#include "ctrl/scheduler.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/engine_introspect.hh"
#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

dram::StallCause
Scheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    (void)now;
    (void)sink;
    stallVictim_ = nullptr; // coarse split: no specific access visible
    return hasWork() ? dram::StallCause::ArbLoss
                     : dram::StallCause::NoWork;
}

dram::StallCause
Scheduler::noteBankProbe(std::uint32_t b, const MemAccess *a, Tick now,
                         obs::StallAttribution &sink) const
{
    const dram::Probe p = probeFor(a, now);
    const dram::StallCause c =
        p.cause == dram::StallCause::None ? dram::StallCause::ArbLoss
                                          : p.cause;
    sink.noteBankStall(ctx_.channel, b, c, p.causeUntil);
    return c;
}

Tick
Scheduler::bankBound(std::uint32_t b, const MemAccess *a, Tick now) const
{
    if (!eventDriven_ || !horizonMemo_)
        return probeFor(a, now).readyAt;
    BoundSlot &slot = bounds_[b];
    const std::uint64_t epoch = ctx_.mem->epoch(ctx_.channel);
    if (slot.epoch == epoch && slot.id == a->id) {
        if (intro_)
            intro_->noteFrontHorizonHit();
        // max(now, cached) == a fresh readyAt at now: deadlines are
        // unchanged (same epoch) and readyAt floors at now.
        return std::max(now, slot.readyAt);
    }
    slot = {epoch, a->id, probeFor(a, now).readyAt};
    if (intro_)
        intro_->noteFrontHorizonMiss();
    return slot.readyAt;
}

Scheduler::Issued
Scheduler::issueFor(MemAccess *a, Tick now)
{
    const dram::CmdType type = nextCmd(a);
    if (a->firstCmdAt == kTickMax) {
        a->firstCmdAt = now;
        if (a->pickedAt == kTickMax)
            a->pickedAt = now; // no explicit arbitration step
        a->outcome = ctx_.mem->classify(a->coords);
        a->outcomeValid = true;
    }

    dram::Command cmd{type, a->coords, a->id};
    const dram::IssueResult res = ctx_.mem->issue(cmd, now);

    Issued out;
    out.access = a;
    out.cmd = type;
    if (dram::isColumnAccess(type)) {
        out.columnAccess = true;
        out.dataStart = res.dataStart;
        out.dataEnd = res.dataEnd;
        a->colIssuedAt = now;
        a->dataStart = res.dataStart;
        a->dataEnd = res.dataEnd;
        if (a->isWrite())
            noteWriteIssued(a);
    }
    return out;
}

} // namespace bsim::ctrl
