#include "ctrl/schedulers/two_level.hh"

#include <utility>

#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

TwoLevelScheduler::TwoLevelScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx), slots_(numBanks()), bits_((slots_.size() + 63) / 64)
{
}

void
TwoLevelScheduler::enqueue(MemAccess *a)
{
    if (a->isWrite()) {
        writes_ += 1;
        noteWriteEnqueued(a);
    } else {
        reads_ += 1;
    }
    admit(a);
}

void
TwoLevelScheduler::fillSlot(std::uint32_t b, MemAccess *a,
                            std::uint64_t order)
{
    slots_[b] = {a, order};
    filled_ += 1;
    SlotBits &w = bits_[b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    w.filled |= bit;
    if (a->isWrite())
        w.writes |= bit;
}

MemAccess *
TwoLevelScheduler::clearSlot(std::uint32_t b)
{
    MemAccess *a = std::exchange(slots_[b].access, nullptr);
    filled_ -= 1;
    SlotBits &w = bits_[b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    w.filled &= ~bit;
    w.writes &= ~bit;
    return a;
}

std::uint32_t
TwoLevelScheduler::oldestSlot() const
{
    std::uint32_t oldest = kNoBank;
    forEachFilled([&](std::uint32_t b) {
        if (oldest == kNoBank || slots_[b].order < slots_[oldest].order)
            oldest = b;
        return true;
    });
    return oldest;
}

Scheduler::Issued
TwoLevelScheduler::tick(Tick now)
{
    // Level one: every bank arbiter, each move applied as it is found.
    MoveSink apply{this, now, {}};
    walkMoves(apply);
    if (now < heldUntil())
        return {}; // the policy quiesces the whole channel

    // Level two (Figure 6): visit the filled slots in ascending bank
    // order and keep the ready one slotBefore() prefers; the lower bank
    // wins a tie. A slot that cannot beat the current best is not
    // probed.
    std::uint32_t best = kNoBank;
    forEachFilled([&](std::uint32_t b) {
        if ((best == kNoBank || slotBefore(b, best)) &&
            bankBound(b, slots_[b].access, now) <= now)
            best = b;
        return true;
    });
    if (best == kNoBank) {
        // An idle tick's policy side effect is the one onIdleSpan()
        // replays over a skipped span.
        onIdleSpan(now, 1);
        return {};
    }

    MemAccess *a = slots_[best].access;
    Issued out = issueFor(a, now);
    if (out.columnAccess) {
        (a->isWrite() ? writes_ : reads_) -= 1;
        clearSlot(best);
        onColumnIssued(best, a, now);
    }
    return out;
}

Tick
TwoLevelScheduler::nextEventTick(Tick now) const
{
    // Assuming no arrivals, completions or refreshes: tick() applies
    // every arbiter move before it picks, so a state with a move must
    // be stepped, and the move's kind names the wake. With no move the
    // arbiters stay idle until a hold ends or a slot issues, and no
    // slot can issue before the earliest bankBound(); at that tick one
    // can, whichever the pick prefers. An idle tick's onIdleSpan() is
    // idempotent.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    MoveSink stop{nullptr, now, {}};
    if (walkMoves(stop)) {
        pin_ = stop.first.kind;
        return now;
    }
    if (hasWork() && now < heldUntil()) {
        pin_ = HorizonPin::DrainFlip;
        return heldUntil();
    }

    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    forEachFilled([&](std::uint32_t b) {
        const Tick t = bankBound(b, slots_[b].access, now);
        if (t < horizon)
            horizon = t;
        return horizon > now;
    });
    if (horizon <= now)
        return now;
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

dram::StallCause
TwoLevelScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // The slots hold the arbiters' last decisions: the scan follows a
    // tick() that issued nothing, or a state the walk has no move from.
    // The cause is the oldest slot's. Queued work behind an empty slot
    // is noted with the policy's reason. During a hold every slot waits
    // on the policy; with work and every slot empty, a policy mode
    // gates all of it.
    const bool held = hasWork() && now < heldUntil();
    dram::StallCause cause = dram::StallCause::NoWork;
    const MemAccess *victim = nullptr;
    std::uint64_t oldest = 0;
    for (std::uint32_t b = 0; b < std::uint32_t(slots_.size()); ++b) {
        const Slot &s = slots_[b];
        if (!s.access) {
            if (const dram::StallCause c = backlogCause(b);
                c != dram::StallCause::NoWork)
                sink.noteBankStall(ctx_.channel, b, c, kTickMax);
            continue;
        }
        dram::StallCause c = dram::StallCause::ThresholdGated;
        if (held)
            sink.noteBankStall(ctx_.channel, b, c, kTickMax);
        else
            c = noteBankProbe(b, s.access, now, sink);
        if (!victim || s.order < oldest) {
            oldest = s.order;
            cause = c;
            victim = s.access;
        }
    }
    if (!victim && hasWork()) {
        cause = dram::StallCause::ThresholdGated;
        if (!held)
            victim = gatedVictim();
    }
    stallVictim_ = victim;
    return cause;
}

void
TwoLevelScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                                  std::vector<std::uint32_t> &writes) const
{
    const std::size_t base = reads.size();
    queuedOccupancy(reads, writes);
    forEachFilled([&](std::uint32_t b) {
        (slots_[b].access->isWrite() ? writes : reads)[base + b] += 1;
        return true;
    });
}

} // namespace bsim::ctrl
