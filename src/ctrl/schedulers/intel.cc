#include "ctrl/schedulers/intel.hh"

#include <algorithm>

namespace bsim::ctrl
{

namespace
{

/** The patent examines only this many reads at the head of a bank
 *  queue for a page hit, so grouping is partial (the paper's critique
 *  of both RowHit and Intel in Section 4.2). */
constexpr std::size_t kReorderWindow = 4;

/** Accesses started at once: the bound on the degree of reordering. */
constexpr std::size_t kMaxOngoing = 4;

} // namespace

IntelScheduler::IntelScheduler(const SchedulerContext &ctx)
    : TwoLevelScheduler(ctx), readQ_(numBanks())
{
}

void
IntelScheduler::admit(MemAccess *a)
{
    if (a->isWrite())
        writeQ_.push_back(a);
    else
        readQ_[bankIndex(a->coords)].push_back(a);
}

std::size_t
IntelScheduler::readPick(std::uint32_t b) const
{
    const FlatQueue<MemAccess *> &q = readQ_[b];
    const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
    if (bank.isOpen())
        for (std::size_t i = 0; i < std::min(kReorderWindow, q.size()); ++i)
            if (q[i]->coords.row == bank.openRow())
                return i;
    return 0;
}

bool
IntelScheduler::walkMoves(MoveSink &take) const
{
    const std::size_t gw = ctx_.global->writesOutstanding;
    const bool write_q_full = gw >= ctx_.params.writeCap;

    // Read preemption (Intel_RP): a read may interrupt an ongoing write
    // unless the write queue has saturated or a flush is in progress
    // (preempting during a flush would just thrash the flush).
    if (ctx_.params.readPreemption && !write_q_full && !drainMode_ &&
        !forEachBank([this](std::size_t w) { return slotBits(w).writes; },
                     [&](std::uint32_t b) {
                         return readQ_[b].empty() ||
                                take({HorizonPin::Preempt, b});
                     }))
        return true;

    // Write-queue flush (the patent's bursty drain): a full write queue
    // triggers a flush that keeps priority on writes until the queue is
    // half empty; otherwise writes wait until no reads are outstanding.
    const bool drain =
        write_q_full || (gw > ctx_.params.writeCap / 2 && drainMode_);
    if (drain != drainMode_ && !take({HorizonPin::DrainFlip}))
        return true;

    if (drainMode_ || readCount() == 0) {
        // Drain oldest-first into any idle bank.
        for (std::size_t i = 0;
             i < writeQ_.size() && filledSlots() < kMaxOngoing;) {
            const std::uint32_t b = bankIndex(writeQ_[i]->coords);
            if (slot(b))
                ++i;
            else if (!take({HorizonPin::WriteDrain, b, i}))
                return true;
        }
    }

    // Fill remaining idle banks with reads, best-effort row hit first.
    for (std::uint32_t b = 0;
         b < readQ_.size() && filledSlots() < kMaxOngoing; ++b)
        if (!slot(b) && !readQ_[b].empty() &&
            !take({HorizonPin::ArbFill, b, readPick(b)}))
            return true;
    return false;
}

void
IntelScheduler::applyMove(const Move &m, Tick)
{
    switch (m.kind) {
      case HorizonPin::Preempt:
        writeQ_.push_front(clearSlot(m.bank)); // it was the oldest write
        preemptions_ += 1;
        break;
      case HorizonPin::DrainFlip:
        drainMode_ = !drainMode_;
        break;
      case HorizonPin::WriteDrain:
        fillSlot(m.bank, takeAt(writeQ_, m.pos), ++seq_);
        break;
      default: // ArbFill
        fillSlot(m.bank, takeAt(readQ_[m.bank], m.pos), ++seq_);
    }
}

dram::StallCause
IntelScheduler::backlogCause(std::uint32_t b) const
{
    // Reads queued behind the kMaxOngoing reordering cap lost
    // arbitration; they are not held by a device stall.
    return readQ_[b].empty() ? dram::StallCause::NoWork
                             : dram::StallCause::ArbLoss;
}

std::map<std::string, double>
IntelScheduler::extraStats() const
{
    return {{"preemptions", double(preemptions_)}};
}

void
IntelScheduler::queuedOccupancy(std::vector<std::uint32_t> &reads,
                                std::vector<std::uint32_t> &writes) const
{
    const std::size_t base = writes.size();
    for (const FlatQueue<MemAccess *> &q : readQ_) {
        reads.push_back(std::uint32_t(q.size()));
        writes.push_back(0);
    }
    // The single write queue serves all banks; attribute entries to the
    // bank they target.
    for (const MemAccess *a : writeQ_)
        writes[base + bankIndex(a->coords)] += 1;
}

} // namespace bsim::ctrl
