#include "ctrl/schedulers/burst.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/protocol_audit.hh"

namespace bsim::ctrl
{

BurstScheduler::BurstScheduler(const SchedulerContext &ctx)
    : TwoLevelScheduler(ctx), banks_(numBanks()), queued_((numBanks() + 63) / 64)
{
}

void
BurstScheduler::syncBits(std::uint32_t b)
{
    const BankState &bs = banks_[b];
    QueueBits &w = queued_[b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    w.reads = bs.bursts.empty() ? w.reads & ~bit : w.reads | bit;
    w.writes = bs.writeQ.empty() ? w.writes & ~bit : w.writes | bit;
}

void
BurstScheduler::admit(MemAccess *a)
{
    const std::uint32_t b = bankIndex(a->coords);
    BankState &bs = banks_[b];
    if (a->isWrite()) {
        // Figure 4: all writes enter the write queue in order and are
        // complete from the view of the CPU.
        bs.writeQ.push_back(a);
        syncBits(b);
        writeArrivals_ = writeArrivals_ * 0.999 + 1.0;
        return;
    }

    readArrivals_ = readArrivals_ * 0.999 + 1.0;
    // Figure 4: join an existing burst for this row (bursts can grow even
    // while being scheduled), otherwise open a new single-access burst at
    // the tail of the read queue.
    for (auto &burst : bs.bursts) {
        if (burst.row == a->coords.row) {
            if (ctx_.params.criticalFirst && a->critical) {
                // Section 7: critical reads go ahead of the queued
                // non-critical reads of their burst (stable among
                // criticals; the in-service access is unaffected).
                auto pos = burst.reads.begin();
                while (pos != burst.reads.end() && (*pos)->critical)
                    ++pos;
                burst.reads.insert(pos, a);
            } else {
                burst.reads.push_back(a);
            }
            burstJoinCount_ += 1;
            return;
        }
    }
    Burst nb;
    nb.row = a->coords.row;
    nb.reads.push_back(a);
    bs.bursts.push_back(std::move(nb));
    syncBits(b);
    burstsFormed_ += 1;
}

std::size_t
BurstScheduler::effectiveThreshold() const
{
    if (!ctx_.params.dynamicThreshold)
        return ctx_.params.threshold;
    // Section 7 future work: adapt the preemption/piggyback switch point
    // to the workload's read/write mix. A write-heavy phase needs early
    // piggybacking (low threshold) to avoid saturation; a read-heavy
    // phase can afford aggressive preemption (high threshold).
    const double write_share =
        writeArrivals_ / (readArrivals_ + writeArrivals_);
    const double cap = double(ctx_.params.writeCap);
    const double th = cap * (1.0 - 1.25 * write_share);
    if (th < cap * 0.125)
        return std::size_t(cap * 0.125);
    if (th > cap - 4.0)
        return std::size_t(cap - 4.0);
    return std::size_t(th);
}

std::size_t
BurstScheduler::piggybackPos(std::uint32_t b) const
{
    const FlatQueue<MemAccess *> &q = banks_[b].writeQ;
    const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
    if (!bank.isOpen())
        return q.size();
    // Oldest write directed to the same row as the just-finished burst so
    // the continuous row hits are not disturbed (Section 3.2).
    return std::size_t(std::find_if(q.begin(), q.end(),
                                    [&](const MemAccess *w) {
                                        return w->coords.row ==
                                               bank.openRow();
                                    }) -
                       q.begin());
}

bool
BurstScheduler::walkMoves(MoveSink &take) const
{
    // A full write queue closes the preempt gate whatever the
    // threshold: Figure 5 line 2 would take the preempted write back.
    const std::size_t gw = ctx_.global->writesOutstanding;
    const bool preempt = ctx_.params.readPreemption &&
                         gw < effectiveThreshold() &&
                         gw < ctx_.params.writeCap;
    // Only live banks can move, and a move changes only its own bank,
    // so the live set read up front is the set a full scan would act on.
    return !forEachBank(
        [this](std::size_t w) { return live(w); },
        [&](std::uint32_t b) {
            if (slot(b)) {
                // Figure 5 lines 9-11: while the write queue occupancy
                // is below the threshold, a queued read interrupts the
                // ongoing write, and the arbiter runs again (line 11).
                if (!preempt)
                    return true;
                if (!take({HorizonPin::Preempt, b}))
                    return false;
            }
            const Move m = arbitrate(b);
            return m.kind == HorizonPin::None || take(m);
        });
}

TwoLevelScheduler::Move
BurstScheduler::arbitrate(std::uint32_t b) const
{
    const BankState &bs = banks_[b];
    if (!bs.writeQ.empty()) {
        const std::size_t gw = ctx_.global->writesOutstanding;
        // Figure 5 line 2: a full write queue takes the oldest write.
        if (gw >= ctx_.params.writeCap)
            return {HorizonPin::WriteDrain, b, 0};
        // Lines 3-5: above the threshold, at the end of a burst, a
        // write to the open row piggybacks; with no qualified write the
        // next burst starts.
        if (ctx_.params.writePiggyback && gw > effectiveThreshold() &&
            bs.endOfBurst)
            if (const std::size_t pos = piggybackPos(b);
                pos < bs.writeQ.size())
                return {HorizonPin::Piggyback, b, pos};
        // Line 6: writes are serviced only when no reads are
        // outstanding. Burst scheduling is more aggressive in
        // prioritizing reads over writes than Intel's scheduler
        // (Section 5.1): the condition is channel-wide, not per bank,
        // so a single pending read anywhere keeps every bank's writes
        // postponed.
        if (readCount() == 0)
            return {HorizonPin::WriteDrain, b, 0};
    }
    if (!bs.bursts.empty())
        return {HorizonPin::ArbFill, b, 0};
    return {};
}

void
BurstScheduler::applyMove(const Move &m, Tick now)
{
    BankState &bs = banks_[m.bank];
    const std::size_t gw = ctx_.global->writesOutstanding;
    MemAccess *a = nullptr;
    switch (m.kind) {
      case HorizonPin::Preempt:
        // The write returns to the head of the write queue and
        // restarts later.
        if (auditor_)
            auditor_->notePreemption(now, gw, effectiveThreshold());
        bs.writeQ.push_front(clearSlot(m.bank));
        preemptions_ += 1;
        syncBits(m.bank);
        return;
      case HorizonPin::Piggyback:
        if (auditor_)
            auditor_->notePiggyback(now, gw, effectiveThreshold());
        piggybacks_ += 1;
        [[fallthrough]];
      case HorizonPin::WriteDrain:
        a = takeAt(bs.writeQ, m.pos);
        break;
      default: {
        // Section 7 future work (sortBurstsBySize): start the largest
        // waiting burst instead of the oldest. A partially-served front
        // burst is never displaced (that would break its row hits);
        // starvation of small bursts is the documented tradeoff.
        if (ctx_.params.sortBurstsBySize && bs.bursts.size() > 1 &&
            !bs.frontStarted) {
            auto largest = bs.bursts.begin();
            for (auto it = bs.bursts.begin(); it != bs.bursts.end(); ++it)
                if (it->reads.size() > largest->reads.size())
                    largest = it;
            if (largest != bs.bursts.begin())
                std::swap(*largest, bs.bursts.front());
        }
        Burst &front = bs.bursts.front();
        if (front.reads.empty())
            panic("empty burst left in read queue");
        a = front.reads.front();
        front.reads.pop_front();
        bs.ongoingFirstOfBurst = !bs.frontStarted;
        bs.frontStarted = true;
        bs.endOfBurst = false;
      }
    }
    // A preempted write keeps its original pick time.
    if (a->pickedAt == kTickMax)
        a->pickedAt = now;
    fillSlot(m.bank, a, a->arrival);
    syncBits(m.bank);
}

bool
BurstScheduler::slotBefore(std::uint32_t x, std::uint32_t y) const
{
    const int px = slotPriority(x, slot(x)), py = slotPriority(y, slot(y));
    return px != py ? px < py : slotOrder(x) < slotOrder(y);
}

int
BurstScheduler::slotPriority(std::uint32_t b, const MemAccess *a) const
{
    const bool read = a->isRead();
    if (!dram::isColumnAccess(nextCmd(a))) {
        // Precharge and row activate do not require data bus resources
        // and overlap with column accesses.
        return read ? 5 : 6;
    }
    if (lastBank_ == kNoBank) {
        // Before any column access, rank locality is vacuous; treat as
        // same-rank so bursts can start.
        return read ? 2 : 4;
    }
    const bool same_rank =
        !ctx_.params.rankAware || a->coords.rank == lastRank_;
    const bool same_bank = b == lastBank_;
    if (same_rank) {
        if (read)
            return same_bank ? 1 : 2;
        return same_bank ? 3 : 4;
    }
    return read ? 7 : 8;
}

void
BurstScheduler::onColumnIssued(std::uint32_t b, MemAccess *a, Tick now)
{
    BankState &bs = banks_[b];
    if (a->isRead()) { // reads come only from the front burst
        if (auditor_)
            auditor_->noteBurstRead(now, a->coords, bs.ongoingFirstOfBurst,
                                    a->outcome);
        // Retire the front burst once drained; this bank is now at an
        // end of burst, the write piggybacking opportunity.
        if (bs.bursts.empty())
            panic("ongoing read without a front burst");
        if (bs.bursts.front().reads.empty()) {
            bs.bursts.pop_front();
            bs.endOfBurst = true;
            bs.frontStarted = false;
            syncBits(b);
        }
    }
    pointAt(b);
}

void
BurstScheduler::pointAt(std::uint32_t b)
{
    lastBank_ = b;
    lastRank_ = b / ctx_.mem->config().banksPerRank;
}

void
BurstScheduler::onIdleSpan(Tick from, Tick span)
{
    (void)from;
    (void)span;
    // Figure 6 lines 14-15 run on every tick that issues nothing: point
    // the rank/bank locality state at the oldest ongoing access so it
    // gains Table 2 priority. The slots are frozen across a dead span,
    // so the per-tick update is idempotent; replay it once.
    if (const std::uint32_t b = oldestSlot(); b != kNoBank)
        pointAt(b);
}

dram::StallCause
BurstScheduler::backlogCause(std::uint32_t b) const
{
    // Writes the arbiter postponed (reads outstanding channel-wide, or
    // the piggyback gate closed) wait with the slot empty.
    const BankState &bs = banks_[b];
    return bs.bursts.empty() && !bs.writeQ.empty()
               ? dram::StallCause::ThresholdGated
               : dram::StallCause::NoWork;
}

std::map<std::string, double>
BurstScheduler::extraStats() const
{
    return {
        {"preemptions", double(preemptions_)},
        {"piggybacks", double(piggybacks_)},
        {"bursts_formed", double(burstsFormed_)},
        {"burst_joins", double(burstJoinCount_)},
    };
}

void
BurstScheduler::queuedOccupancy(std::vector<std::uint32_t> &reads,
                                std::vector<std::uint32_t> &writes) const
{
    for (const BankState &bs : banks_) {
        std::uint32_t r = 0;
        for (const Burst &burst : bs.bursts)
            r += std::uint32_t(burst.reads.size());
        reads.push_back(r);
        writes.push_back(std::uint32_t(bs.writeQ.size()));
    }
}

} // namespace bsim::ctrl
