#include "ctrl/schedulers/burst.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/protocol_audit.hh"
#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

BurstScheduler::BurstScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx), banks_(numBanks()), bits_((banks_.size() + 63) / 64)
{
}

void
BurstScheduler::syncBits(std::uint32_t b)
{
    const BankState &bs = banks_[b];
    BankBits &w = bits_[b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    const auto set = [bit](std::uint64_t &word, bool on) {
        word = on ? word | bit : word & ~bit;
    };
    set(w.ongoing, bs.ongoing != nullptr);
    set(w.ongoingWrite, bs.ongoing && bs.ongoing->isWrite());
    set(w.reads, !bs.bursts.empty());
    set(w.writes, !bs.writeQ.empty());
}

void
BurstScheduler::enqueue(MemAccess *a)
{
    const std::uint32_t b = bankIndex(a->coords);
    BankState &bs = banks_[b];
    if (a->isWrite()) {
        // Figure 4: all writes enter the write queue in order and are
        // complete from the view of the CPU.
        bs.writeQ.push_back(a);
        syncBits(b);
        writes_ += 1;
        writeArrivals_ = writeArrivals_ * 0.999 + 1.0;
        noteWriteEnqueued(a);
        return;
    }

    reads_ += 1;
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
    nb.firstArrival = a->arrival;
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

FlatQueue<MemAccess *>::iterator
BurstScheduler::findPiggybackWrite(std::uint32_t b)
{
    BankState &bs = banks_[b];
    const MemAccess *probe =
        !bs.writeQ.empty()
            ? bs.writeQ.front()
            : (bs.ongoing ? bs.ongoing : nullptr);
    if (!probe)
        return bs.writeQ.end();
    const dram::Bank &bank = ctx_.mem->bank(probe->coords);
    if (!bank.isOpen())
        return bs.writeQ.end();
    // Oldest write directed to the same row as the just-finished burst so
    // the continuous row hits are not disturbed (Section 3.2).
    return std::find_if(bs.writeQ.begin(), bs.writeQ.end(),
                        [&](MemAccess *w) {
                            return w->coords.row == bank.openRow();
                        });
}

void
BurstScheduler::maybePreempt(std::uint32_t b, Tick now)
{
    // Figure 5 lines 9-11: while the write queue occupancy is below the
    // threshold, a read may interrupt an ongoing write; the write returns
    // to the head of the write queue and restarts later.
    if (!ctx_.params.readPreemption)
        return;
    BankState &bs = banks_[b];
    MemAccess *a = bs.ongoing;
    if (!a || !a->isWrite() || bs.bursts.empty())
        return;
    if (ctx_.global->writesOutstanding >= effectiveThreshold())
        return;
    if (auditor_)
        auditor_->notePreemption(now, ctx_.global->writesOutstanding,
                                 effectiveThreshold());
    bs.writeQ.push_front(a);
    bs.ongoing = nullptr;
    bs.ongoingFromBurst = false;
    preemptions_ += 1;
    // Figure 5 line 11: the first read of the next burst starts now.
    arbitrate(b, now);
}

void
BurstScheduler::arbitrate(std::uint32_t b, Tick now)
{
    BankState &bs = banks_[b];
    if (bs.ongoing)
        return;

    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;

    auto take_write = [&](FlatQueue<MemAccess *>::iterator it) {
        bs.ongoing = *it;
        bs.ongoingFromBurst = false;
        bs.writeQ.erase(it);
    };

    // Figure 5, lines 1-8.
    if (write_q_full && !bs.writeQ.empty()) {
        take_write(bs.writeQ.begin()); // oldest write
        return;
    }
    if (ctx_.params.writePiggyback &&
        global_writes > effectiveThreshold() && bs.endOfBurst &&
        !bs.writeQ.empty()) {
        auto it = findPiggybackWrite(b);
        if (it != bs.writeQ.end()) {
            if (auditor_)
                auditor_->notePiggyback(now, global_writes,
                                        effectiveThreshold());
            take_write(it);
            piggybacks_ += 1;
            return;
        }
        // No qualified write: the next burst starts (fall through).
    }
    // Figure 5 line 6: writes are serviced only when no reads are
    // outstanding. Burst scheduling is more aggressive in prioritizing
    // reads over writes than Intel's scheduler (Section 5.1): the
    // condition is channel-wide, not per bank, so a single pending read
    // anywhere keeps every bank's writes postponed.
    if (!bs.writeQ.empty() && reads_ == 0) {
        take_write(bs.writeQ.begin());
        return;
    }
    if (!bs.bursts.empty()) {
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
        bs.ongoing = front.reads.front();
        front.reads.pop_front();
        bs.ongoingFromBurst = true;
        bs.ongoingFirstOfBurst = !bs.frontStarted;
        bs.frontStarted = true;
        bs.endOfBurst = false;
    }
}

int
BurstScheduler::priorityOf(const MemAccess *a, dram::CmdType cmd) const
{
    const bool read = a->isRead();
    if (dram::isColumnAccess(cmd)) {
        if (!lastValid_) {
            // Before any column access, rank locality is vacuous; treat as
            // same-rank so bursts can start.
            return read ? 2 : 4;
        }
        const bool rank_aware = ctx_.params.rankAware;
        const bool same_rank =
            !rank_aware || a->coords.rank == lastRank_;
        const bool same_bank = a->coords.rank == lastRank_ &&
                               bankIndex(a->coords) == lastBank_;
        if (same_rank) {
            if (read)
                return same_bank ? 1 : 2;
            return same_bank ? 3 : 4;
        }
        return read ? 7 : 8;
    }
    // Precharge and row activate do not require data bus resources and
    // overlap with column accesses.
    return read ? 5 : 6;
}

Scheduler::Issued
BurstScheduler::tick(Tick now)
{
    // Bank arbiters (Figure 5) including preemption checks, on the
    // banks where one can move. A visit changes only its own bank, so
    // the set taken up front is the set a full scan would act on.
    forEachBank([](const BankBits &w) { return w.live(); },
                [&](std::uint32_t b) {
                    maybePreempt(b, now);
                    arbitrate(b, now);
                    syncBits(b);
                    // A preempted write keeps its original pick time.
                    if (MemAccess *a = banks_[b].ongoing;
                        a && a->pickedAt == kTickMax)
                        a->pickedAt = now;
                });

    // Transaction scheduler (Figure 6 with the Table 2 priorities):
    // among all banks' ongoing accesses pick the unblocked transaction
    // with the best priority; oldest first breaks ties.
    MemAccess *best = nullptr;
    std::uint32_t best_bank = 0;
    dram::CmdType best_cmd = dram::CmdType::Precharge;
    int best_prio = 9;
    MemAccess *oldest_any = nullptr;

    forEachBank([](const BankBits &w) { return w.ongoing; },
                [&](std::uint32_t b) {
                    MemAccess *a = banks_[b].ongoing;
                    if (!oldest_any || a->arrival < oldest_any->arrival)
                        oldest_any = a;
                    const dram::CmdType cmd = nextCmd(a);
                    const int prio = priorityOf(a, cmd);
                    if (prio > best_prio ||
                        (prio == best_prio && best &&
                         a->arrival >= best->arrival))
                        return;
                    if (bankBound(b, a, now) > now)
                        return;
                    best = a;
                    best_bank = b;
                    best_cmd = cmd;
                    best_prio = prio;
                });

    if (!best) {
        // Figure 6 lines 14-15: with nothing unblocked, switch to the bank
        // holding the oldest access so it gains priority next cycle.
        if (oldest_any) {
            lastBank_ = bankIndex(oldest_any->coords);
            lastRank_ = oldest_any->coords.rank;
            lastValid_ = true;
        }
        return {};
    }

    Issued out = issueFor(best, now);
    if (out.columnAccess) {
        BankState &bs = banks_[best_bank];
        if (auditor_ && bs.ongoingFromBurst)
            auditor_->noteBurstRead(now, best->coords,
                                    bs.ongoingFirstOfBurst,
                                    best->outcome);
        if (best->isWrite())
            writes_ -= 1;
        else
            reads_ -= 1;
        if (bs.ongoingFromBurst) {
            // Retire the front burst once drained; this bank is now at an
            // end of burst, the write piggybacking opportunity.
            if (bs.bursts.empty())
                panic("ongoing read without a front burst");
            if (bs.bursts.front().reads.empty()) {
                bs.bursts.pop_front();
                bs.endOfBurst = true;
                bs.frontStarted = false;
            }
        }
        bs.ongoing = nullptr;
        bs.ongoingFromBurst = false;
        syncBits(best_bank);
        lastBank_ = best_bank;
        lastRank_ = best->coords.rank;
        lastValid_ = true;
        (void)best_cmd;
    }
    return out;
}

bool
BurstScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
BurstScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // tick() ran every bank arbiter before coming up empty, so ongoing_
    // reflects this cycle's Figure 5 decisions. Banks whose writes were
    // postponed (reads outstanding channel-wide, or the piggyback gate
    // closed) hold queued writes but no ongoing access.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    Tick oldest = kTickMax;
    const MemAccess *gated_front = nullptr;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(banks_.size()); ++b) {
        const BankState &bs = banks_[b];
        const MemAccess *a = bs.ongoing;
        if (!a) {
            if (bs.bursts.empty() && !bs.writeQ.empty()) {
                sink.noteBankStall(ctx_.channel, b,
                                   dram::StallCause::ThresholdGated,
                                   kTickMax);
                if (!gated_front)
                    gated_front = bs.writeQ.front();
            }
            continue;
        }
        const dram::StallCause c = noteBankProbe(b, a, now, sink);
        if (a->arrival < oldest) {
            oldest = a->arrival;
            channel_cause = c;
            stallVictim_ = a;
        }
    }
    if (channel_cause == dram::StallCause::NoWork && gated_front) {
        channel_cause = dram::StallCause::ThresholdGated;
        stallVictim_ = gated_front;
    }
    return channel_cause;
}

Tick
BurstScheduler::nextEventTick(Tick now) const
{
    // The Figure 5 bank arbiters run every tick, so skipping is legal
    // only when no arbiter can make a move: no preemption, no idle bank
    // that could pick up a write or start a burst. Each possible move
    // forces one real tick ("return now").
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;
    const std::size_t threshold = effectiveThreshold();

    // Only live banks can move (BankBits::live); visiting them in
    // ascending order keeps the first-move pin of a full scan.
    for (std::size_t w = 0; w < bits_.size(); ++w) {
        for (std::uint64_t m = bits_[w].live(); m; m &= m - 1) {
            const BankState &bs = banks_[w * 64 + std::countr_zero(m)];
            if (bs.ongoing) {
                // An ongoing write with queued reads.
                if (ctx_.params.readPreemption &&
                    global_writes < threshold) {
                    pin_ = HorizonPin::Preempt;
                    return now; // maybePreempt() would fire
                }
                continue;
            }
            if (!bs.bursts.empty()) {
                pin_ = HorizonPin::ArbFill;
                return now; // arbitrate() would start a burst read
            }
            if (write_q_full || reads_ == 0) {
                pin_ = HorizonPin::WriteDrain;
                return now; // arbitrate() would take the oldest write
            }
            if (ctx_.params.writePiggyback && global_writes > threshold &&
                bs.endOfBurst) {
                // Const replay of findPiggybackWrite(): any queued write
                // to the bank's open row qualifies.
                const dram::Bank &bank =
                    ctx_.mem->bank(bs.writeQ.front()->coords);
                if (bank.isOpen())
                    for (const MemAccess *wr : bs.writeQ)
                        if (wr->coords.row == bank.openRow()) {
                            pin_ = HorizonPin::Piggyback;
                            return now;
                        }
            }
        }
    }

    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
        for (std::uint64_t m = bits_[w].ongoing; m; m &= m - 1) {
            const std::uint32_t b =
                std::uint32_t(w * 64 + std::countr_zero(m));
            const Tick t = bankBound(b, banks_[b].ongoing, now);
            if (t < horizon)
                horizon = t;
            if (horizon <= now)
                return now;
        }
    }
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

void
BurstScheduler::onIdleSpan(Tick from, Tick span)
{
    (void)from;
    (void)span;
    // Figure 6 lines 14-15 run on every idle tick: point the rank/bank
    // locality state at the oldest ongoing access so it gains Table 2
    // priority. The ongoing set is frozen across a dead span, so the
    // per-tick update is idempotent — replay it once.
    const MemAccess *oldest_any = nullptr;
    forEachBank([](const BankBits &w) { return w.ongoing; },
                [&](std::uint32_t b) {
                    const MemAccess *a = banks_[b].ongoing;
                    if (!oldest_any || a->arrival < oldest_any->arrival)
                        oldest_any = a;
                });
    if (oldest_any) {
        lastBank_ = bankIndex(oldest_any->coords);
        lastRank_ = oldest_any->coords.rank;
        lastValid_ = true;
    }
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
BurstScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                               std::vector<std::uint32_t> &writes) const
{
    for (const BankState &bs : banks_) {
        std::uint32_t r = 0;
        for (const Burst &burst : bs.bursts)
            r += std::uint32_t(burst.reads.size());
        std::uint32_t w = std::uint32_t(bs.writeQ.size());
        if (bs.ongoing)
            (bs.ongoing->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
}

} // namespace bsim::ctrl
