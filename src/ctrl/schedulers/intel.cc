#include "ctrl/schedulers/intel.hh"

#include <algorithm>

#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

IntelScheduler::IntelScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx),
      readQ_(numBanks()),
      ongoing_(numBanks(), nullptr),
      startSeq_(numBanks(), 0)
{
}

void
IntelScheduler::enqueue(MemAccess *a)
{
    if (a->isWrite()) {
        writeQ_.push_back(a);
        writes_ += 1;
        noteWriteEnqueued(a);
    } else {
        readQ_[bankIndex(a->coords)].push_back(a);
        reads_ += 1;
    }
}

void
IntelScheduler::arbitrate()
{
    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;

    // Read preemption (Intel_RP): a read may interrupt an ongoing write
    // unless the write queue has saturated or a flush is in progress
    // (preempting during a flush would just thrash the flush).
    if (ctx_.params.readPreemption && !write_q_full && !drainMode_) {
        for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
            MemAccess *a = ongoing_[b];
            if (a && a->isWrite() && !readQ_[b].empty()) {
                writeQ_.push_front(a); // it was the oldest write
                ongoing_[b] = nullptr;
                preemptions_ += 1;
            }
        }
    }

    // Write-queue flush (the patent's bursty drain): a full write queue
    // triggers a flush that keeps priority on writes until the queue is
    // half empty; otherwise writes wait until no reads are outstanding.
    if (write_q_full)
        drainMode_ = true;
    else if (global_writes <= ctx_.params.writeCap / 2)
        drainMode_ = false;
    const bool service_writes =
        !writeQ_.empty() && (drainMode_ || reads_ == 0);

    if (service_writes) {
        // Drain oldest-first into any idle bank.
        std::size_t busy = 0;
        for (MemAccess *a : ongoing_)
            if (a)
                busy += 1;
        for (auto it = writeQ_.begin();
             it != writeQ_.end() && busy < 4;) {
            const std::uint32_t b = bankIndex((*it)->coords);
            if (!ongoing_[b]) {
                busy += 1;
                ongoing_[b] = *it;
                startSeq_[b] = ++seq_;
                it = writeQ_.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Fill remaining idle banks with reads: best-effort row-hit-first —
    // the patent examines only a small window at the head of each bank
    // queue for page hits, so grouping is partial (the paper's critique
    // of both RowHit and Intel in Section 4.2).
    constexpr std::size_t kReorderWindow = 4;
    constexpr std::size_t kMaxOngoing = 4;
    std::size_t ongoing_count = 0;
    for (MemAccess *a : ongoing_)
        if (a)
            ongoing_count += 1;
    for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
        if (ongoing_count >= kMaxOngoing)
            break;
        if (ongoing_[b] || readQ_[b].empty())
            continue;
        auto &q = readQ_[b];
        auto pick = q.begin();
        const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
        if (bank.isOpen()) {
            const auto window_end =
                q.size() > kReorderWindow ? q.begin() + kReorderWindow
                                          : q.end();
            auto hit =
                std::find_if(q.begin(), window_end, [&](MemAccess *r) {
                    return r->coords.row == bank.openRow();
                });
            if (hit != window_end)
                pick = hit;
        }
        ongoing_[b] = *pick;
        startSeq_[b] = ++seq_;
        q.erase(pick);
        ongoing_count += 1;
    }
}

Scheduler::Issued
IntelScheduler::tick(Tick now)
{
    arbitrate();

    // Once started, an access has the highest priority so that it can
    // finish as quickly as possible, reducing the degree of reordering
    // (the patent's wording): service ongoing accesses strictly in start
    // order, issuing the first unblocked transaction. Unlike burst
    // scheduling's Table 2 there is no same-rank clustering of data
    // transfers, so rank-to-rank turnaround bubbles go unmitigated.
    MemAccess *best = nullptr;
    std::uint32_t best_bank = 0;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
        MemAccess *a = ongoing_[b];
        if (!a || startSeq_[b] >= best_seq)
            continue;
        if (bankBound(b, a, now) <= now) {
            best = a;
            best_bank = b;
            best_seq = startSeq_[b];
        }
    }
    if (!best)
        return {};

    Issued out = issueFor(best, now);
    if (out.columnAccess) {
        ongoing_[best_bank] = nullptr;
        if (best->isWrite())
            writes_ -= 1;
        else
            reads_ -= 1;
    }
    return out;
}

bool
IntelScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
IntelScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // tick() arbitrated before coming up empty, so ongoing_ is current.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    std::uint64_t oldest_seq = ~std::uint64_t{0};
    bool any_ongoing = false;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b) {
        const MemAccess *a = ongoing_[b];
        if (!a) {
            // Backlog behind the kMaxOngoing reordering cap (or a write
            // held in the shared queue) is an arbitration loss, not a
            // device stall.
            if (!readQ_[b].empty())
                sink.noteBankStall(ctx_.channel, b,
                                   dram::StallCause::ArbLoss,
                                   kTickMax);
            continue;
        }
        any_ongoing = true;
        const dram::StallCause c = noteBankProbe(b, a, now, sink);
        if (startSeq_[b] < oldest_seq) {
            oldest_seq = startSeq_[b];
            channel_cause = c;
            stallVictim_ = a;
        }
    }
    if (any_ongoing)
        return channel_cause;
    if (reads_ > 0) {
        // Reads queued behind the reordering cap: nominate the first
        // bank's backlog head so the tracer has an access to blame.
        for (const auto &q : readQ_)
            if (!q.empty()) {
                stallVictim_ = q.front();
                break;
            }
        return dram::StallCause::ArbLoss;
    }
    if (writes_ > 0) {
        stallVictim_ = writeQ_.empty() ? nullptr : writeQ_.front();
        return dram::StallCause::ThresholdGated; // waiting for drain mode
    }
    return dram::StallCause::NoWork;
}

Tick
IntelScheduler::nextEventTick(Tick now) const
{
    // arbitrate() mutates state even on idle ticks (preemption, drain
    // flips, filling ongoing slots), so skipping is legal only when the
    // next arbitration pass is provably a no-op. Each possible move
    // below forces "return now" — one real tick — instead.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;

    if (ctx_.params.readPreemption && !write_q_full && !drainMode_)
        for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b)
            if (ongoing_[b] && ongoing_[b]->isWrite() &&
                !readQ_[b].empty()) {
                pin_ = HorizonPin::Preempt;
                return now;
            }

    // A pending drain-mode flip is itself a state change the next
    // arbitration pass applies.
    const bool drain_next =
        write_q_full
            ? true
            : (global_writes <= ctx_.params.writeCap / 2 ? false
                                                         : drainMode_);
    if (drain_next != drainMode_) {
        pin_ = HorizonPin::DrainFlip;
        return now;
    }

    std::size_t busy = 0;
    for (const MemAccess *a : ongoing_)
        if (a)
            busy += 1;

    const bool service_writes =
        !writeQ_.empty() && (drainMode_ || reads_ == 0);
    if (service_writes && busy < 4)
        for (const MemAccess *w : writeQ_)
            if (!ongoing_[bankIndex(w->coords)]) {
                pin_ = HorizonPin::WriteDrain;
                return now;
            }

    if (busy < 4) // kMaxOngoing read-fill headroom
        for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b)
            if (!ongoing_[b] && !readQ_[b].empty()) {
                pin_ = HorizonPin::ArbFill;
                return now;
            }

    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b) {
        const MemAccess *a = ongoing_[b];
        if (!a)
            continue;
        const Tick t = bankBound(b, a, now);
        if (t < horizon)
            horizon = t;
        if (horizon <= now)
            return now;
    }
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

std::map<std::string, double>
IntelScheduler::extraStats() const
{
    return {{"preemptions", double(preemptions_)}};
}

void
IntelScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                               std::vector<std::uint32_t> &writes) const
{
    const std::size_t base = reads.size();
    for (std::uint32_t b = 0; b < readQ_.size(); ++b) {
        std::uint32_t r = std::uint32_t(readQ_[b].size());
        std::uint32_t w = 0;
        if (const MemAccess *a = ongoing_[b])
            (a->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
    // The single write queue serves all banks; attribute entries to the
    // bank they target.
    for (const MemAccess *a : writeQ_)
        writes[base + bankIndex(a->coords)] += 1;
}

} // namespace bsim::ctrl
