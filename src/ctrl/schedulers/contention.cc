#include "ctrl/schedulers/contention.hh"

#include <algorithm>

namespace bsim::ctrl
{

namespace
{

/** AdaptiveHistory: decay of the arrival and service mixes. */
constexpr double kHistoryDecay = 0.995;
/** AdaptiveHistory: queue depth searched for an open-row hit. */
constexpr std::size_t kHistoryWindow = 4;

/** ATLAS quantum decay (the paper's alpha). */
constexpr double kAtlasAlpha = 0.875;

} // namespace

ContentionScheduler::ContentionScheduler(const SchedulerContext &ctx,
                                         Shape shape)
    : TwoLevelScheduler(ctx), shape_(shape), queues_(numBanks())
{
    watermark_ = shape_.watermarkAxis && ctx_.params.watermarkDrain;
    const std::size_t cap = ctx_.params.writeCap;
    hi_ = ctx_.params.hiWatermark ? ctx_.params.hiWatermark
                                  : std::max<std::size_t>(1, cap * 3 / 4);
    lo_ = ctx_.params.loWatermark ? ctx_.params.loWatermark
                                  : std::max<std::size_t>(1, cap / 4);
    if (lo_ > hi_)
        lo_ = hi_;
}

void
ContentionScheduler::admit(MemAccess *a)
{
    const std::uint32_t b = bankIndex(a->coords);
    queues_[b].push_back(a);
    if (shape_.fifo)
        fillFront(b);
    onEnqueued(a);
}

void
ContentionScheduler::fillFront(std::uint32_t b)
{
    if (!slot(b) && !queues_[b].empty()) {
        MemAccess *a = takeAt(queues_[b], 0);
        fillSlot(b, a, a->arrival);
    }
}

std::size_t
ContentionScheduler::fillPick(std::uint32_t b) const
{
    const auto &q = queues_[b];
    std::size_t pick = q.size();
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (!eligible(q[i]))
            continue;
        if (pick == q.size() || beats(q[i], q[pick]))
            pick = i;
    }
    return pick;
}

std::size_t
ContentionScheduler::openRowFirst(std::uint32_t b, std::size_t window) const
{
    const auto &q = queues_[b];
    const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
    if (bank.isOpen()) {
        const std::size_t n = std::min(window, q.size());
        for (std::size_t i = 0; i < n; ++i)
            if (q[i]->coords.row == bank.openRow())
                return i;
    }
    return 0;
}

bool
ContentionScheduler::flipPending() const
{
    const std::size_t gw = ctx_.global->writesOutstanding;
    if (!drainMode_)
        return gw >= hi_ || (readCount() == 0 && gw > 0);
    return gw == 0 || (readCount() > 0 && gw < lo_);
}

bool
ContentionScheduler::walkMoves(MoveSink &take) const
{
    const Tick now = take.now;
    syncEpochs(now);
    if (watermark_) {
        // The policy bus-turnaround hold fully quiesces the channel:
        // no arbitration, no issue, until heldUntil().
        if (now < turnUntil_)
            return false;
        // Gate the flip on local work: flipPending() reads the GLOBAL
        // write count, so an idle channel would otherwise flip (and
        // start a turnaround hold) on another channel's traffic alone.
        // An idle channel's drain mode is unobservable until work
        // arrives — and the arrival tick re-evaluates the flip in both
        // engines — so deferring keeps the step and skip engines on
        // the same flip lattice.
        if (hasWork() && flipPending()) {
            if (!take({HorizonPin::DrainFlip}))
                return true;
            if (now < turnUntil_)
                return false;
        }
    }
    if (shape_.fifo)
        return false; // slots fill on enqueue and on issue
    if (readCount() + writeCount() == filledSlots())
        return false; // nothing queued behind the slots

    // Fill bank b's empty slot with its intra-bank pick; false when
    // the walk ends there.
    const auto fill = [&](std::uint32_t b) {
        if (slot(b) || queues_[b].empty())
            return true;
        const std::size_t pos = fillPick(b);
        return pos == queues_[b].size() ||
               take({HorizonPin::ArbFill, b, pos});
    };
    const std::uint32_t n = numBanks();
    if (shape_.pick == InterBank::Priority) {
        for (std::uint32_t b = 0; b < n; ++b)
            if (!fill(b))
                return true;
        return false;
    }
    // Round robin fills lazily: a slot fills only when the rotation
    // reaches its bank, and the rotation stops at the first ready slot,
    // the one the pick issues. Filling every slot up front would commit
    // the banks past it to a pick made now, before later arrivals could
    // compete for the slot (RowHit's open-row pick makes the difference
    // visible).
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t b = (rr_ + 1 + i) % n;
        if (!fill(b))
            return true;
        if (const MemAccess *a = slot(b); a && bankBound(b, a, now) <= now)
            return false;
    }
    return false;
}

void
ContentionScheduler::applyMove(const Move &m, Tick now)
{
    if (m.kind == HorizonPin::DrainFlip) {
        drainMode_ = !drainMode_;
        drainFlips_ += 1;
        turnUntil_ = now + ctx_.params.drainTurnaround;
        return;
    }
    MemAccess *a = takeAt(queues_[m.bank], m.pos); // ArbFill
    fillSlot(m.bank, a, a->arrival);
}

bool
ContentionScheduler::slotBefore(std::uint32_t x, std::uint32_t y) const
{
    // The policy order decides inter-bank arbitration: the highest
    // priority ready slot (marked / least-serviced / whitelisted / best
    // history score first), or the first in rotation from the last
    // served bank.
    if (shape_.pick == InterBank::Priority)
        return beats(slot(x), slot(y));
    const std::uint32_t n = numBanks();
    return (x + n - rr_ - 1) % n < (y + n - rr_ - 1) % n;
}

void
ContentionScheduler::onColumnIssued(std::uint32_t b, MemAccess *a, Tick)
{
    rr_ = b; // round robin advances on completed service
    onServed(a);
    if (shape_.fifo)
        fillFront(b);
}

const MemAccess *
ContentionScheduler::gatedVictim() const
{
    // Every queued access is gated by the drain mode (e.g. reads during
    // a write drain): blame the oldest.
    const MemAccess *victim = nullptr;
    for (const auto &q : queues_)
        for (const MemAccess *a : q)
            if (!victim || a->arrival < victim->arrival)
                victim = a;
    return victim;
}

std::map<std::string, double>
ContentionScheduler::extraStats() const
{
    std::map<std::string, double> out;
    if (watermark_)
        out["drain_flips"] = double(drainFlips_);
    familyStats(out);
    return out;
}

std::uint64_t
ContentionScheduler::globalSignature() const
{
    if (!watermark_)
        return 0;
    // Every banded comparison flipPending() makes — the global write
    // count against each watermark, whether any reads are waiting, and
    // which mode we are in — so the controller's horizon memo survives
    // unrelated count drift but never a state change that could alter
    // the flip decision. (Leaving out the read/drainMode_ bits made
    // the skip engine reuse a pre-flip horizon after the last read
    // drained, visibly diverging from the step engine.)
    const std::size_t gw = ctx_.global->writesOutstanding;
    return std::uint64_t(gw >= hi_) | std::uint64_t(gw < lo_) << 1 |
           std::uint64_t(gw > 0) << 2 |
           std::uint64_t(readCount() > 0) << 3 |
           std::uint64_t(drainMode_) << 4;
}

void
ContentionScheduler::queuedOccupancy(std::vector<std::uint32_t> &reads,
                                     std::vector<std::uint32_t> &writes) const
{
    for (const FlatQueue<MemAccess *> &q : queues_) {
        std::uint32_t r = 0, w = 0;
        for (const MemAccess *a : q)
            (a->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
}

// --------------------------------------------------------------------
// RowHit

std::size_t
RowHitPolicy::fillPick(std::uint32_t b) const
{
    return openRowFirst(b, bankQueue(b).size());
}

// --------------------------------------------------------------------
// AdaptiveHistory

std::size_t
AdaptiveHistoryPolicy::fillPick(std::uint32_t b) const
{
    return openRowFirst(b, kHistoryWindow);
}

double
AdaptiveHistoryPolicy::readDeficit() const
{
    return readArrivals_ / (readArrivals_ + writeArrivals_) -
           readsScheduled_ / (readsScheduled_ + writesScheduled_);
}

double
AdaptiveHistoryPolicy::scoreOf(const MemAccess *a) const
{
    // Criterion 1: steer the scheduled mix toward the arrival mix. If
    // reads have been over-served relative to how they arrive, a write
    // is the matching choice, and vice versa.
    const double imbalance = readDeficit();
    double score = (a->isRead() ? imbalance : -imbalance) * 8.0;

    // Criterion 2: spread consecutive services across banks so
    // transactions pipeline.
    const std::uint32_t bank = bankIndex(a->coords);
    if (bank != lastBank_)
        score += 1.0;
    if (bank != prevBank_)
        score += 0.5;

    // Criterion 3 (weak): prefer row hits — they finish sooner.
    if (ctx_.mem->classify(a->coords) == dram::RowOutcome::Hit)
        score += 0.75;
    return score;
}

bool
AdaptiveHistoryPolicy::beats(const MemAccess *a, const MemAccess *b) const
{
    // Oldest-first tie break keeps the policy starvation free.
    const double sa = scoreOf(a), sb = scoreOf(b);
    return sa > sb + 1e-9 || (sa > sb - 1e-9 && a->arrival < b->arrival);
}

void
AdaptiveHistoryPolicy::onEnqueued(MemAccess *a)
{
    if (a->isWrite())
        writeArrivals_ = writeArrivals_ * kHistoryDecay + 1.0;
    else
        readArrivals_ = readArrivals_ * kHistoryDecay + 1.0;
}

void
AdaptiveHistoryPolicy::onServed(MemAccess *a)
{
    const double deficit = readDeficit();
    if ((a->isRead() && deficit > 0) || (a->isWrite() && deficit < 0))
        mixSteered_ += 1;
    if (a->isWrite()) {
        writesScheduled_ = writesScheduled_ * kHistoryDecay + 1.0;
        readsScheduled_ *= kHistoryDecay;
    } else {
        readsScheduled_ = readsScheduled_ * kHistoryDecay + 1.0;
        writesScheduled_ *= kHistoryDecay;
    }
    prevBank_ = lastBank_;
    lastBank_ = bankIndex(a->coords);
}

void
AdaptiveHistoryPolicy::familyStats(std::map<std::string, double> &out) const
{
    out["mix_steered"] = double(mixSteered_);
}

// --------------------------------------------------------------------
// FR-FCFS

bool
FrFcfsScheduler::beats(const MemAccess *a, const MemAccess *b) const
{
    const bool ha = rowHit(a), hb = rowHit(b);
    if (ha != hb)
        return ha;
    return olderFirst(a, b);
}

// --------------------------------------------------------------------
// PAR-BS

bool
ParbsScheduler::beats(const MemAccess *a, const MemAccess *b) const
{
    // The paper's rule order: marked first (batch boundary), then row
    // hit, then thread rank, then age.
    const bool ma = marked_.count(a) != 0, mb = marked_.count(b) != 0;
    if (ma != mb)
        return ma;
    const bool ha = rowHit(a), hb = rowHit(b);
    if (ha != hb)
        return ha;
    const std::uint32_t ra = rankOf(a->tag), rb = rankOf(b->tag);
    if (ra != rb)
        return ra < rb;
    return olderFirst(a, b);
}

std::uint32_t
ParbsScheduler::rankOf(std::uint64_t tag) const
{
    auto it = rank_.find(tag);
    return it == rank_.end() ? ~std::uint32_t{0} : it->second;
}

void
ParbsScheduler::onEnqueued(MemAccess *a)
{
    (void)a;
    // An enqueue into an empty batch window starts the next batch
    // immediately (a real event in both engines).
    if (marked_.empty())
        formBatch();
}

void
ParbsScheduler::onServed(MemAccess *a)
{
    if (marked_.erase(a) == 0)
        return;
    markedServed_ += 1;
    if (marked_.empty())
        formBatch();
}

void
ParbsScheduler::formBatch()
{
    marked_.clear();
    rank_.clear();

    // Mark up to parbsMarkingCap oldest queued requests per
    // (thread, bank); the per-bank queues are FIFOs, so in-order
    // iteration visits oldest first.
    struct Load
    {
        std::uint32_t maxBank = 0;
        std::uint32_t total = 0;
    };
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> perBank;
    std::unordered_map<std::uint64_t, Load> load;
    const std::size_t cap = ctx_.params.parbsMarkingCap;
    const std::uint32_t n = numBanks();
    for (std::uint32_t b = 0; b < n; ++b) {
        for (MemAccess *a : bankQueue(b)) {
            auto &cnt = perBank[a->tag];
            if (cnt.empty())
                cnt.assign(n, 0);
            if (cnt[b] >= cap)
                continue;
            cnt[b] += 1;
            marked_.insert(a);
            Load &l = load[a->tag];
            l.total += 1;
            l.maxBank = std::max(l.maxBank, cnt[b]);
        }
    }
    if (marked_.empty())
        return;
    batches_ += 1;

    // Shortest job first: the thread with the lightest heaviest-bank
    // load (then lightest total, then lowest tag) ranks best.
    std::vector<std::uint64_t> tags;
    tags.reserve(load.size());
    for (const auto &kv : load)
        tags.push_back(kv.first);
    std::sort(tags.begin(), tags.end(),
              [&](std::uint64_t x, std::uint64_t y) {
                  const Load &lx = load[x], &ly = load[y];
                  if (lx.maxBank != ly.maxBank)
                      return lx.maxBank < ly.maxBank;
                  if (lx.total != ly.total)
                      return lx.total < ly.total;
                  return x < y;
              });
    for (std::uint32_t i = 0; i < tags.size(); ++i)
        rank_[tags[i]] = i;
}

void
ParbsScheduler::familyStats(std::map<std::string, double> &out) const
{
    out["parbs_batches"] = double(batches_);
    out["parbs_marked_served"] = double(markedServed_);
}

// --------------------------------------------------------------------
// ATLAS

double
AtlasScheduler::totalOf(std::uint64_t tag) const
{
    auto it = service_.find(tag);
    return it == service_.end() ? 0.0 : it->second.total;
}

bool
AtlasScheduler::beats(const MemAccess *a, const MemAccess *b) const
{
    // Least attained service first; new threads (no service yet) rank
    // highest, as in the paper.
    const double sa = totalOf(a->tag), sb = totalOf(b->tag);
    if (sa != sb)
        return sa < sb;
    const bool ha = rowHit(a), hb = rowHit(b);
    if (ha != hb)
        return ha;
    return olderFirst(a, b);
}

void
AtlasScheduler::syncEpochs(Tick now) const
{
    const Tick q = ctx_.params.atlasQuantum;
    if (now < anchor_ + q)
        return;
    const Tick folds = (now - anchor_) / q;
    for (auto &kv : service_) {
        Service &s = kv.second;
        // First boundary folds the open quantum; quanta skipped
        // without any issue contribute zero and just decay. Repeated
        // multiplication (not pow) keeps the lazy catch-up bit-equal
        // to the step engine's per-boundary folds.
        s.total = kAtlasAlpha * s.total + (1.0 - kAtlasAlpha) * s.quantum;
        s.quantum = 0;
        for (Tick i = 1; i < folds; ++i)
            s.total *= kAtlasAlpha;
    }
    anchor_ += folds * q;
}

void
AtlasScheduler::onServed(MemAccess *a)
{
    // Attained service = data-bus cycles consumed, as in the paper.
    service_[a->tag].quantum += double(a->dataEnd - a->dataStart);
}

void
AtlasScheduler::familyStats(std::map<std::string, double> &out) const
{
    out["atlas_threads"] = double(service_.size());
}

// --------------------------------------------------------------------
// BLISS

bool
BlissScheduler::beats(const MemAccess *a, const MemAccess *b) const
{
    const bool ba = blacklist_.count(a->tag) != 0;
    const bool bb = blacklist_.count(b->tag) != 0;
    if (ba != bb)
        return !ba; // non-blacklisted first (deprioritized, not blocked)
    const bool ha = rowHit(a), hb = rowHit(b);
    if (ha != hb)
        return ha;
    return olderFirst(a, b);
}

void
BlissScheduler::syncEpochs(Tick now) const
{
    if (now < nextClear_)
        return;
    blacklist_.clear();
    lastTag_ = kNoTag;
    streak_ = 0;
    const Tick iv = ctx_.params.blissClearInterval;
    nextClear_ = (now / iv + 1) * iv;
}

void
BlissScheduler::onServed(MemAccess *a)
{
    if (a->tag == lastTag_) {
        streak_ += 1;
        if (streak_ >= ctx_.params.blissThreshold &&
            blacklist_.insert(a->tag).second)
            insertions_ += 1;
    } else {
        lastTag_ = a->tag;
        streak_ = 1;
    }
}

void
BlissScheduler::familyStats(std::map<std::string, double> &out) const
{
    out["bliss_blacklistings"] = double(insertions_);
}

} // namespace bsim::ctrl
