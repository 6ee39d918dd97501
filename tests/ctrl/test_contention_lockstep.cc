/**
 * @file
 * Lockstep test of the seven per-bank-queue policies (BkInOrder, RowHit,
 * AdaptiveHistory, FR-FCFS, PAR-BS, ATLAS, BLISS) on the two-level
 * chassis against a test-only reference: the per-bank-queue chassis they
 * ran on before, with its own tick, stall scan and horizon.
 *
 * Random enqueue streams (several thread tags, reads and writes, few
 * rows so row hits matter), random "other channel" writes in the global
 * count and random refresh-drain toggles drive both sides, each on its
 * own memory system. After every tick the issued transaction, the stall
 * scan's cause, victim and bank notes, and the horizon must agree. The
 * one allowed difference: where the reference could not bound itself
 * (a policy epoch, or drain-gated backlog, pinned Conservative below)
 * the chassis may wake later, never earlier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "ctrl/controller.hh"
#include "ctrl/flat_queue.hh"
#include "ctrl/schedulers/factory.hh"
#include "dram/memory_system.hh"
#include "obs/stall_attribution.hh"

using namespace bsim;
using ctrl::HorizonPin;
using ctrl::MemAccess;

namespace ref
{

constexpr double kHistoryDecay = 0.995;
constexpr std::size_t kHistoryWindow = 4;
constexpr double kAtlasAlpha = 0.875;

/** The per-bank-queue chassis: unified per-bank queues, an ongoing slot
 *  per bank, the watermark write-drain mode, and its own tick, stall
 *  scan and horizon. Its Epoch pin is reported as Conservative. */
class Chassis : public ctrl::Scheduler
{
  public:
    enum class InterBank : std::uint8_t
    {
        Priority,
        RoundRobin
    };

    struct Shape
    {
        InterBank pick = InterBank::Priority;
        bool fifo = false;
        bool watermarkAxis = true;
    };

    Chassis(const ctrl::SchedulerContext &ctx, Shape shape)
        : Scheduler(ctx), shape_(shape), queues_(numBanks()),
          ongoing_(numBanks(), nullptr)
    {
        watermark_ = shape_.watermarkAxis && ctx_.params.watermarkDrain;
        const std::size_t cap = ctx_.params.writeCap;
        hi_ = ctx_.params.hiWatermark
                  ? ctx_.params.hiWatermark
                  : std::max<std::size_t>(1, cap * 3 / 4);
        lo_ = ctx_.params.loWatermark ? ctx_.params.loWatermark
                                      : std::max<std::size_t>(1, cap / 4);
        if (lo_ > hi_)
            lo_ = hi_;
    }

    void
    enqueue(MemAccess *a) override
    {
        const std::uint32_t b = bankIndex(a->coords);
        queues_[b].push_back(a);
        if (shape_.fifo)
            fill(b);
        if (a->isWrite()) {
            writes_ += 1;
            noteWriteEnqueued(a);
        } else {
            reads_ += 1;
        }
        onEnqueued(a);
    }

    Issued
    tick(Tick now) override
    {
        syncEpochs(now);
        if (watermark_) {
            if (now < turnUntil_)
                return {};
            if (hasWork() && flipPending()) {
                drainMode_ = !drainMode_;
                drainFlips_ += 1;
                turnUntil_ = now + ctx_.params.drainTurnaround;
                if (now < turnUntil_)
                    return {};
            }
        }
        const std::uint32_t n = numBanks();
        if (shape_.pick == InterBank::RoundRobin) {
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint32_t b = (rr_ + 1 + i) % n;
                fill(b);
                const MemAccess *a = ongoing_[b];
                if (a && bankBound(b, a, now) <= now)
                    return serve(b, now);
            }
            return {};
        }
        for (std::uint32_t b = 0; b < n; ++b)
            fill(b);
        MemAccess *best = nullptr;
        std::uint32_t best_bank = 0;
        for (std::uint32_t b = 0; b < n; ++b) {
            MemAccess *a = ongoing_[b];
            if (!a || bankBound(b, a, now) > now)
                continue;
            if (!best || beats(a, best)) {
                best = a;
                best_bank = b;
            }
        }
        if (!best)
            return {};
        return serve(best_bank, now);
    }

    std::size_t readCount() const override { return reads_; }
    std::size_t writeCount() const override { return writes_; }
    bool hasWork() const override { return reads_ + writes_ > 0; }

    void
    queueOccupancy(std::vector<std::uint32_t> &reads,
                   std::vector<std::uint32_t> &writes) const override
    {
        for (std::uint32_t b = 0; b < queues_.size(); ++b) {
            std::uint32_t r = 0, w = 0;
            for (const MemAccess *a : queues_[b])
                (a->isWrite() ? w : r) += 1;
            if (const MemAccess *a = ongoing_[b])
                (a->isWrite() ? w : r) += 1;
            reads.push_back(r);
            writes.push_back(w);
        }
    }

    dram::StallCause
    stallScan(Tick now, obs::StallAttribution &sink) const override
    {
        syncEpochs(now);
        stallVictim_ = nullptr;
        if (!hasWork())
            return dram::StallCause::NoWork;
        if (watermark_ && now < turnUntil_) {
            Tick oldest = kTickMax;
            for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
                const MemAccess *a = ongoing_[b];
                if (!a)
                    continue;
                sink.noteBankStall(ctx_.channel, b,
                                   dram::StallCause::ThresholdGated,
                                   kTickMax);
                if (a->arrival < oldest) {
                    oldest = a->arrival;
                    stallVictim_ = a;
                }
            }
            return dram::StallCause::ThresholdGated;
        }
        dram::StallCause channel_cause = dram::StallCause::NoWork;
        Tick oldest = kTickMax;
        bool any_ongoing = false;
        for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
            const MemAccess *a = ongoing_[b];
            if (!a)
                continue;
            any_ongoing = true;
            const dram::StallCause c = noteBankProbe(b, a, now, sink);
            if (a->arrival < oldest) {
                oldest = a->arrival;
                channel_cause = c;
                stallVictim_ = a;
            }
        }
        if (any_ongoing)
            return channel_cause;
        for (const auto &q : queues_)
            for (const MemAccess *a : q)
                if (a->arrival < oldest) {
                    oldest = a->arrival;
                    stallVictim_ = a;
                }
        return dram::StallCause::ThresholdGated;
    }

    Tick
    nextEventTick(Tick now) const override
    {
        syncEpochs(now);
        if (!hasWork()) {
            pin_ = HorizonPin::None;
            return kTickMax;
        }
        if (watermark_) {
            if (now < turnUntil_) {
                pin_ = HorizonPin::DrainFlip;
                return turnUntil_;
            }
            if (flipPending()) {
                pin_ = HorizonPin::DrainFlip;
                return now;
            }
        }
        for (std::uint32_t b = 0; !shape_.fifo && b < ongoing_.size(); ++b) {
            if (ongoing_[b] || queues_[b].empty())
                continue;
            for (const MemAccess *a : queues_[b])
                if (eligible(a)) {
                    pin_ = HorizonPin::ArbFill;
                    return now;
                }
        }
        pin_ = HorizonPin::Timing;
        Tick horizon = kTickMax;
        for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
            const MemAccess *a = ongoing_[b];
            if (!a)
                continue;
            horizon = std::min(horizon, bankBound(b, a, now));
            if (horizon <= now)
                return now;
        }
        const Tick epoch = nextEpochTick(now);
        if (epoch < horizon) {
            horizon = epoch;
            pin_ = HorizonPin::Conservative; // the Epoch pin
        }
        if (horizon == kTickMax) {
            if (!watermark_) {
                pin_ = HorizonPin::None;
                return kTickMax;
            }
            pin_ = HorizonPin::Conservative;
            return now;
        }
        return horizon;
    }

    std::map<std::string, double>
    extraStats() const override
    {
        std::map<std::string, double> out;
        if (watermark_)
            out["drain_flips"] = double(drainFlips_);
        familyStats(out);
        return out;
    }

    std::uint64_t
    globalSignature() const override
    {
        if (!watermark_)
            return 0;
        const std::size_t gw = ctx_.global->writesOutstanding;
        return std::uint64_t(gw >= hi_) | std::uint64_t(gw < lo_) << 1 |
               std::uint64_t(gw > 0) << 2 |
               std::uint64_t(reads_ > 0) << 3 |
               std::uint64_t(drainMode_) << 4;
    }

  protected:
    virtual bool
    beats(const MemAccess *a, const MemAccess *b) const
    {
        return olderFirst(a, b);
    }

    virtual std::size_t
    fillPick(std::uint32_t b) const
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

    virtual void syncEpochs(Tick) const {}
    virtual Tick nextEpochTick(Tick) const { return kTickMax; }
    virtual void onEnqueued(MemAccess *) {}
    virtual void onColumnIssued(MemAccess *) {}
    virtual void familyStats(std::map<std::string, double> &) const {}

    static bool
    olderFirst(const MemAccess *a, const MemAccess *b)
    {
        if (a->arrival != b->arrival)
            return a->arrival < b->arrival;
        return a->id < b->id;
    }

    bool rowHit(const MemAccess *a) const
    {
        return dram::isColumnAccess(nextCmd(a));
    }

    std::size_t
    openRowFirst(std::uint32_t b, std::size_t window) const
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
    eligible(const MemAccess *a) const
    {
        if (!watermark_)
            return true;
        return drainMode_ ? a->isWrite() : a->isRead();
    }

    const ctrl::FlatQueue<MemAccess *> &bankQueue(std::uint32_t b) const
    {
        return queues_[b];
    }

  private:
    void
    fill(std::uint32_t b)
    {
        if (ongoing_[b] || queues_[b].empty())
            return;
        auto &q = queues_[b];
        const std::size_t i = shape_.fifo ? 0 : fillPick(b);
        if (i == q.size())
            return;
        ongoing_[b] = q[i];
        q.erase(q.begin() + std::ptrdiff_t(i));
    }

    Issued
    serve(std::uint32_t b, Tick now)
    {
        MemAccess *a = ongoing_[b];
        Issued out = issueFor(a, now);
        if (out.columnAccess) {
            ongoing_[b] = nullptr;
            (a->isWrite() ? writes_ : reads_) -= 1;
            rr_ = b;
            onColumnIssued(a);
            if (shape_.fifo)
                fill(b);
        }
        return out;
    }

    bool
    flipPending() const
    {
        const std::size_t gw = ctx_.global->writesOutstanding;
        if (!drainMode_)
            return gw >= hi_ || (reads_ == 0 && gw > 0);
        return gw == 0 || (reads_ > 0 && gw < lo_);
    }

    const Shape shape_;
    std::vector<ctrl::FlatQueue<MemAccess *>> queues_;
    std::vector<MemAccess *> ongoing_;
    std::uint32_t rr_ = 0;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;
    bool watermark_ = false;
    std::size_t hi_ = 0;
    std::size_t lo_ = 0;
    bool drainMode_ = false;
    Tick turnUntil_ = 0;
    std::uint64_t drainFlips_ = 0;
};

class BkInOrder : public Chassis
{
  public:
    explicit BkInOrder(const ctrl::SchedulerContext &ctx)
        : Chassis(ctx, {InterBank::RoundRobin, true, false})
    {
    }
};

class RowHit : public Chassis
{
  public:
    explicit RowHit(const ctrl::SchedulerContext &ctx)
        : Chassis(ctx, {InterBank::RoundRobin, false, false})
    {
    }

  protected:
    std::size_t
    fillPick(std::uint32_t b) const override
    {
        return openRowFirst(b, bankQueue(b).size());
    }
};

class AdaptiveHistory : public Chassis
{
  public:
    explicit AdaptiveHistory(const ctrl::SchedulerContext &ctx)
        : Chassis(ctx, {InterBank::Priority, false, false})
    {
    }

  protected:
    bool
    beats(const MemAccess *a, const MemAccess *b) const override
    {
        const double sa = scoreOf(a), sb = scoreOf(b);
        return sa > sb + 1e-9 ||
               (sa > sb - 1e-9 && a->arrival < b->arrival);
    }

    std::size_t
    fillPick(std::uint32_t b) const override
    {
        return openRowFirst(b, kHistoryWindow);
    }

    void
    onEnqueued(MemAccess *a) override
    {
        if (a->isWrite())
            writeArrivals_ = writeArrivals_ * kHistoryDecay + 1.0;
        else
            readArrivals_ = readArrivals_ * kHistoryDecay + 1.0;
    }

    void
    onColumnIssued(MemAccess *a) override
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
    familyStats(std::map<std::string, double> &out) const override
    {
        out["mix_steered"] = double(mixSteered_);
    }

  private:
    double
    readDeficit() const
    {
        return readArrivals_ / (readArrivals_ + writeArrivals_) -
               readsScheduled_ / (readsScheduled_ + writesScheduled_);
    }

    double
    scoreOf(const MemAccess *a) const
    {
        const double imbalance = readDeficit();
        double score = (a->isRead() ? imbalance : -imbalance) * 8.0;
        const std::uint32_t bank = bankIndex(a->coords);
        if (bank != lastBank_)
            score += 1.0;
        if (bank != prevBank_)
            score += 0.5;
        if (ctx_.mem->classify(a->coords) == dram::RowOutcome::Hit)
            score += 0.75;
        return score;
    }

    double readArrivals_ = 1.0;
    double writeArrivals_ = 1.0;
    double readsScheduled_ = 1.0;
    double writesScheduled_ = 1.0;
    std::uint32_t lastBank_ = ~0u;
    std::uint32_t prevBank_ = ~0u;
    std::uint64_t mixSteered_ = 0;
};

class FrFcfs : public Chassis
{
  public:
    explicit FrFcfs(const ctrl::SchedulerContext &ctx) : Chassis(ctx, {}) {}

  protected:
    bool
    beats(const MemAccess *a, const MemAccess *b) const override
    {
        const bool ha = rowHit(a), hb = rowHit(b);
        if (ha != hb)
            return ha;
        return olderFirst(a, b);
    }
};

class Parbs : public Chassis
{
  public:
    explicit Parbs(const ctrl::SchedulerContext &ctx) : Chassis(ctx, {}) {}

  protected:
    bool
    beats(const MemAccess *a, const MemAccess *b) const override
    {
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

    void
    onEnqueued(MemAccess *) override
    {
        if (marked_.empty())
            formBatch();
    }

    void
    onColumnIssued(MemAccess *a) override
    {
        if (marked_.erase(a) == 0)
            return;
        markedServed_ += 1;
        if (marked_.empty())
            formBatch();
    }

    void
    familyStats(std::map<std::string, double> &out) const override
    {
        out["parbs_batches"] = double(batches_);
        out["parbs_marked_served"] = double(markedServed_);
    }

  private:
    std::uint32_t
    rankOf(std::uint64_t tag) const
    {
        auto it = rank_.find(tag);
        return it == rank_.end() ? ~std::uint32_t{0} : it->second;
    }

    void
    formBatch()
    {
        marked_.clear();
        rank_.clear();
        struct Load
        {
            std::uint32_t maxBank = 0;
            std::uint32_t total = 0;
        };
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> per;
        std::unordered_map<std::uint64_t, Load> load;
        const std::size_t cap = ctx_.params.parbsMarkingCap;
        const std::uint32_t n = numBanks();
        for (std::uint32_t b = 0; b < n; ++b) {
            for (MemAccess *a : bankQueue(b)) {
                auto &cnt = per[a->tag];
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
        std::vector<std::uint64_t> tags;
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

    std::unordered_set<const MemAccess *> marked_;
    std::unordered_map<std::uint64_t, std::uint32_t> rank_;
    std::uint64_t batches_ = 0;
    std::uint64_t markedServed_ = 0;
};

class Atlas : public Chassis
{
  public:
    explicit Atlas(const ctrl::SchedulerContext &ctx) : Chassis(ctx, {}) {}

  protected:
    bool
    beats(const MemAccess *a, const MemAccess *b) const override
    {
        const double sa = totalOf(a->tag), sb = totalOf(b->tag);
        if (sa != sb)
            return sa < sb;
        const bool ha = rowHit(a), hb = rowHit(b);
        if (ha != hb)
            return ha;
        return olderFirst(a, b);
    }

    void
    syncEpochs(Tick now) const override
    {
        const Tick q = ctx_.params.atlasQuantum;
        if (now < anchor_ + q)
            return;
        const Tick folds = (now - anchor_) / q;
        for (auto &kv : service_) {
            Service &s = kv.second;
            s.total = kAtlasAlpha * s.total + (1.0 - kAtlasAlpha) * s.quantum;
            s.quantum = 0;
            for (Tick i = 1; i < folds; ++i)
                s.total *= kAtlasAlpha;
        }
        anchor_ += folds * q;
    }

    Tick
    nextEpochTick(Tick) const override
    {
        return anchor_ + ctx_.params.atlasQuantum;
    }

    void
    onColumnIssued(MemAccess *a) override
    {
        service_[a->tag].quantum += double(a->dataEnd - a->dataStart);
    }

    void
    familyStats(std::map<std::string, double> &out) const override
    {
        out["atlas_threads"] = double(service_.size());
    }

  private:
    struct Service
    {
        double total = 0;
        double quantum = 0;
    };

    double
    totalOf(std::uint64_t tag) const
    {
        auto it = service_.find(tag);
        return it == service_.end() ? 0.0 : it->second.total;
    }

    mutable std::unordered_map<std::uint64_t, Service> service_;
    mutable Tick anchor_ = 0;
};

class Bliss : public Chassis
{
  public:
    explicit Bliss(const ctrl::SchedulerContext &ctx) : Chassis(ctx, {}) {}

  protected:
    bool
    beats(const MemAccess *a, const MemAccess *b) const override
    {
        const bool ba = blacklist_.count(a->tag) != 0;
        const bool bb = blacklist_.count(b->tag) != 0;
        if (ba != bb)
            return !ba;
        const bool ha = rowHit(a), hb = rowHit(b);
        if (ha != hb)
            return ha;
        return olderFirst(a, b);
    }

    void
    syncEpochs(Tick now) const override
    {
        if (now < nextClear_)
            return;
        blacklist_.clear();
        lastTag_ = kNoTag;
        streak_ = 0;
        const Tick iv = ctx_.params.blissClearInterval;
        nextClear_ = (now / iv + 1) * iv;
    }

    Tick nextEpochTick(Tick) const override { return nextClear_; }

    void
    onColumnIssued(MemAccess *a) override
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
    familyStats(std::map<std::string, double> &out) const override
    {
        out["bliss_blacklistings"] = double(insertions_);
    }

  private:
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};
    mutable std::unordered_set<std::uint64_t> blacklist_;
    mutable std::uint64_t lastTag_ = kNoTag;
    mutable std::size_t streak_ = 0;
    mutable Tick nextClear_ = 0;
    std::uint64_t insertions_ = 0;
};

std::unique_ptr<ctrl::Scheduler>
make(ctrl::Mechanism m, const ctrl::SchedulerContext &ctx)
{
    switch (m) {
      case ctrl::Mechanism::BkInOrder:
        return std::make_unique<BkInOrder>(ctx);
      case ctrl::Mechanism::RowHit: return std::make_unique<RowHit>(ctx);
      case ctrl::Mechanism::AdaptiveHistory:
        return std::make_unique<AdaptiveHistory>(ctx);
      case ctrl::Mechanism::FrFcfs: return std::make_unique<FrFcfs>(ctx);
      case ctrl::Mechanism::Parbs: return std::make_unique<Parbs>(ctx);
      case ctrl::Mechanism::Atlas: return std::make_unique<Atlas>(ctx);
      default: return std::make_unique<Bliss>(ctx);
    }
}

} // namespace ref

namespace
{

const ctrl::Mechanism kPolicies[] = {
    ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
    ctrl::Mechanism::AdaptiveHistory, ctrl::Mechanism::FrFcfs,
    ctrl::Mechanism::Parbs, ctrl::Mechanism::Atlas, ctrl::Mechanism::Bliss,
};

constexpr std::uint32_t kBanksPerRank = 4;

struct Config
{
    ctrl::Mechanism mech;
    bool watermark;
    std::uint32_t ranks;
    std::uint64_t seed;
    bool eventDriven;
    Tick turnaround;
};

dram::DramConfig
dramOf(std::uint32_t ranks)
{
    dram::DramConfig cfg;
    cfg.channels = 1;
    cfg.ranksPerChannel = ranks;
    cfg.banksPerRank = kBanksPerRank;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = dram::Timing::ddr2_800();
    cfg.timing.tREFI = 0; // refresh gates are toggled by the test
    return cfg;
}

/** One side of the lockstep: a memory system, the global counts and a
 *  scheduler over them, its own copies of the accesses, a stall sink. */
struct Side
{
    explicit Side(const Config &c)
        : mem(dramOf(c.ranks)),
          stalls(1, c.ranks * kBanksPerRank,
                 std::vector<std::string>(c.ranks * kBanksPerRank, "bank"))
    {
    }

    void
    build(const Config &c, bool reference)
    {
        ctrl::SchedulerContext ctx;
        ctx.mem = &mem;
        ctx.channel = 0;
        ctx.global = &counts;
        ctrl::ControllerConfig ccfg;
        ccfg.mechanism = c.mech;
        ccfg.writeCap = 16;
        ctx.params = ccfg.schedulerParams();
        ctx.params.watermarkDrain = c.watermark;
        ctx.params.drainTurnaround = c.turnaround;
        ctx.params.atlasQuantum = 97;
        ctx.params.blissClearInterval = 151;
        ctx.params.blissThreshold = 3;
        ctx.params.parbsMarkingCap = 3;
        sched = reference ? ref::make(c.mech, ctx)
                          : ctrl::makeScheduler(c.mech, ctx);
        sched->setEventDriven(c.eventDriven);
    }

    void
    add(const MemAccess &proto)
    {
        own.push_back(std::make_unique<MemAccess>(proto));
        MemAccess *a = own.back().get();
        a->addr = mem.addressMap().encode(a->coords);
        (a->isWrite() ? counts.writesOutstanding : counts.readsOutstanding) +=
            1;
        sched->enqueue(a);
    }

    dram::MemorySystem mem;
    ctrl::GlobalCounts counts;
    std::unique_ptr<ctrl::Scheduler> sched;
    std::vector<std::unique_ptr<MemAccess>> own;
    obs::StallAttribution stalls;
};

std::string
label(const Config &c)
{
    std::ostringstream os;
    os << ctrl::mechanismName(c.mech) << (c.watermark ? " wm" : "")
       << " ranks=" << c.ranks << " seed=" << c.seed
       << (c.eventDriven ? " skip" : " step")
       << " turnaround=" << c.turnaround;
    return os.str();
}

std::uint64_t
idOf(const MemAccess *a)
{
    return a ? a->id : 0;
}

/** Drive @p c through @p ticks ticks on both sides; fatal on the first
 *  divergence. Adds to @p relaxed the horizons where the reference could
 *  not bound itself (Conservative) and the chassis wakes later, and to
 *  @p issued the transactions issued. */
void
lockstep(const Config &c, Tick ticks, std::uint64_t &relaxed,
         std::uint64_t &issued)
{
    SCOPED_TRACE(label(c));
    Side r(c), n(c);
    r.build(c, true);
    n.build(c, false);
    Rng rng(c.seed);
    std::uint64_t next_id = 1;
    std::size_t other_writes = 0; // other channels' writes, global

    for (Tick now = 0; now < ticks; ++now) {
        SCOPED_TRACE(testing::Message() << "tick " << now);
        // Arrivals come in bursts: a hot phase every few hundred ticks.
        const bool hot = (now / 256) % 2 == 0;
        const std::size_t outstanding =
            r.sched->readCount() + r.sched->writeCount();
        if (outstanding < 24 && rng.chance(hot ? 0.3 : 0.05)) {
            MemAccess a;
            a.id = next_id++;
            a.type = rng.chance(0.35) ? AccessType::Write : AccessType::Read;
            a.coords = dram::Coords{0, std::uint32_t(rng.below(c.ranks)),
                                    std::uint32_t(rng.below(kBanksPerRank)),
                                    std::uint32_t(rng.below(4)),
                                    std::uint32_t(rng.below(32))};
            a.arrival = now;
            a.tag = rng.below(3);
            r.add(a);
            n.add(a);
        }
        if (rng.chance(0.01)) {
            const std::size_t w = rng.below(14);
            r.counts.writesOutstanding += w - other_writes;
            n.counts.writesOutstanding += w - other_writes;
            other_writes = w;
        }
        if (rng.chance(0.004)) {
            const std::uint32_t rank = std::uint32_t(rng.below(c.ranks));
            const bool on = !r.mem.refreshDraining(0, rank);
            r.mem.setRefreshDrain(0, rank, on);
            n.mem.setRefreshDrain(0, rank, on);
        }

        const Tick hr = r.sched->nextEventTick(now);
        const Tick hn = n.sched->nextEventTick(now);
        if (r.sched->lastHorizonPin() == HorizonPin::Conservative) {
            ASSERT_GE(hn, hr);
            relaxed += hn > hr;
        } else {
            ASSERT_EQ(hn, hr);
        }

        const auto ir = r.sched->tick(now);
        const auto in = n.sched->tick(now);
        ASSERT_EQ(idOf(in.access), idOf(ir.access));
        ASSERT_EQ(in.columnAccess, ir.columnAccess);
        if (ir.access) {
            ASSERT_EQ(int(in.cmd), int(ir.cmd));
            ASSERT_EQ(in.dataStart, ir.dataStart);
            ASSERT_EQ(in.dataEnd, ir.dataEnd);
            issued += 1;
        } else {
            const dram::StallCause cr = r.sched->stallScan(now, r.stalls);
            const dram::StallCause cn = n.sched->stallScan(now, n.stalls);
            ASSERT_EQ(int(cn), int(cr));
            ASSERT_EQ(idOf(n.sched->lastStallVictim()),
                      idOf(r.sched->lastStallVictim()));
            r.stalls.accountSpan(0, now, 1, cr);
            n.stalls.accountSpan(0, now, 1, cn);
        }
        for (Side *s : {&r, &n})
            if (ir.columnAccess)
                (ir.access->isWrite() ? s->counts.writesOutstanding
                                      : s->counts.readsOutstanding) -= 1;
        ASSERT_EQ(n.sched->readCount(), r.sched->readCount());
        ASSERT_EQ(n.sched->writeCount(), r.sched->writeCount());
        ASSERT_EQ(n.sched->globalSignature(), r.sched->globalSignature());
    }

    std::ostringstream jr, jn;
    r.stalls.writeJson(jr);
    n.stalls.writeJson(jn);
    EXPECT_EQ(jn.str(), jr.str());
    EXPECT_EQ(n.sched->extraStats(), r.sched->extraStats());
    std::vector<std::uint32_t> rr, rw, nr, nw;
    r.sched->queueOccupancy(rr, rw);
    n.sched->queueOccupancy(nr, nw);
    EXPECT_EQ(nr, rr);
    EXPECT_EQ(nw, rw);
}

} // namespace

TEST(ContentionLockstep, EveryPolicyMatchesThePerBankQueueChassis)
{
    std::uint64_t relaxed = 0, issued = 0;
    for (ctrl::Mechanism m : kPolicies)
        for (bool wm : {false, true})
            for (std::uint32_t ranks : {1u, 2u})
                for (std::uint64_t seed : {1u, 2u}) {
                    const Config c{m, wm, ranks, seed, seed == 2,
                                   Tick(seed == 1 ? 8 : 0)};
                    lockstep(c, 6000, relaxed, issued);
                    if (HasFatalFailure())
                        return;
                }
    // The streams reach the cases the chassis must get right: plenty
    // of issues, and horizons where the chassis wakes later than the
    // reference's epoch and drain-gated pins.
    EXPECT_GT(issued, 20000u);
    EXPECT_GT(relaxed, 0u);
}
