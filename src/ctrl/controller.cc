#include "ctrl/controller.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/log.hh"
#include "ctrl/schedulers/factory.hh"
#include "obs/observability.hh"
#include "obs/selfprof.hh"

namespace bsim::ctrl
{

namespace
{

/** Map a scheduler's horizon pin onto the wake-reason taxonomy. */
obs::WakeReason
reasonOf(HorizonPin pin)
{
    switch (pin) {
      case HorizonPin::ArbFill: return obs::WakeReason::SchedArbFill;
      case HorizonPin::Preempt: return obs::WakeReason::SchedPreempt;
      case HorizonPin::DrainFlip: return obs::WakeReason::SchedDrainFlip;
      case HorizonPin::Piggyback: return obs::WakeReason::SchedPiggyback;
      case HorizonPin::WriteDrain:
        return obs::WakeReason::SchedWriteDrain;
      case HorizonPin::Timing: return obs::WakeReason::SchedBound;
      case HorizonPin::Conservative:
        return obs::WakeReason::SchedConservative;
      case HorizonPin::None: break;
    }
    return obs::WakeReason::SchedBound;
}

} // namespace

SchedulerParams
ControllerConfig::schedulerParams() const
{
    SchedulerParams p;
    p.writeCap = writeCap;
    p.dynamicThreshold = dynamicThreshold;
    p.sortBurstsBySize = sortBurstsBySize;
    p.criticalFirst = criticalFirst;
    p.rankAware = rankAware;
    switch (mechanism) {
      case Mechanism::BkInOrder:
      case Mechanism::RowHit:
      case Mechanism::Intel:
      case Mechanism::Burst:
      case Mechanism::AdaptiveHistory:
        p.readPreemption = false;
        p.writePiggyback = false;
        p.threshold = writeCap; // unused
        break;
      case Mechanism::IntelRP:
        p.readPreemption = true;
        p.writePiggyback = false;
        p.threshold = writeCap; // preempt whenever not saturated
        break;
      case Mechanism::BurstRP:
        // Equivalent to Burst_TH with threshold == writeCap (Section 5.4).
        p.readPreemption = true;
        p.writePiggyback = false;
        p.threshold = writeCap;
        break;
      case Mechanism::BurstWP:
        // Equivalent to Burst_TH with threshold == 0.
        p.readPreemption = false;
        p.writePiggyback = true;
        p.threshold = 0;
        break;
      case Mechanism::BurstTH:
        p.readPreemption = true;
        p.writePiggyback = true;
        p.threshold = threshold;
        break;
      case Mechanism::FrFcfs:
      case Mechanism::Parbs:
      case Mechanism::Atlas:
      case Mechanism::Bliss:
        p.readPreemption = false;
        p.writePiggyback = false;
        p.threshold = writeCap; // unused
        p.watermarkDrain = watermarkDrain;
        break;
    }
    return p;
}

double
ControllerStats::rowHitRate() const
{
    const double n = double(rowHits + rowEmpties + rowConflicts);
    return ratio(double(rowHits), n);
}

double
ControllerStats::rowConflictRate() const
{
    const double n = double(rowHits + rowEmpties + rowConflicts);
    return ratio(double(rowConflicts), n);
}

double
ControllerStats::rowEmptyRate() const
{
    const double n = double(rowHits + rowEmpties + rowConflicts);
    return ratio(double(rowEmpties), n);
}

double
ControllerStats::writeSaturationRate() const
{
    return ratio(double(writeSatTicks), double(ticks));
}

MemoryController::MemoryController(dram::MemorySystem &mem,
                                   const ControllerConfig &cfg)
    : mem_(mem), cfg_(cfg)
{
    if (cfg_.writeCap > cfg_.poolCap)
        throwSimError(ErrorCategory::Config,
                      "controller: writeCap (%zu) exceeds poolCap (%zu)",
                      cfg_.writeCap, cfg_.poolCap);

    const auto &dcfg = mem_.config();
    stats_.bankRowHits.assign(std::size_t(dcfg.channels) *
                                  dcfg.ranksPerChannel * dcfg.banksPerRank,
                              0);
    stats_.bankRowAccesses.assign(stats_.bankRowHits.size(), 0);
    for (std::uint32_t ch = 0; ch < dcfg.channels; ++ch) {
        SchedulerContext ctx;
        ctx.mem = &mem_;
        ctx.channel = ch;
        ctx.global = &counts_;
        ctx.params = cfg_.schedulerParams();
        auto sched = cfg_.schedulerFactory
                         ? cfg_.schedulerFactory(cfg_.mechanism, ctx)
                         : makeScheduler(cfg_.mechanism, ctx);
        if (!sched)
            throwSimError(ErrorCategory::Config,
                          "controller: scheduler factory returned null "
                          "for channel %u",
                          ch);
        schedulers_.push_back(std::move(sched));
    }

    schedMemo_.resize(dcfg.channels);
    stallMemo_.resize(dcfg.channels);
    chanVersion_.assign(dcfg.channels, 1);

    // Stagger per-rank refresh deadlines so refreshes do not align.
    const Tick trefi = dcfg.timing.tREFI;
    const std::uint32_t ranks = dcfg.ranksPerChannel;
    for (std::size_t i = 0; i < std::size_t(dcfg.channels) * ranks; ++i)
        refreshDue_.push_back(trefi + Tick(i % ranks) * (trefi / ranks));
    refreshNext_.assign(dcfg.channels, trefi);
}

MemoryController::~MemoryController() = default;

obs::EngineIntrospect *
MemoryController::intro() const
{
    return obs_ ? obs_->introspect() : nullptr;
}

bool
MemoryController::canAccept() const
{
    if (counts_.writesOutstanding >= cfg_.writeCap)
        return false; // saturated write queue blocks all admission
    if (inflightCount_ >= cfg_.poolCap)
        return false;
    return true;
}

MemAccess *
MemoryController::allocAccess()
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        pool_[slot] = MemAccess{};
    } else {
        slot = std::uint32_t(pool_.size());
        pool_.emplace_back();
    }
    MemAccess *a = &pool_[slot];
    a->poolSlot = slot;
    inflightCount_ += 1;
    return a;
}

void
MemoryController::freeAccess(MemAccess *a)
{
    freeSlots_.push_back(a->poolSlot);
    inflightCount_ -= 1;
}

void
MemoryController::refreshEngineFlags()
{
    for (auto &s : schedulers_) {
        s->setEventDriven(eventDriven_);
        s->setHorizonMemo(cfg_.horizonMemo);
    }
}

std::uint64_t
MemoryController::submit(AccessType type, Addr addr, Tick now,
                         const std::uint8_t *data, std::uint64_t tag,
                         bool critical)
{
    if (!canAccept())
        panic("submit() while controller cannot accept");

    if (obs::EngineIntrospect *in = intro())
        in->noteMemoInvalidate();

    MemAccess *a = allocAccess();
    a->id = nextId_++;
    a->type = type;
    a->addr = mem_.addressMap().blockBase(addr);
    a->coords = mem_.addressMap().decode(a->addr);
    a->arrival = now;
    a->tag = tag;
    a->critical = critical && type == AccessType::Read;
    chanVersion_[a->coords.channel] += 1; // this channel's queue changes

    Scheduler &sched = *schedulers_[a->coords.channel];

    if (type == AccessType::Read) {
        counts_.readsOutstanding += 1;
        if (MemAccess *w = sched.findWrite(a->addr)) {
            // Write queue hit: forward the latest write's data; the read
            // completes without touching the SDRAM device (Figure 4).
            (void)w;
            a->forwarded = true;
            a->dataEnd = now + cfg_.forwardLatency;
            pendingReads_.emplace(a->dataEnd, a);
        } else {
            sched.enqueue(a);
        }
    } else {
        if (cfg_.coalesceWrites && sched.findWrite(a->addr)) {
            // Merge into the queued write: the backing store gets the
            // newer payload; the older queue entry carries it to DRAM.
            if (data)
                mem_.store().write(a->addr, data);
            stats_.coalescedWrites += 1;
            const std::uint64_t id = a->id;
            freeAccess(a);
            return id;
        }
        counts_.writesOutstanding += 1;
        if (data) {
            // Writes are complete from the CPU's perspective on admission;
            // commit the payload now (single-requestor ordering holds: the
            // cache hierarchy never issues a read that must bypass an
            // older in-flight write without hitting the write queue).
            mem_.store().write(a->addr, data);
        }
        sched.enqueue(a);
    }
    if (obs_)
        obs_->admit(*a);
    return a->id;
}

void
MemoryController::tick(Tick now)
{
    completeReads(now);
    sampleOccupancy();

    for (std::uint32_t ch = 0; ch < mem_.numChannels(); ++ch) {
        SchedMemo &memo = schedMemo_[ch];
        {
            obs::prof::Scope prof(obs::prof::Phase::RefreshEngine);
            if (refreshWalk(ch, now, this) == now) {
                // Refresh engine used this channel's command slot; the
                // command bumped the channel's epoch.
                if (obs::EngineIntrospect *in = intro())
                    in->noteMemoInvalidate();
                if (obs_)
                    obs_->refreshSlot(ch, now);
                continue;
            }
        }
        if (eventDriven_ && memoValid(ch) && now < memo.until) {
            // Horizon contract: nothing can issue and no arbitration
            // move is possible strictly before memo.until, so a full
            // scan would be a no-op apart from the idempotent idle-tick
            // effect — replay just that.
            if (obs::EngineIntrospect *in = intro())
                in->noteMemoHit();
            schedulers_[ch]->onIdleSpan(now, 1);
            if (obs_)
                accountIdle(ch, now, 1);
            continue;
        }
        Scheduler::Issued issued;
        {
            obs::prof::Scope prof(obs::prof::Phase::SchedPick);
            issued = schedulers_[ch]->tick(now);
        }
        if (issued.access) {
            if (obs_)
                obs_->issue(ch, now, *issued.access, issued.columnAccess,
                            issued.dataStart, issued.dataEnd);
            if (obs::EngineIntrospect *in = intro())
                in->noteMemoInvalidate();
            handleIssued(issued);
            continue;
        }
        if (obs_)
            accountIdle(ch, now, 1);
        if (eventDriven_) {
            rememo(ch, now);
            // The stall scan just taken saw the state this memo proves.
            stallMemo_[ch].gen = memo.gen;
        }
    }

    stats_.ticks += 1;

    if (obs_ && obs_->nextEpochEnd(now) == now)
        sampleMetrics(now);
}

Tick
MemoryController::nextEventTick(Tick now, obs::WakeSource *src) const
{
    Tick horizon = kTickMax;
    // First minimum wins, in scan order — attribution must never move
    // the computed horizon, only label it.
    const auto consider = [&](Tick t, obs::WakeReason r,
                              std::int32_t ch = -1) {
        if (t < horizon) {
            horizon = t;
            if (src) {
                src->reason = r;
                src->channel = ch;
            }
        }
    };

    if (!pendingReads_.empty())
        consider(pendingReads_.begin()->first,
                 obs::WakeReason::PendingData);

    for (std::uint32_t ch = 0;
         ch < mem_.numChannels() && horizon > now; ++ch)
        consider(refreshWalk(ch, now, nullptr), obs::WakeReason::Refresh,
                 std::int32_t(ch));

    for (std::uint32_t ch = 0;
         ch < mem_.numChannels() && horizon > now; ++ch)
        consider(schedHorizon(ch, now), reasonOf(schedMemo_[ch].pin),
                 std::int32_t(ch));

    if (obs_ && horizon > now)
        // The epoch-boundary tick must run for real so its snapshot row
        // is emitted at the same tick as in the step engine.
        consider(obs_->nextEpochEnd(now), obs::WakeReason::MetricsEpoch);
    return horizon;
}

Tick
MemoryController::schedHorizon(std::uint32_t channel, Tick now) const
{
    // The memo stays valid while nothing the scheduler's decision
    // depends on has changed: the device epoch covers the channel's
    // timing state, the version stamp its queue contents and the
    // signature the global-count bands. A bound that has expired
    // (until <= now) forces a recomputation.
    const SchedMemo &memo = schedMemo_[channel];
    if (!memoValid(channel) || memo.until <= now)
        rememo(channel, now);
    else if (obs::EngineIntrospect *in = intro())
        in->noteMemoHit();
    return memo.until;
}

void
MemoryController::rememo(std::uint32_t channel, Tick now) const
{
    SchedMemo &m = schedMemo_[channel];
    const Scheduler &sched = *schedulers_[channel];
    m.until = sched.nextEventTick(now);
    m.pin = sched.lastHorizonPin();
    m.epoch = mem_.epoch(channel);
    m.version = chanVersion_[channel];
    m.signature = sched.globalSignature();
    m.gen += 1;
    if (obs::EngineIntrospect *in = intro())
        in->noteMemoMiss();
}

void
MemoryController::tickSpan(Tick from, Tick span)
{
    stats_.outstandingReads.sample(counts_.readsOutstanding, span);
    stats_.outstandingWrites.sample(counts_.writesOutstanding, span);
    if (counts_.writesOutstanding >= cfg_.writeCap)
        stats_.writeSatTicks += span;

    for (std::uint32_t ch = 0; ch < mem_.numChannels(); ++ch) {
        schedulers_[ch]->onIdleSpan(from, span);
        if (obs_)
            accountIdle(ch, from, span);
    }

    stats_.ticks += span;
}

void
MemoryController::accountIdle(std::uint32_t channel, Tick from, Tick span)
{
    obs::StallAttribution *st = obs_->stalls();
    if (!st)
        return;
    // Across idle ticks nothing issues and no policy event fires (the
    // horizon wakes for those), so a scan's inputs change only where a
    // device cause it probed expires or flips: its result stands for
    // every tick before the earliest such causeUntil, exactly as the
    // step engine would compute it tick by tick. It also stands across
    // stepped ticks while the channel's horizon memo is the one it was
    // taken under, since nothing on the channel moves before memo.until.
    const Scheduler &sched = *schedulers_[channel];
    const SchedMemo &memo = schedMemo_[channel];
    StallMemo &sm = stallMemo_[channel];
    const Tick end = from + span;
    for (Tick t = from; t < end;) {
        if (sm.gen == memo.gen && memoValid(channel) && t < memo.until &&
            t < sm.until) {
            st->replayScan(channel);
        } else {
            obs::prof::Scope prof(obs::prof::Phase::StallScan);
            sm.cause = sched.stallScan(t, *st);
            sm.victim = sched.lastStallVictim();
            sm.until = std::max(st->scanUntil(), t + 1);
            sm.gen = memoValid(channel) ? memo.gen : 0;
        }
        const Tick until = std::min(sm.until, end);
        obs_->idleSpan(channel, t, until - t, sm.cause, sm.victim);
        t = until;
    }
}

void
MemoryController::completeReads(Tick now)
{
    while (!pendingReads_.empty() && pendingReads_.begin()->first <= now) {
        MemAccess *a = pendingReads_.begin()->second;
        pendingReads_.erase(pendingReads_.begin());

        stats_.reads += 1;
        stats_.readLatency.sample(double(a->dataEnd - a->arrival));
        if (a->forwarded) {
            stats_.forwardedReads += 1;
        } else {
            stats_.bytesTransferred += mem_.config().blockBytes;
        }
        counts_.readsOutstanding -= 1;

        if (obs_)
            obs_->complete(*a);
        if (readCb_)
            readCb_(*a, now);
        finishAccess(a);
    }
}

void
MemoryController::sampleOccupancy()
{
    stats_.outstandingReads.sample(counts_.readsOutstanding);
    stats_.outstandingWrites.sample(counts_.writesOutstanding);
    if (counts_.writesOutstanding >= cfg_.writeCap)
        stats_.writeSatTicks += 1;
}

inline Tick
MemoryController::refreshWalk(std::uint32_t channel, Tick now,
                              MemoryController *apply) const
{
    const auto &dcfg = mem_.config();
    Tick first = kTickMax;
    if (!dcfg.timing.tREFI)
        return first;
    // No rank due: the walk would only take the earliest deadline.
    if (now < refreshNext_[channel])
        return refreshNext_[channel];
    for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
        // A rank's gate closes at or after its deadline and opens as
        // the deadline moves on, so a rank not yet due is not draining.
        const Tick due = refreshDue_[channel * dcfg.ranksPerChannel + r];
        if (now < due) {
            first = std::min(first, due);
            continue;
        }
        dram::Coords c{channel, r};
        if (!mem_.refreshDraining(channel, r)) {
            // Closing the gate bumps the channel's epoch, so it is a
            // move of its own even when the rank can do nothing else.
            if (!apply)
                return due;
            apply->applyRefresh(RefreshMove::CloseGate, c, now);
        }
        // Precharge any open bank; then refresh the rank (RefreshAll's
        // readyAt is kTickMax while a bank is open). A command takes
        // the slot and ends the walk.
        const auto issues = [&](RefreshMove m, dram::CmdType type) {
            const Tick at = mem_.readyAt({type, c, 0}, now);
            if (at <= now && apply)
                apply->applyRefresh(m, c, now);
            first = std::min(first, at);
            return at <= now;
        };
        if (issues(RefreshMove::Refresh, dram::CmdType::RefreshAll))
            return now;
        for (c.bank = 0; c.bank < dcfg.banksPerRank; ++c.bank)
            if (mem_.bank(c).isOpen() &&
                issues(RefreshMove::Precharge, dram::CmdType::Precharge))
                return now;
        // This rank's refresh is pending but blocked by timing; do not
        // let a lower-priority rank steal the slot for its refresh, but
        // do allow the scheduler to keep other ranks busy.
        return first;
    }
    return first;
}

void
MemoryController::applyRefresh(RefreshMove m, const dram::Coords &at,
                               Tick now)
{
    const auto &dcfg = mem_.config();
    switch (m) {
      case RefreshMove::CloseGate:
        // The drain gate bars the scheduler from re-activating banks
        // the engine closes — without it a busy burst scheduler
        // re-opens rows as fast as they are precharged and the refresh
        // starves forever (watchdog livelock: ACT/PRE ping-pong,
        // nothing retires).
        mem_.setRefreshDrain(at.channel, at.rank, true);
        if (obs::EngineIntrospect *in = intro())
            in->noteMemoInvalidate();
        return;
      case RefreshMove::Refresh: {
        mem_.issue({dram::CmdType::RefreshAll, at, 0}, now);
        const auto due =
            refreshDue_.begin() + at.channel * dcfg.ranksPerChannel;
        due[at.rank] += dcfg.timing.tREFI;
        refreshNext_[at.channel] =
            *std::min_element(due, due + dcfg.ranksPerChannel);
        stats_.refreshes += 1;
        mem_.setRefreshDrain(at.channel, at.rank, false);
        return;
      }
      case RefreshMove::Precharge:
        mem_.issue({dram::CmdType::Precharge, at, 0}, now);
        return;
    }
}

void
MemoryController::handleIssued(const Scheduler::Issued &issued)
{
    MemAccess *a = issued.access;
    if (!issued.columnAccess)
        return;

    // The access's transactions are now fully scheduled: account for the
    // row outcome and route the completion.
    switch (a->outcome) {
      case dram::RowOutcome::Hit: stats_.rowHits += 1; break;
      case dram::RowOutcome::Empty: stats_.rowEmpties += 1; break;
      case dram::RowOutcome::Conflict: stats_.rowConflicts += 1; break;
    }
    const auto &dcfg = mem_.config();
    const std::size_t flat_bank =
        (std::size_t(a->coords.channel) * dcfg.ranksPerChannel +
         a->coords.rank) *
            dcfg.banksPerRank +
        a->coords.bank;
    stats_.bankRowAccesses[flat_bank] += 1;
    if (a->outcome == dram::RowOutcome::Hit)
        stats_.bankRowHits[flat_bank] += 1;

    if (a->isRead()) {
        pendingReads_.emplace(a->dataEnd, a);
    } else {
        stats_.writes += 1;
        stats_.writeLatency.sample(double(a->dataEnd - a->arrival));
        stats_.bytesTransferred += mem_.config().blockBytes;
        counts_.writesOutstanding -= 1;
        if (obs_)
            obs_->complete(*a);
        finishAccess(a);
    }
}

void
MemoryController::finishAccess(MemAccess *a)
{
    // Completions change only the global counts; the memo signatures
    // capture the band crossings global schedulers actually react to,
    // so no blanket invalidation is needed here.
    freeAccess(a);
}

bool
MemoryController::busy() const
{
    if (!pendingReads_.empty())
        return true;
    for (const auto &s : schedulers_)
        if (s->hasWork())
            return true;
    return false;
}

void
MemoryController::attachObservability(obs::Observability *o)
{
    obs_ = o;
    for (auto &s : schedulers_) {
        s->setAuditor(o ? o->auditor() : nullptr);
        s->setIntrospect(intro());
    }
    refreshEngineFlags();
}

void
MemoryController::sampleMetrics(Tick now)
{
    obs::prof::Scope prof(obs::prof::Phase::ObsExport);
    obs::MetricsSnapshot s;
    s.now = now;
    s.dataBusyCycles = mem_.dataBusyCycles();
    s.cmdBusyCycles = mem_.cmdBusyCycles();
    s.rowHits = stats_.rowHits;
    s.rowEmpties = stats_.rowEmpties;
    s.rowConflicts = stats_.rowConflicts;
    s.readsCompleted = stats_.reads;
    s.writesCompleted = stats_.writes;

    const auto sched = schedulerStats();
    if (auto it = sched.find("bursts_formed"); it != sched.end())
        s.burstsFormed = it->second;
    if (auto it = sched.find("burst_joins"); it != sched.end())
        s.burstJoins = it->second;

    s.channels = mem_.numChannels();
    s.readsOutstanding = counts_.readsOutstanding;
    s.writesOutstanding = counts_.writesOutstanding;
    const SchedulerParams params = cfg_.schedulerParams();
    s.rpActive = params.readPreemption &&
                 counts_.writesOutstanding < params.threshold;
    s.wpActive = params.writePiggyback &&
                 counts_.writesOutstanding > params.threshold;

    for (const auto &sc : schedulers_)
        sc->queueOccupancy(s.bankReadQ, s.bankWriteQ);

    s.bankRowHits = stats_.bankRowHits;
    s.bankRowAccesses = stats_.bankRowAccesses;
    obs_->epoch(s);
}

void
MemoryController::flushMetrics(Tick end)
{
    if (!obs_)
        return;
    obs_->flush();
    if (end && obs_->sampler())
        sampleMetrics(end - 1);
}

std::map<std::string, double>
MemoryController::schedulerStats() const
{
    std::map<std::string, double> merged;
    for (const auto &s : schedulers_)
        for (const auto &[k, v] : s->extraStats())
            merged[k] += v;
    return merged;
}

std::string
MemoryController::progressSnapshot(Tick now) const
{
    const auto &dcfg = mem_.config();
    char line[160];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "controller @%llu: pool %zu/%zu (reads %zu, writes "
                  "%zu), pending data transfers %zu, completed r/w/fwd "
                  "%llu/%llu/%llu",
                  static_cast<unsigned long long>(now), inflightCount_,
                  cfg_.poolCap, counts_.readsOutstanding,
                  counts_.writesOutstanding, pendingReads_.size(),
                  static_cast<unsigned long long>(stats_.reads),
                  static_cast<unsigned long long>(stats_.writes),
                  static_cast<unsigned long long>(stats_.forwardedReads));
    out += line;
    if (!pendingReads_.empty()) {
        std::snprintf(line, sizeof(line),
                      "\n  next data completion @%llu",
                      static_cast<unsigned long long>(
                          pendingReads_.begin()->first));
        out += line;
    }
    for (std::uint32_t ch = 0; ch < schedulers_.size(); ++ch) {
        const Scheduler &s = *schedulers_[ch];
        const Tick ev = s.nextEventTick(now);
        std::snprintf(line, sizeof(line),
                      "\n  ch%u: queued reads %zu, writes %zu, "
                      "hasWork %d, nextEvent %s",
                      ch, s.readCount(), s.writeCount(),
                      int(s.hasWork()),
                      ev == kTickMax
                          ? "idle"
                          : std::to_string(
                                static_cast<unsigned long long>(ev))
                                .c_str());
        out += line;
        for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
            std::snprintf(line, sizeof(line),
                          "\n    rank%u: refresh %s, next due @%llu", r,
                          mem_.refreshDraining(ch, r) ? "PENDING" : "idle",
                          static_cast<unsigned long long>(
                              refreshDue_[ch * dcfg.ranksPerChannel + r]));
            out += line;
            for (std::uint32_t b = 0; b < dcfg.banksPerRank; ++b) {
                const dram::Bank &bank =
                    mem_.bank({ch, r, b, 0, 0});
                if (!bank.isOpen())
                    continue;
                std::snprintf(line, sizeof(line),
                              "\n      bank%u: open row %u (act>=%llu "
                              "pre>=%llu rd>=%llu wr>=%llu)",
                              b, bank.openRow(),
                              static_cast<unsigned long long>(
                                  bank.actAllowedAt()),
                              static_cast<unsigned long long>(
                                  bank.preAllowedAt()),
                              static_cast<unsigned long long>(
                                  bank.rdAllowedAt()),
                              static_cast<unsigned long long>(
                                  bank.wrAllowedAt()));
                out += line;
            }
        }
    }
    return out;
}

} // namespace bsim::ctrl
