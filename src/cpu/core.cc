#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "common/error.hh"

namespace bsim::cpu
{

namespace
{
/** Ring slots for @p cfg: robSize rounded up to a power of two, and at
 *  least one SlotSet word. */
std::size_t
ringSlots(const CoreConfig &cfg)
{
    if (cfg.robSize == 0 || cfg.robSize > kMaxRobSize)
        throwSimError(ErrorCategory::Config,
                      "core: robSize (%u) must be between 1 and %u",
                      cfg.robSize, kMaxRobSize);
    return std::max<std::size_t>(64, std::bit_ceil(cfg.robSize));
}
} // namespace

Core::Core(const CoreConfig &cfg, CacheHierarchy &mem,
           trace::TraceSource &trace)
    : cfg_(cfg), mem_(mem), trace_(trace), rob_(ringSlots(cfg)),
      robMask_(rob_.size() - 1), ready_(rob_.size()),
      parkedLoads_(rob_.size())
{
}

std::uint64_t
Core::nextIn(const SlotSet &set, std::uint64_t from) const
{
    if (set.empty())
        return nextSeq_;
    // [from, nextSeq_) covers at most the whole ring: the slots from
    // from's to the ring's end, then from slot 0.
    const std::uint64_t n = nextSeq_ - from;
    const std::size_t s = slotOf(from);
    const auto first =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, rob_.size() - s));
    const std::size_t t = set.next(s, s + first);
    if (t < s + first)
        return from + (t - s);
    const std::size_t rest = static_cast<std::size_t>(n - first);
    const std::size_t u = set.next(0, rest);
    return u < rest ? from + first + u : nextSeq_;
}

void
Core::wakeParkedLoads()
{
    if (parkedLoadsWoken())
        ready_.absorb(parkedLoads_);
}

void
Core::schedule(std::uint64_t seq, std::uint64_t at, std::uint64_t now)
{
    if (at <= now)
        ready_.insert(slotOf(seq));
    else
        timed_.push_back({at, seq});
}

void
Core::producerKnown(const RobEntry &p, std::uint64_t now)
{
    if (p.consumerSeq != kTickMax)
        schedule(p.consumerSeq, p.readyAt, now);
}

void
Core::park(RobEntry &e)
{
    if (e.parkedEpoch == kUnparked)
        parked_ += 1;
    e.parkedEpoch = mem_.wakeEpoch();
}

void
Core::unpark(RobEntry &e)
{
    if (e.parkedEpoch != kUnparked) {
        parked_ -= 1;
        e.parkedEpoch = kUnparked;
    }
}

bool
Core::startLoad(RobEntry &e, std::uint64_t now)
{
    // Dependence-chain loads gate further chain progress: mark their
    // fills critical so criticality-aware schedulers (Section 7) can
    // prioritize them inside bursts.
    const bool critical = e.producerSeq != kTickMax || e.isChainHead;
    const HierarchyResult r = mem_.access(e.addr, false, e.seq, critical);
    switch (r.outcome) {
      case CacheOutcome::L1Hit:
      case CacheOutcome::L2Hit:
        e.readyAt = now + r.latencyCpu;
        producerKnown(e, now);
        break;
      case CacheOutcome::Miss:
        break; // readyAt set by onMemResponse
      case CacheOutcome::Retry:
        // Parked loads share one epoch: wake any older ones first.
        wakeParkedLoads();
        park(e);
        parkedLoads_.insert(slotOf(e.seq));
        parkEpoch_ = e.parkedEpoch;
        return false;
    }
    unpark(e);
    return true;
}

void
Core::retire(std::uint64_t now)
{
    for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
        if (robEmpty())
            return;
        RobEntry &head = front();
        if (head.readyAt > now) {
            headStalls_ += 1;
            return;
        }
        if (head.op == trace::TraceInstr::Op::Store) {
            // Stores perform at retirement (store-buffer semantics). A
            // congested memory path stalls retirement here: this is how
            // write-queue saturation reaches the pipeline. A parked
            // store waits for a wake event instead of re-probing.
            if (parked(head) ||
                mem_.access(head.addr, true).outcome ==
                    CacheOutcome::Retry) {
                park(head);
                storeStalls_ += 1;
                return;
            }
            unpark(head);
            stores_ += 1;
        }
        if (head.op == trace::TraceInstr::Op::Load ||
            head.op == trace::TraceInstr::Op::Store) {
            memOpsInRob_ -= 1;
        }
        frontSeq_ += 1;
        retired_ += 1;
    }
}

void
Core::startPendingLoads(std::uint64_t now)
{
    wakeParkedLoads();
    std::erase_if(timed_, [&](const TimedLoad &t) {
        if (t.at > now)
            return false;
        ready_.insert(slotOf(t.seq));
        return true;
    });
    // A start can add members ahead of the cursor (a miss wakes parked
    // loads; a zero-latency hit readies its consumer): they start in
    // this scan. Members behind it wait for the next cycle.
    for (std::uint64_t seq = nextIn(ready_, frontSeq_); seq != nextSeq_;
         seq = nextIn(ready_, seq + 1)) {
        ready_.erase(slotOf(seq));
        if (startLoad(rob_[slotOf(seq)], now))
            wakeParkedLoads();
    }
}

void
Core::issue(std::uint64_t now)
{
    for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
        if (robOccupancy() >= cfg_.robSize)
            return;
        if (!lookaheadValid_) {
            if (traceEnded_ || !trace_.next(lookahead_)) {
                traceEnded_ = true;
                return;
            }
            lookaheadValid_ = true;
        }
        const trace::TraceInstr &in = lookahead_;
        const bool is_mem = in.op != trace::TraceInstr::Op::Compute;
        if (is_mem && memOpsInRob_ >= cfg_.lsqSize)
            return; // LSQ full

        RobEntry &e = rob_[slotOf(nextSeq_)];
        e = RobEntry{};
        e.op = in.op;
        e.addr = in.addr;
        e.seq = nextSeq_;
        switch (in.op) {
          case trace::TraceInstr::Op::Compute:
            e.readyAt = now + cfg_.computeLatency;
            break;
          case trace::TraceInstr::Op::Store:
            e.readyAt = now + cfg_.computeLatency;
            memOpsInRob_ += 1;
            break;
          case trace::TraceInstr::Op::Load:
            memOpsInRob_ += 1;
            loads_ += 1;
            if (in.depChain) {
                e.isChainHead = true;
                if (lastChainSeq_.size() <= in.chainId)
                    lastChainSeq_.resize(in.chainId + 1, kTickMax);
                const std::uint64_t prev = lastChainSeq_[in.chainId];
                if (prev != kTickMax && entryOf(prev))
                    e.producerSeq = prev;
                lastChainSeq_[in.chainId] = e.seq;
            }
            break;
        }
        nextSeq_ += 1;
        if (e.op == trace::TraceInstr::Op::Load) {
            // A load with a producer is first tried next cycle; one
            // without starts now or parks.
            if (e.producerSeq == kTickMax) {
                startLoad(e, now);
            } else {
                RobEntry &p = rob_[slotOf(e.producerSeq)];
                if (p.readyAt == kTickMax)
                    p.consumerSeq = e.seq;
                else
                    schedule(e.seq, p.readyAt, now);
            }
        }
        lookaheadValid_ = false;
    }
}

void
Core::cpuCycle(std::uint64_t now)
{
    retire(now);
    startPendingLoads(now);
    issue(now);
}

bool
Core::quiescentAt(std::uint64_t now) const
{
    // retire(): must stop without touching the hierarchy, at an unready
    // head or at a parked store (an unparked ready store would probe).
    if (robEmpty() || (front().readyAt <= now && !parked(front())))
        return false;
    // startPendingLoads(): no pending load may be able to start —
    // startLoad() would do a cache lookup, which counts a hit or miss
    // and moves LRU order. Parked loads are no-ops until the epoch
    // moves, and loads behind an unready producer until its data is in.
    if (!ready_.empty() || parkedLoadsWoken())
        return false;
    for (const TimedLoad &t : timed_)
        if (t.at <= now)
            return false;
    // issue(): must be blocked without consuming the trace — pulling
    // the next instruction advances the workload RNG.
    if (robOccupancy() >= cfg_.robSize)
        return true;
    if (lookaheadValid_)
        return lookahead_.op != trace::TraceInstr::Op::Compute &&
               memOpsInRob_ >= cfg_.lsqSize;
    return traceEnded_;
}

std::uint64_t
Core::nextLocalEventCpu(std::uint64_t now) const
{
    (void)now;
    // Quiescence ends when the head becomes ready or a blocked pending
    // load's producer does; both are readyAt timestamps already fixed.
    // Issue-side blocks (full ROB / LSQ) clear only through retirement,
    // which the head's readyAt already bounds. Loads behind a producer
    // still waiting on memory, and parked accesses (a parked store head
    // included), wait on events the System tracks.
    const RobEntry &head = front();
    std::uint64_t e = parked(head) ? kTickMax : head.readyAt;
    for (const TimedLoad &t : timed_)
        e = std::min(e, t.at);
    // Loads that can start already have a ready producer (none do while
    // quiescent); a live one bounds the answer all the same.
    const auto bound = [&](const SlotSet &set) {
        for (std::uint64_t seq = nextIn(set, frontSeq_); seq != nextSeq_;
             seq = nextIn(set, seq + 1))
            if (const RobEntry *p = entryOf(rob_[slotOf(seq)].producerSeq))
                e = std::min(e, p->readyAt);
    };
    bound(ready_);
    if (parkedLoadsWoken())
        bound(parkedLoads_);
    return e;
}

void
Core::onMemResponse(Addr block_addr, std::uint64_t now)
{
    for (std::uint64_t seq : mem_.onMemResponse(block_addr)) {
        RobEntry *e = entryOf(seq);
        if (e && e->readyAt == kTickMax) {
            e->readyAt = now;
            producerKnown(*e, now);
        }
    }
}

} // namespace bsim::cpu
