#include "cpu/core.hh"

#include "common/log.hh"

namespace bsim::cpu
{

Core::Core(const CoreConfig &cfg, CacheHierarchy &mem,
           trace::TraceSource &trace)
    : cfg_(cfg), mem_(mem), trace_(trace)
{
}

Core::RobEntry *
Core::entryOf(std::uint64_t seq)
{
    if (seq < frontSeq_ || seq >= frontSeq_ + rob_.size())
        return nullptr;
    return &rob_[seq - frontSeq_];
}

const Core::RobEntry *
Core::entryOf(std::uint64_t seq) const
{
    if (seq < frontSeq_ || seq >= frontSeq_ + rob_.size())
        return nullptr;
    return &rob_[seq - frontSeq_];
}

bool
Core::producerReady(const RobEntry &e, std::uint64_t now) const
{
    if (e.producerSeq == kTickMax)
        return true;
    const RobEntry *p = entryOf(e.producerSeq);
    if (!p)
        return true; // producer already retired, hence long since ready
    return p->readyAt <= now;
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
        break;
      case CacheOutcome::Miss:
        break; // readyAt set by onMemResponse
      case CacheOutcome::Retry:
        park(e);
        return false;
    }
    e.started = true;
    unpark(e);
    return true;
}

void
Core::retire(std::uint64_t now)
{
    for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
        if (rob_.empty())
            return;
        RobEntry &head = rob_.front();
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
        rob_.pop_front();
        frontSeq_ += 1;
        retired_ += 1;
    }
}

void
Core::startPendingLoads(std::uint64_t now)
{
    for (std::size_t n = pendingLoads_.size(); n > 0; --n) {
        const std::uint64_t seq = pendingLoads_.front();
        pendingLoads_.pop_front();
        RobEntry *e = entryOf(seq);
        if (!e || e->started)
            continue;
        if (parked(*e) || !producerReady(*e, now) || !startLoad(*e, now))
            pendingLoads_.push_back(seq); // retry next cycle
    }
}

void
Core::issue(std::uint64_t now)
{
    for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
        if (rob_.size() >= cfg_.robSize)
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

        RobEntry e;
        e.op = in.op;
        e.addr = in.addr;
        e.seq = nextSeq_++;
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
        rob_.push_back(e);
        if (in.op == trace::TraceInstr::Op::Load) {
            RobEntry &placed = rob_.back();
            if (placed.producerSeq != kTickMax || !startLoad(placed, now))
                pendingLoads_.push_back(placed.seq);
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
    if (rob_.empty() ||
        (rob_.front().readyAt <= now && !parked(rob_.front())))
        return false;
    // startPendingLoads(): no live, unparked pending load may have a
    // ready producer — startLoad() would do a cache lookup, which
    // counts a hit or miss and moves LRU order. Stale entries (retired
    // producer window or already started) and parked loads are no-ops;
    // stale ones are dropped lazily at the next real cycle, which
    // preserves the live entries' relative order.
    for (std::uint64_t seq : pendingLoads_) {
        const RobEntry *e = entryOf(seq);
        if (!e || e->started || parked(*e))
            continue;
        if (producerReady(*e, now))
            return false;
    }
    // issue(): must be blocked without consuming the trace — pulling
    // the next instruction advances the workload RNG.
    if (rob_.size() >= cfg_.robSize)
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
    // which the head's readyAt already bounds. kTickMax entries wait on
    // a memory response, and parked accesses (a parked store head
    // included) on a hierarchy wake event; the System tracks both.
    const RobEntry &head = rob_.front();
    std::uint64_t e = parked(head) ? kTickMax : head.readyAt;
    for (std::uint64_t seq : pendingLoads_) {
        const RobEntry *pe = entryOf(seq);
        if (!pe || pe->started || parked(*pe) ||
            pe->producerSeq == kTickMax)
            continue;
        const RobEntry *p = entryOf(pe->producerSeq);
        if (p && p->readyAt < e)
            e = p->readyAt;
    }
    return e;
}

void
Core::onMemResponse(Addr block_addr, std::uint64_t now)
{
    for (std::uint64_t seq : mem_.onMemResponse(block_addr)) {
        RobEntry *e = entryOf(seq);
        if (!e)
            continue;
        if (e->readyAt == kTickMax)
            e->readyAt = now;
    }
}

} // namespace bsim::cpu
