#include "cpu/cache_hierarchy.hh"

namespace bsim::cpu
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &cfg, MemPort &port)
    : cfg_(cfg), port_(port), l1d_(cfg.l1d), l2_(cfg.l2)
{
}

void
CacheHierarchy::fillL1(Addr block, bool dirty)
{
    const Eviction ev = l1d_.insert(block, dirty);
    if (ev.valid && ev.dirty) {
        // Dirty L1 victim folds into L2 (writeback between cache levels,
        // no main-memory traffic); its own L2 victim may spill to memory.
        const Eviction l2ev = l2_.insert(ev.addr, true);
        if (l2ev.valid && l2ev.dirty) {
            port_.sendWrite(l2ev.addr);
            memWrites_ += 1;
        }
    }
}

HierarchyResult
CacheHierarchy::access(Addr addr, bool is_write, std::uint64_t waiter,
                       bool critical)
{
    const Addr block = blockBase(addr);

    // An in-flight fill for this block: merge and wait for its response.
    if (auto it = mshr_.find(block); it != mshr_.end()) {
        if (waiter != kNoWaiter)
            it->second.push_back(waiter);
        mshrMerges_ += 1;
        // A store merging into a fill dirties the L1 line (present in tag
        // state already or soon; mark on the L1 copy if present).
        if (is_write && l1d_.contains(block))
            l1d_.access(block, true);
        return {CacheOutcome::Miss, 0};
    }

    // A miss needs a fill: an MSHR and queue slots for the read plus,
    // worst case, one L2 writeback. Without them a block absent from
    // both levels is a Retry, decided before any counted lookup.
    const bool can_fill = mshr_.size() < cfg_.mshrs && port_.canSend(2);
    if (!can_fill && !l1d_.contains(block) && !l2_.contains(block))
        return {CacheOutcome::Retry, 0};

    if (l1d_.access(block, is_write))
        return {CacheOutcome::L1Hit, cfg_.l1LatencyCpu};

    if (l2_.access(block, false)) {
        // L2 hit: fill L1 (write-allocate for stores).
        fillL1(block, is_write);
        return {CacheOutcome::L2Hit, cfg_.l2LatencyCpu};
    }

    // L2 miss: a main-memory read (fill). Every counted L2 miss
    // allocates exactly one MSHR, so l2().misses() == memReads().
    auto &waiters = mshr_[block];
    if (waiter != kNoWaiter)
        waiters.push_back(waiter);
    wakeEpoch_ += 1; // later accesses to this block can now merge

    port_.sendRead(block, critical);
    memReads_ += 1;

    // Update tag state now; the MSHR keeps dependents honest about when
    // data actually arrives.
    const Eviction l2ev = l2_.insert(block, false);
    if (l2ev.valid && l2ev.dirty) {
        port_.sendWrite(l2ev.addr);
        memWrites_ += 1;
    }
    fillL1(block, is_write);
    return {CacheOutcome::Miss, 0};
}

void
CacheHierarchy::prefill(Addr block, bool dirty, bool also_l1)
{
    block = blockBase(block);
    (void)l2_.insert(block, dirty); // warmup evictions carry no traffic
    if (also_l1)
        (void)l1d_.insert(block, dirty);
}

std::vector<std::uint64_t>
CacheHierarchy::onMemResponse(Addr block_addr)
{
    auto it = mshr_.find(block_addr);
    if (it == mshr_.end())
        return {};
    std::vector<std::uint64_t> waiters = std::move(it->second);
    mshr_.erase(it);
    wakeEpoch_ += 1; // a freed MSHR may let a parked miss proceed
    return waiters;
}

} // namespace bsim::cpu
