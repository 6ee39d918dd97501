/**
 * @file
 * Lockstep tests of the CPU side against test-only references that keep
 * the straightforward designs the model started from:
 *  - ref::Cache stores each way as a {tag, valid, dirty, lastUse} line
 *    and walks a set twice per insert;
 *  - ref::Core keeps the ROB in a deque and rescans every pending load
 *    each cycle, in seq order.
 * The real Cache (flat sets) and Core (ROB ring, pending loads indexed
 * by what they wait on) must match them call for call.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "cpu/cache.hh"
#include "cpu/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "trace/instr.hh"

using namespace bsim;
using namespace bsim::cpu;
using trace::TraceInstr;

namespace ref
{

/** Set-associative cache over an array of lines, true LRU. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg)
        : cfg_(cfg), setMask_(cfg.numSets() - 1),
          offsetBits_(log2(cfg.blockBytes)), setBits_(log2(cfg.numSets())),
          lines_(cfg.numSets() * cfg.assoc)
    {
    }

    bool
    access(Addr addr, bool is_write)
    {
        Line *base = &lines_[setOf(addr) * cfg_.assoc];
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tagOf(addr)) {
                l.lastUse = ++useClock_;
                if (is_write)
                    l.dirty = true;
                hits_ += 1;
                return true;
            }
        }
        misses_ += 1;
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const Line *base = &lines_[setOf(addr) * cfg_.assoc];
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w)
            if (base[w].valid && base[w].tag == tagOf(addr))
                return true;
        return false;
    }

    Eviction
    insert(Addr addr, bool dirty)
    {
        const std::uint64_t set = setOf(addr);
        const Addr tag = tagOf(addr);
        Line *base = &lines_[set * cfg_.assoc];
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lastUse = ++useClock_;
                l.dirty = l.dirty || dirty;
                return {};
            }
        }
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Line &l = base[w];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (!victim || l.lastUse < victim->lastUse)
                victim = &l;
        }
        Eviction ev;
        if (victim->valid) {
            ev.valid = true;
            ev.dirty = victim->dirty;
            ev.addr = rebuild(set, victim->tag);
            if (victim->dirty)
                writebacks_ += 1;
        }
        victim->valid = true;
        victim->dirty = dirty;
        victim->tag = tag;
        victim->lastUse = ++useClock_;
        return ev;
    }

    Eviction
    invalidate(Addr addr)
    {
        const std::uint64_t set = setOf(addr);
        Line *base = &lines_[set * cfg_.assoc];
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tagOf(addr)) {
                Eviction ev{true, l.dirty, rebuild(set, l.tag)};
                l.valid = false;
                l.dirty = false;
                return ev;
            }
        }
        return {};
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    static std::uint32_t
    log2(std::uint64_t v)
    {
        std::uint32_t b = 0;
        while ((std::uint64_t(1) << b) < v)
            ++b;
        return b;
    }
    std::uint64_t setOf(Addr a) const { return (a >> offsetBits_) & setMask_; }
    Addr tagOf(Addr a) const { return a >> (offsetBits_ + setBits_); }
    Addr
    rebuild(std::uint64_t set, Addr tag) const
    {
        return (tag << (offsetBits_ + setBits_)) | (set << offsetBits_);
    }

    CacheConfig cfg_;
    std::uint64_t setMask_;
    std::uint32_t offsetBits_;
    std::uint32_t setBits_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/** The out-of-order core over a deque ROB, rescanning every pending
 *  load each cycle. Same interface and semantics as cpu::Core. */
class Core
{
  public:
    Core(const CoreConfig &cfg, CacheHierarchy &mem,
         trace::TraceSource &trace)
        : cfg_(cfg), mem_(mem), trace_(trace)
    {
    }

    void
    cpuCycle(std::uint64_t now)
    {
        retire(now);
        startPendingLoads(now);
        issue(now);
    }

    void
    onMemResponse(Addr block_addr, std::uint64_t now)
    {
        for (std::uint64_t seq : mem_.onMemResponse(block_addr)) {
            RobEntry *e = entryOf(seq);
            if (e && e->readyAt == kTickMax)
                e->readyAt = now;
        }
    }

    bool done() const { return traceEnded_ && rob_.empty(); }
    std::uint64_t retired() const { return retired_; }
    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t headStallCycles() const { return headStalls_; }
    std::uint64_t storeStallCycles() const { return storeStalls_; }
    std::size_t robOccupancy() const { return rob_.size(); }
    bool hasParkedAccess() const { return parked_ > 0; }

    bool
    quiescentAt(std::uint64_t now) const
    {
        if (rob_.empty() ||
            (rob_.front().readyAt <= now && !parked(rob_.front())))
            return false;
        for (std::uint64_t seq : pendingLoads_) {
            const RobEntry *e = entryOf(seq);
            if (!e || e->started || parked(*e))
                continue;
            if (producerReady(*e, now))
                return false;
        }
        if (rob_.size() >= cfg_.robSize)
            return true;
        if (lookaheadValid_)
            return lookahead_.op != TraceInstr::Op::Compute &&
                   memOpsInRob_ >= cfg_.lsqSize;
        return traceEnded_;
    }

    std::uint64_t
    nextLocalEventCpu(std::uint64_t) const
    {
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

  private:
    static constexpr std::uint64_t kUnparked = ~std::uint64_t{0};

    struct RobEntry
    {
        TraceInstr::Op op;
        Addr addr = 0;
        std::uint64_t seq = 0;
        std::uint64_t readyAt = kTickMax;
        std::uint64_t producerSeq = kTickMax;
        bool started = false;
        bool isChainHead = false;
        std::uint64_t parkedEpoch = kUnparked;
    };

    bool
    parked(const RobEntry &e) const
    {
        return e.parkedEpoch == mem_.wakeEpoch();
    }

    void
    park(RobEntry &e)
    {
        if (e.parkedEpoch == kUnparked)
            parked_ += 1;
        e.parkedEpoch = mem_.wakeEpoch();
    }

    void
    unpark(RobEntry &e)
    {
        if (e.parkedEpoch != kUnparked) {
            parked_ -= 1;
            e.parkedEpoch = kUnparked;
        }
    }

    const RobEntry *
    entryOf(std::uint64_t seq) const
    {
        if (seq < frontSeq_ || seq >= frontSeq_ + rob_.size())
            return nullptr;
        return &rob_[seq - frontSeq_];
    }
    RobEntry *
    entryOf(std::uint64_t seq)
    {
        if (seq < frontSeq_ || seq >= frontSeq_ + rob_.size())
            return nullptr;
        return &rob_[seq - frontSeq_];
    }

    bool
    producerReady(const RobEntry &e, std::uint64_t now) const
    {
        if (e.producerSeq == kTickMax)
            return true;
        const RobEntry *p = entryOf(e.producerSeq);
        return !p || p->readyAt <= now;
    }

    bool
    startLoad(RobEntry &e, std::uint64_t now)
    {
        const bool critical = e.producerSeq != kTickMax || e.isChainHead;
        const HierarchyResult r =
            mem_.access(e.addr, false, e.seq, critical);
        switch (r.outcome) {
          case CacheOutcome::L1Hit:
          case CacheOutcome::L2Hit:
            e.readyAt = now + r.latencyCpu;
            break;
          case CacheOutcome::Miss:
            break;
          case CacheOutcome::Retry:
            park(e);
            return false;
        }
        e.started = true;
        unpark(e);
        return true;
    }

    void
    retire(std::uint64_t now)
    {
        for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
            if (rob_.empty())
                return;
            RobEntry &head = rob_.front();
            if (head.readyAt > now) {
                headStalls_ += 1;
                return;
            }
            if (head.op == TraceInstr::Op::Store) {
                if (parked(head) || mem_.access(head.addr, true).outcome ==
                                        CacheOutcome::Retry) {
                    park(head);
                    storeStalls_ += 1;
                    return;
                }
                unpark(head);
                stores_ += 1;
            }
            if (head.op != TraceInstr::Op::Compute)
                memOpsInRob_ -= 1;
            rob_.pop_front();
            frontSeq_ += 1;
            retired_ += 1;
        }
    }

    void
    startPendingLoads(std::uint64_t now)
    {
        for (std::size_t n = pendingLoads_.size(); n > 0; --n) {
            const std::uint64_t seq = pendingLoads_.front();
            pendingLoads_.pop_front();
            RobEntry *e = entryOf(seq);
            if (!e || e->started)
                continue;
            if (parked(*e) || !producerReady(*e, now) || !startLoad(*e, now))
                pendingLoads_.push_back(seq);
        }
    }

    void
    issue(std::uint64_t now)
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
            const TraceInstr &in = lookahead_;
            const bool is_mem = in.op != TraceInstr::Op::Compute;
            if (is_mem && memOpsInRob_ >= cfg_.lsqSize)
                return;

            RobEntry e;
            e.op = in.op;
            e.addr = in.addr;
            e.seq = nextSeq_++;
            switch (in.op) {
              case TraceInstr::Op::Compute:
                e.readyAt = now + cfg_.computeLatency;
                break;
              case TraceInstr::Op::Store:
                e.readyAt = now + cfg_.computeLatency;
                memOpsInRob_ += 1;
                break;
              case TraceInstr::Op::Load:
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
            if (in.op == TraceInstr::Op::Load) {
                RobEntry &placed = rob_.back();
                if (placed.producerSeq != kTickMax ||
                    !startLoad(placed, now))
                    pendingLoads_.push_back(placed.seq);
            }
            lookaheadValid_ = false;
        }
    }

    CoreConfig cfg_;
    CacheHierarchy &mem_;
    trace::TraceSource &trace_;

    std::deque<RobEntry> rob_;
    std::uint64_t frontSeq_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::deque<std::uint64_t> pendingLoads_;
    std::vector<std::uint64_t> lastChainSeq_;
    std::size_t memOpsInRob_ = 0;
    std::size_t parked_ = 0;

    TraceInstr lookahead_;
    bool lookaheadValid_ = false;
    bool traceEnded_ = false;

    std::uint64_t retired_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t headStalls_ = 0;
    std::uint64_t storeStalls_ = 0;
};

} // namespace ref

namespace
{

// ---------------------------------------------------------------------
// Caches
// ---------------------------------------------------------------------

bool
sameEviction(const Eviction &a, const Eviction &b)
{
    return a.valid == b.valid && a.dirty == b.dirty && a.addr == b.addr;
}

/** Random access/insert/contains/invalidate stream over three times
 *  the cache's capacity in blocks, so sets overflow and evict. */
void
runCacheLockstep(const CacheConfig &cfg, std::uint64_t seed)
{
    Cache flat(cfg);
    ref::Cache lines(cfg);
    Rng rng(seed);
    const std::uint64_t blocks = 3 * cfg.sizeBytes / cfg.blockBytes;
    std::uint64_t evictions = 0;
    for (int op = 0; op < 20000; ++op) {
        const Addr a = rng.below(blocks) * cfg.blockBytes +
                       rng.below(cfg.blockBytes);
        const bool flag = rng.below(2) == 1;
        const std::uint64_t kind = rng.below(100);
        SCOPED_TRACE(::testing::Message() << "assoc " << cfg.assoc
                                          << " seed " << seed << " op "
                                          << op << " kind " << kind);
        if (kind < 40) {
            ASSERT_EQ(flat.access(a, flag), lines.access(a, flag));
        } else if (kind < 75) {
            const Eviction ev = flat.insert(a, flag);
            ASSERT_TRUE(sameEviction(ev, lines.insert(a, flag)));
            evictions += ev.valid;
        } else if (kind < 90) {
            ASSERT_EQ(flat.contains(a), lines.contains(a));
        } else {
            ASSERT_TRUE(sameEviction(flat.invalidate(a),
                                     lines.invalidate(a)));
        }
        ASSERT_EQ(flat.hits(), lines.hits());
        ASSERT_EQ(flat.misses(), lines.misses());
        ASSERT_EQ(flat.writebacks(), lines.writebacks());
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(flat.hits(), 0u);
    EXPECT_GT(flat.writebacks(), 0u);
}

} // namespace

TEST(CacheLockstep, FlatSetsMatchLineArrayReference)
{
    // 1-, 2-, 16- and 64-way, including a single 64-way set (a full
    // valid mask is all 64 bits).
    const CacheConfig geometries[] = {
        {16 * 1 * 64, 1, 64},   {16 * 2 * 64, 2, 64},
        {8 * 16 * 64, 16, 64},  {4 * 64 * 64, 64, 64},
        {1 * 64 * 32, 64, 32},
    };
    for (const CacheConfig &cfg : geometries)
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            runCacheLockstep(cfg, seed);
}

namespace
{

// ---------------------------------------------------------------------
// Cores
// ---------------------------------------------------------------------

/** One hierarchy call as the core made it, and its outcome. */
struct Call
{
    Addr addr;
    bool isWrite;
    std::uint64_t waiter;
    bool critical;
    CacheOutcome outcome;

    bool
    operator==(const Call &o) const
    {
        return addr == o.addr && isWrite == o.isWrite &&
               waiter == o.waiter && critical == o.critical &&
               outcome == o.outcome;
    }
};

/** The real hierarchy, recording every call a core makes into it. */
struct RecordingHierarchy : CacheHierarchy
{
    using CacheHierarchy::CacheHierarchy;

    HierarchyResult
    access(Addr addr, bool is_write, std::uint64_t waiter,
           bool critical) override
    {
        const HierarchyResult r =
            CacheHierarchy::access(addr, is_write, waiter, critical);
        calls.push_back({addr, is_write, waiter, critical, r.outcome});
        return r;
    }

    std::vector<Call> calls;
};

/** A bounded request queue the driver drains at random. */
struct QueuePort : MemPort
{
    struct Request
    {
        Addr addr;
        bool isWrite;
        bool critical;
    };

    bool
    canSend(unsigned n) const override
    {
        return !blocked && queue.size() + n <= cap;
    }
    void sendRead(Addr a, bool critical) override
    {
        queue.push_back({a, false, critical});
    }
    void sendWrite(Addr a) override { queue.push_back({a, true, false}); }

    std::deque<Request> queue;
    std::size_t cap = 4;
    bool blocked = false;
};

struct VectorTrace : trace::TraceSource
{
    bool
    next(TraceInstr &out) override
    {
        if (pos >= instrs->size())
            return false;
        out = (*instrs)[pos++];
        return true;
    }
    const std::vector<TraceInstr> *instrs = nullptr;
    std::size_t pos = 0;
};

/** One randomized machine: trace, geometry and core shape. */
struct MachineSetup
{
    std::vector<TraceInstr> instrs;
    std::vector<Addr> warm; //!< prefilled into L2
    HierarchyConfig hcfg;
    CoreConfig ccfg;
    std::size_t portCap = 4;
    std::uint64_t maxFillDelay = 60;
};

MachineSetup
randomSetup(std::uint64_t seed)
{
    Rng rng(seed);
    MachineSetup s;
    const auto pick = [&rng](std::initializer_list<std::uint32_t> v) {
        return v.begin()[rng.below(v.size())];
    };
    s.hcfg.l1d = {1024, 2, 64};
    s.hcfg.l2 = {8192, 4, 64};
    s.hcfg.mshrs = pick({1, 2, 4, 8, 32});
    s.hcfg.l1LatencyCpu = pick({0, 1, 3});
    s.hcfg.l2LatencyCpu = pick({0, 4, 15});
    s.ccfg.robSize = pick({4, 16, 64, 196});
    s.ccfg.lsqSize = pick({2, 8, 32});
    s.ccfg.issueWidth = pick({1, 2, 4, 8});
    s.ccfg.computeLatency = pick({1, 2});
    s.portCap = pick({2, 4, 16});
    s.maxFillDelay = pick({1, 20, 200});

    const std::uint32_t chains = 1 + std::uint32_t(rng.below(4));
    const std::uint64_t hot = 8, warm = 64;
    for (std::uint64_t b = 0; b < warm; ++b)
        s.warm.push_back((hot + b) * 64);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t r = rng.below(100);
        if (r < 45) {
            s.instrs.push_back({TraceInstr::Op::Compute, 0, false, 0});
            continue;
        }
        // Hot blocks hit in L1, warm ones in L2 (until evicted), the
        // rest of a 1 MB range misses.
        const std::uint64_t pool = rng.below(3);
        const std::uint64_t block =
            pool == 0   ? rng.below(hot)
            : pool == 1 ? hot + rng.below(warm)
                        : hot + warm + rng.below(16384);
        const Addr a = block * 64 + rng.below(64);
        if (r < 80) {
            const bool chain = rng.below(2) == 1;
            s.instrs.push_back({TraceInstr::Op::Load, a, chain,
                                std::uint8_t(chain ? rng.below(chains) : 0)});
        } else {
            s.instrs.push_back({TraceInstr::Op::Store, a, false, 0});
        }
    }
    return s;
}

/** A core of type CoreT over its own recording hierarchy and port. */
template <class CoreT>
struct Machine
{
    explicit Machine(const MachineSetup &s)
        : hier(s.hcfg, port), core(s.ccfg, hier, trace)
    {
        port.cap = s.portCap;
        trace.instrs = &s.instrs;
        for (Addr a : s.warm)
            hier.prefill(a, a % 128 == 0);
    }

    /** Drain @p n port requests (each one a wake event); reads come
     *  back after a delay drawn from @p delays. */
    void
    drain(std::uint64_t n, std::uint64_t now, Rng &delays,
          std::uint64_t max_delay)
    {
        for (; n > 0 && !port.queue.empty(); --n) {
            const QueuePort::Request r = port.queue.front();
            port.queue.pop_front();
            hier.onPortRoom();
            if (!r.isWrite)
                fills.push_back({now + 1 + delays.below(max_delay), r.addr});
        }
    }

    /** Deliver the fills due by @p now, oldest request first. */
    void
    deliver(std::uint64_t now)
    {
        for (auto it = fills.begin(); it != fills.end();) {
            if (it->at <= now) {
                core.onMemResponse(it->addr, now);
                it = fills.erase(it);
            } else {
                ++it;
            }
        }
    }

    struct Fill
    {
        std::uint64_t at;
        Addr addr;
    };

    QueuePort port;
    RecordingHierarchy hier;
    VectorTrace trace;
    CoreT core;
    std::deque<Fill> fills;
};

template <class A, class B>
void
expectSameCore(const A &a, const B &b)
{
    ASSERT_EQ(a.retired(), b.retired());
    ASSERT_EQ(a.loads(), b.loads());
    ASSERT_EQ(a.stores(), b.stores());
    ASSERT_EQ(a.headStallCycles(), b.headStallCycles());
    ASSERT_EQ(a.storeStallCycles(), b.storeStallCycles());
    ASSERT_EQ(a.robOccupancy(), b.robOccupancy());
    ASSERT_EQ(a.hasParkedAccess(), b.hasParkedAccess());
    ASSERT_EQ(a.done(), b.done());
}

/** Both cores' quiescence verdicts at @p now, as the skip engine asks. */
template <class A, class B>
void
expectSameVerdict(const A &a, const B &b, std::uint64_t now,
                  std::uint64_t &quiescent)
{
    ASSERT_EQ(a.quiescentAt(now), b.quiescentAt(now));
    if (b.robOccupancy() > 0) {
        ASSERT_EQ(a.nextLocalEventCpu(now), b.nextLocalEventCpu(now));
    }
    quiescent += b.quiescentAt(now);
}

} // namespace

TEST(CoreLockstep, IndexedCoreMatchesFullScanReference)
{
    std::uint64_t outcomes[4] = {};
    std::uint64_t quiescent = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const MachineSetup s = randomSetup(seed);
        Machine<Core> fast(s);
        Machine<ref::Core> slow(s);
        Rng driver(seed * 7919), fastDelays(seed), slowDelays(seed);
        std::size_t seen = 0;
        std::uint64_t now = 0;
        for (; now < 400000 && !(fast.core.done() && slow.core.done());
             ++now) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << " cycle " << now);
            // The port drains 0-2 requests a cycle and blocks now and
            // then, so loads and stores Retry and park. Half the
            // unblocks skip the wake event, so a load that is not
            // parked can allocate an MSHR (moving the wake epoch) while
            // others are parked, and those behind it start in the same
            // scan.
            if (driver.below(50) == 0) {
                for (QueuePort *p : {&fast.port, &slow.port})
                    p->blocked = !p->blocked;
                if (!fast.port.blocked && driver.below(2) == 0) {
                    fast.hier.onPortRoom();
                    slow.hier.onPortRoom();
                }
            }
            const std::uint64_t n = driver.below(3);
            fast.drain(n, now, fastDelays, s.maxFillDelay);
            slow.drain(n, now, slowDelays, s.maxFillDelay);
            fast.deliver(now);
            slow.deliver(now);
            expectSameVerdict(fast.core, slow.core, now, quiescent);

            fast.core.cpuCycle(now);
            slow.core.cpuCycle(now);

            ASSERT_EQ(fast.hier.calls.size(), slow.hier.calls.size());
            for (; seen < fast.hier.calls.size(); ++seen) {
                ASSERT_TRUE(fast.hier.calls[seen] == slow.hier.calls[seen])
                    << "call " << seen;
                outcomes[static_cast<int>(fast.hier.calls[seen].outcome)] +=
                    1;
            }
            expectSameCore(fast.core, slow.core);
            expectSameVerdict(fast.core, slow.core, now + 1, quiescent);
            if (HasFatalFailure())
                return;
        }
        ASSERT_TRUE(fast.core.done()) << "seed " << seed;
        EXPECT_EQ(fast.hier.memReads(), slow.hier.memReads());
        EXPECT_EQ(fast.hier.memWrites(), slow.hier.memWrites());
        EXPECT_EQ(fast.hier.mshrMerges(), slow.hier.mshrMerges());
    }
    // Every outcome and the quiescent state were exercised.
    for (int o = 0; o < 4; ++o)
        EXPECT_GT(outcomes[o], 0u) << "outcome " << o;
    EXPECT_GT(quiescent, 0u);
}
