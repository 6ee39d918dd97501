/**
 * @file
 * Out-of-order core model tests: issue/retire, ROB and LSQ capacity,
 * memory blocking, dependence chains and store back-pressure.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "sim/system.hh"
#include "trace/instr.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::cpu;
using trace::TraceInstr;

namespace
{

struct FakePort : MemPort
{
    bool
    canSend(unsigned n) const override
    {
        return blocked ? false : pending.size() + n <= 64;
    }
    void sendRead(Addr a, bool) override { pending.push_back(a); }
    void sendWrite(Addr a) override { writes.push_back(a); }

    std::deque<Addr> pending;
    std::vector<Addr> writes;
    bool blocked = false;
};

struct ListTrace : trace::TraceSource
{
    bool
    next(TraceInstr &out) override
    {
        if (pos >= instrs.size())
            return false;
        out = instrs[pos++];
        return true;
    }
    std::vector<TraceInstr> instrs;
    std::size_t pos = 0;
};

TraceInstr
compute()
{
    return {TraceInstr::Op::Compute, 0, false, 0};
}

TraceInstr
load(Addr a, bool chain = false, std::uint8_t chain_id = 0)
{
    return {TraceInstr::Op::Load, a, chain, chain_id};
}

TraceInstr
store(Addr a)
{
    return {TraceInstr::Op::Store, a, false, 0};
}

struct Fixture
{
    explicit Fixture(std::uint32_t mshrs = 8)
    {
        HierarchyConfig hcfg;
        hcfg.l1d = {512, 2, 64};
        hcfg.l2 = {2048, 2, 64};
        hcfg.mshrs = mshrs;
        hier = std::make_unique<CacheHierarchy>(hcfg, port);
    }

    void
    makeCore(std::vector<TraceInstr> instrs, CoreConfig cfg = {})
    {
        tracesrc.instrs = std::move(instrs);
        core = std::make_unique<Core>(cfg, *hier, tracesrc);
    }

    struct Resp
    {
        std::uint64_t at;
        Addr addr;
    };

    /** Run CPU cycles, answering memory after @p mem_latency cycles. */
    void
    run(std::uint64_t max_cycles, std::uint64_t mem_latency = 50)
    {
        for (; now < max_cycles && !core->done(); ++now) {
            while (!due.empty() && due.front().at <= now) {
                core->onMemResponse(due.front().addr, now);
                due.pop_front();
            }
            while (!port.pending.empty()) {
                due.push_back({now + mem_latency, port.pending.front()});
                port.pending.pop_front();
            }
            core->cpuCycle(now);
        }
    }

    FakePort port;
    std::unique_ptr<CacheHierarchy> hier;
    ListTrace tracesrc;
    std::unique_ptr<Core> core;
    std::uint64_t now = 0;
    std::deque<Resp> due;
};

} // namespace

TEST(Core, RobSizeOutsideOneToMaxIsConfigError)
{
    // The ROB ring is allocated up front from robSize.
    Fixture f;
    for (std::uint32_t rob : {0u, kMaxRobSize + 1}) {
        CoreConfig cfg;
        cfg.robSize = rob;
        EXPECT_SIM_ERROR(f.makeCore({}, cfg), ErrorCategory::Config,
                         "robSize");
    }
    CoreConfig widest;
    widest.robSize = kMaxRobSize;
    f.makeCore(std::vector<TraceInstr>(100, compute()), widest);
    f.run(1000);
    EXPECT_EQ(f.core->retired(), 100u);
}

TEST(Core, ComputeOnlyTraceRetiresAtIssueWidth)
{
    Fixture f;
    std::vector<TraceInstr> t(800, compute());
    f.makeCore(t);
    f.run(100000);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->retired(), 800u);
    // 8-wide with a 196 ROB: must take roughly 800/8 cycles, far fewer
    // than a serial machine would.
    EXPECT_LE(f.now, 800 / 8 + 220u);
}

TEST(Core, LoadMissBlocksRetirementUntilResponse)
{
    Fixture f;
    f.makeCore({load(0x10000), compute()});
    f.run(10, /*latency*/ 1000);
    EXPECT_FALSE(f.core->done());
    EXPECT_EQ(f.core->retired(), 0u) << "in-order retire must wait";
    f.run(5000, 100);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->retired(), 2u);
}

TEST(Core, IndependentMissesOverlap)
{
    Fixture f;
    // 8 independent loads to distinct blocks: all must be outstanding
    // together (memory-level parallelism through the ROB window).
    std::vector<TraceInstr> t;
    for (int i = 0; i < 8; ++i)
        t.push_back(load(Addr(0x10000 + 64 * i)));
    f.makeCore(t);
    // Issue only; do not respond yet.
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending.size(), 8u);
}

TEST(Core, DepChainSerializesLoads)
{
    Fixture f;
    std::vector<TraceInstr> t;
    for (int i = 0; i < 4; ++i)
        t.push_back(load(Addr(0x20000 + 4096 * i), /*chain*/ true, 0));
    f.makeCore(t);
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    // Only the head of the chain may access memory.
    EXPECT_EQ(f.port.pending.size(), 1u);
    f.run(100000, 40);
    EXPECT_TRUE(f.core->done());
    // Serialized: total time at least 4 x 40 CPU cycles.
    EXPECT_GE(f.now, 160u);
}

TEST(Core, IndependentChainsOverlap)
{
    Fixture f;
    std::vector<TraceInstr> t;
    for (int i = 0; i < 4; ++i)
        t.push_back(load(Addr(0x20000 + 4096 * i), true,
                         std::uint8_t(i % 2)));
    f.makeCore(t);
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending.size(), 2u) << "one access per chain";
}

TEST(Core, RobCapacityLimitsIssue)
{
    Fixture f;
    CoreConfig cfg;
    cfg.robSize = 16;
    cfg.lsqSize = 16;
    std::vector<TraceInstr> t(100, compute());
    t.insert(t.begin(), load(0x30000)); // blocks retirement
    f.makeCore(t, cfg);
    for (int c = 0; c < 50; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.core->robOccupancy(), 16u);
    EXPECT_EQ(f.core->retired(), 0u);
}

TEST(Core, LsqCapacityLimitsMemOps)
{
    Fixture f;
    CoreConfig cfg;
    cfg.lsqSize = 4;
    std::vector<TraceInstr> t;
    t.push_back(load(0x40000)); // miss blocks retire
    for (int i = 0; i < 20; ++i)
        t.push_back(load(Addr(0x40000 + 64 * i)));
    f.makeCore(t, cfg);
    for (int c = 0; c < 50; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_LE(f.hier->mshrsInUse(), 4u);
    EXPECT_LE(f.port.pending.size(), 4u);
}

TEST(Core, StorePerformsAtRetire)
{
    Fixture f;
    f.makeCore({store(0x50000)});
    f.run(10000, 20);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->stores(), 1u);
    // Write-allocate: the store miss fetched its block.
    EXPECT_GE(f.hier->memReads(), 1u);
}

TEST(Core, BlockedMemoryStallsStoreRetirement)
{
    Fixture f;
    f.port.blocked = true;
    f.makeCore({store(0x50000), compute()});
    for (int c = 0; c < 100; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.core->retired(), 0u);
    EXPECT_GT(f.core->storeStallCycles(), 0u);
    // The port's owner signals freed room, as System::admitFsb does on
    // every FSB pop; the parked store re-probes only after it.
    f.port.blocked = false;
    f.hier->onPortRoom();
    f.run(10000, 20);
    EXPECT_TRUE(f.core->done());
}

TEST(Core, CacheHitLoadsRetireQuickly)
{
    Fixture f;
    f.hier->prefill(0x60000, false, /*l1*/ true);
    f.makeCore({load(0x60000), compute()});
    f.run(100, 1000);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->loads(), 1u);
}

TEST(Core, DoneOnlyAfterRobDrains)
{
    Fixture f;
    f.makeCore({load(0x70000)});
    f.run(3, 1000000);
    EXPECT_FALSE(f.core->done());
    EXPECT_EQ(f.core->robOccupancy(), 1u);
}

TEST(Core, HeadStallsCounted)
{
    Fixture f;
    f.makeCore({load(0x80000), compute()});
    f.run(30, 10000);
    EXPECT_GT(f.core->headStallCycles(), 0u);
}

TEST(Core, ChainAcrossRetiredProducerStartsImmediately)
{
    Fixture f;
    std::vector<TraceInstr> t;
    t.push_back(load(0x90000, true, 0));
    for (int i = 0; i < 300; ++i)
        t.push_back(compute());
    t.push_back(load(0x94000, true, 0)); // producer long retired
    f.makeCore(t);
    f.run(100000, 30);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->retired(), 302u);
}

// ---------------------------------------------------------------------
// Back-pressure parking. A load or store that gets Retry is parked and
// probes the hierarchy again only after a wake event: an MSHR release,
// an MSHR allocation, or room in the port. A parked access leaves the
// core quiescent, which is what the cycle-skipping engine batches.
// ---------------------------------------------------------------------

namespace
{

/** Three loads issued into a blocked port: all parked, core idle. */
struct ParkedLoads : Fixture
{
    ParkedLoads()
    {
        port.blocked = true;
        makeCore({load(0x10000), load(0x20000), load(0x30000)});
        core->cpuCycle(now++);
        // Unblocking the port without telling the hierarchy is not a
        // wake event: the loads stay parked.
        port.blocked = false;
    }

    /** Step @p n cycles; true when the core stayed quiescent. */
    bool
    idleFor(int n)
    {
        for (int c = 0; c < n; ++c) {
            if (!core->quiescentAt(now))
                return false;
            core->cpuCycle(now++);
        }
        return port.pending.empty();
    }
};

} // namespace

TEST(CoreParking, ParkedLoadsKeepCoreQuiescent)
{
    ParkedLoads f;
    EXPECT_TRUE(f.core->hasParkedAccess());
    EXPECT_TRUE(f.idleFor(50));
    EXPECT_EQ(f.core->nextLocalEventCpu(f.now), kTickMax)
        << "only an external event can wake a parked core";
    // Hierarchy traffic that is not a wake event changes nothing.
    f.hier->prefill(0x40000, false, /*also_l1*/ true);
    f.hier->access(0x40000, false);
    EXPECT_TRUE(f.hier->onMemResponse(0x50000).empty());
    EXPECT_TRUE(f.idleFor(20));
}

TEST(CoreParking, PortRoomWakesParkedLoads)
{
    ParkedLoads f;
    f.hier->onPortRoom();
    EXPECT_FALSE(f.core->quiescentAt(f.now));
    f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending, (std::deque<Addr>{0x10000, 0x20000, 0x30000}))
        << "woken loads start in FIFO order";
    EXPECT_FALSE(f.core->hasParkedAccess());
}

TEST(CoreParking, MshrAllocationWakesParkedLoads)
{
    ParkedLoads f;
    f.hier->access(0x60000, false); // another requester allocates
    EXPECT_FALSE(f.core->quiescentAt(f.now));
    f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending.size(), 4u);
    EXPECT_FALSE(f.core->hasParkedAccess());
}

TEST(CoreParking, MshrReleaseWakesParkedLoadInFifoOrder)
{
    Fixture f(/*mshrs*/ 2);
    f.makeCore({load(0x10000), load(0x20000), load(0x30000),
                load(0x40000)});
    f.core->cpuCycle(f.now++);
    ASSERT_EQ(f.port.pending.size(), 2u);
    EXPECT_TRUE(f.core->hasParkedAccess());
    EXPECT_TRUE(f.core->quiescentAt(f.now));
    // A merge into an in-flight fill is not a wake event.
    f.hier->access(0x10000, false);
    EXPECT_TRUE(f.core->quiescentAt(f.now));

    // Releasing the second fill frees one MSHR: the older parked load
    // takes it, the younger one parks again.
    f.core->onMemResponse(0x20000, f.now);
    EXPECT_FALSE(f.core->quiescentAt(f.now));
    f.core->cpuCycle(f.now++);
    ASSERT_EQ(f.port.pending.size(), 3u);
    EXPECT_EQ(f.port.pending.back(), 0x30000u);
    EXPECT_TRUE(f.core->hasParkedAccess());
    EXPECT_TRUE(f.core->quiescentAt(f.now));

    f.core->onMemResponse(0x30000, f.now);
    f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending,
              (std::deque<Addr>{0x10000, 0x20000, 0x30000, 0x40000}));
    EXPECT_FALSE(f.core->hasParkedAccess());
}

TEST(CoreParking, ParkedStoreHeadChargesStoreStalls)
{
    Fixture f;
    f.port.blocked = true;
    f.makeCore({store(0x50000), compute()});
    for (int c = 0; c < 10; ++c)
        f.core->cpuCycle(f.now++);
    const std::uint64_t stores = f.core->storeStallCycles();
    const std::uint64_t heads = f.core->headStallCycles();
    EXPECT_GT(stores, 0u);
    ASSERT_TRUE(f.core->quiescentAt(f.now));
    EXPECT_EQ(f.core->nextLocalEventCpu(f.now), kTickMax);
    f.core->skipStallCycles(7);
    EXPECT_EQ(f.core->storeStallCycles(), stores + 7);
    EXPECT_EQ(f.core->headStallCycles(), heads);

    f.port.blocked = false;
    f.hier->onPortRoom();
    EXPECT_FALSE(f.core->quiescentAt(f.now));
    f.run(10000, 20);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->stores(), 1u);
}

namespace
{

/** Stores to distinct blocks through a two-slot FSB: the store at the
 *  ROB head parks on a full FSB queue for most of the run. */
sim::System
storeStormSystem(sim::EngineKind engine, ListTrace &t)
{
    t.instrs.clear();
    for (int i = 0; i < 400; ++i) {
        t.instrs.push_back(store(Addr(0x100000 + 64 * i)));
        t.instrs.push_back(compute());
    }
    sim::SystemConfig cfg = sim::SystemConfig::baseline();
    cfg.caches.mshrs = 2;
    cfg.memQueueCap = 2;
    cfg.engine = engine;
    return sim::System(cfg, t);
}

} // namespace

TEST(CoreParking, StoreStallsIdenticalUnderBothEngines)
{
    ListTrace ts, tk;
    sim::System step(storeStormSystem(sim::EngineKind::Step, ts));
    sim::System skip(storeStormSystem(sim::EngineKind::Skip, tk));
    step.run(1'000'000);
    skip.run(1'000'000);
    ASSERT_TRUE(step.done());
    ASSERT_TRUE(skip.done());
    EXPECT_GT(step.core().storeStallCycles(), 0u);
    EXPECT_EQ(step.core().storeStallCycles(),
              skip.core().storeStallCycles());
    EXPECT_EQ(step.core().headStallCycles(),
              skip.core().headStallCycles());
    EXPECT_EQ(step.execCpuCycles(), skip.execCpuCycles());
}

namespace
{

/** A skip-engine machine with a 4-entry ROB whose first load misses;
 *  with @p park_second a second load parks on the two-slot FSB. */
struct PopFixture
{
    explicit PopFixture(bool park_second)
    {
        t.instrs = {load(0x100000), load(0x200000), compute(), compute()};
        if (!park_second)
            t.instrs[1] = compute();
        sim::SystemConfig cfg = sim::SystemConfig::baseline();
        cfg.core.robSize = 4;
        cfg.memQueueCap = 2;
        cfg.engine = sim::EngineKind::Skip;
        sys = std::make_unique<sim::System>(cfg, t);
    }

    ListTrace t;
    std::unique_ptr<sim::System> sys;
};

} // namespace

TEST(CoreParking, FsbPopKeepsVerdictOfCoreWithoutParkedAccess)
{
    // The first fill enters the FSB at tick 0 and is admitted (popped)
    // at tick fsbLatency = 2, while the core waits on it.
    PopFixture f(/*park_second*/ false);
    f.sys->tick(); // the core goes quiescent mid-window
    ASSERT_FALSE(f.sys->core().hasParkedAccess());
    const std::uint64_t walks = f.sys->quiescenceWalks();
    f.sys->tick();
    f.sys->tick(); // pops the fill
    ASSERT_EQ(f.sys->controller().readsOutstanding(), 1u);
    EXPECT_EQ(f.sys->quiescenceWalks(), walks)
        << "a pop must not invalidate a core with nothing parked";
}

TEST(CoreParking, FsbPopWakesCoreWithParkedAccessInSameTick)
{
    PopFixture f(/*park_second*/ true);
    f.sys->tick();
    ASSERT_TRUE(f.sys->core().hasParkedAccess());
    EXPECT_EQ(f.sys->caches().memReads(), 1u);
    const std::uint64_t walks = f.sys->quiescenceWalks();
    f.sys->tick();
    EXPECT_EQ(f.sys->quiescenceWalks(), walks);
    f.sys->tick(); // the pop frees room: the parked load starts now
    EXPECT_GT(f.sys->quiescenceWalks(), walks);
    EXPECT_FALSE(f.sys->core().hasParkedAccess());
    EXPECT_EQ(f.sys->caches().memReads(), 2u);
}
