/**
 * @file
 * Full-system tests: wiring, clock domains, completion and determinism.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "trace/trace_gen.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

trace::WorkloadProfile
lightProfile()
{
    trace::WorkloadProfile p;
    p.name = "light";
    p.memFraction = 0.3;
    p.writeFraction = 0.3;
    p.hotFraction = 0.5;
    p.seqFraction = 0.6;
    p.footprintBytes = 32ULL << 20;
    return p;
}

} // namespace

TEST(System, RunsWorkloadToCompletion)
{
    trace::SyntheticGenerator gen(lightProfile(), 5000, 1);
    System sys(SystemConfig::baseline(), gen);
    sys.run(2'000'000);
    EXPECT_TRUE(sys.done());
    EXPECT_EQ(sys.core().retired(), 5000u);
    EXPECT_GT(sys.execCpuCycles(), 0u);
    EXPECT_LE(sys.execCpuCycles(), sys.cpuCycles());
}

TEST(System, ClockDomainRatioHolds)
{
    trace::SyntheticGenerator gen(lightProfile(), 2000, 1);
    System sys(SystemConfig::baseline(), gen);
    sys.run(1'000'000);
    ASSERT_TRUE(sys.done());
    // 10 CPU cycles per memory cycle (4 GHz / 400 MHz).
    EXPECT_NEAR(double(sys.cpuCycles()) / double(sys.memCycles()), 10.0,
                0.1);
}

TEST(System, DeterministicAcrossRuns)
{
    trace::SyntheticGenerator g1(lightProfile(), 3000, 7);
    trace::SyntheticGenerator g2(lightProfile(), 3000, 7);
    System a(SystemConfig::baseline(), g1);
    System b(SystemConfig::baseline(), g2);
    a.run(2'000'000);
    b.run(2'000'000);
    EXPECT_EQ(a.execCpuCycles(), b.execCpuCycles());
    EXPECT_EQ(a.controller().stats().reads, b.controller().stats().reads);
    EXPECT_EQ(a.controller().stats().writes,
              b.controller().stats().writes);
    EXPECT_DOUBLE_EQ(a.controller().stats().readLatency.mean(),
                     b.controller().stats().readLatency.mean());
}

TEST(System, MechanismChangesTimingNotTraffic)
{
    // Different schedulers must serve exactly the same miss stream (the
    // CPU side is timing-dependent, so allow small variation in counts
    // but require identical retired instructions).
    trace::SyntheticGenerator g1(lightProfile(), 3000, 7);
    trace::SyntheticGenerator g2(lightProfile(), 3000, 7);
    SystemConfig c1 = SystemConfig::baseline();
    SystemConfig c2 = SystemConfig::baseline();
    c2.ctrl.mechanism = ctrl::Mechanism::BurstTH;
    System a(c1, g1);
    System b(c2, g2);
    a.run(2'000'000);
    b.run(2'000'000);
    EXPECT_EQ(a.core().retired(), b.core().retired());
}

TEST(System, MemPortRespectsQueueCap)
{
    trace::SyntheticGenerator gen(lightProfile(), 1000, 1);
    SystemConfig cfg = SystemConfig::baseline();
    cfg.memQueueCap = 2;
    System sys(cfg, gen);
    cpu::MemPort &port = sys.port(0);
    EXPECT_TRUE(port.canSend(2));
    port.sendRead(0);
    EXPECT_TRUE(port.canSend(1));
    EXPECT_FALSE(port.canSend(2));
    port.sendWrite(64);
    EXPECT_FALSE(port.canSend(1));
}

TEST(System, BaselineMatchesTable3)
{
    const SystemConfig cfg = SystemConfig::baseline();
    EXPECT_EQ(cfg.core.issueWidth, 8u);
    EXPECT_EQ(cfg.core.robSize, 196u);
    EXPECT_EQ(cfg.core.lsqSize, 32u);
    EXPECT_EQ(cfg.caches.l1d.sizeBytes, 128u * 1024);
    EXPECT_EQ(cfg.caches.l1d.assoc, 2u);
    EXPECT_EQ(cfg.caches.l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.caches.l2.assoc, 16u);
    EXPECT_EQ(cfg.dram.channels, 2u);
    EXPECT_EQ(cfg.dram.ranksPerChannel, 4u);
    EXPECT_EQ(cfg.dram.banksPerRank, 4u);
    EXPECT_EQ(cfg.dram.totalBanks(), 32u);
    EXPECT_EQ(cfg.ctrl.poolCap, 256u);
    EXPECT_EQ(cfg.ctrl.writeCap, 64u);
    EXPECT_EQ(cfg.dram.pagePolicy, dram::PagePolicy::OpenPage);
    EXPECT_EQ(cfg.dram.addressMap, dram::AddressMapKind::PageInterleave);
    EXPECT_EQ(cfg.cpuCyclesPerMemCycle, 10u);
}

TEST(System, RunCapStopsEarly)
{
    trace::SyntheticGenerator gen(lightProfile(), 100000, 1);
    System sys(SystemConfig::baseline(), gen);
    const Tick ran = sys.run(100);
    EXPECT_EQ(ran, 100u);
    EXPECT_FALSE(sys.done());
}
