/**
 * @file
 * Chip-multiprocessor system tests (paper Section 6 extension): private
 * cache stacks sharing one memory controller, and the experiment layer
 * running a '+'-joined mix through the same path as a single core —
 * every machine axis, every observability pillar and the sweep journal
 * take effect on a mix.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/critpath.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "obs/protocol_audit.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "trace/trace_gen.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

trace::WorkloadProfile
profileAt(Addr base)
{
    trace::WorkloadProfile p;
    p.name = "cmp-test";
    p.memFraction = 0.3;
    p.writeFraction = 0.3;
    p.hotFraction = 0.5;
    p.seqFraction = 0.6;
    p.footprintBytes = 32ULL << 20;
    p.regionBase = base;
    return p;
}

ExperimentConfig
mixConfig(const char *mix, ctrl::Mechanism m, std::uint64_t instr)
{
    ExperimentConfig cfg;
    cfg.workload = mix;
    cfg.mechanism = m;
    cfg.instructions = instr;
    return cfg;
}

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r);
    return os.str();
}

} // namespace

TEST(Cmp, TwoCoresBothComplete)
{
    trace::SyntheticGenerator g0(profileAt(0), 3000, 1);
    trace::SyntheticGenerator g1(profileAt(1ULL << 30), 3000, 2);
    System sys(SystemConfig::baseline(), {&g0, &g1});
    ASSERT_EQ(sys.numCores(), 2u);
    sys.run(5'000'000);
    ASSERT_TRUE(sys.done());
    EXPECT_EQ(sys.core(0).retired(), 3000u);
    EXPECT_EQ(sys.core(1).retired(), 3000u);
    EXPECT_GT(sys.coreExecCpuCycles(0), 0u);
    EXPECT_GT(sys.coreExecCpuCycles(1), 0u);
    EXPECT_GE(sys.execCpuCycles(),
              std::max(sys.coreExecCpuCycles(0),
                       sys.coreExecCpuCycles(1)));
}

TEST(Cmp, CachesArePrivate)
{
    trace::SyntheticGenerator g0(profileAt(0), 2000, 1);
    trace::SyntheticGenerator g1(profileAt(1ULL << 30), 2000, 2);
    System sys(SystemConfig::baseline(), {&g0, &g1});
    sys.run(5'000'000);
    ASSERT_TRUE(sys.done());
    // Each core generated its own traffic through its own hierarchy.
    EXPECT_GT(sys.caches(0).memReads(), 0u);
    EXPECT_GT(sys.caches(1).memReads(), 0u);
}

TEST(Cmp, SingleCoreCtorEquivalentToOneTraceVector)
{
    trace::SyntheticGenerator g0(profileAt(0), 2500, 5);
    trace::SyntheticGenerator g1(profileAt(0), 2500, 5);
    System a(SystemConfig::baseline(), g0);
    System b(SystemConfig::baseline(), {&g1});
    a.run(5'000'000);
    b.run(5'000'000);
    ASSERT_TRUE(a.done());
    ASSERT_TRUE(b.done());
    EXPECT_EQ(a.execCpuCycles(), b.execCpuCycles());
    EXPECT_EQ(a.controller().stats().reads, b.controller().stats().reads);
}

TEST(Cmp, DeterministicAcrossRuns)
{
    auto run_once = [] {
        trace::SyntheticGenerator g0(profileAt(0), 2500, 7);
        trace::SyntheticGenerator g1(profileAt(1ULL << 30), 2500, 8);
        SystemConfig cfg = SystemConfig::baseline();
        cfg.ctrl.mechanism = ctrl::Mechanism::BurstTH;
        System sys(cfg, {&g0, &g1});
        sys.run(5'000'000);
        EXPECT_TRUE(sys.done());
        return sys.execCpuCycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Cmp, SharedControllerSeesBothCores)
{
    trace::SyntheticGenerator g0(profileAt(0), 2000, 1);
    trace::SyntheticGenerator g1(profileAt(1ULL << 30), 2000, 2);
    System sys(SystemConfig::baseline(), {&g0, &g1});
    sys.run(5'000'000);
    ASSERT_TRUE(sys.done());
    const auto reads0 = sys.caches(0).memReads();
    const auto reads1 = sys.caches(1).memReads();
    // All fills of both cores were served by the one controller
    // (forwarded reads never reach DRAM but are counted as reads too).
    EXPECT_EQ(sys.controller().stats().reads, reads0 + reads1);
}

TEST(Cmp, ExperimentHarnessRuns)
{
    const RunResult r = runExperiment(
        mixConfig("gzip+mcf", ctrl::Mechanism::BurstTH, 10000));
    EXPECT_EQ(mixWorkloads(r.workload).size(), 2u);
    EXPECT_EQ(r.perCoreCpuCycles.size(), 2u);
    EXPECT_GT(r.execCpuCycles, 0u);
    EXPECT_GT(r.ctrl.reads, 0u);
    EXPECT_GT(r.bandwidthGBs, 0.0);
}

TEST(Cmp, MoreCoresMoreTraffic)
{
    const RunResult one = runExperiment(
        mixConfig("gzip", ctrl::Mechanism::BurstTH, 10000));
    const RunResult two = runExperiment(
        mixConfig("gzip+gzip", ctrl::Mechanism::BurstTH, 10000));
    EXPECT_GT(two.ctrl.reads, one.ctrl.reads);
    EXPECT_GT(two.execCpuCycles, one.execCpuCycles / 2);
}

TEST(Cmp, MixWorkloadSplitting)
{
    EXPECT_EQ(mixWorkloads("swim"), std::vector<std::string>{"swim"});
    EXPECT_EQ(mixWorkloads("mcf+swim+mcf"),
              (std::vector<std::string>{"mcf", "swim", "mcf"}));
    // A trace path is one workload, whatever characters it holds.
    EXPECT_EQ(mixWorkloads("@/tmp/a+b.trace"),
              std::vector<std::string>{"@/tmp/a+b.trace"});
}

TEST(Cmp, MixFollowsEveryMachineAxis)
{
    const ExperimentConfig base =
        mixConfig("mcf+swim", ctrl::Mechanism::BurstTH, 4000);
    const std::string ref = resultJson(runExperiment(base));

    ExperimentConfig seed = base;
    seed.seed = 7;
    ExperimentConfig device = base;
    device.device = DeviceGen::DDR_266;
    ExperimentConfig page = base;
    page.pagePolicy = dram::PagePolicy::ClosePageAuto;
    ExperimentConfig map = base;
    map.addressMap = dram::AddressMapKind::BlockInterleave;
    EXPECT_NE(resultJson(runExperiment(seed)), ref);
    EXPECT_NE(resultJson(runExperiment(device)), ref);
    EXPECT_NE(resultJson(runExperiment(page)), ref);
    EXPECT_NE(resultJson(runExperiment(map)), ref);
}

TEST(Cmp, EveryPillarWorksOnAMixAndEnginesAgree)
{
    ExperimentConfig cfg =
        mixConfig("mcf+swim", ctrl::Mechanism::BurstTH, 3000);
    cfg.obs.latencyBreakdown = true;
    cfg.obs.metricsInterval = 512;
    cfg.obs.perCoreMetrics = true;
    cfg.obs.stallAttribution = true;
    cfg.obs.audit = obs::AuditMode::Fatal;
    cfg.obs.critPath = true;
    cfg.obs.commandTrace = true;

    struct Outputs
    {
        std::string json, stalls, metrics, trace;
    };
    const auto run = [&](EngineKind engine) {
        ExperimentConfig c = cfg;
        c.engine = engine;
        const RunResult r = runExperiment(c);
        EXPECT_EQ(r.perCoreCpuCycles.size(), 2u);
        EXPECT_TRUE(r.obs);
        if (!r.obs)
            return Outputs{};
        // Every pillar produced its output.
        EXPECT_TRUE(r.obs->latency());
        EXPECT_TRUE(r.obs->sampler());
        EXPECT_TRUE(r.obs->stalls());
        EXPECT_TRUE(r.obs->auditor() &&
                    r.obs->auditor()->commandsAudited() > 0 &&
                    r.obs->auditor()->violationCount() == 0);
        EXPECT_TRUE(r.obs->critpath() &&
                    r.obs->critpath()->completedCount() > 0);
        Outputs o;
        o.json = resultJson(r);
        for (const char *section :
             {"\"latency_breakdown\"", "\"cycle_accounting\"",
              "\"protocol_audit\"", "\"critical_path\"",
              "\"per_core_cpu_cycles\""})
            EXPECT_NE(o.json.find(section), std::string::npos) << section;
        std::ostringstream stalls, metrics, trace;
        r.obs->writeStallJson(stalls);
        r.obs->writeMetricsCsv(metrics);
        r.obs->writeChromeTrace(trace);
        o.stalls = stalls.str();
        o.metrics = metrics.str();
        o.trace = trace.str();
        EXPECT_EQ(o.metrics.rfind("epoch,tick_start,tick_end,", 0), 0u);
        EXPECT_NE(o.metrics.find(",rq_core1,"), std::string::npos);
        EXPECT_NE(o.trace.find("traceEvents"), std::string::npos);
        return o;
    };
    const Outputs step = run(EngineKind::Step);
    const Outputs skip = run(EngineKind::Skip);
    EXPECT_EQ(step.json, skip.json);
    EXPECT_EQ(step.stalls, skip.stalls);
    EXPECT_EQ(step.metrics, skip.metrics);
    EXPECT_EQ(step.trace, skip.trace);

    // Introspection describes how the engine advanced (its counters and
    // metrics columns differ between engines by definition), so it is
    // checked on its own: it telescopes and perturbs nothing.
    ExperimentConfig intro = cfg;
    intro.obs.engineIntrospect = true;
    const RunResult ri = runExperiment(intro);
    ASSERT_TRUE(ri.obs && ri.obs->introspect());
    EXPECT_TRUE(ri.obs->introspect()->identityHolds(ri.memCycles));
    EXPECT_NE(resultJson(ri).find("\"engine_introspect\""),
              std::string::npos);
    EXPECT_EQ(ri.perCoreCpuCycles, runExperiment(cfg).perCoreCpuCycles);
}

TEST(Cmp, FairnessSweepResumesFromHalfWrittenJournal)
{
    const std::string path = testing::TempDir() + "/cmp_fair_half.j3";
    std::remove(path.c_str());

    std::vector<ExperimentConfig> points;
    for (const auto m : {ctrl::Mechanism::Burst, ctrl::Mechanism::Bliss,
                         ctrl::Mechanism::FrFcfs}) {
        points.push_back(mixConfig("mcf+swim", m, 3000));
        points.back().fairness = true;
    }
    const auto csvOf = [&](const SweepReport &rep) {
        std::ostringstream os;
        writeFairnessCsv(os, points, rep);
        return os.str();
    };
    const std::string clean = csvOf(runExperimentSweep(points));

    SweepOptions opt;
    opt.journal = path;
    opt.journalSync = false; // tmpfs test, durability irrelevant
    runExperimentSweep(points, opt);

    // Keep the first record and half of the second: a crash mid-append.
    std::string journal;
    {
        std::ifstream is(path);
        std::ostringstream os;
        os << is.rdbuf();
        journal = os.str();
    }
    const std::size_t first = journal.find('\n') + 1;
    const std::size_t second = journal.find('\n', first) + 1;
    ASSERT_GT(second, first);
    {
        std::ofstream os(path, std::ios::trunc);
        os << journal.substr(0, first + (second - first) / 2);
    }

    const SweepReport resumed = runExperimentSweep(points, opt);
    EXPECT_EQ(resumed.journaled(), 1u);
    EXPECT_EQ(resumed.failures(), 0u);
    EXPECT_EQ(csvOf(resumed), clean);
    std::remove(path.c_str());
}

TEST(CmpDeath, NoTracesFatal)
{
    SystemConfig cfg = SystemConfig::baseline();
    EXPECT_SIM_ERROR(System(cfg, std::vector<trace::TraceSource *>{}),
                     bsim::ErrorCategory::Config, "at least one workload");
}
