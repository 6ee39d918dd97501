/**
 * @file
 * Experiment harness tests.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <utility>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/spec_profiles.hh"

using namespace bsim;
using namespace bsim::sim;

TEST(Experiment, ProducesPopulatedResult)
{
    ExperimentConfig cfg;
    cfg.workload = "gzip";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 20000;
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.workload, "gzip");
    EXPECT_EQ(r.mechanism, ctrl::Mechanism::BurstTH);
    EXPECT_EQ(r.instructions, 20000u);
    EXPECT_GT(r.execCpuCycles, 0u);
    EXPECT_GT(r.memCycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.ctrl.reads, 0u);
    EXPECT_GT(r.ctrl.writes, 0u);
    EXPECT_GT(r.dataBusUtil, 0.0);
    EXPECT_LT(r.dataBusUtil, 1.0);
    EXPECT_GT(r.bandwidthGBs, 0.0);
    EXPECT_TRUE(r.sched.count("bursts_formed"));
}

TEST(Experiment, DeterministicForSeed)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.instructions = 15000;
    const RunResult a = runExperiment(cfg);
    const RunResult b = runExperiment(cfg);
    EXPECT_EQ(a.execCpuCycles, b.execCpuCycles);
    EXPECT_EQ(a.ctrl.reads, b.ctrl.reads);
}

TEST(Experiment, SeedChangesResult)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.instructions = 15000;
    const RunResult a = runExperiment(cfg);
    cfg.seed += 1;
    const RunResult b = runExperiment(cfg);
    EXPECT_NE(a.execCpuCycles, b.execCpuCycles);
}

TEST(Experiment, MechanismSweepCoversAll)
{
    const auto results = runMechanismSweep(
        "gzip",
        {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::BurstTH}, 15000);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].mechanism, ctrl::Mechanism::BkInOrder);
    EXPECT_EQ(results[1].mechanism, ctrl::Mechanism::BurstTH);
}

TEST(Experiment, PagePolicyOverride)
{
    ExperimentConfig cfg;
    cfg.workload = "gzip";
    cfg.instructions = 15000;
    cfg.pagePolicy = dram::PagePolicy::ClosePageAuto;
    const RunResult r = runExperiment(cfg);
    // Close-page-autoprecharge: no access can ever be a row hit or a
    // row conflict.
    EXPECT_DOUBLE_EQ(r.ctrl.rowHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.ctrl.rowConflictRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.ctrl.rowEmptyRate(), 1.0);
}

TEST(Experiment, AddressMapOverride)
{
    ExperimentConfig cfg;
    cfg.workload = "gzip";
    cfg.instructions = 15000;
    cfg.addressMap = dram::AddressMapKind::BitReversal;
    const RunResult r = runExperiment(cfg);
    EXPECT_GT(r.execCpuCycles, 0u);
}

TEST(Experiment, DefaultInstructionsEnvOverride)
{
    ::setenv("BURSTSIM_INSTR", "1234", 1);
    EXPECT_EQ(defaultInstructions(), 1234u);
    ::setenv("BURSTSIM_INSTR", "garbage", 1);
    EXPECT_EQ(defaultInstructions(), 150000u);
    ::unsetenv("BURSTSIM_INSTR");
    EXPECT_EQ(defaultInstructions(), 150000u);
}

TEST(Experiment, ThresholdOverrideChangesBehaviour)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 25000;
    cfg.threshold = 0;
    const RunResult wp = runExperiment(cfg);
    cfg.threshold = 64;
    const RunResult rp = runExperiment(cfg);
    // TH0 behaves like pure piggybacking: far lower write latency than
    // TH64 (pure preemption).
    EXPECT_LT(wp.ctrl.writeLatency.mean(), rp.ctrl.writeLatency.mean());
}

TEST(Experiment, DeviceGenerationOverride)
{
    ExperimentConfig cfg;
    cfg.workload = "gzip";
    cfg.instructions = 15000;
    cfg.device = DeviceGen::DDR_266;
    const RunResult old_dev = runExperiment(cfg);
    cfg.device = DeviceGen::DDR2_800;
    const RunResult new_dev = runExperiment(cfg);
    // The old device's bus runs at a third of the clock: with the same
    // workload it needs fewer memory cycles per CPU cycle but more CPU
    // cycles overall (less bandwidth).
    EXPECT_GT(old_dev.execCpuCycles, new_dev.execCpuCycles);
}

TEST(Experiment, OrganizationOverride)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.instructions = 15000;
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;
    cfg.banksPerRank = 2;
    const RunResult small = runExperiment(cfg);
    cfg.channels = 4;
    cfg.ranksPerChannel = 4;
    cfg.banksPerRank = 4;
    const RunResult big = runExperiment(cfg);
    EXPECT_GT(small.execCpuCycles, big.execCpuCycles)
        << "richer organization must not be slower";
}

TEST(Experiment, ExtendedMechanismSweepIncludesHistory)
{
    bool found = false;
    for (auto m : ctrl::kExtendedMechanisms)
        found = found || m == ctrl::Mechanism::AdaptiveHistory;
    EXPECT_TRUE(found);
    // The paper's Table 4 list stays at eight entries; the extended
    // list adds AdaptiveHistory plus the contention-aware zoo.
    EXPECT_EQ(std::size(ctrl::kAllMechanisms), 8u);
    EXPECT_EQ(std::size(ctrl::kExtendedMechanisms),
              9u + std::size(ctrl::kContentionMechanisms));
}

namespace
{

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r);
    return os.str();
}

/** Ignores traffic: a warm start sends none. */
struct NullPort : cpu::MemPort
{
    bool canSend(unsigned) const override { return true; }
    void sendRead(Addr, bool) override {}
    void sendWrite(Addr) override {}
};

} // namespace

TEST(Experiment, WarmReuseMatchesColdStart)
{
    // A point run right after another mechanism with the same warm key
    // restores the stored image; run after an unrelated key it
    // prewarms. Both must give the same result, and a run whose key
    // differs from the stored one only in the seed must prewarm.
    std::vector<std::string> workloads = trace::specProfileNames();
    workloads.push_back("pchase");
    const std::uint64_t seeds[] = {1, 2};
    const auto run = [](const std::string &w, std::uint64_t seed,
                        ctrl::Mechanism m, std::uint64_t instructions) {
        ExperimentConfig cfg;
        cfg.workload = w;
        cfg.seed = seed;
        cfg.mechanism = m;
        cfg.instructions = instructions;
        return resultJson(runExperiment(cfg));
    };
    const ctrl::Mechanism before = ctrl::Mechanism::BkInOrder;
    const ctrl::Mechanism point = ctrl::Mechanism::BurstTH;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const std::string &w = workloads[i];
        const std::string &other = workloads[(i + 1) % workloads.size()];
        std::string cold[2];
        for (int s = 0; s < 2; ++s) {
            run(other, seeds[s], before, 1);
            cold[s] = run(w, seeds[s], point, 2000);
        }
        run(w, seeds[0], before, 1);
        EXPECT_EQ(run(w, seeds[0], point, 2000), cold[0]) << w;
        EXPECT_EQ(run(w, seeds[1], point, 2000), cold[1]) << w;
        EXPECT_EQ(run(w, seeds[1], point, 2000), cold[1]) << w;
    }

    // The image itself: a key that differs from the stored one in any
    // single field the prewarm reads must not reuse it.
    NullPort port;
    const cpu::HierarchyConfig hc;
    const trace::SyntheticGenerator gen(trace::profileByName("swim"), 1, 1);
    cpu::CacheHierarchy probe(hc, port);
    const WarmKey base = warmKeyOf(probe, gen, 1);
    const WarmKey unrelated = [&] {
        WarmKey k = base;
        k.regionBase += 1ULL << 30;
        return k;
    }();
    // The caches warmStart() gives for @p k right after a cold warm
    // start of @p prior.
    const auto warmed = [&](const WarmKey &prior, const WarmKey &k) {
        for (const WarmKey *w : {&unrelated, &prior}) {
            cpu::CacheHierarchy first(hc, port);
            warmStart(first, *w);
        }
        cpu::CacheHierarchy h(hc, port);
        warmStart(h, k);
        return std::make_pair(h.l1d(), h.l2());
    };
    EXPECT_EQ(warmed(base, base), warmed(unrelated, base));
    std::vector<std::pair<const char *, WarmKey>> variants;
    const auto vary = [&](const char *field, auto change) {
        WarmKey k = base;
        change(k);
        variants.emplace_back(field, k);
    };
    vary("seed", [](WarmKey &k) { k.seed += 1; });
    vary("writeFraction", [](WarmKey &k) { k.writeFraction = 0.9; });
    vary("regionBase", [](WarmKey &k) { k.regionBase += 64; });
    vary("hotBytes", [](WarmKey &k) { k.hotBytes /= 2; });
    vary("readBases", [](WarmKey &k) { k.readBases[0] += 64; });
    vary("writeBases", [](WarmKey &k) { k.writeBases[0] += 64; });
    for (const auto &[field, k] : variants) {
        EXPECT_NE(warmed(unrelated, k), warmed(unrelated, base)) << field;
        EXPECT_EQ(warmed(base, k), warmed(unrelated, k)) << field;
    }
}
