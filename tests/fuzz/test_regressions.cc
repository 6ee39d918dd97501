/**
 * @file
 * Named regression tests for the bugs the differential fuzzer found
 * (one test per fixed bug, mirroring the minimised corpus entries) and
 * the hardening the fuzzing PR shipped alongside them: zero-window
 * timing constraints on DDR-266 and the refresh horizon walk under the
 * cycle-skipping engine with a refresh interval prime to skip spans.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fuzz/oracle.hh"
#include "obs/engine_introspect.hh"
#include "obs/obs_config.hh"
#include "obs/observability.hh"
#include "sim/report.hh"

using namespace bsim;
using namespace bsim::fuzz;

namespace
{

std::string
resultJson(const sim::RunResult &r)
{
    std::ostringstream os;
    sim::writeResultJson(os, r);
    return os.str();
}

/**
 * Run @p cfg on both engines and expect them to agree on the result
 * JSON and the stall-attribution JSON, and on the cycles each covers: a
 * second, introspected run per engine must count as many stepped plus
 * skipped cycles on the skip engine as the step engine steps.
 */
void
expectEnginesAgree(sim::ExperimentConfig cfg, const std::string &label)
{
    std::string json[2], stalls[2];
    std::uint64_t stepped[2], skipped[2];
    for (int e = 0; e < 2; ++e) {
        cfg.engine = e ? sim::EngineKind::Skip : sim::EngineKind::Step;
        cfg.obs.stallAttribution = true;
        cfg.obs.engineIntrospect = false;
        const sim::RunResult r = runExperiment(cfg);
        json[e] = resultJson(r);
        std::ostringstream os;
        r.obs->writeStallJson(os);
        stalls[e] = os.str();

        cfg.obs.stallAttribution = false;
        cfg.obs.engineIntrospect = true;
        const sim::RunResult ri = runExperiment(cfg);
        stepped[e] = ri.obs->introspect()->steppedCycles();
        skipped[e] = ri.obs->introspect()->skippedCycles();
    }
    EXPECT_EQ(json[0], json[1]) << label;
    EXPECT_EQ(stalls[0], stalls[1]) << label;
    EXPECT_EQ(skipped[0], 0u) << label;
    EXPECT_EQ(stepped[0], stepped[1] + skipped[1]) << label;
}

/** checkPoint() and fail with the full verdict on a regression. */
void
expectClean(const FuzzPoint &p)
{
    const OracleVerdict v = checkPoint(p);
    EXPECT_TRUE(v.ok) << pointLabel(p) << ": [" << v.oracle << "] "
                      << v.detail;
}

} // namespace

// Bug 1 (corpus: burst-rowhit-predictive.repro): the protocol
// auditor's burst-invariant check cleared the bank's disturbed flag in
// noteBurstRead(), erasing the record of the current command's own
// auto-precharge — the very disturbance that legitimises the next
// burst access opening a different row. Spurious burst_row_hit
// violations under every Burst-family scheduler with the predictive
// page policy.
TEST(FuzzRegressions, BurstRowHitUnderPredictivePolicy)
{
    FuzzPoint p;
    p.mechanism = ctrl::Mechanism::Burst;
    p.pagePolicy = dram::PagePolicy::Predictive;
    expectClean(p);
}

// Bug 1, latent variant (corpus: burst-rowhit-cpa.repro): under
// close-page-auto every access auto-precharges, so a single-timestamp
// "disturbed at" fix loses the older disturbance when a newer
// same-bank auto-precharge overwrites it. The auditor must fold an
// unconsumed self-precharge into the ordinary disturbed flag.
TEST(FuzzRegressions, BurstRowHitUnderClosePageAuto)
{
    FuzzPoint p;
    p.mechanism = ctrl::Mechanism::Burst;
    p.pagePolicy = dram::PagePolicy::ClosePageAuto;
    expectClean(p);
}

// Bug 2 (corpus: refresh-starvation-*.repro): a busy burst scheduler
// re-activated banks as fast as the refresh engine precharged them, so
// a pending RefreshAll starved forever and the forward-progress
// watchdog fired (ACT/PRE ping-pong, nothing retiring). Fixed by the
// refresh-drain gate (StallCause::RefreshDrain): no new activates to a
// refresh-pending rank.
TEST(FuzzRegressions, RefreshStarvationBurstWpRefreshHeavy)
{
    FuzzPoint p;
    p.workload = "swim";
    p.mechanism = ctrl::Mechanism::BurstWP;
    p.instructions = 1500;
    p.seed = 200763;
    p.pagePolicy = dram::PagePolicy::ClosePageAuto;
    p.addressMap = dram::AddressMapKind::BlockInterleave;
    p.device = sim::DeviceGen::DDR_266;
    p.timingVariant = sim::TimingVariant::RefreshHeavy;
    p.robSize = 8;
    expectClean(p);
}

TEST(FuzzRegressions, RefreshStarvationBurstRpEightBanks)
{
    FuzzPoint p;
    p.workload = "swim";
    p.mechanism = ctrl::Mechanism::BurstRP;
    p.instructions = 2000;
    p.addressMap = dram::AddressMapKind::BlockInterleave;
    p.device = sim::DeviceGen::DDR_266;
    p.timingVariant = sim::TimingVariant::RefreshPrime;
    p.channels = 1;
    p.banksPerRank = 8;
    expectClean(p);
}

// Satellite: DDR-266 runs with zero-width activate windows (tFAW=0 and
// tRRD=0 under the zero-windows variant) must be audit-fatal clean —
// the device model and the auditor must both treat a zero window as
// "constraint absent", not "always violated".
TEST(FuzzRegressions, Ddr266ZeroWindowsAuditFatalClean)
{
    for (auto m : {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::Burst,
                   ctrl::Mechanism::BurstTH}) {
        FuzzPoint p;
        p.mechanism = m;
        p.device = sim::DeviceGen::DDR_266;
        p.timingVariant = sim::TimingVariant::ZeroWindows;
        expectClean(p);
    }
}

TEST(FuzzRegressions, Ddr266BaselineAuditFatalClean)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "mcf";
    cfg.instructions = 8000;
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.device = sim::DeviceGen::DDR_266;
    cfg.obs.audit = obs::AuditMode::Fatal;
    EXPECT_NO_THROW(runExperiment(cfg)); // Fatal audit throws on any hit
}

// The controller's refresh walk, which tick() applies and
// nextEventTick() stops at, must stay exact under the skip engine when
// tREFI is prime relative to every natural skip span — 3119 and 1039
// are prime, so refresh deadlines land at maximally awkward offsets
// inside skipped regions. Identical output against the step engine
// proves no refresh is deferred or doubled. Close-page-auto leaves
// banks closed, so a due rank can refresh at once, in the same tick
// its drain gate closes.
TEST(FuzzRegressions, RefreshPrimeEngineEquivalence)
{
    for (auto dev : {sim::DeviceGen::DDR2_800, sim::DeviceGen::DDR_266}) {
        for (auto m : {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::Burst,
                       ctrl::Mechanism::AdaptiveHistory}) {
            for (auto pp : {dram::PagePolicy::OpenPage,
                            dram::PagePolicy::ClosePageAuto}) {
                sim::ExperimentConfig cfg;
                cfg.workload = "swim";
                cfg.instructions = 12000;
                cfg.mechanism = m;
                cfg.device = dev;
                cfg.pagePolicy = pp;
                cfg.timingVariant = sim::TimingVariant::RefreshPrime;
                expectEnginesAgree(
                    cfg, std::string(ctrl::mechanismName(m)) + " on " +
                             sim::deviceGenName(dev) +
                             (pp == dram::PagePolicy::OpenPage ? ""
                                                               : ", cpa"));
            }
        }
    }
}

// The refresh-heavy variant maximises drain-gate traffic; equivalence
// here pins the gate's set/clear points to the same ticks in both
// engines (a gate change bumps the channel's device epoch, which the
// skip engine's caches key on, so a gate set or cleared at another
// tick would surface as a one-byte diff in the result or stall JSON).
TEST(FuzzRegressions, RefreshHeavyEngineEquivalence)
{
    for (auto pp :
         {dram::PagePolicy::OpenPage, dram::PagePolicy::ClosePageAuto}) {
        sim::ExperimentConfig cfg;
        cfg.workload = "swim";
        cfg.instructions = 12000;
        cfg.mechanism = ctrl::Mechanism::BurstTH;
        cfg.device = sim::DeviceGen::DDR_266;
        cfg.pagePolicy = pp;
        cfg.timingVariant = sim::TimingVariant::RefreshHeavy;
        expectEnginesAgree(
            cfg, pp == dram::PagePolicy::OpenPage ? "open" : "cpa");
    }
}
