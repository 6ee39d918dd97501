/**
 * @file
 * Engine equivalence: the event-driven cycle-skipping engine must be
 * byte-identical to the tick-accurate step engine — not approximately
 * equal, identical. Every statistic the simulator can emit (result
 * JSON, stall-attribution JSON, metrics time series) is compared as a
 * rendered string across the nine scheduler classes, single-core and
 * CMP, DDR2-800 and DDR-266, with and without observability pillars.
 *
 * This suite is what licenses every horizon shortcut in the skip
 * engine: a scheduler nextEventTick() that overshoots, a stale horizon
 * memo, or a non-idempotent idle-span replay shows up here as a
 * one-byte diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep_runner.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_gen.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

constexpr std::uint64_t kInstr = 20'000;

/** One mechanism per scheduler implementation: the five single-core
 *  classes plus the four contention-aware CMP families, and Burst_TH
 *  and Intel_RP, the only variants whose arbiters preempt or
 *  piggyback. */
const ctrl::Mechanism kSchedulerClasses[] = {
    ctrl::Mechanism::BkInOrder,       ctrl::Mechanism::RowHit,
    ctrl::Mechanism::Intel,           ctrl::Mechanism::Burst,
    ctrl::Mechanism::AdaptiveHistory, ctrl::Mechanism::FrFcfs,
    ctrl::Mechanism::Parbs,           ctrl::Mechanism::Atlas,
    ctrl::Mechanism::Bliss,           ctrl::Mechanism::BurstTH,
    ctrl::Mechanism::IntelRP,
};

/** gtest parameter names must be alphanumeric: "FR-FCFS" -> "FR_FCFS". */
std::string
paramSafe(std::string s)
{
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r);
    return os.str();
}

RunResult
runWith(ExperimentConfig cfg, EngineKind engine)
{
    cfg.engine = engine;
    return runExperiment(cfg);
}

/** @p json (pretty-printed) without its top-level member @p key. */
std::string
withoutJsonSection(const std::string &json, const std::string &key)
{
    const std::size_t from = json.find("\n  \"" + key + "\": ");
    if (from == std::string::npos)
        return json;
    std::size_t to = json.find("\n  \"", from + 1); // next member
    if (to == std::string::npos)
        to = json.rfind("\n}");
    return json.substr(0, from) + json.substr(to);
}

/** @p csv without the columns named in @p drop. */
std::string
withoutCsvColumns(const std::string &csv,
                  const std::vector<std::string> &drop)
{
    std::istringstream in(csv);
    std::string line, out;
    std::vector<bool> keep;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::istringstream ls(line);
        for (std::string c; std::getline(ls, c, ',');)
            cells.push_back(c);
        if (keep.empty())
            for (const std::string &c : cells)
                keep.push_back(std::find(drop.begin(), drop.end(), c) ==
                               drop.end());
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (i >= keep.size() || keep[i])
                out += cells[i] + ',';
        out += '\n';
    }
    return out;
}

} // namespace

class EveryPair
    : public testing::TestWithParam<std::tuple<ctrl::Mechanism, std::string>>
{
};

TEST_P(EveryPair, ResultJsonByteIdentical)
{
    ExperimentConfig cfg;
    cfg.mechanism = std::get<0>(GetParam());
    cfg.workload = std::get<1>(GetParam());
    cfg.instructions = kInstr;

    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);

    EXPECT_EQ(step.execCpuCycles, skip.execCpuCycles);
    EXPECT_EQ(step.memCycles, skip.memCycles);
    EXPECT_EQ(resultJson(step), resultJson(skip));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EveryPair,
    testing::Combine(testing::ValuesIn(kSchedulerClasses),
                     testing::Values(std::string("mcf"),
                                     std::string("swim"),
                                     std::string("gzip"))),
    [](const auto &info) {
        return paramSafe(
            std::string(ctrl::mechanismName(std::get<0>(info.param))) +
            "_" + std::get<1>(info.param));
    });

TEST(EngineEquivalence, LowMlpMicrobenchmark)
{
    // pchase maximizes the skipped-span fraction: the most aggressive
    // exercise of the horizon machinery.
    for (auto m : {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::BurstTH}) {
        ExperimentConfig cfg;
        cfg.workload = "pchase";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        const RunResult step = runWith(cfg, EngineKind::Step);
        const RunResult skip = runWith(cfg, EngineKind::Skip);
        EXPECT_EQ(resultJson(step), resultJson(skip))
            << ctrl::mechanismName(m);
    }
}

TEST(EngineEquivalence, Ddr266ByteIdentical)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.device = DeviceGen::DDR_266;
    cfg.instructions = kInstr;
    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);
    EXPECT_EQ(resultJson(step), resultJson(skip));
}

TEST(EngineEquivalence, ObservabilityPillarsByteIdentical)
{
    // Stall attribution forces the per-tick stall scan (the lazy
    // horizon-memo path is off), but spans are still skipped with bulk
    // attribution; every pillar's export must not notice.
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = kInstr;
    cfg.obs.latencyBreakdown = true;
    cfg.obs.metricsInterval = 512;
    cfg.obs.stallAttribution = true;
    cfg.obs.audit = obs::AuditMode::Warn;

    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);

    EXPECT_EQ(resultJson(step), resultJson(skip));

    ASSERT_NE(step.obs, nullptr);
    ASSERT_NE(skip.obs, nullptr);
    const auto render = [](const obs::Observability &o, auto writer) {
        std::ostringstream os;
        (o.*writer)(os);
        return os.str();
    };
    EXPECT_EQ(render(*step.obs, &obs::Observability::writeStallJson),
              render(*skip.obs, &obs::Observability::writeStallJson));
    EXPECT_EQ(render(*step.obs, &obs::Observability::writeMetricsJson),
              render(*skip.obs, &obs::Observability::writeMetricsJson));

    // And the skip engine must not bend the DDR2 protocol to get there.
    EXPECT_EQ(step.obs->auditor()->violationCount(), 0u);
    EXPECT_EQ(skip.obs->auditor()->violationCount(), 0u);
}

TEST(EngineEquivalence, EveryPillarAtOnceByteIdenticalForEveryClass)
{
    // Every pillar at once, on every scheduler class and on a CMP mix:
    // the skip engine skips spans with bulk stall attribution and
    // reuses stall scans across memo hits, and no export may notice.
    // Only the introspection pillar describes the engine itself, so its
    // result-JSON section and its two metrics columns are left out of
    // the comparison.
    std::vector<std::pair<ctrl::Mechanism, std::string>> runs;
    for (ctrl::Mechanism m : kSchedulerClasses)
        runs.emplace_back(m, "swim");
    runs.emplace_back(ctrl::Mechanism::BurstTH, "swim+mcf");

    for (const auto &[mech, workload] : runs) {
        SCOPED_TRACE(std::string(ctrl::mechanismName(mech)) + " " +
                     workload);
        ExperimentConfig cfg;
        cfg.workload = workload;
        cfg.mechanism = mech;
        cfg.instructions = kInstr;
        cfg.obs.latencyBreakdown = true;
        cfg.obs.metricsInterval = 512;
        cfg.obs.perCoreMetrics = true;
        cfg.obs.stallAttribution = true;
        cfg.obs.critPath = true;
        cfg.obs.critPathRetain = true;
        cfg.obs.commandTrace = true;
        cfg.obs.engineIntrospect = true;
        cfg.obs.audit = obs::AuditMode::Warn;

        const RunResult step = runWith(cfg, EngineKind::Step);
        const RunResult skip = runWith(cfg, EngineKind::Skip);

        EXPECT_EQ(withoutJsonSection(resultJson(step), "engine_introspect"),
                  withoutJsonSection(resultJson(skip), "engine_introspect"));

        ASSERT_NE(step.obs, nullptr);
        ASSERT_NE(skip.obs, nullptr);
        const auto render = [](const obs::Observability &o, auto writer) {
            std::ostringstream os;
            (o.*writer)(os);
            return os.str();
        };
        EXPECT_EQ(render(*step.obs, &obs::Observability::writeStallJson),
                  render(*skip.obs, &obs::Observability::writeStallJson));
        const std::string csv_step = withoutCsvColumns(
            render(*step.obs, &obs::Observability::writeMetricsCsv),
            {"stepped_cycles", "skipped_cycles"});
        EXPECT_NE(csv_step.find(",rq_core0,"), std::string::npos);
        EXPECT_EQ(csv_step,
                  withoutCsvColumns(
                      render(*skip.obs,
                             &obs::Observability::writeMetricsCsv),
                      {"stepped_cycles", "skipped_cycles"}));
        EXPECT_EQ(render(*step.obs, &obs::Observability::writeChromeTrace),
                  render(*skip.obs, &obs::Observability::writeChromeTrace));

        const obs::CritPathTracer *ts = step.obs->critpath();
        const obs::CritPathTracer *tk = skip.obs->critpath();
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(tk, nullptr);
        EXPECT_GT(ts->retained().size(), 0u);
        EXPECT_EQ(ts->retained().size(), tk->retained().size());
        EXPECT_EQ(ts->digest(), tk->digest());

        // And the skip engine must not bend the DDR2 protocol to get
        // there.
        EXPECT_EQ(step.obs->auditor()->violationCount(), 0u);
        EXPECT_EQ(skip.obs->auditor()->violationCount(), 0u);
    }
}

TEST(EngineEquivalence, WatermarkDrainByteIdentical)
{
    // The watermark write-drain mode reads the GLOBAL write count, so
    // its flip lattice is the hardest cross-channel case the horizon
    // memo faces (an idle channel must not flip on remote traffic the
    // skip engine never wakes for). Every family, two workloads, with
    // the full cache stack and with the memo off.
    for (auto m : ctrl::kContentionMechanisms) {
        for (const char *wl : {"mcf", "swim"}) {
            ExperimentConfig cfg;
            cfg.workload = wl;
            cfg.mechanism = m;
            cfg.instructions = kInstr;
            cfg.watermarkDrain = true;
            const RunResult step = runWith(cfg, EngineKind::Step);
            const RunResult skip = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(skip))
                << ctrl::mechanismName(m) << " " << wl;
            cfg.horizonMemo = false;
            const RunResult bare = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(bare))
                << ctrl::mechanismName(m) << " " << wl << " (no memo)";
        }
    }
}

TEST(EngineEquivalence, CmpByteIdentical)
{
    ExperimentConfig cfg;
    cfg.workload = "swim+mcf";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = kInstr;
    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);

    const auto render = [](const RunResult &r) {
        std::ostringstream os;
        writeResultJson(os, r);
        return os.str();
    };
    EXPECT_EQ(step.execCpuCycles, skip.execCpuCycles);
    EXPECT_EQ(render(step), render(skip));
}

// ---------------------------------------------------------------------
// Horizon-memo invalidation edge cases. The skip engine caches per-bank
// release bounds and a per-channel horizon memo keyed on a scheduler
// "global signature" (threshold band, write-cap band). Each test below
// pins one way that cache can go stale if an invalidation hook is
// missing; all of them demand byte-identical statistics.
// ---------------------------------------------------------------------

TEST_P(EveryPair, MemoOffByteIdentical)
{
    // --no-horizon-memo must be purely an implementation toggle: same
    // result JSON as both the memoized skip engine and the step engine.
    ExperimentConfig cfg;
    cfg.mechanism = std::get<0>(GetParam());
    cfg.workload = std::get<1>(GetParam());
    cfg.instructions = kInstr;

    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);
    cfg.horizonMemo = false;
    const RunResult bare = runWith(cfg, EngineKind::Skip);

    EXPECT_EQ(resultJson(step), resultJson(bare));
    EXPECT_EQ(resultJson(skip), resultJson(bare));
}

TEST(HorizonMemoEdgeCases, MemoIsTransparentToSkipDecisions)
{
    // Stronger than byte-identical stats: the caches must not change
    // *which* cycles are skipped, nor why. Every introspection count
    // except the two cache counters (sched_memo, front_horizon) must
    // match exactly between memo-on and memo-off runs (the fuzzer's
    // memo_transparency oracle checks the totals too). mcf keeps the
    // channels busy; pchase skips most cycles.
    for (const char *workload : {"mcf", "pchase"}) {
        for (auto m : kSchedulerClasses) {
            SCOPED_TRACE(std::string(ctrl::mechanismName(m)) + " " +
                         workload);
            ExperimentConfig cfg;
            cfg.workload = workload;
            cfg.mechanism = m;
            cfg.instructions = kInstr;
            cfg.engine = EngineKind::Skip;
            cfg.obs.engineIntrospect = true;

            cfg.horizonMemo = true;
            const RunResult memo = runExperiment(cfg);
            cfg.horizonMemo = false;
            const RunResult bare = runExperiment(cfg);

            ASSERT_NE(memo.obs, nullptr);
            ASSERT_NE(bare.obs, nullptr);
            const auto *im = memo.obs->introspect();
            const auto *ib = bare.obs->introspect();
            EXPECT_EQ(memo.memCycles, bare.memCycles);
            EXPECT_EQ(im->steppedCycles(), ib->steppedCycles());
            EXPECT_EQ(im->skippedCycles(), ib->skippedCycles());
            EXPECT_EQ(im->skipSpans(), ib->skipSpans());
            EXPECT_EQ(im->blockedTotal(), ib->blockedTotal());
            for (std::size_t i = 0; i < obs::kNumWakeReasons; ++i) {
                const auto r = obs::WakeReason(i);
                EXPECT_EQ(im->wakeCount(r), ib->wakeCount(r))
                    << obs::wakeReasonName(r);
                EXPECT_EQ(im->skippedBy(r), ib->skippedBy(r))
                    << obs::wakeReasonName(r);
                EXPECT_EQ(im->blockedCount(r), ib->blockedCount(r))
                    << obs::wakeReasonName(r);
            }
            for (std::size_t b = 0; b < obs::kNumSpanBuckets; ++b)
                EXPECT_EQ(im->spanBucket(b), ib->spanBucket(b))
                    << obs::EngineIntrospect::spanBucketLabel(b);
        }
    }
}

TEST(HorizonMemoEdgeCases, ArrivalRacingThresholdFlip)
{
    // A tiny Burst threshold keeps writesOutstanding hovering around
    // the threshold band edges, so cross-channel arrivals flip the
    // drain decision *while the other channel's memo is armed*. The
    // signature band compare must catch every flip.
    for (std::size_t th : {std::size_t(1), std::size_t(4), std::size_t(16)}) {
        for (auto m : {ctrl::Mechanism::Burst, ctrl::Mechanism::BurstTH,
                       ctrl::Mechanism::Intel}) {
            ExperimentConfig cfg;
            cfg.workload = "swim"; // highest write fraction in the set
            cfg.mechanism = m;
            cfg.threshold = th;
            cfg.instructions = kInstr;
            const RunResult step = runWith(cfg, EngineKind::Step);
            const RunResult skip = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(skip))
                << ctrl::mechanismName(m) << " threshold=" << th;
        }
    }
}

TEST(HorizonMemoEdgeCases, RefreshDrainGateDuringCachedSpan)
{
    // Low-MLP traffic arms long cached spans; a refresh-dominated
    // tREFI forces the drain gate to close in the middle of them. A
    // cached Activate bound that ignored the gate would either issue
    // into the drain (audit violation / panic) or stall late (stat
    // diff).
    for (auto m : kSchedulerClasses) {
        ExperimentConfig cfg;
        cfg.workload = "pchase";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        cfg.timingVariant = TimingVariant::RefreshHeavy;
        const RunResult step = runWith(cfg, EngineKind::Step);
        const RunResult skip = runWith(cfg, EngineKind::Skip);
        EXPECT_EQ(resultJson(step), resultJson(skip))
            << ctrl::mechanismName(m);
    }
}

TEST(HorizonMemoEdgeCases, FuzzDerivedTimingVariants)
{
    // The timing perturbations the differential fuzzer mines (prime
    // tREFI against the span lattice, zero inter-activate windows,
    // refresh off) — each family must stay byte-identical under all of
    // them with the full cache stack on.
    for (std::size_t v = 0; v < kNumTimingVariants; ++v) {
        for (auto m : kSchedulerClasses) {
            ExperimentConfig cfg;
            cfg.workload = "mcf";
            cfg.mechanism = m;
            cfg.instructions = kInstr / 2;
            cfg.timingVariant = TimingVariant(v);
            const RunResult step = runWith(cfg, EngineKind::Step);
            const RunResult skip = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(skip))
                << ctrl::mechanismName(m) << " variant="
                << timingVariantName(TimingVariant(v));
        }
    }
}

TEST(HorizonMemoEdgeCases, McfLikeBlockingCoreSkipsMajorityOfCycles)
{
    // The perf claim behind this machinery, asserted as a regression
    // gate: on a low-MLP (blocking) core running the mcf profile, the
    // skip engine must skip at least half of all memory cycles for the
    // main read-priority families. Measured ~60% for each; 50% leaves
    // margin without tolerating a horizon regression.
    for (auto m : {ctrl::Mechanism::Burst, ctrl::Mechanism::Intel,
                   ctrl::Mechanism::RowHit}) {
        ExperimentConfig cfg;
        cfg.workload = "mcf";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        cfg.robSize = 1;
        cfg.issueWidth = 1;
        cfg.engine = EngineKind::Skip;
        cfg.obs.engineIntrospect = true;
        const RunResult r = runExperiment(cfg);
        ASSERT_NE(r.obs, nullptr);
        const auto *in = r.obs->introspect();
        ASSERT_NE(in, nullptr);
        EXPECT_TRUE(in->identityHolds(r.memCycles))
            << ctrl::mechanismName(m);
        EXPECT_GE(in->skippedCycles() * 2, r.memCycles)
            << ctrl::mechanismName(m) << ": skipped "
            << in->skippedCycles() << " of " << r.memCycles;
    }
}

// ---------------------------------------------------------------------
// Heavy back-pressure: two MSHRs per core and a two-slot FSB queue keep
// loads and stores parked most of the time, so the skip engine batches
// parked cores, wakes them on FSB pops and MSHR releases, and charges
// store stalls in bulk. Every counter must still match the step engine.
// ---------------------------------------------------------------------

namespace
{

/** Run @p workloads (one core each, disjoint regions, cold caches) on a
 *  back-pressured machine and render every statistic it keeps. */
std::string
backPressuredRun(const std::vector<std::string> &workloads,
                 ctrl::Mechanism m, EngineKind engine,
                 const std::function<void(ctrl::ControllerConfig &)>
                     &tweak = {})
{
    SystemConfig cfg = SystemConfig::baseline();
    cfg.ctrl.mechanism = m;
    cfg.caches.mshrs = 2;
    cfg.memQueueCap = 2;
    cfg.engine = engine;
    if (tweak)
        tweak(cfg.ctrl);

    std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens;
    std::vector<trace::TraceSource *> sources;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        trace::WorkloadProfile prof = trace::profileByName(workloads[i]);
        prof.regionBase += Addr(i) * (prof.footprintBytes + (64ULL << 20));
        gens.push_back(std::make_unique<trace::SyntheticGenerator>(
            prof, kInstr, 20070212 + i));
        sources.push_back(gens.back().get());
    }
    System sys(cfg, sources);
    sys.run(kInstr * 400 * workloads.size());
    EXPECT_TRUE(sys.done()) << ctrl::mechanismName(m);

    RunResult r;
    for (const std::string &wl : workloads)
        r.workload += (r.workload.empty() ? "" : "+") + wl;
    r.mechanism = m;
    r.instructions = kInstr;
    r.execCpuCycles = sys.execCpuCycles();
    for (std::uint32_t i = 0; i < sys.numCores(); ++i)
        r.perCoreCpuCycles.push_back(sys.coreExecCpuCycles(i));
    r.ctrl = sys.controller().stats();
    r.dataBusUtil = sys.mem().dataBusUtilization(sys.memCycles());
    std::ostringstream os;
    writeResultJson(os, r);
    os << "mem_cycles " << sys.memCycles() << '\n';
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const cpu::Core &c = sys.core(i);
        const cpu::CacheHierarchy &h = sys.caches(i);
        os << "core" << i << ' ' << sys.coreExecCpuCycles(i) << ' '
           << c.retired() << ' ' << c.loads() << ' ' << c.stores() << ' '
           << c.headStallCycles() << ' ' << c.storeStallCycles() << ' '
           << h.l1d().hits() << ' ' << h.l1d().misses() << ' '
           << h.l2().hits() << ' ' << h.l2().misses() << ' '
           << h.memReads() << ' ' << h.memWrites() << ' '
           << h.mshrMerges() << '\n';
        EXPECT_EQ(h.l2().misses(), h.memReads());
    }
    for (const auto &[k, v] : sys.controller().schedulerStats())
        os << k << ' ' << v << '\n';
    return os.str();
}

} // namespace

class BackPressure : public testing::TestWithParam<ctrl::Mechanism>
{
};

TEST_P(BackPressure, SingleCoreByteIdentical)
{
    for (const char *wl : {"swim", "art"}) {
        const std::vector<std::string> wls = {wl};
        EXPECT_EQ(backPressuredRun(wls, GetParam(), EngineKind::Step),
                  backPressuredRun(wls, GetParam(), EngineKind::Skip))
            << wl;
    }
}

TEST_P(BackPressure, FourCoreCmpByteIdentical)
{
    const std::vector<std::string> wls = {"mcf", "swim", "art", "gcc"};
    EXPECT_EQ(backPressuredRun(wls, GetParam(), EngineKind::Step),
              backPressuredRun(wls, GetParam(), EngineKind::Skip));
    // The contention families' watermark drain flips on the global
    // write count, which four cores move from every channel.
    if (!ctrl::isContentionMechanism(GetParam()))
        return;
    const auto drain = [](ctrl::ControllerConfig &c) {
        c.watermarkDrain = true;
    };
    EXPECT_EQ(backPressuredRun(wls, GetParam(), EngineKind::Step, drain),
              backPressuredRun(wls, GetParam(), EngineKind::Skip, drain))
        << "with --watermark-drain";
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BackPressure, testing::ValuesIn(kSchedulerClasses),
    [](const auto &info) {
        return paramSafe(ctrl::mechanismName(info.param));
    });

TEST(BackPressureBurst, ExtensionSwitchesByteIdentical)
{
    // Every branch of Burst's masked bank arbiter: dynamic threshold,
    // largest-burst-first, critical-first joins, rank-blind priorities,
    // with and without preemption and piggybacking.
    const auto extensions = [](ctrl::ControllerConfig &c) {
        c.dynamicThreshold = true;
        c.sortBurstsBySize = true;
        c.criticalFirst = true;
        c.rankAware = false;
    };
    for (auto m : {ctrl::Mechanism::Burst, ctrl::Mechanism::BurstRP,
                   ctrl::Mechanism::BurstWP, ctrl::Mechanism::BurstTH}) {
        for (const std::vector<std::string> &wls :
             {std::vector<std::string>{"swim"},
              std::vector<std::string>{"mcf", "swim", "art", "gcc"}}) {
            EXPECT_EQ(
                backPressuredRun(wls, m, EngineKind::Step, extensions),
                backPressuredRun(wls, m, EngineKind::Skip, extensions))
                << ctrl::mechanismName(m) << " on " << wls.size()
                << " core(s)";
        }
    }
}

TEST(SweepRunnerDeterminism, JobsDoNotChangeResults)
{
    // The same sweep on one worker and on eight must aggregate to
    // byte-identical results in the same order — completion-order
    // independence is the SweepRunner's contract.
    const std::vector<ctrl::Mechanism> mechs(
        std::begin(ctrl::kAllMechanisms), std::end(ctrl::kAllMechanisms));
    const auto serial = runMechanismSweep("gzip", mechs, kInstr, 1);
    const auto parallel = runMechanismSweep("gzip", mechs, kInstr, 8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].mechanism, parallel[i].mechanism);
        EXPECT_EQ(resultJson(serial[i]), resultJson(parallel[i]))
            << ctrl::mechanismName(mechs[i]);
    }
}

TEST(SweepRunnerDeterminism, MapPreservesIndexOrder)
{
    SweepRunner pool(4);
    const auto out = pool.map<int>(64, [](std::size_t i) {
        return int(i) * 3; // trivially index-dependent
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i) * 3);
}
