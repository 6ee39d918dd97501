/**
 * @file
 * Contention-aware scheduler zoo: family arbitration semantics driven
 * through the scheduler harness (FR-FCFS row-hit-first, PAR-BS batch
 * marking and shortest-job ranking, ATLAS attained-service ranking,
 * BLISS streak blacklisting), the watermark write-drain mode, the
 * factory's unknown-mechanism diagnostics, and audit-fatal smoke runs
 * of every family across all timing variants.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ctrl/schedulers/factory.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

#include "sched_test_util.hh"
#include "sim_error_util.hh"

using namespace bsim;
using schedtest::Harness;

namespace
{

std::vector<std::uint64_t>
idsOf(const std::vector<ctrl::MemAccess *> &order)
{
    std::vector<std::uint64_t> ids;
    for (const ctrl::MemAccess *a : order)
        ids.push_back(a->id);
    return ids;
}

} // namespace

// ---------------------------------------------------------------------
// Naming and factory diagnostics.

TEST(ContentionZoo, NamesRoundTripThroughParseMechanism)
{
    for (ctrl::Mechanism m : ctrl::kContentionMechanisms) {
        EXPECT_TRUE(ctrl::isContentionMechanism(m));
        EXPECT_EQ(ctrl::parseMechanism(ctrl::mechanismName(m)), m);
    }
    EXPECT_EQ(ctrl::parseMechanism("FR-FCFS"), ctrl::Mechanism::FrFcfs);
    EXPECT_EQ(ctrl::parseMechanism("PARBS"), ctrl::Mechanism::Parbs);
    EXPECT_EQ(ctrl::parseMechanism("ATLAS"), ctrl::Mechanism::Atlas);
    EXPECT_EQ(ctrl::parseMechanism("BLISS"), ctrl::Mechanism::Bliss);
    EXPECT_FALSE(ctrl::isContentionMechanism(ctrl::Mechanism::Burst));
    EXPECT_FALSE(ctrl::isContentionMechanism(ctrl::Mechanism::BkInOrder));
}

TEST(ContentionZoo, ParseRejectsUnknownNameWithDiagnostic)
{
    EXPECT_SIM_ERROR(ctrl::parseMechanism("FRFCFS"),
                     ErrorCategory::Config, "unknown mechanism");
}

TEST(ContentionZoo, FactoryNamesTheOffendingMechanism)
{
    dram::MemorySystem mem(schedtest::smallDram());
    ctrl::GlobalCounts counts;
    ctrl::SchedulerContext ctx;
    ctx.mem = &mem;
    ctx.channel = 0;
    ctx.global = &counts;
    EXPECT_SIM_ERROR(ctrl::makeScheduler(ctrl::Mechanism(250), ctx),
                     ErrorCategory::Config, "unrecognized mechanism");
}

// ---------------------------------------------------------------------
// FR-FCFS: ready row hits first, then oldest arrival.

TEST(FrFcfs, RowHitOvertakesOlderRowMiss)
{
    Harness h(ctrl::Mechanism::FrFcfs);
    auto *a = h.add(AccessType::Read, 0, 0, /*row=*/0, 0, /*arrival=*/0);
    auto *b = h.add(AccessType::Read, 0, 0, /*row=*/1, 0, /*arrival=*/1);
    auto *c = h.add(AccessType::Read, 0, 0, /*row=*/0, 1, /*arrival=*/2);

    Tick now = 0;
    const auto order = h.drain(now);
    // A opens row 0; C then hits the open row and overtakes the older
    // row-miss B.
    EXPECT_EQ(idsOf(order),
              (std::vector<std::uint64_t>{a->id, c->id, b->id}));
}

// ---------------------------------------------------------------------
// PAR-BS: batch marking plus shortest-job-first thread ranking.

TEST(Parbs, LightThreadRanksAheadInsideTheNextBatch)
{
    Harness h(ctrl::Mechanism::Parbs);
    // Thread 2's first request ends the empty spell, so the first
    // batch is just {t2a}. The remaining three requests all land in
    // the second batch, formed when t2a's column access issues.
    auto *t2a = h.add(AccessType::Read, 0, 0, 0, 0, /*arr=*/0, /*tag=*/2);
    auto *t2b = h.add(AccessType::Read, 0, 0, 1, 0, /*arr=*/1, /*tag=*/2);
    auto *t2c = h.add(AccessType::Read, 0, 0, 2, 0, /*arr=*/2, /*tag=*/2);
    auto *t1d = h.add(AccessType::Read, 0, 0, 3, 0, /*arr=*/3, /*tag=*/1);

    Tick now = 0;
    const auto order = h.drain(now);
    // Batch 2 load: thread 1 has 1 request, thread 2 has 2 — shortest
    // job first ranks thread 1 ahead, so t1d overtakes the older t2b.
    EXPECT_EQ(idsOf(order), (std::vector<std::uint64_t>{
                                t2a->id, t1d->id, t2b->id, t2c->id}));

    const auto stats = h.sched().extraStats();
    ASSERT_TRUE(stats.count("parbs_batches"));
    EXPECT_EQ(stats.at("parbs_batches"), 2.0);
    EXPECT_EQ(stats.at("parbs_marked_served"), 4.0);
}

// ---------------------------------------------------------------------
// ATLAS: least long-term attained service wins at quantum boundaries.

TEST(Atlas, ServedThreadYieldsToNewcomerAfterQuantumFold)
{
    ctrl::SchedulerParams params;
    params.atlasQuantum = 64;
    Harness h(ctrl::Mechanism::Atlas, schedtest::smallDram(), params);

    // Phase 1: thread 1 alone attains service inside the first quantum.
    h.add(AccessType::Read, 0, 0, 0, 0, /*arr=*/0, /*tag=*/1);
    Tick now = 0;
    h.drain(now);

    // Phase 2: past a quantum boundary the fold credits thread 1's
    // service, so thread 2 (zero attained service) outranks it even
    // though thread 1's request is older.
    now = 128;
    auto *t1 = h.add(AccessType::Read, 0, 0, 1, 0, /*arr=*/128, /*tag=*/1);
    auto *t2 = h.add(AccessType::Read, 0, 0, 2, 0, /*arr=*/129, /*tag=*/2);
    const auto order = h.drain(now);
    EXPECT_EQ(idsOf(order), (std::vector<std::uint64_t>{t2->id, t1->id}));

    const auto stats = h.sched().extraStats();
    ASSERT_TRUE(stats.count("atlas_threads"));
    EXPECT_EQ(stats.at("atlas_threads"), 2.0);
}

// ---------------------------------------------------------------------
// BLISS: a served streak blacklists the thread (deprioritized, never
// blocked).

TEST(Bliss, StreakBlacklistsThreadButDoesNotBlockIt)
{
    ctrl::SchedulerParams params;
    params.blissThreshold = 2;
    Harness h(ctrl::Mechanism::Bliss, schedtest::smallDram(), params);

    auto *t1a = h.add(AccessType::Read, 0, 0, 0, 0, /*arr=*/0, /*tag=*/1);
    auto *t1b = h.add(AccessType::Read, 0, 0, 1, 0, /*arr=*/1, /*tag=*/1);
    auto *t1c = h.add(AccessType::Read, 0, 0, 2, 0, /*arr=*/2, /*tag=*/1);
    auto *t2d = h.add(AccessType::Read, 0, 0, 3, 0, /*arr=*/3, /*tag=*/2);

    Tick now = 0;
    const auto order = h.drain(now);
    // Thread 1's second consecutive serve trips the threshold; the
    // younger thread 2 then overtakes, and the blacklisted thread 1
    // still finishes (deprioritized, not starved).
    EXPECT_EQ(idsOf(order), (std::vector<std::uint64_t>{
                                t1a->id, t1b->id, t2d->id, t1c->id}));

    const auto stats = h.sched().extraStats();
    ASSERT_TRUE(stats.count("bliss_blacklistings"));
    EXPECT_EQ(stats.at("bliss_blacklistings"), 1.0);
}

// ---------------------------------------------------------------------
// Watermark write-drain mode (shared chassis; driven via FR-FCFS).

TEST(WatermarkDrain, HysteresisDrainsWritesThenReturnsToReads)
{
    ctrl::SchedulerParams params;
    params.watermarkDrain = true;
    params.hiWatermark = 2;
    params.loWatermark = 1;
    params.drainTurnaround = 4;
    Harness h(ctrl::Mechanism::FrFcfs, schedtest::smallDram(), params);

    auto *r = h.add(AccessType::Read, 0, 0, 0, 0, /*arr=*/0);
    auto *w1 = h.add(AccessType::Write, 0, 1, 0, 0, /*arr=*/0);
    auto *w2 = h.add(AccessType::Write, 0, 1, 0, 1, /*arr=*/1);
    ASSERT_EQ(h.counts().writesOutstanding, 2u); // at the HI watermark

    // Tick 0 flips into drain mode and starts the turnaround hold:
    // the channel is fully quiesced until the hold expires.
    EXPECT_EQ(h.tick(0).access, nullptr);
    for (Tick t = 1; t < 4; ++t)
        EXPECT_EQ(h.tick(t).access, nullptr) << "tick " << t;

    // During the hold the horizon pins to the flip boundary — the
    // exact-skip contract for the quiesced span.
    EXPECT_EQ(h.sched().nextEventTick(1), Tick(4));
    EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::DrainFlip);

    Tick now = 4;
    const auto order = h.drain(now);
    // Both writes drain before the read; emptying the write queue
    // flips back (second turnaround hold) and the read completes.
    EXPECT_EQ(idsOf(order),
              (std::vector<std::uint64_t>{w1->id, w2->id, r->id}));

    const auto stats = h.sched().extraStats();
    ASSERT_TRUE(stats.count("drain_flips"));
    EXPECT_EQ(stats.at("drain_flips"), 2.0);
}

TEST(WatermarkDrain, OffByDefaultAndGloballyInsensitiveWithoutIt)
{
    // Globally insensitive: the band signature stays the constant 0
    // while the global write count moves, so the controller's horizon
    // memo never re-derives on another channel's traffic.
    Harness plain(ctrl::Mechanism::FrFcfs);
    EXPECT_EQ(plain.sched().globalSignature(), 0u);
    plain.add(AccessType::Write, 0, 0, 1, 0);
    EXPECT_EQ(plain.sched().globalSignature(), 0u);

    ctrl::SchedulerParams params;
    params.watermarkDrain = true;
    Harness wd(ctrl::Mechanism::FrFcfs, schedtest::smallDram(), params);
    const std::uint64_t idle = wd.sched().globalSignature();
    wd.add(AccessType::Write, 0, 0, 1, 0);
    EXPECT_NE(wd.sched().globalSignature(), idle);

    // The watermark axis belongs to the contention families alone: the
    // baselines on the same chassis ignore the flag entirely.
    for (ctrl::Mechanism m :
         {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
          ctrl::Mechanism::AdaptiveHistory}) {
        Harness base(m, schedtest::smallDram(), params);
        base.add(AccessType::Write, 0, 0, 1, 0);
        EXPECT_EQ(base.sched().globalSignature(), 0u)
            << ctrl::mechanismName(m);

        std::string json[2];
        for (bool drain : {false, true}) {
            sim::ExperimentConfig cfg;
            cfg.workload = "mcf";
            cfg.mechanism = m;
            cfg.instructions = 4000;
            cfg.watermarkDrain = drain;
            std::ostringstream os;
            sim::writeResultJson(os, sim::runExperiment(cfg));
            json[drain] = os.str();
        }
        EXPECT_EQ(json[0], json[1]) << ctrl::mechanismName(m);
    }
}

TEST(WatermarkDrain, WithoutItARefreshDrainedChannelSleepsUntilRefresh)
{
    // Without watermark drain every queued access is eligible, so when
    // a refresh drain gates every candidate only the refresh command
    // (which the controller wakes for) can move the channel: the
    // horizon is kTickMax with no pin, as on the other chassis
    // policies, never a Conservative poll of every cycle.
    for (ctrl::Mechanism m :
         {ctrl::Mechanism::FrFcfs, ctrl::Mechanism::Parbs}) {
        Harness h(m);
        h.add(AccessType::Read, 0, 0, 1, 0);
        h.mem().setRefreshDrain(0, 0, true);
        EXPECT_EQ(h.tick(0).access, nullptr) << ctrl::mechanismName(m);
        EXPECT_EQ(h.sched().nextEventTick(0), kTickMax)
            << ctrl::mechanismName(m);
        EXPECT_EQ(h.sched().lastHorizonPin(), ctrl::HorizonPin::None)
            << ctrl::mechanismName(m);
    }
}

// ---------------------------------------------------------------------
// Audit-fatal smoke: every family, every timing variant, with and
// without watermark drain, must complete a short run without a single
// DDR2 protocol violation (AuditMode::Fatal throws on the first one).

TEST(ContentionZoo, AuditFatalSmokeAcrossTimingVariantsAndDrainModes)
{
    for (ctrl::Mechanism m : ctrl::kContentionMechanisms) {
        for (std::size_t v = 0; v < sim::kNumTimingVariants; ++v) {
            for (bool wd : {false, true}) {
                sim::ExperimentConfig cfg;
                cfg.workload = "swim";
                cfg.mechanism = m;
                cfg.instructions = 4000;
                cfg.timingVariant = sim::TimingVariant(v);
                cfg.watermarkDrain = wd;
                cfg.engine = sim::EngineKind::Skip;
                cfg.obs.audit = obs::AuditMode::Fatal;
                sim::RunResult r;
                EXPECT_NO_THROW(r = sim::runExperiment(cfg))
                    << ctrl::mechanismName(m) << " variant=" << v
                    << " wd=" << wd;
                EXPECT_GT(r.ctrl.reads, 0u) << ctrl::mechanismName(m);
            }
        }
    }
}
