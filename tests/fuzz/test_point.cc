/**
 * @file
 * FuzzPoint unit tests: repro-file round-tripping, sampler determinism,
 * axis counting, and the lowering onto ExperimentConfig.
 */

#include <gtest/gtest.h>

#include "fuzz/point.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::fuzz;

namespace
{

FuzzPoint
exoticPoint()
{
    FuzzPoint p;
    p.workload = "mcf";
    p.mechanism = ctrl::Mechanism::BurstWP;
    p.instructions = 4000;
    p.seed = 99;
    p.threshold = 8;
    p.pagePolicy = dram::PagePolicy::Predictive;
    p.addressMap = dram::AddressMapKind::BitReversal;
    p.device = sim::DeviceGen::DDR_266;
    p.timingVariant = sim::TimingVariant::ZeroWindows;
    p.channels = 2;
    p.ranksPerChannel = 1;
    p.banksPerRank = 4;
    p.dynamicThreshold = true;
    p.sortBurstsBySize = true;
    p.criticalFirst = true;
    p.rankAware = false;
    p.coalesceWrites = true;
    p.robSize = 8;
    p.issueWidth = 4;
    return p;
}

} // namespace

TEST(FuzzPoint, SerializeParseRoundTripsEveryAxis)
{
    const FuzzPoint p = exoticPoint();
    const FuzzPoint q = parsePoint(serializePoint(p));
    EXPECT_EQ(serializePoint(q), serializePoint(p));
    EXPECT_EQ(q.workload, p.workload);
    EXPECT_EQ(q.mechanism, p.mechanism);
    EXPECT_EQ(q.instructions, p.instructions);
    EXPECT_EQ(q.seed, p.seed);
    EXPECT_EQ(q.threshold, p.threshold);
    EXPECT_EQ(q.pagePolicy, p.pagePolicy);
    EXPECT_EQ(q.addressMap, p.addressMap);
    EXPECT_EQ(q.device, p.device);
    EXPECT_EQ(q.timingVariant, p.timingVariant);
    EXPECT_EQ(q.channels, p.channels);
    EXPECT_EQ(q.rankAware, p.rankAware);
    EXPECT_EQ(q.robSize, p.robSize);
}

TEST(FuzzPoint, InlineTraceRoundTrips)
{
    FuzzPoint p;
    p.workload = kInlineTraceWorkload;
    p.trace = {"C", "L 1f40", "S 2a80", "D 3fc0", "C"};
    const FuzzPoint q = parsePoint(serializePoint(p));
    EXPECT_EQ(q.workload, kInlineTraceWorkload);
    EXPECT_EQ(q.trace, p.trace);
}

TEST(FuzzPoint, MultiLineNoteStaysCommented)
{
    // Watchdog errors embed a multi-line controller dump in the note;
    // every line must come back out as a comment or the file won't
    // parse (an early serialiser got this wrong).
    FuzzPoint p;
    const std::string text = serializePoint(
        p, "line one\ncontroller @50727: pool 16/256\n  ch0: queued");
    const FuzzPoint q = parsePoint(text); // must not throw
    EXPECT_EQ(q.workload, p.workload);
}

TEST(FuzzPoint, ParseRejectsMalformedInput)
{
    EXPECT_SIM_ERROR(parsePoint("workload=swim\nnot a kv line\n"),
                     ErrorCategory::Config, "key=value");
    EXPECT_SIM_ERROR(parsePoint("bogus_key=1\n"), ErrorCategory::Config,
                     "unknown key");
    EXPECT_SIM_ERROR(parsePoint("instructions=abc\n"),
                     ErrorCategory::Config, "number");
    EXPECT_SIM_ERROR(parsePoint("rank_aware=yes\n"),
                     ErrorCategory::Config, "0 or 1");
    EXPECT_SIM_ERROR(parsePoint("workload=@inline\n"),
                     ErrorCategory::Config, "without trace");
}

TEST(FuzzPoint, BadEnumTokenIsAConfigError)
{
    for (const char *key :
         {"mechanism", "page_policy", "address_map", "device", "timing"}) {
        SCOPED_TRACE(key);
        const std::string repro = std::string(key) + "=bogus\n";
        EXPECT_SIM_ERROR(parsePoint(repro), ErrorCategory::Config,
                         std::string("repro: ") + key + " expects");
    }
}

TEST(FuzzPoint, CliOnlyAxesAreNotReproKeys)
{
    for (const char *key :
         {"engine", "horizon_memo", "watchdog_cycles", "deadline_sec"})
        EXPECT_SIM_ERROR(parsePoint(std::string(key) + "=0\n"),
                         ErrorCategory::Config, "unknown key");
}

TEST(FuzzPoint, SamplerIsDeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 20; ++i) {
        const FuzzPoint pa = samplePoint(a);
        const FuzzPoint pb = samplePoint(b);
        EXPECT_EQ(serializePoint(pa), serializePoint(pb)) << "draw " << i;
        if (serializePoint(pa) != serializePoint(samplePoint(c)))
            diverged = true;
    }
    EXPECT_TRUE(diverged) << "seeds 42 and 43 sampled identical streams";
}

TEST(FuzzPoint, AxisCountExcludesTheTracePrefixDimension)
{
    EXPECT_EQ(axesChangedFromDefault(defaultPoint()), 0);

    FuzzPoint p;
    p.instructions = 1234; // trace-prefix dimension: not an axis
    EXPECT_EQ(axesChangedFromDefault(p), 0);

    p.mechanism = ctrl::Mechanism::Burst;
    p.pagePolicy = dram::PagePolicy::ClosePageAuto;
    EXPECT_EQ(axesChangedFromDefault(p), 2);

    p.device = sim::DeviceGen::DDR_266;
    EXPECT_EQ(axesChangedFromDefault(p), 3);
}

TEST(FuzzPoint, ToConfigLowersEveryField)
{
    const FuzzPoint p = exoticPoint();
    const sim::ExperimentConfig cfg = toConfig(p);
    EXPECT_EQ(cfg.workload, "mcf");
    EXPECT_EQ(cfg.mechanism, ctrl::Mechanism::BurstWP);
    EXPECT_EQ(cfg.instructions, 4000u);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_EQ(cfg.threshold, 8u);
    EXPECT_EQ(cfg.pagePolicy, dram::PagePolicy::Predictive);
    EXPECT_EQ(cfg.addressMap, dram::AddressMapKind::BitReversal);
    EXPECT_EQ(cfg.device, sim::DeviceGen::DDR_266);
    EXPECT_EQ(cfg.timingVariant, sim::TimingVariant::ZeroWindows);
    EXPECT_EQ(cfg.channels, 2u);
    EXPECT_FALSE(cfg.rankAware);
    EXPECT_EQ(cfg.robSize, 8u);
    EXPECT_EQ(cfg.issueWidth, 4u);
}

TEST(FuzzPoint, ToConfigMaterialisesInlineTraces)
{
    FuzzPoint p;
    p.workload = kInlineTraceWorkload;
    p.trace = {"C", "L 40", "C", "S 80"};
    const sim::ExperimentConfig cfg = toConfig(p);
    ASSERT_FALSE(cfg.workload.empty());
    EXPECT_EQ(cfg.workload[0], '@') << cfg.workload;
    // Content addressing: the same trace lowers to the same path.
    EXPECT_EQ(toConfig(p).workload, cfg.workload);
}

TEST(FuzzPoint, TimingVariantNamesRoundTrip)
{
    for (int i = 0; i < int(sim::kNumTimingVariants); ++i) {
        const auto v = sim::TimingVariant(i);
        const std::string repro =
            std::string("timing=") + sim::timingVariantName(v) + "\n";
        EXPECT_EQ(parsePoint(repro).timingVariant, v);
    }
    EXPECT_SIM_ERROR(parsePoint("timing=warp-speed\n"),
                     ErrorCategory::Config, "timing");
}
