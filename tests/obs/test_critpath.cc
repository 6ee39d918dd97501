/**
 * @file
 * Critical-path tracer tests: the per-access telescoping identity
 * (blame sums exactly to measured latency) for every scheduler family
 * under both engines, byte-identical access streams across engines,
 * the JSONL schema, the report sections, the per-core metrics columns,
 * and the guarantee that tracing never perturbs the simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "obs/critpath.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace bsim;
using obs::CritPathTracer;

namespace
{

constexpr ctrl::Mechanism kFamilies[] = {
    ctrl::Mechanism::BkInOrder,       // per-bank FIFOs
    ctrl::Mechanism::RowHit,          // row-hit first
    ctrl::Mechanism::Intel,           // read-first
    ctrl::Mechanism::Burst,           // the paper's mechanism
    ctrl::Mechanism::AdaptiveHistory, // history-based
};

sim::RunResult
runTraced(ctrl::Mechanism m, sim::EngineKind engine,
          const char *workload = "pchase", std::uint64_t insts = 2000)
{
    sim::ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.mechanism = m;
    cfg.instructions = insts;
    cfg.engine = engine;
    cfg.obs.critPath = true;
    cfg.obs.critPathRetain = true;
    return sim::runExperiment(cfg);
}

std::uint64_t
blameSum(const CritPathTracer::Counts &c)
{
    std::uint64_t s = 0;
    for (std::uint64_t n : c)
        s += n;
    return s;
}

} // namespace

TEST(CritPath, IdentityHoldsForEveryFamilyUnderBothEngines)
{
    for (const ctrl::Mechanism m : kFamilies) {
        for (const sim::EngineKind e :
             {sim::EngineKind::Step, sim::EngineKind::Skip}) {
            const sim::RunResult r = runTraced(m, e);
            ASSERT_TRUE(r.obs);
            const CritPathTracer *t = r.obs->critpath();
            ASSERT_NE(t, nullptr) << ctrl::mechanismName(m);
            EXPECT_GT(t->completedCount(), 0u);
            EXPECT_TRUE(t->identityHolds())
                << ctrl::mechanismName(m) << "/"
                << sim::engineKindName(e);

            // Each retained access telescopes on its own (enforced by
            // onComplete, restated here against the record).
            for (const auto &c : t->retained())
                ASSERT_EQ(blameSum(c.blame), c.latency)
                    << ctrl::mechanismName(m) << " access " << c.id;
        }
    }
}

TEST(CritPath, IdentityHoldsOnWriteHeavyDenseTrafficToo)
{
    for (const ctrl::Mechanism m : kFamilies) {
        const sim::RunResult r =
            runTraced(m, sim::EngineKind::Skip, "mcf");
        const CritPathTracer *t = r.obs->critpath();
        ASSERT_NE(t, nullptr);
        EXPECT_TRUE(t->identityHolds()) << ctrl::mechanismName(m);
    }
}

TEST(CritPath, AccessStreamsAreByteIdenticalAcrossEngines)
{
    for (const ctrl::Mechanism m : kFamilies) {
        const sim::RunResult step = runTraced(m, sim::EngineKind::Step);
        const sim::RunResult skip = runTraced(m, sim::EngineKind::Skip);
        const CritPathTracer *ts = step.obs->critpath();
        const CritPathTracer *tk = skip.obs->critpath();
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(tk, nullptr);
        EXPECT_EQ(ts->completedCount(), tk->completedCount())
            << ctrl::mechanismName(m);
        EXPECT_EQ(ts->digest(), tk->digest()) << ctrl::mechanismName(m);
    }
}

TEST(CritPath, TracingDoesNotPerturbTheSimulation)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 5000;
    const sim::RunResult base = sim::runExperiment(cfg);

    const sim::RunResult traced = runTraced(ctrl::Mechanism::BurstTH,
                                            sim::EngineKind::Skip,
                                            "swim", 5000);
    EXPECT_EQ(traced.memCycles, base.memCycles);
    EXPECT_EQ(traced.execCpuCycles, base.execCpuCycles);

    // An untraced run's result JSON carries no critical_path section —
    // the baseline output is untouched when the pillar is off.
    std::ostringstream bos;
    sim::writeResultJson(bos, base);
    const auto bv = parseJson(bos.str());
    ASSERT_TRUE(bv.has_value());
    EXPECT_EQ(bv->find("critical_path"), nullptr);
}

TEST(CritPath, ResultJsonAndTextCarryTheCriticalPathSection)
{
    const sim::RunResult r =
        runTraced(ctrl::Mechanism::Burst, sim::EngineKind::Skip);
    const CritPathTracer *t = r.obs->critpath();
    ASSERT_NE(t, nullptr);

    std::ostringstream jos;
    sim::writeResultJson(jos, r);
    const auto v = parseJson(jos.str());
    ASSERT_TRUE(v.has_value());
    const JsonValue *cp = v->find("critical_path");
    ASSERT_NE(cp, nullptr);
    EXPECT_DOUBLE_EQ(cp->find("accesses")->number,
                     double(t->completedCount()));
    EXPECT_DOUBLE_EQ(cp->find("latency_cycles")->number,
                     double(t->latencyTotal()));
    ASSERT_NE(cp->find("top"), nullptr);
    EXPECT_GT(cp->find("top")->size(), 0u);
    ASSERT_NE(cp->find("per_core"), nullptr);
    EXPECT_EQ(cp->find("per_core")->size(), 1u); // single requester

    std::ostringstream tos;
    sim::writeResultText(tos, r);
    EXPECT_NE(tos.str().find("critical path ("), std::string::npos);
    EXPECT_NE(tos.str().find("per-core critical-path rollup"),
              std::string::npos);
}

TEST(CritPath, TopSlowestIsSortedBoundedAndAgreesWithRetained)
{
    const sim::RunResult r =
        runTraced(ctrl::Mechanism::RowHit, sim::EngineKind::Skip);
    const CritPathTracer *t = r.obs->critpath();
    ASSERT_NE(t, nullptr);

    const auto &top = t->topSlowest();
    ASSERT_FALSE(top.empty());
    EXPECT_LE(top.size(), 16u);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_TRUE(top[i - 1].latency > top[i].latency ||
                    (top[i - 1].latency == top[i].latency &&
                     top[i - 1].id < top[i].id));

    std::uint64_t max_lat = 0;
    for (const auto &c : t->retained())
        max_lat = std::max(max_lat, c.latency);
    EXPECT_EQ(top.front().latency, max_lat);
}

TEST(CritPath, PerCoreRollupTelescopesToTheTotals)
{
    const sim::RunResult r =
        runTraced(ctrl::Mechanism::Intel, sim::EngineKind::Skip, "mcf");
    const CritPathTracer *t = r.obs->critpath();
    ASSERT_NE(t, nullptr);

    std::uint64_t count = 0, lat = 0, blame = 0;
    for (const auto &[tag, roll] : t->perCore()) {
        count += roll.count;
        lat += roll.latencySum;
        blame += blameSum(roll.blame);
        EXPECT_LE(roll.rowHits, roll.rowAccesses);
        EXPECT_LE(roll.rowAccesses, roll.count);
    }
    EXPECT_EQ(count, t->completedCount());
    EXPECT_EQ(lat, t->latencyTotal());
    EXPECT_EQ(blame, t->latencyTotal());
}

TEST(CritPath, JsonlStreamMatchesTheSchemaAndTheDigest)
{
    const std::string path = "critpath_test_trace.jsonl";
    sim::ExperimentConfig cfg;
    cfg.workload = "pchase";
    cfg.mechanism = ctrl::Mechanism::Burst;
    cfg.instructions = 2000;
    cfg.obs.accessTraceOut = path;
    const sim::RunResult r = sim::runExperiment(cfg);
    const CritPathTracer *t = r.obs->critpath();
    ASSERT_NE(t, nullptr); // --access-trace-out implies the pillar

    std::ifstream is(path);
    ASSERT_TRUE(is.is_open());
    std::string line;
    std::uint64_t lines = 0, rebuilt = 14695981039346656037ull;
    while (std::getline(is, line)) {
        lines += 1;
        const auto v = parseJson(line);
        ASSERT_TRUE(v.has_value()) << "line " << lines;
        for (const char *key : {"id", "core", "type", "channel", "rank",
                                "bank", "row", "arrival", "data_end",
                                "latency", "blocked_by", "blame"})
            ASSERT_NE(v->find(key), nullptr)
                << "line " << lines << " lacks " << key;
        // The blame vector telescopes to the latency, record by record.
        std::uint64_t sum = 0;
        for (const auto &[cause, n] : v->find("blame")->members)
            sum += std::uint64_t(n.number);
        ASSERT_EQ(sum, std::uint64_t(v->find("latency")->number))
            << "line " << lines;
        for (unsigned char b : line + '\n') {
            rebuilt ^= b;
            rebuilt *= 1099511628211ull;
        }
    }
    EXPECT_EQ(lines, t->completedCount());
    EXPECT_EQ(rebuilt, t->digest());
    std::remove(path.c_str());
}

TEST(CritPath, UnwritableTracePathFailsFastWithAResourceError)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "pchase";
    cfg.mechanism = ctrl::Mechanism::Burst;
    cfg.instructions = 1000;
    cfg.obs.accessTraceOut = "no-such-dir/access.jsonl";
    try {
        sim::runExperiment(cfg);
        FAIL() << "expected a SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Resource);
    }
}

TEST(CritPath, PerCoreMetricsColumnsAppearOnlyWhenEnabled)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 5000;
    cfg.obs.metricsInterval = 512;
    cfg.obs.perCoreMetrics = true;
    const sim::RunResult r = sim::runExperiment(cfg);
    ASSERT_NE(r.obs->sampler(), nullptr);

    std::ostringstream cos;
    r.obs->writeMetricsCsv(cos);
    const std::string header = cos.str().substr(0, cos.str().find('\n'));
    EXPECT_NE(header.find("rq_core0"), std::string::npos);
    EXPECT_NE(header.find("wq_core0"), std::string::npos);
    EXPECT_NE(header.find("rhr_core0"), std::string::npos);

    std::ostringstream jos;
    r.obs->writeMetricsJson(jos);
    const auto v = parseJson(jos.str());
    ASSERT_TRUE(v.has_value());
    const JsonValue *rows = v->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_GT(rows->size(), 0u);
    EXPECT_NE(rows->array[0].find("core_read_q"), nullptr);
    EXPECT_NE(rows->array[0].find("core_row_hit_rate"), nullptr);

    // Off by default: the historical column set is untouched.
    cfg.obs.perCoreMetrics = false;
    const sim::RunResult plain = sim::runExperiment(cfg);
    std::ostringstream pos;
    plain.obs->writeMetricsCsv(pos);
    const std::string ph = pos.str().substr(0, pos.str().find('\n'));
    EXPECT_EQ(ph.find("rq_core0"), std::string::npos);
    EXPECT_EQ(pos.str(), [&] {
        // And it is deterministic across repeated runs.
        const sim::RunResult again = sim::runExperiment(cfg);
        std::ostringstream qos;
        again.obs->writeMetricsCsv(qos);
        return qos.str();
    }());
}
