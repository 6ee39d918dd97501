/**
 * @file
 * Result-report rendering tests (JSON + text).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/report.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

RunResult
sampleResult()
{
    ExperimentConfig cfg;
    cfg.workload = "gzip";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 12000;
    return runExperiment(cfg);
}

} // namespace

TEST(Report, JsonContainsCoreFields)
{
    const RunResult r = sampleResult();
    std::ostringstream os;
    writeResultJson(os, r);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"workload\": \"gzip\""), std::string::npos);
    EXPECT_NE(out.find("\"mechanism\": \"Burst_TH\""), std::string::npos);
    EXPECT_NE(out.find("\"exec_cpu_cycles\": " +
                       std::to_string(r.execCpuCycles)),
              std::string::npos);
    EXPECT_NE(out.find("\"controller\""), std::string::npos);
    EXPECT_NE(out.find("\"row_hit_rate\""), std::string::npos);
    EXPECT_NE(out.find("\"scheduler\""), std::string::npos);
    EXPECT_NE(out.find("\"bursts_formed\""), std::string::npos);
}

TEST(Report, JsonIsBalanced)
{
    const RunResult r = sampleResult();
    std::ostringstream os;
    writeResultJson(os, r);
    const std::string out = os.str();
    int depth = 0;
    bool in_string = false;
    char prev = 0;
    for (char c : out) {
        if (c == '"' && prev != '\\')
            in_string = !in_string;
        if (!in_string) {
            depth += c == '{' || c == '[';
            depth -= c == '}' || c == ']';
        }
        prev = c;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(Report, TextSummaryHasMetrics)
{
    const RunResult r = sampleResult();
    std::ostringstream os;
    writeResultText(os, r);
    const std::string out = os.str();
    EXPECT_NE(out.find("execution time"), std::string::npos);
    EXPECT_NE(out.find("row hit / conflict / empty"), std::string::npos);
    EXPECT_NE(out.find("effective bandwidth"), std::string::npos);
    EXPECT_NE(out.find("gzip"), std::string::npos);
}

TEST(Report, CmpJsonListsCores)
{
    ExperimentConfig cfg;
    cfg.workload = "gzip+mcf";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 8000;
    const RunResult r = runExperiment(cfg);
    std::ostringstream os;
    writeResultJson(os, r);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"workloads\""), std::string::npos);
    EXPECT_NE(out.find("\"gzip\""), std::string::npos);
    EXPECT_NE(out.find("\"mcf\""), std::string::npos);
    EXPECT_NE(out.find("\"per_core_cpu_cycles\""), std::string::npos);
}
