/**
 * @file
 * One non-default token per run axis (sim/run_axes.hh), shared by the
 * config-key, repro and shrinker tests. RunAxes.TokenListCoversTheTable
 * fails when an axis is added without an entry here.
 */

#ifndef BURSTSIM_TESTS_RUN_AXES_UTIL_HH
#define BURSTSIM_TESTS_RUN_AXES_UTIL_HH

#include <map>
#include <string>

inline const std::map<std::string, std::string> &
offDefaultTokens()
{
    static const std::map<std::string, std::string> kTokens = {
        {"workload", "mcf"},
        {"mechanism", "Burst_TH"},
        {"instructions", "5000"},
        {"seed", "7"},
        {"threshold", "30"},
        {"page_policy", "cpa"},
        {"address_map", "perm"},
        {"device", "ddr-266"},
        {"timing", "refresh-prime"},
        {"engine", "step"},
        {"channels", "2"},
        {"ranks", "1"},
        {"banks", "4"},
        {"dynamic_threshold", "1"},
        {"sort_bursts", "1"},
        {"critical_first", "1"},
        {"rank_aware", "0"},
        {"coalesce_writes", "1"},
        {"watermark_drain", "1"},
        {"rob", "8"},
        {"issue_width", "4"},
        {"horizon_memo", "0"},
        {"watchdog_cycles", "10000"},
        {"deadline_sec", "2.5"},
    };
    return kTokens;
}

#endif // BURSTSIM_TESTS_RUN_AXES_UTIL_HH
