#include "sim/run_axes.hh"

#include <charconv>
#include <cmath>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/args.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace bsim::sim
{

namespace
{

using Cfg = ExperimentConfig;

template <typename E>
using Tokens = std::vector<std::pair<std::string, E>>;

/** Tokens of @p values spelled by @p name. */
template <typename E, typename Values, typename Name>
Tokens<E>
named(const Values &values, Name name)
{
    Tokens<E> out;
    for (const E v : values)
        out.emplace_back(name(v), v);
    return out;
}

/** The declarative part of an axis; the codec is added by the
 *  builders below. */
RunAxis
decl(const char *name, const char *flag = nullptr, const char *help = "")
{
    RunAxis a;
    a.name = name;
    a.flag = flag;
    a.help = help;
    return a;
}

/** @p a without a repro key: a CLI-only axis. */
RunAxis
cliOnly(RunAxis a)
{
    a.repro = false;
    return a;
}

/** An enum axis spelled by a fixed token list. */
template <typename E>
RunAxis
choiceAxis(RunAxis a, E Cfg::*field, Tokens<E> tokens)
{
    for (const auto &t : tokens)
        a.expects += (a.expects.empty() ? "" : " | ") + t.first;
    a.print = [field, tokens](const Cfg &c) {
        for (const auto &[token, v] : tokens)
            if (c.*field == v)
                return token;
        return std::string("?");
    };
    a.parse = [field, tokens](Cfg &c, const std::string &s) {
        for (const auto &[token, v] : tokens) {
            if (s == token) {
                c.*field = v;
                return true;
            }
        }
        return false;
    };
    return a;
}

/** A decimal axis: unsigned integers, or a finite, non-negative
 *  double. */
template <typename T>
RunAxis
numberAxis(RunAxis a, T Cfg::*field)
{
    a.expects = std::is_floating_point_v<T>
                    ? "a finite, non-negative number"
                    : "a number";
    a.print = [field](const Cfg &c) {
        std::ostringstream os;
        os << c.*field;
        return os.str();
    };
    a.parse = [field](Cfg &c, const std::string &s) {
        T v{};
        const char *end = s.data() + s.size();
        const auto [ptr, ec] = std::from_chars(s.data(), end, v);
        if (ec != std::errc() || ptr != end)
            return false;
        if constexpr (std::is_floating_point_v<T>)
            if (!std::isfinite(v) || v < 0)
                return false;
        c.*field = v;
        return true;
    };
    return a;
}

/** A boolean axis; its repro token is 0 or 1, and its CLI flag (if
 *  any) is a switch that flips the default. */
RunAxis
boolAxis(RunAxis a, bool Cfg::*field)
{
    a.expects = "0 or 1";
    if (a.flag)
        a.switchSets = Cfg{}.*field ? "0" : "1";
    a.print = [field](const Cfg &c) {
        return std::string(c.*field ? "1" : "0");
    };
    a.parse = [field](Cfg &c, const std::string &s) {
        if (s != "0" && s != "1")
            return false;
        c.*field = s == "1";
        return true;
    };
    return a;
}

std::vector<RunAxis>
buildAxes()
{
    RunAxis workload = decl("workload");
    workload.expects = "a workload name";
    workload.print = [](const Cfg &c) { return c.workload; };
    workload.parse = [](Cfg &c, const std::string &s) {
        c.workload = s;
        return true;
    };

    std::vector<TimingVariant> variants;
    for (std::size_t i = 0; i < kNumTimingVariants; ++i)
        variants.push_back(TimingVariant(i));

    return {
        workload,
        choiceAxis(decl("mechanism"), &Cfg::mechanism,
                   named<ctrl::Mechanism>(ctrl::kExtendedMechanisms,
                                          ctrl::mechanismName)),
        numberAxis(decl("instructions", "instructions",
                        "instructions to simulate (0 = default)"),
                   &Cfg::instructions),
        numberAxis(decl("seed", "seed", "workload RNG seed"), &Cfg::seed),
        numberAxis(decl("threshold", "threshold",
                        "Burst_TH write-queue threshold"),
                   &Cfg::threshold),
        choiceAxis(decl("page_policy", "page-policy"), &Cfg::pagePolicy,
                   {{"open", dram::PagePolicy::OpenPage},
                    {"cpa", dram::PagePolicy::ClosePageAuto},
                    {"predictive", dram::PagePolicy::Predictive}}),
        choiceAxis(decl("address_map", "map"), &Cfg::addressMap,
                   {{"page", dram::AddressMapKind::PageInterleave},
                    {"block", dram::AddressMapKind::BlockInterleave},
                    {"bitrev", dram::AddressMapKind::BitReversal},
                    {"perm",
                     dram::AddressMapKind::PermutationInterleave}}),
        choiceAxis(decl("device", "device"), &Cfg::device,
                   {{"ddr2-800", DeviceGen::DDR2_800},
                    {"ddr-266", DeviceGen::DDR_266}}),
        choiceAxis(decl("timing"), &Cfg::timingVariant,
                   named<TimingVariant>(variants, timingVariantName)),
        cliOnly(choiceAxis(
            decl("engine", "engine",
                 "simulation engine: skip (event-driven, default) | "
                 "step (tick-accurate); identical results"),
            &Cfg::engine,
            named<EngineKind>(
                std::vector{EngineKind::Step, EngineKind::Skip},
                engineKindName))),
        numberAxis(decl("channels"), &Cfg::channels),
        numberAxis(decl("ranks"), &Cfg::ranksPerChannel),
        numberAxis(decl("banks"), &Cfg::banksPerRank),
        boolAxis(decl("dynamic_threshold", "dynamic-threshold",
                      "extension: adapt the threshold to the read/write "
                      "mix"),
                 &Cfg::dynamicThreshold),
        boolAxis(decl("sort_bursts", "sort-bursts",
                      "extension: largest burst first"),
                 &Cfg::sortBurstsBySize),
        boolAxis(decl("critical_first", "critical-first",
                      "extension: critical reads first inside bursts"),
                 &Cfg::criticalFirst),
        boolAxis(decl("rank_aware", "no-rank-aware",
                      "ablation: ignore rank locality in Table 2 "
                      "priorities"),
                 &Cfg::rankAware),
        boolAxis(decl("coalesce_writes"), &Cfg::coalesceWrites),
        boolAxis(decl("watermark_drain"), &Cfg::watermarkDrain),
        numberAxis(decl("rob"), &Cfg::robSize),
        numberAxis(decl("issue_width"), &Cfg::issueWidth),
        cliOnly(boolAxis(
            decl("horizon_memo", "no-horizon-memo",
                 "debug: disable every horizon memo / bound cache in the "
                 "skip engine (identical results, much slower)"),
            &Cfg::horizonMemo)),
        cliOnly(numberAxis(
            decl("watchdog_cycles", "watchdog-cycles",
                 "fail a run when no access retires for this many busy "
                 "memory cycles (0 = off)"),
            &Cfg::watchdogCycles)),
        cliOnly(numberAxis(
            decl("deadline_sec", "deadline-sec",
                 "fail a run exceeding this wall-clock budget (0 = none)"),
            &Cfg::deadlineSec)),
    };
}

} // namespace

const std::vector<RunAxis> &
runAxes()
{
    static const std::vector<RunAxis> kAxes = buildAxes();
    return kAxes;
}

const RunAxis *
findRunAxis(const std::string &name)
{
    for (const RunAxis &a : runAxes())
        if (name == a.name)
            return &a;
    return nullptr;
}

const RunAxis &
runAxis(const std::string &name)
{
    if (const RunAxis *a = findRunAxis(name))
        return *a;
    panic("run axes: no axis named '%s'", name.c_str());
}

void
setAxis(const RunAxis &axis, ExperimentConfig &cfg,
        const std::string &token, const std::string &where)
{
    if (!axis.parse(cfg, token))
        throwSimError(ErrorCategory::Config, "%s expects %s, got '%s'",
                      where.c_str(), axis.expects.c_str(), token.c_str());
}

void
addRunAxisOptions(ArgParser &args)
{
    const ExperimentConfig defaults;
    for (const RunAxis &a : runAxes()) {
        if (!a.flag)
            continue;
        const std::string help = *a.help ? a.help : a.expects;
        if (a.switchSets)
            args.addFlag(a.flag, help);
        else
            args.addOption(a.flag, a.print(defaults), help);
    }
}

void
applyRunAxisOptions(const ArgParser &args, ExperimentConfig &cfg)
{
    for (const RunAxis &a : runAxes()) {
        if (!a.flag)
            continue;
        const std::string where = std::string("--") + a.flag;
        if (a.switchSets) {
            if (args.flag(a.flag))
                setAxis(a, cfg, a.switchSets, where);
        } else if (args.given(a.flag)) {
            setAxis(a, cfg, args.str(a.flag), where);
        }
    }
}

} // namespace bsim::sim
