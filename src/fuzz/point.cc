#include "fuzz/point.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/error.hh"
#include "common/fnv.hh"
#include "sim/run_axes.hh"
#include "trace/spec_profiles.hh"

namespace bsim::fuzz
{

namespace
{

/** The "trace prefix" repro axis: the shrinker halves it instead of
 *  resetting it, so it is not counted as a changed axis. */
constexpr std::string_view kPrefixAxis = "instructions";

/** The token of repro axis @p name in @p p. */
std::string
token(const FuzzPoint &p, const char *name)
{
    return sim::runAxis(name).print(p);
}

/** Workloads the sampler draws from (paper set + pchase). */
std::vector<std::string>
sampleWorkloads()
{
    std::vector<std::string> names = trace::specProfileNames();
    for (const std::string &m : trace::microProfileNames())
        names.push_back(m);
    return names;
}

/** Generate a small random inline trace (the trace-workload axis). */
std::vector<std::string>
sampleTrace(Rng &rng)
{
    const std::uint64_t lines = 200 + rng.below(1800);
    // Keep the footprint modest so short traces still produce bank
    // contention and row reuse; block-align addresses like a real L2.
    const std::uint64_t footprint = 1ULL << (20 + rng.below(6)); // 1M-32M
    std::vector<std::string> out;
    out.reserve(lines);
    char buf[48];
    for (std::uint64_t i = 0; i < lines; ++i) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 45) {
            out.emplace_back("C");
            continue;
        }
        const std::uint64_t addr = rng.below(footprint) & ~63ULL;
        const char kind = roll < 75 ? 'L' : (roll < 90 ? 'S' : 'D');
        std::snprintf(buf, sizeof(buf), "%c %" PRIx64, kind, addr);
        out.emplace_back(buf);
    }
    return out;
}

} // namespace

FuzzPoint
defaultPoint()
{
    return FuzzPoint{};
}

FuzzPoint
samplePoint(Rng &rng)
{
    FuzzPoint p;

    const auto workloads = sampleWorkloads();
    if (rng.chance(0.15)) {
        p.workload = kInlineTraceWorkload;
        p.trace = sampleTrace(rng);
    } else {
        p.workload = workloads[rng.below(workloads.size())];
    }

    constexpr ctrl::Mechanism kMechs[] = {
        ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
        ctrl::Mechanism::Intel,     ctrl::Mechanism::IntelRP,
        ctrl::Mechanism::Burst,     ctrl::Mechanism::BurstRP,
        ctrl::Mechanism::BurstWP,   ctrl::Mechanism::BurstTH,
        ctrl::Mechanism::AdaptiveHistory,
        ctrl::Mechanism::FrFcfs,    ctrl::Mechanism::Parbs,
        ctrl::Mechanism::Atlas,     ctrl::Mechanism::Bliss,
    };
    p.mechanism = kMechs[rng.below(std::size(kMechs))];
    // The drain-mode axis only exists for the contention families;
    // keeping it default elsewhere keeps shrunk repros honest (the
    // axis never appears in a repro it cannot influence).
    if (ctrl::isContentionMechanism(p.mechanism))
        p.watermarkDrain = rng.chance(0.35);

    constexpr std::uint64_t kInstr[] = {2000, 4000, 6000, 8000, 12000};
    p.instructions = kInstr[rng.below(std::size(kInstr))];
    p.seed = 1 + rng.below(1'000'000);

    constexpr std::size_t kThresholds[] = {0, 1, 8, 16, 32, 52, 64, 128};
    p.threshold = kThresholds[rng.below(std::size(kThresholds))];

    p.pagePolicy = dram::PagePolicy(rng.below(3));
    p.addressMap = dram::AddressMapKind(rng.below(4));
    p.device = rng.chance(0.3) ? sim::DeviceGen::DDR_266
                               : sim::DeviceGen::DDR2_800;
    p.timingVariant = sim::TimingVariant(rng.below(sim::kNumTimingVariants));

    constexpr std::uint32_t kChannels[] = {0, 1, 2, 4};
    constexpr std::uint32_t kRanks[] = {0, 1, 2, 4};
    constexpr std::uint32_t kBanks[] = {0, 2, 4, 8};
    p.channels = kChannels[rng.below(std::size(kChannels))];
    p.ranksPerChannel = kRanks[rng.below(std::size(kRanks))];
    p.banksPerRank = kBanks[rng.below(std::size(kBanks))];

    p.dynamicThreshold = rng.chance(0.2);
    p.sortBurstsBySize = rng.chance(0.2);
    p.criticalFirst = rng.chance(0.2);
    p.rankAware = !rng.chance(0.2);
    p.coalesceWrites = rng.chance(0.2);

    constexpr std::uint32_t kRob[] = {0, 1, 8, 32};
    constexpr std::uint32_t kIssue[] = {0, 1, 4};
    p.robSize = kRob[rng.below(std::size(kRob))];
    p.issueWidth = kIssue[rng.below(std::size(kIssue))];
    return p;
}

sim::ExperimentConfig
toConfig(const FuzzPoint &p, const std::string &scratch_dir)
{
    sim::ExperimentConfig cfg = p;
    if (p.workload != kInlineTraceWorkload)
        return cfg;
    // Content-addressed scratch file: replays of the same point
    // (shrinker probes, corpus reruns) share one materialisation.
    std::string body;
    for (const std::string &line : p.trace) {
        body += line;
        body += '\n';
    }
    namespace fs = std::filesystem;
    const fs::path dir = scratch_dir.empty() ? fs::temp_directory_path()
                                             : fs::path(scratch_dir);
    char name[64];
    std::snprintf(name, sizeof(name), "bsim-fuzz-%016" PRIx64 ".trace",
                  fnv1a(body));
    const fs::path path = dir / name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!fs::exists(path)) {
        std::ofstream os(path);
        os << body;
        if (!os)
            throwSimError(ErrorCategory::Resource,
                          "cannot write scratch trace '%s'",
                          path.string().c_str());
    }
    cfg.workload = "@" + path.string();
    return cfg;
}

int
axesChangedFromDefault(const FuzzPoint &p)
{
    const FuzzPoint d = defaultPoint();
    int n = 0;
    for (const sim::RunAxis &a : sim::runAxes())
        n += a.repro && a.name != kPrefixAxis && a.print(p) != a.print(d);
    return n;
}

std::string
pointLabel(const FuzzPoint &p)
{
    std::ostringstream os;
    os << p.workload << '/' << ctrl::mechanismName(p.mechanism);
    const FuzzPoint d = defaultPoint();
    if (p.pagePolicy != d.pagePolicy)
        os << " pp=" << token(p, "page_policy");
    if (p.addressMap != d.addressMap)
        os << " map=" << token(p, "address_map");
    if (p.device != d.device)
        os << " dev=" << token(p, "device");
    if (p.timingVariant != d.timingVariant)
        os << " t=" << token(p, "timing");
    if (p.channels || p.ranksPerChannel || p.banksPerRank)
        os << " geo=" << p.channels << 'x' << p.ranksPerChannel << 'x'
           << p.banksPerRank;
    if (p.threshold != d.threshold)
        os << " th=" << p.threshold;
    if (p.watermarkDrain != d.watermarkDrain)
        os << " wd";
    return os.str();
}

std::string
serializePoint(const FuzzPoint &p, const std::string &note)
{
    std::ostringstream os;
    os << "# burstsim_fuzz repro v1\n";
    if (!note.empty()) {
        // Notes can be multi-line (watchdog errors embed a controller
        // dump); every line must carry the comment marker or the file
        // won't parse back.
        std::istringstream ns(note);
        std::string nline;
        while (std::getline(ns, nline))
            os << "# " << nline << '\n';
    }
    for (const sim::RunAxis &a : sim::runAxes())
        if (a.repro)
            os << a.name << '=' << a.print(p) << '\n';
    if (p.workload == kInlineTraceWorkload) {
        os << "trace:\n";
        for (const std::string &line : p.trace)
            os << line << '\n';
    }
    return os.str();
}

FuzzPoint
parsePoint(const std::string &text)
{
    FuzzPoint p;
    std::istringstream is(text);
    std::string line;
    bool in_trace = false;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        lineno += 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (in_trace) {
            if (!line.empty() && line[0] != '#')
                p.trace.push_back(line);
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        if (line == "trace:") {
            in_trace = true;
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            throwSimError(ErrorCategory::Config,
                          "repro line %u: expected key=value, got '%s'",
                          lineno, line.c_str());
        const std::string key = line.substr(0, eq);
        const sim::RunAxis *axis = sim::findRunAxis(key);
        if (!axis || !axis->repro)
            throwSimError(ErrorCategory::Config,
                          "repro line %u: unknown key '%s'", lineno,
                          key.c_str());
        // A missing key keeps its default, so repros written before an
        // axis existed still parse.
        sim::setAxis(*axis, p, line.substr(eq + 1), "repro: " + key);
    }
    if (p.workload == kInlineTraceWorkload && p.trace.empty())
        throwSimError(ErrorCategory::Config,
                      "repro: inline workload without trace lines");
    return p;
}

} // namespace bsim::fuzz
