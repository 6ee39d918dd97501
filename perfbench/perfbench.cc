/**
 * @file
 * The burstsim benchmark binary (see perfbench/README.md).
 *
 *   perfbench --workload <figure-sweep|pchase|cmp-mix> --seed <n>
 *             --seconds <s> --trace <0|1> --cli <burstsim binary>
 *             --work-dir <dir> [--instructions <n>]
 *
 * Runs one workload as a closed loop with one client (jobs = 1): a point
 * (one simulation) starts when the previous one finishes. Untraced runs
 * (--trace 0) time the end-to-end metrics; traced runs (--trace 1) time
 * the per-layer metrics. The report lines go first; the last line of
 * standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_context.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "layers.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

extern char **environ;

using namespace bsim;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string cli;     //!< the burstsim CLI (cmp-mix points)
    std::string workDir; //!< scratch files (fairness CSVs)
    std::uint64_t instructions = 0; //!< 0 = the workload's own size
};

/** One simulation of a workload. */
struct Point
{
    std::string group; //!< profile or mix: the speedup's pairing key
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;
    sim::ExperimentConfig cfg;    //!< in-process points
    std::vector<std::string> mix; //!< cmp-mix points: one profile per core
};

struct Workload
{
    std::string name;
    bool cmp = false;
    std::uint64_t instructions = 0; //!< per point; per core on cmp-mix
    std::vector<Point> points;
    /** Points re-run on the step engine after the timed window. */
    std::vector<std::size_t> stepCheck;
    /** Profile the coverage points of absent scheduler families run. */
    std::string anchor;
};

/** What one execution of a point produced. */
struct Outcome
{
    bool ok = false;
    std::string error;
    double ms = 0.0;
    std::uint64_t digest = 0;          //!< simulated statistics only
    std::uint64_t simInstructions = 0; //!< all cores, all runs
    std::uint64_t execCycles = 0;
    double weightedSpeedup = 0.0; //!< cmp-mix only
    double maxSlowdown = 0.0;     //!< cmp-mix only
    long maxRssKb = 0;            //!< cmp-mix only (the CLI process)
};

// --------------------------------------------------------------------
// Simulated-statistics digest
// --------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Canonical text of every simulated statistic of @p r (hexfloats are
 *  exact, so equal text means bit-equal statistics). */
std::string
canonicalStats(const sim::RunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    const auto &c = r.ctrl;
    os << r.workload << '|' << ctrl::mechanismName(r.mechanism) << '|'
       << r.instructions << '|' << r.execCpuCycles << '|' << r.memCycles
       << '|' << c.reads << '|' << c.writes << '|' << c.forwardedReads
       << '|' << c.rowHits << '|' << c.rowEmpties << '|' << c.rowConflicts
       << '|' << c.ticks << '|' << c.writeSatTicks << '|' << c.refreshes
       << '|' << c.bytesTransferred << '|' << c.coalescedWrites << '|'
       << c.readLatency.count() << '|' << c.readLatency.sum() << '|'
       << c.writeLatency.count() << '|' << c.writeLatency.sum() << '|'
       << r.l2Misses << '|' << r.memReads << '|' << r.memWrites << '|'
       << r.dramCommands.activates << '|' << r.dramCommands.precharges
       << '|' << r.dramCommands.reads << '|' << r.dramCommands.writes << '|'
       << r.dramCommands.refreshes;
    for (const auto &[k, v] : r.sched)
        os << '|' << k << '=' << v;
    return os.str();
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

constexpr std::uint64_t kFigureInstructions = 50'000;
constexpr std::uint64_t kPchaseInstructions = 150'000;
constexpr std::uint64_t kCmpInstructionsPerCore = 50'000;

/** Independent seeds each (profile, mechanism) of figure-sweep runs: a
 *  synthetic trace's exec time moves by up to ±15% with its seed, so a
 *  pass averages over two traces per profile. */
constexpr std::uint64_t kFigureReplicas = 2;

Workload
figureSweep(std::uint64_t seed, std::uint64_t instr)
{
    Workload w;
    w.name = "figure-sweep";
    w.instructions = instr ? instr : kFigureInstructions;
    w.anchor = "swim";
    const auto profiles = trace::specProfileNames();
    for (std::uint64_t r = 0; r < kFigureReplicas; ++r) {
        for (const auto &p : profiles) {
            for (ctrl::Mechanism m : ctrl::kAllMechanisms) {
                Point pt;
                pt.group = p + '#' + std::to_string(r);
                pt.mechanism = m;
                pt.cfg.workload = p;
                pt.cfg.mechanism = m;
                pt.cfg.instructions = w.instructions;
                pt.cfg.seed = seed * kFigureReplicas + r;
                w.points.push_back(pt);
            }
        }
    }
    // One profile per mechanism (first replica), rotating with the seed.
    const std::size_t nm = std::size(ctrl::kAllMechanisms);
    for (std::size_t k = 0; k < nm; ++k)
        w.stepCheck.push_back(((seed + 5 * k) % profiles.size()) * nm + k);
    return w;
}

Workload
pchase(std::uint64_t seed, std::uint64_t instr)
{
    Workload w;
    w.name = "pchase";
    w.instructions = instr ? instr : kPchaseInstructions;
    w.anchor = "pchase";
    using M = ctrl::Mechanism;
    for (M m : {M::BkInOrder, M::RowHit, M::Intel, M::BurstTH,
                M::AdaptiveHistory}) {
        Point pt;
        pt.group = "pchase";
        pt.mechanism = m;
        pt.cfg.workload = "pchase";
        pt.cfg.mechanism = m;
        pt.cfg.instructions = w.instructions;
        pt.cfg.seed = seed;
        w.points.push_back(pt);
    }
    w.stepCheck.push_back(seed % w.points.size());
    return w;
}

/**
 * The CMP path takes no seed, so the seed picks the mixes instead. The
 * 16 figure-set profiles are ranked by memory intensity (misses per
 * instruction, memFraction x (1 - hotFraction)) into four tiers of four;
 * each 4-core mix takes one profile from every tier, the seed choosing
 * which, and the seed also shuffles the core order. Every profile runs
 * in exactly one mix and every mix is equally heavy, so the work of a
 * pass barely depends on the seed.
 */
Workload
cmpMix(std::uint64_t seed, std::uint64_t instr)
{
    Workload w;
    w.name = "cmp-mix";
    w.cmp = true;
    w.instructions = instr ? instr : kCmpInstructionsPerCore;
    constexpr std::size_t kCores = 4;
    std::vector<trace::WorkloadProfile> ranked = trace::specProfiles();
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.memFraction * (1 - a.hotFraction) <
                                b.memFraction * (1 - b.hotFraction);
                     });
    // Tier t is ranked[t * mixes, (t + 1) * mixes); mix k takes member k
    // of every tier after each tier is shuffled.
    const std::size_t mixes = ranked.size() / kCores;
    Rng rng(seed);
    auto shuffle = [&rng](auto first, std::size_t n) {
        for (std::size_t i = n - 1; i > 0; --i)
            std::swap(first[i], first[rng.below(i + 1)]);
    };
    for (std::size_t t = 0; t < kCores; ++t)
        shuffle(ranked.begin() + t * mixes, mixes);
    using M = ctrl::Mechanism;
    for (std::size_t k = 0; k < mixes; ++k) {
        std::vector<std::string> mix;
        for (std::size_t t = 0; t < kCores; ++t)
            mix.push_back(ranked[t * mixes + k].name);
        shuffle(mix.begin(), kCores);
        std::string group;
        for (const auto &p : mix)
            group += (group.empty() ? "" : "+") + p;
        for (M m : {M::BkInOrder, M::BurstTH, M::FrFcfs, M::Parbs, M::Atlas,
                    M::Bliss}) {
            Point pt;
            pt.group = group;
            pt.mechanism = m;
            pt.mix = mix;
            w.points.push_back(pt);
        }
    }
    w.stepCheck.push_back(seed % w.points.size());
    return w;
}

// --------------------------------------------------------------------
// Running points
// --------------------------------------------------------------------

/** In-process point through runExperiment (the timed path). */
Outcome
runInProcess(sim::ExperimentConfig cfg, std::uint64_t instructions,
             sim::EngineKind engine,
             sim::RunResult *keep = nullptr)
{
    cfg.instructions = instructions;
    cfg.engine = engine;
    Outcome o;
    try {
        const auto t0 = Clock::now();
        sim::RunResult r = sim::runExperiment(cfg);
        o.ms = secondsSince(t0) * 1e3;
        o.ok = true;
        o.digest = fnv1a(canonicalStats(r));
        o.simInstructions = r.instructions;
        o.execCycles = r.execCpuCycles;
        if (keep)
            *keep = std::move(r);
    } catch (const SimError &e) {
        o.error = e.what();
    }
    return o;
}

std::string
joinCommas(const std::vector<std::string> &v)
{
    std::string s;
    for (const auto &x : v)
        s += (s.empty() ? "" : ",") + x;
    return s;
}

std::vector<std::string>
splitCommas(const std::string &line)
{
    std::vector<std::string> out(1);
    for (char c : line) {
        if (c == ',')
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

/**
 * cmp-mix point through the CLI: `burstsim --cmp <mix> --mechanism <m>
 * --instructions <n> --fairness-out <csv>` (shared run plus one alone run
 * per core). Spawned directly, waited for, and its peak RSS taken from
 * wait4.
 */
Outcome
runCli(const Options &opt, const Point &pt, std::uint64_t instructions,
       sim::EngineKind engine)
{
    Outcome o;
    const std::string csv = opt.workDir + "/fairness.csv";
    std::remove(csv.c_str());
    std::vector<std::string> args = {
        opt.cli,
        "--cmp", joinCommas(pt.mix),
        "--mechanism", ctrl::mechanismName(pt.mechanism),
        "--instructions", std::to_string(instructions),
        "--fairness-out", csv,
    };
    if (engine == sim::EngineKind::Step) {
        args.push_back("--engine");
        args.push_back("step");
    }
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const auto t0 = Clock::now();
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, opt.cli.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        o.error = "cannot spawn " + opt.cli;
        return o;
    }
    int status = 0;
    struct rusage ru = {};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            o.error = "wait4 failed";
            return o;
        }
    }
    o.ms = secondsSince(t0) * 1e3;
    o.maxRssKb = ru.ru_maxrss;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        o.error = "burstsim --cmp exited abnormally";
        return o;
    }

    std::ifstream in(csv);
    std::string header, row;
    if (!std::getline(in, header) || !std::getline(in, row)) {
        o.error = "no fairness row in " + csv;
        return o;
    }
    const auto names = splitCommas(header);
    const auto cells = splitCommas(row);
    std::map<std::string, std::string> col;
    for (std::size_t i = 0; i < names.size() && i < cells.size(); ++i)
        col[names[i]] = cells[i];
    if (col["status"] != "ok") {
        o.error = "fairness row status '" + col["status"] + "'";
        return o;
    }
    o.ok = true;
    o.digest = fnv1a(header + '\n' + row);
    o.execCycles = std::strtoull(col["exec_cycles"].c_str(), nullptr, 10);
    o.weightedSpeedup = std::strtod(col["weighted_speedup"].c_str(), nullptr);
    o.maxSlowdown = std::strtod(col["max_slowdown"].c_str(), nullptr);
    // Shared run plus one alone run per core.
    o.simInstructions = 2 * pt.mix.size() * instructions;
    return o;
}

Outcome
runPoint(const Options &opt, const Workload &w, const Point &pt,
         std::uint64_t instructions,
         sim::EngineKind engine = sim::EngineKind::Skip)
{
    return w.cmp ? runCli(opt, pt, instructions, engine)
                 : runInProcess(pt.cfg, instructions, engine);
}

/** Counts a traced pass reads from the public RunResult / introspection. */
struct SeamCounts
{
    std::uint64_t stepped = 0, skipped = 0;
    std::uint64_t memoHits = 0, memoMisses = 0;
    std::uint64_t memReads = 0, l2Misses = 0;
    std::uint64_t dramCommands = 0, ctrlTicks = 0;
    std::uint64_t simInstructions = 0;

    void
    addIntrospect(const obs::EngineIntrospect *in)
    {
        if (!in)
            return;
        stepped += in->steppedCycles();
        skipped += in->skippedCycles();
        memoHits += in->memoHits();
        memoMisses += in->memoMisses();
    }
};

std::uint64_t
commandTotal(const dram::CommandCounts &c)
{
    return c.activates + c.precharges + c.reads + c.writes + c.refreshes;
}

/**
 * One shared run of a cmp-mix point built directly on the public System
 * API (the CLI process cannot host a scheduler decorator). Cores sit on
 * disjoint address regions as on the CLI path; caches start cold. With
 * @p factory set the run is traced: the timing decorator wraps every
 * channel's scheduler and engine introspection is on.
 */
Outcome
runCmpReplay(const Point &pt, ctrl::Mechanism mech,
             std::uint64_t instructions, const SchedulerFactory *factory,
             SeamCounts *counts)
{
    Outcome o;
    sim::SystemConfig cfg = sim::SystemConfig::baseline();
    cfg.ctrl.mechanism = mech;
    if (factory) {
        cfg.ctrl.schedulerFactory = *factory;
        cfg.obs.engineIntrospect = true;
    }
    std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens;
    std::vector<trace::TraceSource *> sources;
    for (std::size_t i = 0; i < pt.mix.size(); ++i) {
        trace::WorkloadProfile prof = trace::profileByName(pt.mix[i]);
        prof.regionBase += Addr(i) * (prof.footprintBytes + (64ULL << 20));
        gens.push_back(std::make_unique<trace::SyntheticGenerator>(
            prof, instructions, 20070212 + i));
        sources.push_back(gens.back().get());
    }
    try {
        const auto t0 = Clock::now();
        sim::System sys(cfg, sources);
        sys.run(instructions * 200 * pt.mix.size() + 10'000'000);
        o.ms = secondsSince(t0) * 1e3;
        if (!sys.done()) {
            o.error = "cmp replay did not drain";
            return o;
        }
        std::ostringstream os;
        os << ctrl::mechanismName(mech) << '|' << sys.execCpuCycles() << '|'
           << sys.memCycles() << '|' << sys.controller().stats().reads << '|'
           << sys.controller().stats().writes;
        for (std::uint32_t i = 0; i < sys.numCores(); ++i)
            os << '|' << sys.coreExecCpuCycles(i) << '|'
               << sys.caches(i).memReads() << '|' << sys.caches(i).memWrites();
        o.ok = true;
        o.digest = fnv1a(os.str());
        o.execCycles = sys.execCpuCycles();
        o.simInstructions = instructions * pt.mix.size();
        if (counts) {
            if (auto *ob = sys.observability())
                counts->addIntrospect(ob->introspect());
            for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
                counts->memReads += sys.caches(i).memReads();
                counts->l2Misses += sys.caches(i).l2().misses();
            }
            counts->dramCommands += commandTotal(sys.mem().commandCounts());
            counts->ctrlTicks += sys.controller().stats().ticks;
            counts->simInstructions += o.simInstructions;
        }
    } catch (const SimError &e) {
        o.error = e.what();
    }
    return o;
}

/** Traced in-process point: decorator + engine introspection. */
Outcome
runSeamPoint(sim::ExperimentConfig cfg, std::uint64_t instructions,
             const SchedulerFactory &factory, SeamCounts *counts)
{
    cfg.schedulerFactory = factory;
    cfg.obs.engineIntrospect = true;
    sim::RunResult r;
    Outcome o = runInProcess(cfg, instructions, sim::EngineKind::Skip, &r);
    if (o.ok && counts) {
        if (r.obs)
            counts->addIntrospect(r.obs->introspect());
        counts->memReads += r.memReads;
        counts->l2Misses += r.l2Misses;
        counts->dramCommands += commandTotal(r.dramCommands);
        counts->ctrlTicks += r.ctrl.ticks;
        counts->simInstructions += r.instructions;
    }
    return o;
}

// --------------------------------------------------------------------
// Statistics and output
// --------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank =
        std::size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Shortest decimal text that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    /** Count @p o; a failed point also marks the run incorrect. */
    void
    note(const Outcome &o, const std::string &what)
    {
        attempted += 1;
        if (!o.ok) {
            failed += 1;
            correct = false;
            std::cout << "FAIL " << what << ": " << o.error << '\n';
        }
    }

    /** A point ran but its statistics disagree with the reference. */
    void
    mismatch(const std::string &what)
    {
        failed += 1;
        correct = false;
        std::cout << "MISMATCH " << what << '\n';
    }
};

void
printResult(const Tally &t, const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (t.correct ? "true" : "false")
              << ", \"attempted\": " << t.attempted
              << ", \"failed\": " << t.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
                  << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
label(const Point &pt)
{
    return pt.group + '/' + ctrl::mechanismName(pt.mechanism);
}

/** Digest over every point's digest, in point order. */
std::uint64_t
combinedDigest(const std::vector<Outcome> &pass)
{
    std::string all;
    for (const Outcome &o : pass)
        all += hex(o.digest);
    return fnv1a(all);
}

/** BkInOrder exec cycles / Burst_TH exec cycles, geomean over groups. */
double
burstThSpeedup(const Workload &w, const std::vector<Outcome> &pass)
{
    std::map<std::string, std::pair<double, double>> by_group;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &pt = w.points[i];
        if (pt.mechanism == ctrl::Mechanism::BkInOrder)
            by_group[pt.group].first = double(pass[i].execCycles);
        else if (pt.mechanism == ctrl::Mechanism::BurstTH)
            by_group[pt.group].second = double(pass[i].execCycles);
    }
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const auto &[g, cyc] : by_group) {
        if (cyc.first > 0 && cyc.second > 0) {
            log_sum += std::log(cyc.first / cyc.second);
            ++n;
        }
    }
    return n ? std::exp(log_sum / double(n)) : 0.0;
}

/** Token instruction count of the set-up measurement. */
constexpr std::uint64_t kSetupInstructions = 1;

/** Host-time samples of the timed passes. */
struct Samples
{
    explicit Samples(std::size_t points) : pointMs(points), setupMs(points) {}

    std::vector<std::vector<double>> pointMs; //!< per point, one per pass
    std::vector<std::vector<double>> setupMs; //!< per point, one per pass
};

/**
 * One pass over every point; checks each against @p reference. With
 * @p samples set, each point's set-up run (the same point at a token
 * instruction count) follows it, so both sample sets span the whole
 * timed window.
 */
std::vector<Outcome>
runPass(const Options &opt, const Workload &w, Tally &tally,
        const std::vector<Outcome> *reference, Samples *samples = nullptr)
{
    std::vector<Outcome> pass;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &pt = w.points[i];
        const Outcome o = runPoint(opt, w, pt, w.instructions);
        tally.note(o, label(pt));
        if (o.ok && reference && (*reference)[i].ok &&
            o.digest != (*reference)[i].digest)
            tally.mismatch(label(pt) + ": differs between passes");
        if (samples) {
            samples->pointMs[i].push_back(o.ms);
            const Outcome setup = runPoint(opt, w, pt, kSetupInstructions);
            tally.note(setup, "set-up " + label(pt));
            samples->setupMs[i].push_back(setup.ms);
        }
        pass.push_back(o);
    }
    return pass;
}

// --------------------------------------------------------------------
// --trace 0: end-to-end metrics
// --------------------------------------------------------------------

/** Fewest timed passes a run takes. */
constexpr std::size_t kMinPasses = 3;

/**
 * Each point's fastest time over the passes. Interference from other
 * tenants of a shared host only ever adds time, and it comes in bursts
 * of seconds to minutes that slow everything by a third or more, so the
 * fastest of passes spread across the window is the point's own cost.
 */
std::vector<double>
fastest(const std::vector<std::vector<double>> &samples)
{
    std::vector<double> out;
    for (const auto &s : samples)
        out.push_back(*std::min_element(s.begin(), s.end()));
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

int
runUntraced(const Options &opt, const Workload &w)
{
    Tally tally;
    const std::size_t n = w.points.size();

    // Timed window: whole passes until --seconds have elapsed.
    Samples samples(n);
    std::vector<Outcome> first;
    long child_rss_kb = 0;
    std::size_t passes = 0;
    const auto t0 = Clock::now();
    while (passes < kMinPasses || secondsSince(t0) < opt.seconds) {
        auto pass =
            runPass(opt, w, tally, first.empty() ? nullptr : &first, &samples);
        for (const Outcome &o : pass)
            child_rss_kb = std::max(child_rss_kb, o.maxRssKb);
        if (first.empty())
            first = std::move(pass);
        ++passes;
    }

    // Outside the timed window: the step engine is the oracle.
    for (std::size_t i : w.stepCheck) {
        const Outcome o = runPoint(opt, w, w.points[i], w.instructions,
                                   sim::EngineKind::Step);
        tally.note(o, "step " + label(w.points[i]));
        if (o.ok && first[i].ok && o.digest != first[i].digest)
            tally.mismatch(label(w.points[i]) + ": step != skip");
    }

    struct rusage self = {};
    getrusage(RUSAGE_SELF, &self);
    const long rss_kb = w.cmp ? child_rss_kb : self.ru_maxrss;

    const std::vector<double> point_ms = fastest(samples.pointMs);
    const double wall_s = sum(point_ms) / 1e3;
    std::uint64_t pass_instr = 0;
    for (const Outcome &o : first)
        pass_instr += o.simInstructions;

    std::cout << "sim_digest: " << hex(combinedDigest(first)) << '\n'
              << "fail_frac: "
              << ratio(double(tally.failed), double(tally.attempted)) << " ("
              << tally.failed << '/' << tally.attempted << ")\n"
              << "passes: " << passes << "  point samples: " << n * passes
              << "  step-checked points: " << w.stepCheck.size() << '\n';
    if (w.cmp) {
        double ws = 0.0, ms = 0.0;
        for (const Outcome &o : first) {
            ws += o.weightedSpeedup;
            ms += o.maxSlowdown;
        }
        std::cout << "sim_weighted_speedup: " << ws / double(n)
                  << "\nsim_max_slowdown: " << ms / double(n) << '\n';
    }

    printResult(
        tally,
        {{"wall_s", wall_s, "s"},
         {"sim_minstr_per_s", ratio(double(pass_instr) / 1e6, wall_s),
          "Minstr/s"},
         {"point_ms_p50", median(point_ms), "ms"},
         {"point_ms_p90", percentile(point_ms, 0.9), "ms"},
         {"setup_s", sum(fastest(samples.setupMs)) / 1e3, "s"},
         {"peak_rss_mb", double(rss_kb) / 1024.0, "MB"},
         {"sim_burst_th_speedup", burstThSpeedup(w, first), "ratio"}});
    return 0;
}

// --------------------------------------------------------------------
// --trace 1: per-layer metrics
// --------------------------------------------------------------------

std::uint64_t
familyNs(const FamilyTimings &t)
{
    std::uint64_t ns = 0;
    for (const auto &f : t)
        ns += f.selfNs();
    return ns;
}

int
runTraced(const Options &opt, const Workload &w)
{
    Tally tally;
    FamilyTimings fam{};
    const SchedulerFactory factory = timingFactory(fam);
    SeamCounts counts;
    std::vector<double> overhead;
    double seam_span_s = 0.0;

    // The digest the untraced runs print, for comparison across runs.
    const auto reference = runPass(opt, w, tally, nullptr);

    // Pairs of passes: the same points untraced, then traced through the
    // decorator. Each traced point must reproduce its untraced twin.
    const auto t0 = Clock::now();
    do {
        double plain_s = 0.0, traced_s = 0.0;
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            const Point &pt = w.points[i];
            const Outcome plain =
                w.cmp ? runCmpReplay(pt, pt.mechanism, w.instructions,
                                     nullptr, nullptr)
                      : runInProcess(pt.cfg, w.instructions,
                                     sim::EngineKind::Skip);
            const Outcome traced =
                w.cmp ? runCmpReplay(pt, pt.mechanism, w.instructions,
                                     &factory, &counts)
                      : runSeamPoint(pt.cfg, w.instructions, factory,
                                     &counts);
            tally.note(plain, label(pt));
            tally.note(traced, "traced " + label(pt));
            if (plain.ok && traced.ok && plain.digest != traced.digest)
                tally.mismatch(label(pt) + ": tracing changed the result");
            plain_s += plain.ms / 1e3;
            traced_s += traced.ms / 1e3;
        }
        overhead.push_back(ratio(traced_s, plain_s) - 1.0);
        seam_span_s += traced_s;
    } while (secondsSince(t0) < opt.seconds);

    // Shares cover the workload's own points only.
    const double seam_ns = seam_span_s * 1e9;
    const double sched_share = ratio(double(familyNs(fam)), seam_ns);
    const double burst_share = ratio(
        double(fam[std::size_t(Family::Burst)].selfNs()), seam_ns);
    const SeamCounts own = counts;

    // Coverage points: families the workload's points never run are
    // timed on the anchor profile (or the first mix), so every family's
    // numbers exist on every workload.
    std::array<bool, kNumFamilies> present{};
    for (const Point &pt : w.points)
        present[std::size_t(familyOf(pt.mechanism))] = true;
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
        if (present[f])
            continue;
        const ctrl::Mechanism m = familyRepresentative(Family(f));
        Outcome o;
        if (w.cmp) {
            o = runCmpReplay(w.points.front(), m, w.instructions, &factory,
                             nullptr);
        } else {
            sim::ExperimentConfig cfg = w.points.front().cfg;
            cfg.workload = w.anchor;
            cfg.mechanism = m;
            o = runSeamPoint(cfg, w.instructions, factory, nullptr);
        }
        tally.note(o, std::string("coverage ") + ctrl::mechanismName(m));
    }

    // Isolated replays through each layer's public API.
    ReplayInputs in;
    in.seed = w.cmp ? 20070212 : w.points.front().cfg.seed;
    in.instructions = w.instructions;
    std::vector<std::string> names;
    for (const Point &pt : w.points) {
        if (w.cmp && names.empty())
            names = pt.mix;
        else if (!w.cmp && std::find(names.begin(), names.end(),
                                     pt.cfg.workload) == names.end())
            names.push_back(pt.cfg.workload);
        if (std::find(in.mechanisms.begin(), in.mechanisms.end(),
                      pt.mechanism) == in.mechanisms.end())
            in.mechanisms.push_back(pt.mechanism);
    }
    for (const auto &n : names)
        in.profiles.push_back(trace::profileByName(n));
    in.sharedController = w.cmp;
    const ReplayTimings rep = runReplays(in);

    std::cout << "sim_digest: " << hex(combinedDigest(reference)) << '\n'
              << "traced pairs: " << overhead.size()
              << "  clock pair cost: " << clockPairNs()
              << " ns (inside every timed scheduler call)\n";

    std::vector<Metric> m = {
        {"trace.next_ns", rep.traceNextNs, "ns"},
        {"trace.share",
         ratio(rep.traceNextNs * double(own.simInstructions), seam_ns),
         "ratio"},
        {"cpu.cache.access_ns", rep.cacheAccessNs, "ns"},
        {"cpu.cache.mem_reads_per_l2_miss",
         ratio(double(own.memReads), double(own.l2Misses)), "ratio"},
        {"cpu.core.cycle_ns", rep.coreCycleNs, "ns"},
        {"sim.system.skipped_frac",
         ratio(double(own.skipped), double(own.skipped + own.stepped)),
         "ratio"},
        {"ctrl.controller.tick_ns", rep.ctrlTickNs, "ns"},
        {"ctrl.controller.horizon_ns", rep.ctrlHorizonNs, "ns"},
        {"ctrl.controller.memo_hit_frac",
         ratio(double(own.memoHits), double(own.memoHits + own.memoMisses)),
         "ratio"},
        {"ctrl.sched.share", sched_share, "ratio"},
        {"ctrl.sched.burst.share", burst_share, "ratio"},
    };
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
        const SchedTiming &t = fam[f];
        const std::string stem =
            std::string("ctrl.sched.") + familyName(Family(f));
        m.push_back({stem + ".tick_ns",
                     ratio(double(t.tickNs), double(t.ticks)), "ns"});
        m.push_back({stem + ".issue_frac",
                     ratio(double(t.issued), double(t.ticks)), "ratio"});
        m.push_back({stem + ".horizon_ns",
                     ratio(double(t.horizonNs), double(t.horizons)), "ns"});
    }
    m.push_back({"dram.probe_ns", rep.dramProbeNs, "ns"});
    m.push_back({"dram.commands_per_tick",
                 ratio(double(own.dramCommands), double(own.ctrlTicks)),
                 "ratio"});
    m.push_back({"obs.trace_overhead_frac", median(overhead), "ratio"});
    printResult(tally, m);
    return 0;
}

// --------------------------------------------------------------------
// main
// --------------------------------------------------------------------

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <figure-sweep|pchase|"
                 "cmp-mix> --seed <n> --seconds <s> --trace <0|1> "
                 "--cli <burstsim> --work-dir <dir> [--instructions <n>]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--cli")
            o.cli = val;
        else if (key == "--work-dir")
            o.workDir = val;
        else if (key == "--instructions")
            o.instructions = std::strtoull(val.c_str(), nullptr, 10);
        else
            usage("unknown option " + key);
    }
    if (o.workload.empty() || o.cli.empty() || o.workDir.empty())
        usage("--workload, --cli and --work-dir are required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (bsim::bench::unoptimizedBuild()) {
        bsim::bench::warnIfUnoptimized();
        std::cerr << "perfbench: refusing to record from an unoptimized "
                     "build\n";
        return 2;
    }

    Workload w;
    if (opt.workload == "figure-sweep")
        w = figureSweep(opt.seed, opt.instructions);
    else if (opt.workload == "pchase")
        w = pchase(opt.seed, opt.instructions);
    else if (opt.workload == "cmp-mix")
        w = cmpMix(opt.seed, opt.instructions);
    else
        usage("unknown workload '" + opt.workload + "'");

    std::cout << "# burstsim benchmark: workload " << w.name << ", seed "
              << opt.seed << ", " << w.points.size() << " points of "
              << w.instructions << (w.cmp ? " instructions per core" :
                                             " instructions")
              << ", trace " << opt.trace << ", git " << BSIM_GIT_SHA
              << ", build " << BSIM_BUILD_TYPE << '\n';
    return opt.trace ? runTraced(opt, w) : runUntraced(opt, w);
}
