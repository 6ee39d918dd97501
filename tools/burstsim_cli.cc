/**
 * @file
 * burstsim — command-line front end to the simulator.
 *
 * Examples:
 *   burstsim --workload swim --mechanism Burst_TH
 *   burstsim --workload mcf --mechanism Burst_RP --instructions 500000
 *   burstsim --cmp swim,mcf,gcc,art --mechanism Burst_TH --json
 *   burstsim --cmp mcf,swim --mechanism BLISS,FR-FCFS --fairness-out f.csv
 *   burstsim --sweep --workload lucas          # all 8 mechanisms
 *   burstsim --list
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/run_axes.hh"
#include "sim/sweep.hh"
#include "trace/spec_profiles.hh"

using namespace bsim;

namespace
{

/** SIGINT: finish in-flight sweep points, flush the journal, exit 130. */
std::atomic<bool> g_interrupted{false};

extern "C" void
onSigint(int)
{
    g_interrupted.store(true);
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** The run the command line describes under @p mechanism. `--cmp
 *  w0,w1` is the mix workload "w0+w1". */
sim::ExperimentConfig
configFrom(const ArgParser &args, const std::string &mechanism)
{
    sim::ExperimentConfig cfg;
    cfg.workload = args.str("workload");
    if (const auto cmp = splitCommas(args.str("cmp")); !cmp.empty()) {
        cfg.workload = cmp[0];
        for (std::size_t i = 1; i < cmp.size(); ++i)
            cfg.workload += '+' + cmp[i];
    }
    cfg.mechanism = ctrl::parseMechanism(mechanism);
    sim::applyRunAxisOptions(args, cfg);
    cfg.watermarkDrain = args.flag("watermark-drain");
    cfg.fairness =
        args.flag("fairness") || !args.str("fairness-out").empty();

    // Observability: each pillar turns on only when requested, so the
    // default run carries no instrumentation cost.
    cfg.obs.latencyBreakdown = args.flag("latency-breakdown");
    if (!args.str("metrics-out").empty()) {
        cfg.obs.metricsInterval = args.u64("metrics-interval");
        if (cfg.obs.metricsInterval == 0)
            fatal("--metrics-interval must be positive");
    }
    cfg.obs.commandTrace = !args.str("trace-out").empty();
    cfg.obs.stallAttribution =
        args.flag("stall-attribution") || !args.str("stall-out").empty();
    const std::string &audit = args.str("audit");
    if (audit == "warn")
        cfg.obs.audit = obs::AuditMode::Warn;
    else if (audit == "fatal")
        cfg.obs.audit = obs::AuditMode::Fatal;
    else if (audit != "off")
        fatal("--audit must be 'off', 'warn' or 'fatal'");
    cfg.obs.engineIntrospect =
        args.flag("introspect") || !args.str("introspect-out").empty();
    cfg.obs.selfProf = args.flag("selfprof");
    cfg.obs.critPath = args.flag("crit-path");
    cfg.obs.accessTraceOut = args.str("access-trace-out");
    cfg.obs.perCoreMetrics = args.flag("metrics-per-core");

    return cfg;
}

/** Execution policy of a --sweep or fairness sweep. */
sim::SweepOptions
sweepOptionsFrom(const ArgParser &args)
{
    sim::SweepOptions opt;
    opt.jobs = unsigned(args.u64("jobs"));
    opt.maxAttempts = unsigned(args.u64("retries")) + 1;
    if (!args.str("max-failures").empty())
        opt.maxFailures = args.u64("max-failures");
    opt.journal = args.str("sweep-journal");
    opt.cancel = &g_interrupted;
    opt.progressPath = args.str("progress-out");
    const std::string &hb = args.str("heartbeat-sec");
    if (!hb.empty()) {
        char *end = nullptr;
        opt.heartbeatSec = std::strtod(hb.c_str(), &end);
        if (end == hb.c_str() || *end || opt.heartbeatSec < 0)
            fatal("--heartbeat-sec must be a non-negative number");
    }
    return opt;
}

/** Run @p points under SIGINT-drain and report the sweep's fate on
 *  stderr; @p render writes the deterministic results. Returns the
 *  exit status. */
template <typename Fn>
int
runSweep(const ArgParser &args,
         const std::vector<sim::ExperimentConfig> &points, Fn render)
{
    std::signal(SIGINT, onSigint);
    const sim::SweepReport rep =
        sim::runExperimentSweep(points, sweepOptionsFrom(args));
    std::signal(SIGINT, SIG_DFL);

    render(rep);
    if (const std::size_t failed = rep.failures())
        std::cerr << "burstsim: " << failed << " of " << points.size()
                  << " sweep points failed\n";
    if (rep.journaled())
        std::cerr << "burstsim: " << rep.journaled()
                  << " points restored from journal\n";
    if (rep.cancelled) {
        std::cerr << "burstsim: sweep interrupted; completed points "
                     "are journaled\n";
        return 130;
    }
    if (rep.aborted) {
        std::cerr << "burstsim: sweep aborted after exceeding "
                     "--max-failures\n";
        return 3;
    }
    return 0;
}

/**
 * Fail before the run, not after it: every output path named on the
 * command line must be writable up front (matching --sweep-journal),
 * so an hour-long simulation cannot die at the final fopen. Opens in
 * append mode, which creates the file but never truncates existing
 * content that a later full write would replace anyway.
 */
void
validateOutputPath(const std::string &path, const char *flag)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        throwSimError(ErrorCategory::Resource,
                      "cannot open %s '%s' for writing", flag,
                      path.c_str());
}

/** Write @p path via @p emit, failing loudly on I/O errors. */
template <typename Fn>
void
writeFileOrDie(const std::string &path, Fn emit)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    emit(os);
    if (!os)
        fatal("error while writing '%s'", path.c_str());
}

} // namespace

static int
runCli(int argc, char **argv)
{
    ArgParser args("burstsim",
                   "cycle-level DDR2 memory system simulator reproducing "
                   "'A Burst Scheduling Access\nReordering Mechanism' "
                   "(Shao & Davis, HPCA 2007)");
    args.addOption("workload", "swim",
                   "benchmark profile (see --list)");
    args.addOption("mechanism", "Burst_TH",
                   "access reordering mechanism (see --list)");
    sim::addRunAxisOptions(args);
    args.addOption("jobs", "1",
                   "parallel runs in sweep modes (0 = all cores)");
    args.addOption("cmp", "",
                   "comma-separated workloads, one core each (CMP mode; "
                   "same as --workload w0+w1+...)");
    args.addFlag("sweep", "run all eight mechanisms and compare; "
                          "--workload may list several (commas), and "
                          "'@/path' entries replay trace files");
    args.addOption("retries", "2",
                   "extra attempts for transiently failed sweep points");
    args.addOption("max-failures", "",
                   "abort the sweep after this many failed points "
                   "(default: never abort)");
    args.addOption("sweep-journal", "",
                   "checkpoint file: completed points are appended and "
                   "skipped on rerun (resumable sweeps)");
    args.addOption("sweep-out", "",
                   "write the sweep report as CSV to this path");
    args.addFlag("json", "emit machine-readable JSON");
    args.addFlag("list", "list workloads and mechanisms, then exit");
    args.addFlag("latency-breakdown",
                 "report per-phase access latency histograms");
    args.addOption("metrics-out", "",
                   "write epoch metrics time series (.json else CSV)");
    args.addOption("metrics-interval", "1024",
                   "metrics epoch length in memory cycles");
    args.addOption("trace-out", "",
                   "write Chrome trace-event JSON of SDRAM commands");
    args.addFlag("stall-attribution",
                 "classify every idle memory cycle by its cause");
    args.addOption("stall-out", "",
                   "write stall attribution JSON (implies the pillar)");
    args.addOption("audit", "off",
                   "DDR2 protocol auditor: off | warn | fatal");
    args.addFlag("introspect",
                 "engine introspection: attribute every resume-from-skip "
                 "to a wake reason (deterministic)");
    args.addOption("introspect-out", "",
                   "write wake-reason JSON (implies --introspect)");
    args.addFlag("selfprof",
                 "host-side self-profile of the simulator (text report "
                 "only; never changes simulated output)");
    args.addOption("progress-out", "",
                   "write sweep progress events as JSONL to this path");
    args.addOption("heartbeat-sec", "0",
                   "sweep stderr heartbeat period in seconds (0 = off)");
    args.addFlag("crit-path",
                 "per-access causal blame: decompose every access's "
                 "latency over the stall-cause taxonomy");
    args.addOption("access-trace-out", "",
                   "stream one JSONL record per completed access "
                   "(implies --crit-path)");
    args.addFlag("metrics-per-core",
                 "add per-requester queue occupancy and row-hit-rate "
                 "columns to the epoch metrics");
    args.addFlag("watermark-drain",
                 "contention families: drain writes in watermark batches "
                 "(HI/LO hysteresis) instead of read-idle opportunism");
    args.addFlag("fairness",
                 "CMP mode: also run each core's alone baseline and "
                 "report slowdown / weighted / harmonic speedup");
    args.addOption("fairness-out", "",
                   "write CMP fairness results as CSV to this path "
                   "(implies --fairness; --mechanism may list several, "
                   "resumable via --sweep-journal)");

    if (!args.parse(argc, argv, std::cerr))
        return args.helpRequested() ? 0 : 2;

    // A flag the chosen mode never reads is rejected, not ignored (and
    // before the path check below would create an empty file for it).
    if (!args.str("sweep-out").empty() && !args.flag("sweep"))
        throwSimError(ErrorCategory::Config,
                      "--sweep-out is only written by --sweep");

    // Every named output must be writable before any simulation runs.
    validateOutputPath(args.str("metrics-out"), "--metrics-out");
    validateOutputPath(args.str("trace-out"), "--trace-out");
    validateOutputPath(args.str("stall-out"), "--stall-out");
    validateOutputPath(args.str("introspect-out"), "--introspect-out");
    validateOutputPath(args.str("progress-out"), "--progress-out");
    validateOutputPath(args.str("access-trace-out"), "--access-trace-out");
    validateOutputPath(args.str("sweep-out"), "--sweep-out");

    if (args.flag("list")) {
        std::cout << "workloads:";
        for (const auto &w : trace::specProfileNames())
            std::cout << ' ' << w;
        std::cout << "\nmicrobenchmarks:";
        for (const auto &w : trace::microProfileNames())
            std::cout << ' ' << w;
        std::cout << "\nmechanisms:";
        for (auto m : ctrl::kAllMechanisms)
            std::cout << ' ' << ctrl::mechanismName(m);
        std::cout << "\ncontention schedulers:";
        for (auto m : ctrl::kContentionMechanisms)
            std::cout << ' ' << ctrl::mechanismName(m);
        std::cout << '\n';
        return 0;
    }

    // A fairness sweep: the mix under every listed mechanism, one CSV
    // row each (also to --fairness-out).
    const auto mechs = splitCommas(args.str("mechanism"));
    const bool fairness_out = !args.str("fairness-out").empty();
    if ((args.flag("fairness") || fairness_out) &&
        (mechs.size() > 1 || fairness_out)) {
        std::vector<sim::ExperimentConfig> points;
        for (const auto &m : mechs)
            points.push_back(configFrom(args, m));
        return runSweep(args, points, [&](const sim::SweepReport &rep) {
            sim::writeFairnessCsv(std::cout, points, rep);
            if (const std::string &path = args.str("fairness-out");
                !path.empty()) {
                writeFileOrDie(path, [&](std::ostream &os) {
                    sim::writeFairnessCsv(os, points, rep);
                });
            }
        });
    }

    const sim::ExperimentConfig base =
        configFrom(args, args.str("mechanism"));
    if (args.flag("sweep")) {
        // Points: every listed workload (or the --cmp mix) under every
        // mechanism, in workload-major order (deterministic slot
        // layout).
        const auto workloads = args.str("cmp").empty()
                                   ? splitCommas(args.str("workload"))
                                   : std::vector{base.workload};
        std::vector<sim::ExperimentConfig> points;
        for (const std::string &wl : workloads) {
            for (ctrl::Mechanism m : ctrl::kAllMechanisms) {
                sim::ExperimentConfig cfg = base;
                cfg.workload = wl;
                cfg.mechanism = m;
                points.push_back(cfg);
            }
        }
        return runSweep(args, points, [&](const sim::SweepReport &rep) {
            sim::writeSweepTable(std::cout, points, rep);
            if (const std::string &path = args.str("sweep-out");
                !path.empty()) {
                writeFileOrDie(path, [&](std::ostream &os) {
                    sim::writeSweepCsv(os, points, rep);
                });
            }
        });
    }

    const sim::RunResult r = sim::runExperiment(base);
    if (args.flag("json"))
        sim::writeResultJson(std::cout, r);
    else
        sim::writeResultText(std::cout, r);

    if (const std::string &path = args.str("metrics-out"); !path.empty()) {
        const bool as_json =
            path.size() >= 5 && path.rfind(".json") == path.size() - 5;
        writeFileOrDie(path, [&](std::ostream &os) {
            if (as_json)
                r.obs->writeMetricsJson(os);
            else
                r.obs->writeMetricsCsv(os);
        });
    }
    if (const std::string &path = args.str("trace-out"); !path.empty()) {
        writeFileOrDie(path, [&](std::ostream &os) {
            r.obs->writeChromeTrace(os);
        });
    }
    if (const std::string &path = args.str("stall-out"); !path.empty()) {
        writeFileOrDie(path, [&](std::ostream &os) {
            r.obs->writeStallJson(os);
        });
    }
    if (const std::string &path = args.str("introspect-out");
        !path.empty()) {
        writeFileOrDie(path, [&](std::ostream &os) {
            r.obs->writeIntrospectJson(os);
        });
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // Library code reports failures as SimError; turning one into a
    // process exit happens here and nowhere else.
    try {
        return runCli(argc, argv);
    } catch (const SimError &e) {
        std::cerr << "burstsim: " << e.describe() << '\n';
        return 1;
    }
}
