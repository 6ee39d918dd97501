/**
 * @file
 * burstsim_campaign — crash-isolated sweep campaigns (src/campaign/).
 *
 * A campaign is a --sweep whose points run in forked worker processes
 * (one per shard), supervised for liveness and restarted/quarantined on
 * crashes, so one segfaulting point cannot take down the rest of the
 * sweep. All state lives in the campaign directory; rerunning the same
 * command resumes from the shard journals.
 *
 * Subcommands:
 *   run     execute the campaign (resume-safe; rerun after any death)
 *   merge   fold on-disk shard state into the final table/CSV, without
 *           executing anything
 *   plan    print the shard layout and per-point config keys
 *   verify  integrity-scan sweep journals (v3 CRC framing); --repair
 *           truncates a damaged file to its longest valid prefix
 *
 * Examples:
 *   burstsim_campaign run --dir camp --workload swim,mcf --shards 4
 *   burstsim_campaign merge --dir camp --workload swim,mcf --shards 4 \
 *       --out sweep.csv
 *   burstsim_campaign verify camp/shard-*.journal
 *
 * Exit codes: 0 complete/clean; 3 degraded (failed, quarantined or
 * given-up points; journal issues in verify); 130 interrupted; 2 usage;
 * 1 error.
 */

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/supervisor.hh"
#include "common/args.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/run_axes.hh"
#include "sim/sweep.hh"

using namespace bsim;

namespace
{

/** SIGINT: drain workers, keep journals, exit 130. */
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

/** The campaign's point list: every workload under every mechanism,
 *  workload-major — the same deterministic slot layout as --sweep. */
std::vector<sim::ExperimentConfig>
pointsFrom(const ArgParser &args)
{
    sim::ExperimentConfig base;
    sim::applyRunAxisOptions(args, base);

    std::vector<sim::ExperimentConfig> points;
    for (const std::string &wl : splitCommas(args.str("workload"))) {
        for (ctrl::Mechanism m : ctrl::kAllMechanisms) {
            sim::ExperimentConfig cfg = base;
            cfg.workload = wl;
            cfg.mechanism = m;
            points.push_back(cfg);
        }
    }
    return points;
}

double
parseSeconds(const ArgParser &args, const char *name)
{
    const std::string &v = args.str(name);
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end || d < 0)
        throwSimError(ErrorCategory::Config,
                      "--%s must be a non-negative number", name);
    return d;
}

campaign::CampaignOptions
campaignOptionsFrom(const ArgParser &args)
{
    campaign::CampaignOptions opt;
    opt.dir = args.str("dir");
    if (opt.dir.empty())
        throwSimError(ErrorCategory::Config,
                      "campaign: --dir is required");
    opt.shards = args.u32("shards");
    for (const std::string &s : splitCommas(args.str("only-shards")))
        opt.onlyShards.push_back(
            unsigned(ArgParser::parseU64("only-shards", s, UINT_MAX)));
    opt.workerJobs = args.u32("jobs");
    opt.maxAttempts = args.u32("retries", 1) + 1;
    opt.heartbeatSec = parseSeconds(args, "heartbeat-sec");
    opt.workerDeadlineSec = parseSeconds(args, "worker-deadline-sec");
    opt.killGraceSec = parseSeconds(args, "kill-grace-sec");
    opt.maxLaunches = args.u32("max-launches");
    opt.backoffBaseSec = parseSeconds(args, "backoff-sec");
    opt.backoffCapSec = parseSeconds(args, "backoff-cap-sec");
    opt.quarantineStrikes = args.u32("strikes");
    opt.journalSync = !args.flag("no-journal-sync");
    return opt;
}

/** Render a finished campaign: table to stdout, optional CSV, a
 *  quarantine summary to stderr; returns the process exit code. */
int
reportCampaign(const std::vector<sim::ExperimentConfig> &points,
               const campaign::CampaignReport &rep,
               const std::string &csvPath)
{
    sim::writeSweepTable(std::cout, points, rep.sweep);
    if (!csvPath.empty()) {
        std::ofstream os(csvPath);
        if (!os)
            fatal("cannot open '%s' for writing", csvPath.c_str());
        sim::writeSweepCsv(os, points, rep.sweep);
        if (!os)
            fatal("error while writing '%s'", csvPath.c_str());
    }
    for (const campaign::QuarantinedPoint &q : rep.quarantined)
        std::cerr << "burstsim_campaign: point " << q.slot << " ("
                  << q.entry.label << ") quarantined after "
                  << q.entry.strikes << " strikes, last death "
                  << q.entry.describeDeath() << '\n';
    for (const campaign::ShardOutcome &s : rep.shards)
        if (s.gaveUp)
            std::cerr << "burstsim_campaign: shard " << s.id
                      << " gave up after " << s.launches
                      << " launches\n";
    if (const std::size_t failed = rep.sweep.failures())
        std::cerr << "burstsim_campaign: " << failed << " of "
                  << points.size() << " points failed\n";
    if (rep.cancelled) {
        std::cerr << "burstsim_campaign: interrupted; completed points "
                     "are journaled\n";
        return 130;
    }
    return rep.degraded() ? 3 : 0;
}

int
cmdRun(const ArgParser &args)
{
    const auto points = pointsFrom(args);
    campaign::CampaignOptions opt = campaignOptionsFrom(args);
    opt.cancel = &g_interrupted;
    if (!args.flag("quiet"))
        opt.log = &std::cerr;

    // Fail-fast before any fork: bad geometry, unwritable directory.
    campaign::validateCampaign(points, opt);

    std::signal(SIGINT, onSigint);
    const campaign::CampaignReport rep =
        campaign::runCampaign(points, opt);
    std::signal(SIGINT, SIG_DFL);
    return reportCampaign(points, rep, args.str("out"));
}

int
cmdMerge(const ArgParser &args)
{
    const auto points = pointsFrom(args);
    const campaign::CampaignOptions opt = campaignOptionsFrom(args);
    const campaign::CampaignReport rep =
        campaign::mergeCampaign(points, opt);
    return reportCampaign(points, rep, args.str("out"));
}

int
cmdPlan(const ArgParser &args)
{
    const auto points = pointsFrom(args);
    const campaign::CampaignOptions opt = campaignOptionsFrom(args);
    const auto plans = campaign::planShards(points.size(), opt.shards,
                                            opt.onlyShards);
    for (const campaign::ShardPlan &plan : plans) {
        std::printf("shard %u: %zu points\n", plan.id,
                    plan.slots.size());
        for (const std::size_t slot : plan.slots)
            std::printf("  point %zu key=%016" PRIx64 " %s/%s\n", slot,
                        sim::configKey(points[slot]),
                        points[slot].workload.c_str(),
                        ctrl::mechanismName(points[slot].mechanism));
    }
    return 0;
}

int
cmdVerify(const ArgParser &args)
{
    // Journals to scan: positional paths after the subcommand, plus
    // every shard journal of --dir when given.
    const std::vector<std::string> paths = campaign::verifyJournals(
        {args.positional().begin() + 1, args.positional().end()},
        args.str("dir"), args.u32("shards"));

    bool anyIssue = false;
    bool anyUnrepaired = false;
    for (const std::string &path : paths) {
        const sim::JournalScan scan = sim::scanSweepJournal(path);
        if (scan.missing) {
            std::printf("%s: missing (empty journal)\n", path.c_str());
            continue;
        }
        std::printf("%s: %zu records (%zu v3), %zu issues\n",
                    path.c_str(), scan.records.size(), scan.v3Records,
                    scan.issues.size());
        for (const sim::JournalIssue &issue : scan.issues)
            std::printf("  line %llu: %s: %s\n",
                        (unsigned long long)issue.line,
                        sim::journalIssueKindName(issue.kind),
                        issue.detail.c_str());
        if (scan.clean())
            continue;
        anyIssue = true;
        if (args.flag("repair")) {
            if (sim::repairSweepJournal(path))
                std::printf("  repaired: truncated to %llu bytes\n",
                            (unsigned long long)scan.validPrefixBytes);
            // Everything after the valid prefix is gone; those points
            // simply rerun on resume.
        } else {
            anyUnrepaired = true;
        }
    }
    if (anyIssue && args.flag("repair"))
        return 0; // damage found but healed
    return anyUnrepaired ? 3 : 0;
}

} // namespace

static int
runCampaignCli(int argc, char **argv)
{
    ArgParser args("burstsim_campaign",
                   "crash-isolated sweep campaigns: forked shard "
                   "workers, heartbeat\nsupervision, restart with "
                   "backoff, poison-point quarantine.\n"
                   "usage: burstsim_campaign <run|merge|plan|verify> "
                   "[options] [journal...]");
    // The point axes: the run axes shared with the burstsim CLI
    // (sim/run_axes.hh), so run/merge build exactly the point list of
    // `burstsim --sweep` — the byte-identical-CSV guarantee needs it.
    args.addOption("workload", "swim",
                   "comma-separated benchmark profiles");
    sim::addRunAxisOptions(args);
    args.addOption("dir", "", "campaign directory (required for run/"
                              "merge/plan)");
    args.addOption("shards", "2", "worker process count");
    args.addOption("only-shards", "",
                   "comma-separated shard ids to run on this host");
    args.addOption("jobs", "1", "threads inside each worker");
    args.addOption("retries", "2",
                   "extra in-worker attempts for transient failures");
    args.addOption("heartbeat-sec", "0.25",
                   "worker progress heartbeat period");
    args.addOption("worker-deadline-sec", "10",
                   "kill a worker whose progress file stalls this long "
                   "(0 = never)");
    args.addOption("kill-grace-sec", "2",
                   "SIGTERM to SIGKILL escalation delay");
    args.addOption("max-launches", "10",
                   "worker incarnations per shard before giving up");
    args.addOption("backoff-sec", "0.25",
                   "base relaunch delay after a crash (doubles per "
                   "crash)");
    args.addOption("backoff-cap-sec", "5", "relaunch delay ceiling");
    args.addOption("strikes", "2",
                   "worker deaths that quarantine a point");
    args.addFlag("no-journal-sync",
                 "skip per-record fdatasync (faster, loses the "
                 "survives-SIGKILL guarantee)");
    args.addOption("out", "", "write the merged report as CSV");
    args.addFlag("repair",
                 "verify: truncate damaged journals to their longest "
                 "valid prefix");
    args.addFlag("quiet", "suppress supervisor narration on stderr");

    if (!args.parse(argc, argv, std::cerr))
        return args.helpRequested() ? 0 : 2;
    if (args.positional().empty()) {
        args.printHelp(std::cerr);
        return 2;
    }
    const std::string &cmd = args.positional().front();
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "merge")
        return cmdMerge(args);
    if (cmd == "plan")
        return cmdPlan(args);
    if (cmd == "verify")
        return cmdVerify(args);
    std::cerr << "burstsim_campaign: unknown subcommand '" << cmd
              << "' (expected run, merge, plan or verify)\n";
    return 2;
}

int
main(int argc, char **argv)
{
    try {
        return runCampaignCli(argc, argv);
    } catch (const SimError &e) {
        std::cerr << "burstsim_campaign: " << e.describe() << '\n';
        return 1;
    }
}
