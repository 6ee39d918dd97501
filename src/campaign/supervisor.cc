#include "campaign/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/worker.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "ctrl/access.hh"

namespace bsim::campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

double
nowSec()
{
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/** "workload/Mechanism" display label of one point (the same label the
 *  sweep table and progress telemetry use). */
std::string
pointLabel(const sim::ExperimentConfig &cfg)
{
    return cfg.workload + "/" + ctrl::mechanismName(cfg.mechanism);
}

/** Final recorded fate of one worker-local point index. */
struct PointFate
{
    bool ok = false;
    unsigned attempts = 0;
    std::string category;
    std::string error;
};

/**
 * What a shard's progress JSONL says happened: which worker-local point
 * indices were in flight when the file ends (point_start/point_retry
 * without a matching point_finish — the supervisor's blame set after a
 * crash) and the final fate of every finished point. Torn last lines
 * (the worker died mid-append) are skipped, exactly like journal tails.
 */
struct ProgressScan
{
    std::vector<std::size_t> inFlight; //!< worker point indices, sorted
    std::unordered_map<std::size_t, PointFate> finished;
};

ProgressScan
scanShardProgress(const std::string &path)
{
    ProgressScan out;
    std::ifstream is(path);
    if (!is)
        return out;
    std::unordered_set<std::size_t> open;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const auto doc = parseJson(line);
        if (!doc || !doc->isObject())
            continue; // torn tail / foreign line
        const JsonValue *ev = doc->find("event");
        const JsonValue *pt = doc->find("point");
        if (!ev || !ev->isString() || !pt || !pt->isNumber())
            continue;
        const std::size_t idx = std::size_t(pt->number);
        if (ev->string == "point_start" || ev->string == "point_retry") {
            open.insert(idx);
        } else if (ev->string == "point_finish") {
            open.erase(idx);
            PointFate f;
            if (const JsonValue *s = doc->find("status"))
                f.ok = s->isString() && s->string == "ok";
            if (const JsonValue *a = doc->find("attempts");
                a && a->isNumber())
                f.attempts = unsigned(a->number);
            if (const JsonValue *c = doc->find("category");
                c && c->isString())
                f.category = c->string;
            if (const JsonValue *e = doc->find("error");
                e && e->isString())
                f.error = e->string;
            out.finished[idx] = std::move(f);
        }
    }
    out.inFlight.assign(open.begin(), open.end());
    std::sort(out.inFlight.begin(), out.inFlight.end());
    return out;
}

/** Supervisor-side runtime state of one shard. */
struct ShardRt
{
    enum class St : std::uint8_t
    {
        Idle,    //!< waiting to (re)launch, possibly backing off
        Running, //!< worker forked and unreaped
        Done,    //!< worker exited cleanly; shard settled
        GaveUp,  //!< maxLaunches exhausted
    };

    ShardPlan plan;
    ShardOutcome out;
    St st = St::Idle;
    pid_t pid = -1;
    /** Global slots of the current/last incarnation's points, in worker
     *  point-index order (the progress file's "point" field indexes
     *  this vector). */
    std::vector<std::size_t> incarnation;
    double backoffUntil = 0.0;
    long lastProgressSize = -1;
    double lastActivity = 0.0;
    bool termSent = false;
    double termAt = 0.0;
};

/** printf-style narration into the supervisor log (if any). */
void
slog(std::ostream *os, const char *fmt, ...)
{
    if (!os)
        return;
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    *os << "campaign: " << buf << '\n';
    os->flush();
}

/**
 * Child-process body: redirect stdout+stderr to the shard log (appended
 * across incarnations, so crash backtraces from every life survive) and
 * run the shard. Only async-signal-safe-ish work happens between fork
 * and the sweep itself; the child never returns.
 */
[[noreturn]] void
workerMain(const WorkerSpec &spec, const std::string &logPath)
{
    const int fd =
        ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO)
            ::close(fd);
    }
    ::_exit(runWorkerShard(spec));
}

/** parseErrorCategory with a fallback instead of a throw: progress
 *  files may carry names from a different build. */
ErrorCategory
categoryFromNameOr(const std::string &name, ErrorCategory fallback)
{
    try {
        return parseErrorCategory(name);
    } catch (const SimError &) {
        return fallback;
    }
}

/** Exponential backoff with cap: base * 2^(crashes-1), crashes >= 1. */
double
backoffSec(const CampaignOptions &opt, unsigned crashes)
{
    const double raw =
        opt.backoffBaseSec * std::ldexp(1.0, int(crashes) - 1);
    return std::min(opt.backoffCapSec, raw);
}

} // namespace

bool
CampaignReport::degraded() const
{
    if (!quarantined.empty())
        return true;
    for (const ShardOutcome &s : shards)
        if (s.gaveUp)
            return true;
    for (const sim::SweepSlot &s : sweep.slots)
        if (!s.run.ok)
            return true;
    return false;
}

void
validateCampaign(const std::vector<sim::ExperimentConfig> &points,
                 const CampaignOptions &opt)
{
    // planShards re-validates shard count vs point count and the
    // --only-shards id list (range, duplicates).
    planShards(points.size(), opt.shards, opt.onlyShards);
    if (opt.maxLaunches == 0)
        throwSimError(ErrorCategory::Config,
                      "campaign --max-launches must be at least 1");
    if (opt.workerDeadlineSec > 0 && opt.heartbeatSec == 0)
        throwSimError(
            ErrorCategory::Config,
            "campaign heartbeat 0 (off) needs worker deadline 0 (never), "
            "got %.3gs: without a heartbeat every worker whose point "
            "outlasts the deadline gets killed as stale",
            opt.workerDeadlineSec);
    if (opt.workerDeadlineSec > 0 && opt.heartbeatSec > 0 &&
        opt.workerDeadlineSec <= 2 * opt.heartbeatSec)
        throwSimError(
            ErrorCategory::Config,
            "campaign worker deadline (%.3gs) must exceed twice the "
            "heartbeat period (%.3gs), or every healthy worker gets "
            "killed as stale",
            opt.workerDeadlineSec, opt.heartbeatSec);
    if (opt.backoffBaseSec < 0 || opt.backoffCapSec < 0)
        throwSimError(ErrorCategory::Config,
                      "campaign backoff times must be non-negative");
    ensureCampaignDir(opt.dir);
}

namespace
{

/**
 * Merge all on-disk shard state into a slot-ordered report. Precedence
 * per point: quarantined (failed, worker_lost) > journal record (ok) >
 * last incarnation's point_finish (failed, recorded category/error) >
 * skipped. The non-journal fallbacks exist because contained failures
 * are deliberately *not* journaled (a resumed sweep retries them), so
 * their fate lives only in telemetry.
 */
CampaignReport
mergeFromDisk(const std::vector<sim::ExperimentConfig> &points,
              const CampaignOptions &opt)
{
    CampaignReport rep;
    rep.sweep.slots.resize(points.size());

    const CampaignLayout layout(opt.dir);
    PoisonList poison(opt.quarantineStrikes);
    poison.load(layout.poisonList());

    std::vector<std::uint64_t> keys(points.size());
    std::vector<std::string> canon(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        canon[i] = sim::canonicalConfig(points[i]);
        keys[i] = sim::configKey(points[i]);
    }

    // Merge maps the *whole* campaign, not just --only-shards: every
    // shard's on-disk state participates.
    const std::vector<ShardPlan> plans =
        planShards(points.size(), opt.shards);

    for (const ShardPlan &plan : plans) {
        const auto journal =
            sim::loadSweepJournal(layout.shardJournal(plan.id));
        // Reconstruct the final incarnation's worker-local point order:
        // the shard's slots minus currently-quarantined points. (A
        // shard's last incarnation always runs under the final
        // quarantine set — strikes only grow between incarnations.)
        std::vector<std::size_t> incarnation;
        for (const std::size_t slot : plan.slots)
            if (!poison.quarantined(keys[slot]))
                incarnation.push_back(slot);
        const ProgressScan progress =
            scanShardProgress(layout.shardProgress(plan.id));

        for (const std::size_t slot : plan.slots) {
            sim::SweepSlot &s = rep.sweep.slots[slot];
            if (poison.quarantined(keys[slot])) {
                const PoisonEntry &e =
                    poison.entries().at(keys[slot]);
                s.run.ok = false;
                s.run.category = ErrorCategory::WorkerLost;
                s.run.attempts = e.strikes;
                s.run.error =
                    "quarantined after " + std::to_string(e.strikes) +
                    " worker crashes (last death: " + e.describeDeath() +
                    ")";
                rep.quarantined.push_back({slot, e});
                continue;
            }
            if (const auto it = journal.find(keys[slot]);
                it != journal.end() &&
                (it->second.configEcho.empty() ||
                 it->second.configEcho == canon[slot])) {
                s.run.ok = true;
                s.run.attempts = it->second.attempts;
                s.summary = it->second.summary;
                s.fromJournal = true;
                continue;
            }
            // Worker-local index of this slot in the final incarnation.
            const auto pos = std::find(incarnation.begin(),
                                       incarnation.end(), slot);
            if (pos != incarnation.end()) {
                const std::size_t idx =
                    std::size_t(pos - incarnation.begin());
                if (const auto f = progress.finished.find(idx);
                    f != progress.finished.end() && !f->second.ok) {
                    s.run.ok = false;
                    s.run.attempts = std::max(1u, f->second.attempts);
                    s.run.category = categoryFromNameOr(
                        f->second.category, ErrorCategory::Internal);
                    s.run.error = f->second.error;
                    continue;
                }
            }
            // Never completed anywhere: skipped (ok=false, attempts=0).
        }
    }

    std::sort(rep.quarantined.begin(), rep.quarantined.end(),
              [](const QuarantinedPoint &a, const QuarantinedPoint &b) {
                  return a.slot < b.slot;
              });
    return rep;
}

} // namespace

CampaignReport
mergeCampaign(const std::vector<sim::ExperimentConfig> &points,
              const CampaignOptions &opt)
{
    planShards(points.size(), opt.shards); // validate geometry
    return mergeFromDisk(points, opt);
}

CampaignReport
runCampaign(const std::vector<sim::ExperimentConfig> &points,
            const CampaignOptions &opt)
{
    validateCampaign(points, opt);

    const CampaignLayout layout(opt.dir);
    PoisonList poison(opt.quarantineStrikes);
    poison.load(layout.poisonList());

    std::vector<std::uint64_t> keys(points.size());
    std::vector<std::string> canon(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        canon[i] = sim::canonicalConfig(points[i]);
        keys[i] = sim::configKey(points[i]);
    }

    std::vector<ShardRt> shards;
    for (ShardPlan &plan :
         planShards(points.size(), opt.shards, opt.onlyShards)) {
        ShardRt rt;
        rt.out.id = plan.id;
        rt.plan = std::move(plan);
        shards.push_back(std::move(rt));
    }

    bool cancelled = false;

    const auto launch = [&](ShardRt &sh) {
        sh.incarnation.clear();
        for (const std::size_t slot : sh.plan.slots)
            if (!poison.quarantined(keys[slot]))
                sh.incarnation.push_back(slot);
        if (sh.incarnation.empty()) {
            // Everything quarantined (or journal-covered via merge):
            // nothing left for a worker to do.
            sh.st = ShardRt::St::Done;
            sh.out.completed = true;
            slog(opt.log, "shard %u: all points quarantined, nothing to run",
                 sh.out.id);
            return;
        }
        WorkerSpec spec;
        spec.points.reserve(sh.incarnation.size());
        for (const std::size_t slot : sh.incarnation)
            spec.points.push_back(points[slot]);
        spec.journal = layout.shardJournal(sh.out.id);
        spec.progress = layout.shardProgress(sh.out.id);
        spec.jobs = opt.workerJobs;
        spec.maxAttempts = opt.maxAttempts;
        spec.heartbeatSec = opt.heartbeatSec;
        spec.journalSync = opt.journalSync;

        const pid_t pid = ::fork();
        if (pid < 0)
            throwSimError(ErrorCategory::Resource,
                          "cannot fork worker for shard %u (%s)",
                          sh.out.id, std::strerror(errno));
        if (pid == 0)
            workerMain(spec, layout.shardLog(sh.out.id)); // never returns

        sh.pid = pid;
        sh.st = ShardRt::St::Running;
        sh.out.launches += 1;
        sh.lastProgressSize = -1;
        sh.lastActivity = nowSec();
        sh.termSent = false;
        slog(opt.log, "shard %u: launch #%u pid %d (%zu points)",
             sh.out.id, sh.out.launches, int(pid),
             sh.incarnation.size());
    };

    const auto handleExit = [&](ShardRt &sh, int status) {
        const bool exited = WIFEXITED(status);
        const int code = exited ? WEXITSTATUS(status) : -1;
        const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        sh.out.lastExit = code;
        sh.out.lastSignal = sig;
        sh.pid = -1;

        if (exited && (code == kWorkerOk || code == kWorkerFailures ||
                       code == kWorkerAborted)) {
            // Clean completion. kWorkerFailures/kWorkerAborted mean
            // contained failures inside the worker — deterministic, so
            // relaunching would just repeat them; the merge recovers
            // their recorded fate from the progress file.
            sh.st = ShardRt::St::Done;
            sh.out.completed = true;
            slog(opt.log, "shard %u: worker exited %d (%s)", sh.out.id,
                 code,
                 code == kWorkerOk ? "complete"
                 : code == kWorkerFailures
                     ? "complete with contained failures"
                     : "aborted by failure threshold");
            return;
        }
        if (exited && code == kWorkerCancelled) {
            // The worker drained after a SIGTERM. Ours-for-cancel: the
            // shard stays incomplete and the campaign winds down.
            // Ours-for-staleness: the worker was alive after all —
            // relaunch and let journal resume skip its finished work.
            if (cancelled) {
                sh.st = ShardRt::St::Done;
                slog(opt.log, "shard %u: worker drained after cancel",
                     sh.out.id);
                return;
            }
            slog(opt.log,
                 "shard %u: worker drained after deadline kill; "
                 "relaunching", sh.out.id);
        } else {
            // Crash: killed by a signal or an unknown exit code. Blame
            // every point the progress file says was in flight.
            sh.out.crashes += 1;
            const ProgressScan progress = scanShardProgress(
                layout.shardProgress(sh.out.id));
            std::size_t struck = 0;
            for (const std::size_t idx : progress.inFlight) {
                if (idx >= sh.incarnation.size())
                    continue; // stale file from a larger incarnation
                const std::size_t slot = sh.incarnation[idx];
                const PoisonEntry &e = poison.strike(
                    keys[slot], canon[slot], pointLabel(points[slot]),
                    sig, code);
                struck += 1;
                if (poison.quarantined(keys[slot]))
                    slog(opt.log,
                         "shard %u: QUARANTINED point %zu (%s) after "
                         "%u strikes, last death %s",
                         sh.out.id, slot, e.label.c_str(), e.strikes,
                         e.describeDeath().c_str());
                else
                    slog(opt.log,
                         "shard %u: strike %u for point %zu (%s)",
                         sh.out.id, e.strikes, slot, e.label.c_str());
            }
            if (struck > 0)
                poison.save(layout.poisonList());
            if (sig > 0)
                slog(opt.log,
                     "shard %u: worker pid lost to signal %d (%s), "
                     "%zu points struck", sh.out.id, sig,
                     strsignal(sig), struck);
            else
                slog(opt.log,
                     "shard %u: worker exited %d unexpectedly, "
                     "%zu points struck", sh.out.id, code, struck);
        }

        if (cancelled) {
            sh.st = ShardRt::St::Done;
            return;
        }
        if (sh.out.launches >= opt.maxLaunches) {
            sh.st = ShardRt::St::GaveUp;
            sh.out.gaveUp = true;
            slog(opt.log,
                 "shard %u: giving up after %u launches "
                 "(%u crashes); remaining points stay pending",
                 sh.out.id, sh.out.launches, sh.out.crashes);
            return;
        }
        const double delay =
            backoffSec(opt, std::max(1u, sh.out.crashes));
        sh.st = ShardRt::St::Idle;
        sh.backoffUntil = nowSec() + delay;
        slog(opt.log, "shard %u: relaunch in %.2fs", sh.out.id, delay);
    };

    const auto poll = [&](ShardRt &sh) {
        int status = 0;
        const pid_t r = ::waitpid(sh.pid, &status, WNOHANG);
        if (r == sh.pid) {
            handleExit(sh, status);
            return;
        }
        if (r < 0 && errno == ECHILD) {
            // Should not happen (we forked it); treat as a crash with
            // unknown status rather than spinning forever.
            handleExit(sh, 0x7f00);
            return;
        }
        // Liveness: the progress file growing is the heartbeat.
        struct stat sb;
        if (::stat(layout.shardProgress(sh.out.id).c_str(), &sb) == 0 &&
            long(sb.st_size) != sh.lastProgressSize) {
            sh.lastProgressSize = long(sb.st_size);
            sh.lastActivity = nowSec();
        }
        if (opt.workerDeadlineSec <= 0)
            return;
        const double now = nowSec();
        if (!sh.termSent &&
            now - sh.lastActivity > opt.workerDeadlineSec) {
            sh.out.deadlineKills += 1;
            sh.termSent = true;
            sh.termAt = now;
            slog(opt.log,
                 "shard %u: no progress for %.1fs, sending SIGTERM to "
                 "pid %d", sh.out.id, now - sh.lastActivity,
                 int(sh.pid));
            ::kill(sh.pid, SIGTERM);
        } else if (sh.termSent && now - sh.termAt > opt.killGraceSec) {
            slog(opt.log,
                 "shard %u: SIGTERM ignored for %.1fs, escalating to "
                 "SIGKILL", sh.out.id, now - sh.termAt);
            ::kill(sh.pid, SIGKILL);
            // A stopped process ignores everything but SIGKILL/SIGCONT;
            // make sure SIGKILL is actually deliverable.
            ::kill(sh.pid, SIGCONT);
            sh.termAt = now; // re-arm; repeat kills are harmless
        }
    };

    // Supervision loop: tick every shard until all are settled.
    for (;;) {
        if (!cancelled && opt.cancel && opt.cancel->load()) {
            cancelled = true;
            slog(opt.log, "cancel requested; draining workers");
            for (ShardRt &sh : shards)
                if (sh.st == ShardRt::St::Running)
                    ::kill(sh.pid, SIGTERM);
        }
        bool settled = true;
        for (ShardRt &sh : shards) {
            switch (sh.st) {
            case ShardRt::St::Idle:
                if (cancelled) {
                    sh.st = ShardRt::St::Done;
                    break;
                }
                settled = false;
                if (nowSec() >= sh.backoffUntil)
                    launch(sh);
                break;
            case ShardRt::St::Running:
                settled = false;
                poll(sh);
                break;
            case ShardRt::St::Done:
            case ShardRt::St::GaveUp:
                break;
            }
        }
        if (settled)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    CampaignReport rep = mergeFromDisk(points, opt);
    rep.cancelled = cancelled;
    rep.sweep.cancelled = cancelled;
    for (ShardRt &sh : shards)
        rep.shards.push_back(sh.out);
    std::sort(rep.shards.begin(), rep.shards.end(),
              [](const ShardOutcome &a, const ShardOutcome &b) {
                  return a.id < b.id;
              });
    return rep;
}

} // namespace bsim::campaign
