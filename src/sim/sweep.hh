/**
 * @file
 * Robust sweep driver: fault-contained, resumable execution of a list of
 * experiment points.
 *
 * Each point is one ExperimentConfig; the driver runs them through a
 * SweepRunner with per-point containment (SweepRunner::guardedRun),
 * bounded retry of transient failures, an abort threshold, an optional
 * cancel token (SIGINT: drain in-flight points, then stop), and an
 * append-only journal that makes interrupted sweeps resumable — reruns
 * skip journaled points and reproduce byte-identical reports from the
 * stored summaries.
 *
 * Journal format v3: a text file, one framed record per completed
 * point,
 *   J3 <len> <crc> P <key> attempts=<n> exec=<u64> rdlat=<a> wrlat=<a>
 *       rowhit=<a> bw=<a> [ws=<a> hs=<a> maxsd=<a> sd0=<a> ...]
 *       cfg="<canonical>"
 * (one line). <key> is the point's configKey() in hex; the <a> fields
 * are C99 hexfloats (%a), which round-trip doubles exactly — the
 * property the byte-identical-resume guarantee rests on. The bracketed
 * fairness tokens (weighted / harmonic speedup, max slowdown, one
 * slowdown per core) appear only on ExperimentConfig::fairness points,
 * so a CMP fairness sweep journals through this same format. <canonical>
 * echoes the canonicalConfig() encoding the key was hashed from. On
 * resume the echo is compared against the point's own canonical
 * string: a 64-bit hash collision between two different configs is
 * then detected and the point reruns instead of silently reusing the
 * colliding record.
 *
 * The v3 frame hardens each record individually: <len> is the payload
 * byte length in decimal and <crc> its CRC-32 in 8 hex digits, so a
 * record torn by a crash mid-append, or corrupted at rest, is detected
 * at the *record* level rather than inferred from parse failure.
 * Append discipline: each record is written with a single O_APPEND
 * write(2) call, so concurrent appenders never interleave bytes and a
 * crash can only tear the file's tail; with SweepOptions::journalSync
 * (the default) every record is followed by fdatasync(), so an
 * acknowledged point survives an immediate power cut or SIGKILL. A
 * torn or corrupt *tail* is expected crash debris and is skipped (the
 * point reruns); corruption *before* the last record indicates real
 * damage and is reported per record by scanSweepJournal() — see the
 * `burstsim_campaign verify` subcommand, whose --repair mode truncates
 * the file back to its longest valid prefix.
 *
 * Unframed lines (including the bare v2 "P ..." records of older
 * releases) are malformed; records without a cfg= echo are accepted
 * without collision protection. Lines starting with '#' are comments.
 */

#ifndef BURSTSIM_SIM_SWEEP_HH
#define BURSTSIM_SIM_SWEEP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"

namespace bsim::sim
{

/**
 * Canonical text encoding of every field of @p cfg that can affect the
 * run's summarised fate: the statistic-determining axes (workload,
 * mechanism, geometry, timing variant, engine, ...), plus the fault-
 * policy fields (watchdog, deadline) — a point that failed under a
 * tight watchdog must not be resumed as if it had run under a loose
 * one — the scheduler-factory identity (schedulerFactoryId; a bare
 * anonymous factory is encoded as present-but-unnamed), and whether
 * the fairness baselines run (they fill the summary). Observability
 * sinks are excluded: they never change the summary. This string is
 * what configKey() hashes and what the journal echoes for collision
 * detection; double quotes and newlines are sanitised to '?' so the
 * echo always stays one parseable line.
 */
std::string canonicalConfig(const ExperimentConfig &cfg);

/** FNV-1a digest of canonicalConfig(): the journal's point identity. */
std::uint64_t configKey(const ExperimentConfig &cfg);

/** The per-point statistics a sweep report is rendered from. */
struct SweepSummary
{
    std::uint64_t execCpuCycles = 0;
    double readLatMean = 0.0;  //!< memory cycles
    double writeLatMean = 0.0; //!< memory cycles
    double rowHitRate = 0.0;
    double bandwidthGBs = 0.0;
    /** Fairness aggregates of ExperimentConfig::fairness points; the
     *  per-core slowdowns are empty on every other point. */
    double weightedSpeedup = 0.0;
    double harmonicSpeedup = 0.0;
    double maxSlowdown = 0.0;
    std::vector<double> perCoreSlowdown;
};

/** Extract the reported summary from a full run result. */
SweepSummary summarize(const RunResult &r);

/** Fate plus (on success) summary of one sweep point. */
struct SweepSlot
{
    RunOutcome run;        //!< ok / attempts / failure description
    SweepSummary summary;  //!< valid when run.ok
    bool fromJournal = false; //!< restored, not executed, this sweep
};

/**
 * Test-only fault injection: fail a chosen point's first attempts with
 * a synthetic SimError before runExperiment() is even entered. The
 * same injection is reachable from the command line through the
 * BURSTSIM_FAIL_POINT / BURSTSIM_FAIL_TIMES / BURSTSIM_FAIL_CAT
 * environment variables (read only when `point` is negative here).
 *
 * A second, *hard* injector exists purely in the environment:
 * BURSTSIM_CRASH_POINT=<slot> (or BURSTSIM_CRASH_KEY=<hex configKey>)
 * kills the whole process when that point begins —
 * BURSTSIM_CRASH_MODE=abort|segv|exit:<n>|stop, optionally one-shot
 * via a BURSTSIM_CRASH_ONCE=<marker-path> file. It exists to test the
 * campaign supervisor's process isolation (src/campaign/); an
 * in-process sweep has, by design, no defence against it.
 */
struct SweepFault
{
    std::ptrdiff_t point = -1; //!< slot index to poison; -1 = none
    unsigned times = 0;        //!< attempts of it that fail
    ErrorCategory category = ErrorCategory::Resource;
};

/** Execution policy of one sweep. */
struct SweepOptions
{
    unsigned jobs = 1; //!< worker threads (0 = all cores)
    /** Tries per point; failures beyond transient ones never retry. */
    unsigned maxAttempts = 3;
    /** Tolerated failed points before the sweep aborts. */
    std::size_t maxFailures = std::numeric_limits<std::size_t>::max();
    /** Journal path; empty disables checkpoint/resume. */
    std::string journal;
    /** fsync the journal after every record (see the fsync policy in
     *  the file comment). Default on: a journaled point must survive
     *  SIGKILL. Turn off only for throwaway sweeps on slow media. */
    bool journalSync = true;
    /** Cancel token (SIGINT handler sets it; in-flight points drain). */
    const std::atomic<bool> *cancel = nullptr;
    /** Programmatic fault injection (tests). */
    SweepFault fault;

    // --- progress telemetry (see docs/observability.md) ---
    // One JSON object per line (JSONL): sweep_start, point_start,
    // point_retry, point_finish, heartbeat, sweep_end. Host wall times
    // appear here by design — this is a telemetry side channel, never
    // part of the deterministic result set (CSV/table/journal).

    /** Progress JSONL path; empty disables file telemetry. */
    std::string progressPath;
    /** Progress JSONL stream override (tests); wins over progressPath. */
    std::ostream *progressStream = nullptr;
    /** Stderr heartbeat period in seconds; 0 disables the heartbeat. */
    double heartbeatSec = 0.0;
};

/** Slot-ordered outcome of a whole sweep. */
struct SweepReport
{
    std::vector<SweepSlot> slots;
    bool aborted = false;   //!< maxFailures exceeded; tail skipped
    bool cancelled = false; //!< cancel token tripped; tail skipped

    /** Points that ran and failed (skipped points don't count). */
    std::size_t failures() const;
    /** Points restored from the journal instead of executed. */
    std::size_t journaled() const;
};

/**
 * Run every point of @p points under @p opt. Never throws for
 * per-point failures — each lands in its slot; only journal I/O
 * misconfiguration (unwritable path) throws SimError(resource).
 */
SweepReport runExperimentSweep(const std::vector<ExperimentConfig> &points,
                               const SweepOptions &opt = {});

/**
 * Render @p rep as CSV, one row per point in slot order. Deterministic:
 * wall times and host state never appear; a failed point's row carries
 * its status, category and error text instead of numbers.
 */
void writeSweepCsv(std::ostream &os,
                   const std::vector<ExperimentConfig> &points,
                   const SweepReport &rep);

/**
 * Render @p rep as an aligned text table (the CLI's --sweep output).
 * Failed slots print "failed(<category>)" with dashes for the metrics;
 * normalisation uses the first successful slot as the base.
 */
void writeSweepTable(std::ostream &os,
                     const std::vector<ExperimentConfig> &points,
                     const SweepReport &rep);

/**
 * Render a sweep of ExperimentConfig::fairness points as the fairness
 * CSV: one row per point (mix, mechanism, core count, watermark-drain
 * axis, status) with the three aggregates plus sd_core<i> columns
 * sized to the widest mix (narrower mixes leave the extra cells empty).
 */
void writeFairnessCsv(std::ostream &os,
                      const std::vector<ExperimentConfig> &points,
                      const SweepReport &rep);

/** One parsed journal record (exposed for tests). */
struct JournalRecord
{
    unsigned attempts = 0;
    SweepSummary summary;
    /** canonicalConfig() echo; empty for pre-echo (legacy) records. */
    std::string configEcho;
};

/** Load @p path (missing file = empty map; torn lines are skipped). */
std::unordered_map<std::uint64_t, JournalRecord>
loadSweepJournal(const std::string &path);

/** One integrity defect found while scanning a journal. */
struct JournalIssue
{
    enum class Kind : std::uint8_t
    {
        Malformed,      //!< unparseable line / bad frame syntax
        LengthMismatch, //!< v3 frame length != actual payload length
        CrcMismatch,    //!< v3 payload failed its CRC-32
        TornTail,       //!< damaged final record (expected crash debris)
    };
    Kind kind = Kind::Malformed;
    std::uint64_t line = 0; //!< 1-based line number
    std::string detail;     //!< human-readable description
};

/** Printable issue-kind name ("malformed", "crc_mismatch", ...). */
const char *journalIssueKindName(JournalIssue::Kind kind);

/** Full integrity scan of one journal (the `verify` subcommand). */
struct JournalScan
{
    /** Valid records by key (last record wins, as on resume). */
    std::unordered_map<std::uint64_t, JournalRecord> records;
    /** Every defect, in file order. A torn tail is the last entry. */
    std::vector<JournalIssue> issues;
    /** Byte length of the longest valid prefix: every line before this
     *  offset is a clean record or comment. repairSweepJournal()
     *  truncates to exactly here. */
    std::uint64_t validPrefixBytes = 0;
    std::size_t v3Records = 0; //!< framed records accepted
    bool missing = false;      //!< file does not exist
    /** No defects at all (a missing file is trivially clean). */
    bool clean() const { return issues.empty(); }
};

/** Scan @p path without modifying it. Never throws on bad content —
 *  every defect lands in issues. */
JournalScan scanSweepJournal(const std::string &path);

/**
 * Truncate @p path to its longest valid prefix (scan.validPrefixBytes),
 * dropping the torn/corrupt suffix so subsequent loads are clean.
 * Returns true when the file was actually shortened. Throws
 * SimError(Resource) if the file cannot be rewritten.
 */
bool repairSweepJournal(const std::string &path);

/**
 * Contiguous, balanced partition of @p count slots over @p shards
 * shards: shard s gets slots [s*count/shards, (s+1)*count/shards) after
 * remainder spreading — sizes differ by at most one and concatenating
 * all shards in id order yields 0..count-1 exactly once. Throws
 * SimError(Config) when shards == 0 or @p shard is out of range.
 */
std::vector<std::size_t> shardSlots(std::size_t count, unsigned shards,
                                    unsigned shard);

} // namespace bsim::sim

#endif // BURSTSIM_SIM_SWEEP_HH
