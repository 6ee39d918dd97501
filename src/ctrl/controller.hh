/**
 * @file
 * The memory controller: access pool, admission rules, write-queue read
 * forwarding, refresh engine, response path and statistics. The actual
 * ordering decisions are delegated to one Scheduler per channel.
 *
 * Baseline parameters follow Table 3 of the paper: a 256-entry access
 * pool of which at most 64 may be writes. When the write queue is full
 * the controller accepts no new accesses at all (Section 3.2) — this is
 * what makes write-queue saturation expensive and motivates the
 * read-preemption / write-piggybacking threshold.
 */

#ifndef BURSTSIM_CTRL_CONTROLLER_HH
#define BURSTSIM_CTRL_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "ctrl/access.hh"
#include "ctrl/scheduler.hh"
#include "dram/memory_system.hh"

namespace bsim::obs
{
class EngineIntrospect;
class Observability;
struct WakeSource;
} // namespace bsim::obs

namespace bsim::ctrl
{

/** Controller configuration (Table 3 baseline defaults). */
struct ControllerConfig
{
    Mechanism mechanism = Mechanism::BkInOrder;
    std::size_t poolCap = 256;   //!< total outstanding accesses
    std::size_t writeCap = 64;   //!< maximal queued writes
    std::size_t threshold = 52;  //!< Burst_TH threshold
    Tick forwardLatency = 2;     //!< write-queue-hit read response time

    /** Extension: merge a newly admitted write into an already-queued
     *  write to the same block instead of enqueueing a duplicate (real
     *  controllers coalesce; the paper's model does not). */
    bool coalesceWrites = false;

    /** Debug switch (`--no-horizon-memo`): disable the skip engine's
     *  two device-timing caches, the per-channel horizon memo and the
     *  schedulers' per-bank bound caches (both keyed on the channel's
     *  device epoch, MemorySystem::epoch()). Results and the
     *  introspection skip/step totals must be identical either way —
     *  the fuzzer's memo_transparency oracle differences the two. */
    bool horizonMemo = true;

    // Extension / ablation switches (see SchedulerParams).
    bool dynamicThreshold = false;
    bool sortBurstsBySize = false;
    bool criticalFirst = false;
    bool rankAware = true;
    /** Watermark write-drain policy axis for the contention-aware
     *  families (HI_WM/LO_WM + bus-turnaround; see SchedulerParams).
     *  The paper's Table 4 mechanisms ignore it. */
    bool watermarkDrain = false;

    /**
     * Optional scheduler factory override. When set, the controller
     * builds each channel's scheduler through this hook instead of the
     * built-in makeScheduler() — the injection point for custom
     * policies and for the fault-injection harness (e.g. wrapping a
     * real scheduler in ctrl::FaultyScheduler to exercise the
     * forward-progress watchdog).
     */
    std::function<std::unique_ptr<Scheduler>(Mechanism,
                                             const SchedulerContext &)>
        schedulerFactory;

    /** Derive per-channel scheduler parameters for this mechanism. */
    SchedulerParams schedulerParams() const;
};

/** Aggregated controller statistics (the quantities in Figures 7-12). */
struct ControllerStats
{
    RunningMean readLatency;   //!< arrival -> end of data, memory cycles
    RunningMean writeLatency;  //!< arrival -> end of data, memory cycles

    std::uint64_t reads = 0;           //!< read accesses completed
    std::uint64_t writes = 0;          //!< write accesses completed
    std::uint64_t forwardedReads = 0;  //!< satisfied from the write queue

    std::uint64_t rowHits = 0;
    std::uint64_t rowEmpties = 0;
    std::uint64_t rowConflicts = 0;

    Histogram outstandingReads{64};
    Histogram outstandingWrites{72};

    std::uint64_t ticks = 0;
    std::uint64_t writeSatTicks = 0; //!< ticks with the write queue full
    std::uint64_t refreshes = 0;
    std::uint64_t bytesTransferred = 0;
    std::uint64_t coalescedWrites = 0; //!< writes merged into queued ones

    /** Per-bank row outcomes (flat channel-major (ch, rank, bank) index;
     *  sized by the controller). hits / accesses is the per-bank row hit
     *  rate exported through the metrics sampler. */
    std::vector<std::uint64_t> bankRowHits;
    std::vector<std::uint64_t> bankRowAccesses;

    /** Row hit rate among DRAM-serviced accesses. */
    double rowHitRate() const;
    /** Row conflict rate. */
    double rowConflictRate() const;
    /** Row empty rate. */
    double rowEmptyRate() const;
    /** Fraction of time the write queue was saturated. */
    double writeSaturationRate() const;
};

/**
 * Main memory controller front door.
 *
 * The owner calls tick() once per memory bus cycle, submits accesses
 * subject to canAccept(), and receives read completions through the
 * response callback (writes are acknowledged synchronously on admission,
 * "completed from the view of the CPU" as in Figure 4).
 */
class MemoryController
{
  public:
    /** Invoked when a read's data is available: (access, now). */
    using ReadCallback = std::function<void(const MemAccess &, Tick)>;

    /** Build a controller driving @p mem with policy @p cfg. */
    MemoryController(dram::MemorySystem &mem, const ControllerConfig &cfg);
    ~MemoryController();

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /** Register the read completion callback. */
    void setReadCallback(ReadCallback cb) { readCb_ = std::move(cb); }

    /**
     * May a new access be admitted right now? A saturated write queue
     * blocks all admission; a full pool likewise.
     */
    bool canAccept() const;

    /**
     * Admit an access at @p now (caller must have checked canAccept()).
     * For writes, @p data optionally supplies blockBytes of payload that
     * is committed to the backing store; @p tag is an opaque requester
     * id handed back with the response (e.g. the core id in CMP
     * systems). Returns the access id.
     */
    std::uint64_t submit(AccessType type, Addr addr, Tick now,
                         const std::uint8_t *data = nullptr,
                         std::uint64_t tag = 0, bool critical = false);

    /** Advance one memory bus cycle. */
    void tick(Tick now);

    /**
     * Earliest tick >= @p now at which this controller might act —
     * complete a read, run the refresh engine, issue through a
     * scheduler, or close a metrics epoch — assuming no new submissions.
     * Never overshoots; kTickMax means idle until new work arrives.
     *
     * When @p src is non-null the winning bound is attributed to its
     * component (first-minimum-wins over the same scan order, so the
     * returned horizon is identical with and without attribution).
     */
    Tick nextEventTick(Tick now, obs::WakeSource *src) const;
    Tick nextEventTick(Tick now) const
    {
        return nextEventTick(now, nullptr);
    }

    /**
     * Bulk-apply the dead span [@p from, @p from + @p span): per-cycle
     * occupancy samples, stall attribution (see accountIdle()),
     * idempotent idle-tick scheduler effects, and the tick counter.
     * Only legal when nextEventTick(@p from) is at least
     * @p from + @p span.
     */
    void tickSpan(Tick from, Tick span);

    /** True while any access is queued, in flight, or awaiting response. */
    bool busy() const;

    /** Statistics so far. */
    const ControllerStats &stats() const { return stats_; }

    /** Policy-specific statistics merged over channels. */
    std::map<std::string, double> schedulerStats() const;

    /** The device this controller drives. */
    dram::MemorySystem &mem() { return mem_; }

    /** Current queued-write count (for tests). */
    std::size_t writesOutstanding() const
    {
        return counts_.writesOutstanding;
    }

    /** Current outstanding-read count (for tests). */
    std::size_t readsOutstanding() const
    {
        return counts_.readsOutstanding;
    }

    /**
     * Enable the event-driven fast path: per-channel scheduler-horizon
     * memos let tick() skip a channel's scheduler scan on cycles where
     * the horizon proves no command can issue, and let nextEventTick()
     * reuse the memo instead of rescanning. Results are identical; the
     * step engine leaves this off to stay a plain per-cycle reference.
     */
    void setEventDriven(bool on)
    {
        eventDriven_ = on;
        refreshEngineFlags();
    }

    /**
     * Attach (or detach, with nullptr) the run's observability pillars.
     * Every event goes to @p o, which forwards it to the pillars that
     * consume it; with no pillar on, each event site is one null check.
     */
    void attachObservability(obs::Observability *o);

    /**
     * Commit the trailing partial epoch at end-of-run tick @p end
     * (exclusive). A no-op without a sampler or when the run ended on
     * an epoch boundary, so every run yields exactly
     * ceil(cycles / interval) rows.
     */
    void flushMetrics(Tick end);

    /**
     * Human-readable queue/bank snapshot for hang diagnostics: global
     * occupancy, per-channel scheduler queue depths and event horizons,
     * refresh engine state, and open-row state of every bank with
     * pending work. Attached as context to the forward-progress
     * watchdog's SimError; never called on the hot path.
     */
    std::string progressSnapshot(Tick now) const;

  private:
    /** Per-(channel,rank) refresh engine state. The rank's drain gate
     *  lives in the device (MemorySystem::refreshDraining()). */
    struct RefreshState
    {
        Tick nextDue = 0;
        bool pending = false;
    };

    /**
     * Cached per-channel scheduler horizon. Valid while the channel's
     * device epoch (every command and drain-gate change on it), its
     * queue version (enqueues) and the scheduler's global-count band
     * signature all hold: the channel's scheduler then provably cannot
     * issue (nor make an arbitration move) strictly before `until`, so
     * its per-tick scan can be skipped and nextEventTick() can reuse
     * the bound without rescanning. Signature banding is what keeps
     * Burst/Intel memos alive while other channels complete accesses
     * without crossing a threshold.
     */
    struct SchedMemo
    {
        Tick until = 0;            //!< no issue strictly before this
        std::uint64_t epoch = 0;   //!< MemorySystem::epoch() when computed
        std::uint64_t version = 0; //!< chanVersion_ stamp when computed
        std::uint64_t signature = 0; //!< globalSignature() when computed
        /** Why `until` is where it is (from the computing scheduler);
         *  carried alongside so memo hits stay attributable. */
        HorizonPin pin = HorizonPin::None;
        std::uint64_t gen = 0; //!< bumped each time the memo is stamped
    };

    /** The last stall scan of a channel (stall pillar on). */
    struct StallMemo
    {
        std::uint64_t gen = 0; //!< SchedMemo::gen the scan was taken under
        Tick until = 0;        //!< the scan's answer stands before this
        dram::StallCause cause = dram::StallCause::NoWork;
        const MemAccess *victim = nullptr;
    };

    /** Is @p channel's memo still a proof at the current state? */
    bool
    memoValid(std::uint32_t channel) const
    {
        const SchedMemo &m = schedMemo_[channel];
        return cfg_.horizonMemo && m.epoch == mem_.epoch(channel) &&
               m.version == chanVersion_[channel] &&
               m.signature == schedulers_[channel]->globalSignature();
    }

    /** Re-stamp @p channel's memo as valid for the current state. */
    void
    stampMemo(std::uint32_t channel) const
    {
        SchedMemo &m = schedMemo_[channel];
        m.epoch = mem_.epoch(channel);
        m.version = chanVersion_[channel];
        m.signature = schedulers_[channel]->globalSignature();
        m.gen += 1;
    }

    /** Engine-introspection pillar; nullptr when off. */
    obs::EngineIntrospect *intro() const;

    /** Propagate engine flags to every scheduler. */
    void refreshEngineFlags();

    /**
     * Stall-attribute channel @p channel's idle ticks
     * [@p from, @p from + @p span), in which its scheduler issues
     * nothing (a no-op without the stall pillar): one stallScan
     * classifies the ticks up to the earliest tick its device causes
     * hold until (or the span end), then the next scan takes over. A
     * stepped idle tick is the one-tick case; it reuses the channel's
     * last scan while that scan's StallMemo still holds.
     */
    void accountIdle(std::uint32_t channel, Tick from, Tick span);

    /** Take a recycled arena slot (or grow the arena) for a new access. */
    MemAccess *allocAccess();
    /** Return @p a's arena slot to the free list. */
    void freeAccess(MemAccess *a);

    void completeReads(Tick now);
    void sampleOccupancy();
    /** Valid (possibly refreshed) scheduler horizon for @p channel. */
    Tick schedHorizon(std::uint32_t channel, Tick now) const;
    /** Snapshot counters/queues at the end of tick @p now. */
    void sampleMetrics(Tick now);
    /** Run the refresh engine for @p channel; true if it used the slot. */
    bool refreshTick(std::uint32_t channel, Tick now);
    void handleIssued(const Scheduler::Issued &issued);
    void finishAccess(MemAccess *a);

    dram::MemorySystem &mem_;
    ControllerConfig cfg_;
    GlobalCounts counts_;
    ControllerStats stats_;
    ReadCallback readCb_;

    std::vector<std::unique_ptr<Scheduler>> schedulers_; //!< per channel
    /**
     * Arena of access slots: grown on demand (never shrunk), recycled
     * through freeSlots_. A deque keeps every MemAccess at a stable
     * address for the pointers held by scheduler queues, pendingReads_
     * and the observability pillars, while staying cache-friendlier and
     * allocation-free in steady state compared to the id-keyed
     * unordered_map of unique_ptrs it replaced.
     */
    std::deque<MemAccess> pool_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t inflightCount_ = 0;
    /** Reads whose data transfer is scheduled, keyed by completion tick. */
    std::multimap<Tick, MemAccess *> pendingReads_;
    std::vector<RefreshState> refresh_; //!< channel-major [ch*ranks + r]
    std::uint64_t nextId_ = 1;

    /** Per-channel enqueue version: covers every decision input beyond
     *  the channel's device state (its epoch) and the global-count
     *  bands (the memo signature). */
    std::vector<std::uint64_t> chanVersion_;
    mutable std::vector<SchedMemo> schedMemo_; //!< per channel
    std::vector<StallMemo> stallMemo_;         //!< per channel
    bool eventDriven_ = false;

    /** The run's event sink; null when no pillar is on. */
    obs::Observability *obs_ = nullptr;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_CONTROLLER_HH
