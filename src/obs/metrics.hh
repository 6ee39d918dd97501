/**
 * @file
 * Epoch metrics sampler: a fixed-interval time series of the controller
 * and device state, the data behind the paper's write-queue-occupancy
 * story (Section 3.2 / Table 4: read preemption below the threshold,
 * write piggybacking above it, saturation at the 64-entry cap).
 *
 * The controller feeds the sampler one cumulative-counter snapshot at
 * the end of every epoch; the sampler differences consecutive snapshots
 * into per-epoch rates (bus utilization, row hit rate, completions) and
 * keeps the instantaneous queue state (global and per-bank occupancy,
 * RP/WP activation). Rows can be exported as CSV or JSON.
 */

#ifndef BURSTSIM_OBS_METRICS_HH
#define BURSTSIM_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bsim::ctrl
{
struct MemAccess;
}

namespace bsim::obs
{

/** Cumulative counters and instantaneous state at one sampling point. */
struct MetricsSnapshot
{
    Tick now = 0; //!< tick being observed (last tick of the epoch)

    // Cumulative since the start of the run.
    std::uint64_t dataBusyCycles = 0; //!< summed over channels
    std::uint64_t cmdBusyCycles = 0;  //!< summed over channels
    std::uint64_t rowHits = 0;
    std::uint64_t rowEmpties = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesCompleted = 0;
    double burstsFormed = 0.0; //!< burst schedulers only, else 0
    double burstJoins = 0.0;
    /** Per-bank row hits / classified accesses (channel-major; empty
     *  when the controller does not supply them). */
    std::vector<std::uint64_t> bankRowHits;
    std::vector<std::uint64_t> bankRowAccesses;
    /** Per-cause stall cycles summed over channels, indexed by
     *  dram::StallCause; empty without the stall-attribution pillar. */
    std::vector<std::uint64_t> stallCounts;
    /** Cumulative engine cycle split (engine-introspect pillar);
     *  meaningful only when haveEngine is set. */
    bool haveEngine = false;
    std::uint64_t steppedCycles = 0;
    std::uint64_t skippedCycles = 0;
    /** Per-requester row outcomes, indexed by the MemAccess tag (empty
     *  without the perCoreMetrics satellite; grows as tags appear). */
    std::vector<std::uint64_t> coreRowHits;
    std::vector<std::uint64_t> coreRowAccesses;

    // Instantaneous.
    std::uint32_t channels = 1;
    std::size_t readsOutstanding = 0;
    std::size_t writesOutstanding = 0;
    bool rpActive = false; //!< read preemption currently allowed
    bool wpActive = false; //!< write piggybacking currently allowed
    std::vector<std::uint32_t> bankReadQ;  //!< one entry per bank
    std::vector<std::uint32_t> bankWriteQ; //!< one entry per bank
    /** Per-requester outstanding accesses, indexed by the MemAccess tag
     *  (empty without the perCoreMetrics satellite). */
    std::vector<std::uint32_t> coreReadQ;
    std::vector<std::uint32_t> coreWriteQ;
};

/** One emitted time-series row (rates are per epoch, not cumulative). */
struct MetricsRow
{
    std::uint64_t epoch = 0;
    Tick tickStart = 0; //!< inclusive
    Tick tickEnd = 0;   //!< exclusive

    double dataBusUtil = 0.0;
    double addrBusUtil = 0.0;
    double rowHitRate = 0.0;       //!< among the epoch's classified accesses
    std::uint64_t epochReads = 0;  //!< completions within the epoch
    std::uint64_t epochWrites = 0;
    double avgBurstLen = 0.0; //!< reads per burst formed in the epoch

    std::size_t readsOutstanding = 0;
    std::size_t writesOutstanding = 0;
    bool rpActive = false;
    bool wpActive = false;
    std::vector<std::uint32_t> bankReadQ;
    std::vector<std::uint32_t> bankWriteQ;
    /** Per-bank row hit rate within the epoch (empty when not fed). */
    std::vector<double> bankRowHitRate;
    /** Per-cause stall cycles within the epoch (empty when not fed). */
    std::vector<std::uint64_t> stallCycles;
    /** Engine cycle split within the epoch (introspect pillar only). */
    bool haveEngine = false;
    std::uint64_t steppedCycles = 0;
    std::uint64_t skippedCycles = 0;
    /** Per-requester queue occupancy and row hit rate within the epoch
     *  (perCoreMetrics satellite only; indexed by the MemAccess tag). */
    std::vector<std::uint32_t> coreReadQ;
    std::vector<std::uint32_t> coreWriteQ;
    std::vector<double> coreRowHitRate;
    /** Host wall time spent in the epoch (selfprof host track only;
     *  negative when the track is off). Nondeterministic by nature. */
    double hostWallUs = -1.0;
};

/** Collects MetricsRow time series at a fixed cycle interval. */
class MetricsSampler
{
  public:
    /**
     * Sample every @p interval memory cycles over banks named
     * @p bank_labels (channel-major, matching the order schedulers
     * append occupancy in). @p interval must be nonzero. With
     * @p host_track each row also records the host wall time spent in
     * its epoch (the selfprof "host" track; nondeterministic, so it is
     * only ever emitted into opt-in CSV/trace outputs).
     */
    MetricsSampler(Tick interval, std::vector<std::string> bank_labels,
                   bool host_track = false);

    /** Sampling period in memory cycles. */
    Tick interval() const { return interval_; }

    /** Does tick @p now close an epoch? (cheap; called when enabled) */
    bool
    epochEnd(Tick now) const
    {
        return (now + 1) % interval_ == 0;
    }

    /**
     * Commit a snapshot taken at the end of @p s.now. Differences
     * against the previous snapshot; idempotent for a repeated
     * boundary (a flush after a final full epoch adds no row), so a
     * run of T cycles yields exactly ceil(T / interval) rows.
     */
    void sample(const MetricsSnapshot &s);

    // ----- per-requester counters (perCoreMetrics), indexed by the
    // ----- MemAccess tag and grown on first sight of a tag -----

    /** @p a entered the controller's pool. */
    void admit(const ctrl::MemAccess &a) { coreQueue(a) += 1; }
    /** @p a's column access was issued, classifying its row outcome. */
    void columnIssued(const ctrl::MemAccess &a);
    /** @p a left the controller. */
    void complete(const ctrl::MemAccess &a) { coreQueue(a) -= 1; }
    /** Copy the per-requester counters into @p s. */
    void fillPerCore(MetricsSnapshot &s) const;

    /** Rows emitted so far. */
    const std::vector<MetricsRow> &rows() const { return rows_; }

    /** Bank column labels (e.g. "ch0_r1_b3"). */
    const std::vector<std::string> &bankLabels() const { return labels_; }

    /** Write the time series as CSV with a header row. */
    void writeCsv(std::ostream &os) const;

    /** Write the time series as a JSON document. */
    void writeJson(std::ostream &os) const;

  private:
    /** Grow the per-requester counters to cover @p tag. */
    void touchCore(std::uint64_t tag);
    /** @p a's requester's read or write queue occupancy. */
    std::uint32_t &coreQueue(const ctrl::MemAccess &a);

    Tick interval_;
    std::vector<std::string> labels_;
    bool hostTrack_;
    std::vector<MetricsRow> rows_;
    MetricsSnapshot prev_; //!< counters at the last emitted boundary
    Tick lastEnd_ = 0;     //!< exclusive end tick of the last row
    double lastWallUs_ = 0.0; //!< host clock at the last boundary
    std::vector<std::uint32_t> coreReadQ_;
    std::vector<std::uint32_t> coreWriteQ_;
    std::vector<std::uint64_t> coreRowHits_;
    std::vector<std::uint64_t> coreRowAccesses_;
};

} // namespace bsim::obs

#endif // BURSTSIM_OBS_METRICS_HH
