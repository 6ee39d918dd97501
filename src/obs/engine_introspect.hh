/**
 * @file
 * Skip-engine introspection: attributes every resume-from-skip to the
 * component whose nextEventTick bound won the horizon argmin (a wake
 * reason), with span-length histograms and horizon-memo counters, so
 * the "why is skip only 1.1x on mcf" question has a measured answer.
 *
 * All counters are functions of simulated state only — no host time —
 * so the pillar's output is deterministic for a given run. It differs
 * between the step and skip engines *by design* (the step engine never
 * skips), which is why the engine-equivalence gates compare runs with
 * this pillar off.
 *
 * Telescoping identity (asserted in tests and fuzzed as an oracle):
 *   steppedCycles + skippedCycles == mem_cycles
 *   sum over reasons of skipped-by-reason == skippedCycles
 *   sum over reasons of wake counts    == number of skip spans
 */

#ifndef BURSTSIM_OBS_ENGINE_INTROSPECT_HH
#define BURSTSIM_OBS_ENGINE_INTROSPECT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace bsim
{
class JsonWriter;
} // namespace bsim

namespace bsim::obs
{

/**
 * Which component's nextEventTick bound ended (or forbade) a skip.
 * First-minimum-wins over the same scan order the horizon computation
 * already uses, so attribution never changes the computed horizon.
 */
enum class WakeReason : std::uint8_t
{
    CoreActive,        //!< a core was not quiescent: cannot skip at all
    CoreWake,          //!< a quiesced core's wake-up event
    Response,          //!< a completed read's delivery tick
    FsbAdmit,          //!< a front-side-bus front becomes admittable
    PendingData,       //!< an in-flight read's data completion
    Refresh,           //!< refresh due / drain completion
    SchedArbFill,      //!< scheduler: idle bank with queued work
    SchedPreempt,      //!< scheduler: read preemption is pending
    SchedDrainFlip,    //!< scheduler: write drain mode about to flip
    SchedPiggyback,    //!< scheduler: end-of-burst piggyback window
    SchedWriteDrain,   //!< scheduler: a postponed write is being taken
    SchedBound,        //!< scheduler: device-timing release (memoized)
    SchedConservative, //!< scheduler: conservative "never skip" default
    MetricsEpoch,      //!< metrics sampler epoch boundary
    Unbounded,         //!< no finite bound (idle until new work)
};

constexpr std::size_t kNumWakeReasons = 15;

/** Stable printable name (used in JSON, CSV and docs). */
const char *wakeReasonName(WakeReason r);

/** Winning horizon bound: the reason plus the channel it came from
 *  (-1 for system-level reasons with no channel). */
struct WakeSource
{
    WakeReason reason = WakeReason::Unbounded;
    std::int32_t channel = -1;
};

/** Log2 span-length histogram buckets: 1, 2-3, 4-7, ..., >= 2^20. */
constexpr std::size_t kNumSpanBuckets = 21;

/** Collects the skip engine's wake attribution for one run. */
class EngineIntrospect
{
  public:
    explicit EngineIntrospect(std::uint32_t channels);

    // --- engine hooks (hot path: plain counter bumps) ---

    /** @p n memory cycles were simulated tick-by-tick. */
    void noteStepped(std::uint64_t n = 1) { stepped_ += n; }

    /** A skip of @p span cycles ended at the bound @p src won. */
    void noteSkip(const WakeSource &src, Tick span);

    /** The horizon landed at now (or was unbounded with work pending):
     *  one stepped cycle could not be skipped because of @p src. */
    void noteBlocked(const WakeSource &src);

    // --- horizon-cache hooks ---

    void noteMemoHit() { memoHits_ += 1; }
    void noteMemoMiss() { memoMisses_ += 1; }
    void noteMemoInvalidate() { memoInvalidations_ += 1; }
    void noteFrontHorizonHit() { frontHits_ += 1; }
    void noteFrontHorizonMiss() { frontMisses_ += 1; }

    // --- accessors (tests, reports, fuzz oracles) ---

    std::uint64_t steppedCycles() const { return stepped_; }
    std::uint64_t skippedCycles() const { return skippedTotal_; }
    std::uint64_t skipSpans() const { return spansTotal_; }
    std::uint64_t wakeCount(WakeReason r) const
    {
        return wakes_[static_cast<std::size_t>(r)];
    }
    std::uint64_t skippedBy(WakeReason r) const
    {
        return skippedBy_[static_cast<std::size_t>(r)];
    }
    std::uint64_t blockedCount(WakeReason r) const
    {
        return blocked_[static_cast<std::size_t>(r)];
    }
    std::uint64_t blockedTotal() const { return blockedTotal_; }
    std::uint64_t memoHits() const { return memoHits_; }
    std::uint64_t memoMisses() const { return memoMisses_; }
    std::uint64_t memoInvalidations() const { return memoInvalidations_; }
    std::uint64_t frontHorizonHits() const { return frontHits_; }
    std::uint64_t frontHorizonMisses() const { return frontMisses_; }
    std::uint64_t spanBucket(std::size_t i) const { return spanHist_[i]; }

    /** Bucket label, e.g. "4-7" or ">=2^20". */
    static const char *spanBucketLabel(std::size_t i);

    /**
     * Attribution sums must telescope (see file comment); @p mem_cycles
     * is the run's simulated length. Returns false on any mismatch —
     * the fuzz oracle and identity tests call this.
     */
    bool identityHolds(std::uint64_t mem_cycles) const;

    /** Export as one JSON object (deterministic). */
    void writeJson(JsonWriter &w) const;

    /** Human-readable wake-reason table (text report section). */
    void writeText(std::ostream &os, std::uint64_t mem_cycles) const;

  private:
    std::uint32_t channels_;
    std::uint64_t stepped_ = 0;
    std::uint64_t skippedTotal_ = 0;
    std::uint64_t spansTotal_ = 0;
    std::uint64_t blockedTotal_ = 0;
    std::array<std::uint64_t, kNumWakeReasons> wakes_{};
    std::array<std::uint64_t, kNumWakeReasons> skippedBy_{};
    std::array<std::uint64_t, kNumWakeReasons> blocked_{};
    std::array<std::uint64_t, kNumSpanBuckets> spanHist_{};
    /** Wakes attributed to each channel's scheduler bound. */
    std::vector<std::uint64_t> wakesByChannel_;
    std::uint64_t memoHits_ = 0;
    std::uint64_t memoMisses_ = 0;
    std::uint64_t memoInvalidations_ = 0;
    std::uint64_t frontHits_ = 0;
    std::uint64_t frontMisses_ = 0;
};

} // namespace bsim::obs

#endif // BURSTSIM_OBS_ENGINE_INTROSPECT_HH
