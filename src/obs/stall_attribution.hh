/**
 * @file
 * Per-cycle stall attribution.
 *
 * Every memory cycle of every channel is classified into exactly one
 * cause: the data bus was streaming (DataTransfer), the scheduler issued
 * a preparatory or column command (PrepIssue), it had nothing to do
 * (NoWork), it was waiting only for data already in flight to finish
 * (PendingData), or it was blocked — by a specific DDR2 timing window
 * (tRCD, tRP, tRAS, tFAW, tWTR, ...), by a read-preemption / write-
 * piggyback threshold gate, or by losing arbitration to another bank.
 *
 * Because the controller attributes every cycle of every channel exactly
 * once (accountSpan(), with PrepIssue for a cycle that issued a command
 * and the stall cause for a run of idle cycles), the counts telescope:
 * for each channel,
 *     sum over causes of count(ch, cause) == cycles(ch) == memCycles.
 * That identity is what makes the report trustworthy — no cycle is
 * double-counted and none goes missing — and the integration test
 * asserts it for every scheduler.
 *
 * This is the only cycle classifier in the simulator. The critical-path
 * tracer does not classify cycles itself: accountSpan() tells it how
 * many of an idle span's cycles the data bus streamed and whose burst
 * that was, and the tracer charges the stall victim from that.
 */

#ifndef BURSTSIM_OBS_STALL_ATTRIBUTION_HH
#define BURSTSIM_OBS_STALL_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "dram/stall.hh"

namespace bsim::obs
{

/** Accumulates one attributed cause per channel per memory cycle. */
class StallAttribution
{
  public:
    using Counts = std::array<std::uint64_t, dram::kNumStallCauses>;

    /**
     * Track @p channels channels of @p banks_per_channel banks each.
     * @p bank_labels is channel-major (all of channel 0's banks first),
     * matching Observability's bank label order.
     */
    StallAttribution(std::uint32_t channels,
                     std::uint32_t banks_per_channel,
                     std::vector<std::string> bank_labels);

    /** The cycles of a span accountSpan() booked as DataTransfer. */
    struct SpanSplit
    {
        Tick streaming = 0;
        std::uint64_t owner = 0; //!< access id of the last streaming burst
    };

    /**
     * Record a data burst [start, end) scheduled on @p ch for access
     * @p owner. Bursts start after the command that books them (tCL /
     * tWL later), so they are queued here and consumed by accountSpan()
     * as time passes.
     */
    void noteBurst(std::uint32_t ch, Tick start, Tick end,
                   std::uint64_t owner);

    /**
     * Attribute the span [@p from, @p from + @p span) on channel @p ch,
     * in which the command slot was used (@p cause PrepIssue: by the
     * scheduler or the refresh engine) or sat idle for @p cause: a
     * cycle counts as DataTransfer while a booked burst streams (a
     * cycle where the bus streams is never a stall, whatever the
     * command slot did), as PendingData when @p cause is NoWork but
     * booked data is still to come, and as @p cause otherwise. The
     * span is segmented at booked-burst start and end edges, so a span
     * of n cycles books exactly what n one-cycle calls would. The
     * per-bank causes noted since the last accountSpan() count for
     * every cycle of the span, and stay with @p ch as its last scan
     * (see replayScan()). Returns the streaming cycles.
     */
    SpanSplit accountSpan(std::uint32_t ch, Tick from, Tick span,
                          dram::StallCause cause);

    /**
     * The scan that preceded @p ch's last accountSpan() still holds:
     * note its per-bank causes again, for the next accountSpan().
     */
    void replayScan(std::uint32_t ch)
    {
        scanNotes_ = chans_[ch].lastNotes;
    }

    /**
     * Deepen a channel-level stall with its per-bank breakdown: bank
     * @p bank (channel-local index) of channel @p ch was blocked by
     * @p cause this cycle, and stays blocked by it until tick @p until
     * (kTickMax for a policy cause, which only moves at ticks the
     * engine steps). Several banks may stall in the same cycle, so bank
     * counts do not telescope; they show which banks bind. The note is
     * booked by the next accountSpan(), once per cycle of its span.
     */
    void noteBankStall(std::uint32_t ch, std::uint32_t bank,
                       dram::StallCause cause, Tick until);

    /**
     * Earliest `until` noted since the last accountSpan(): the stall
     * scan that noted them gives the same answer at every tick before
     * it.
     */
    Tick scanUntil() const { return scanUntil_; }

    /** Number of channels tracked. */
    std::uint32_t numChannels() const
    {
        return std::uint32_t(chans_.size());
    }

    /** Cycles attributed on channel @p ch so far. */
    std::uint64_t cycles(std::uint32_t ch) const
    {
        return chans_[ch].cycles;
    }

    /** Cycles of @p ch attributed to @p cause. */
    std::uint64_t
    count(std::uint32_t ch, dram::StallCause cause) const
    {
        return chans_[ch].counts[std::size_t(cause)];
    }

    /** Per-cause totals summed over channels. */
    Counts totals() const;

    /** Machine-readable report (deterministic for identical runs). */
    void writeJson(std::ostream &os) const;

    /** Human-readable per-channel cycle-accounting table. */
    void writeText(std::ostream &os) const;

  private:
    using Notes = std::vector<std::pair<std::size_t, dram::StallCause>>;

    struct Burst
    {
        Tick start;
        Tick end;
        std::uint64_t owner;
    };

    struct ChannelState
    {
        /** Booked data bursts not yet fully in the past. */
        std::deque<Burst> pending;
        /** One past the last cycle of the burst currently streaming. */
        Tick busyUntil = 0;
        std::uint64_t owner = 0; //!< access id of the streaming burst
        Counts counts{};
        std::uint64_t cycles = 0;
        Notes lastNotes; //!< the bank notes of the last booked scan
    };

    /** Move @p c's booked bursts that started by @p t into its
     *  streaming window. Bursts are booked in data-bus order, so a
     *  front scan suffices. */
    static void promote(ChannelState &c, Tick t);

    std::vector<ChannelState> chans_;
    /** Flat bank-count slots and causes noted by the current scan;
     *  accountSpan() books them and keeps them as the channel's last. */
    Notes scanNotes_;
    Tick scanUntil_ = kTickMax;
    std::uint32_t banksPerChannel_;
    std::vector<std::string> bankLabels_; //!< channel-major
    std::vector<Counts> bankCounts_;      //!< channel-major flat
};

} // namespace bsim::obs

#endif // BURSTSIM_OBS_STALL_ATTRIBUTION_HH
