/**
 * @file
 * Top-level SDRAM device model: channels -> ranks -> banks plus the shared
 * busses, behind one side-effect-free timing probe and one issue() that
 * enforces every timing constraint. Scheduling policies can only
 * reorder; they can never violate device timing, so differences between
 * access reordering mechanisms are purely ordering decisions, as in the
 * paper.
 */

#ifndef BURSTSIM_DRAM_MEMORY_SYSTEM_HH
#define BURSTSIM_DRAM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/backing_store.hh"
#include "dram/channel.hh"
#include "dram/command.hh"
#include "dram/config.hh"
#include "dram/power.hh"
#include "dram/stall.hh"

namespace bsim::dram
{

/** Result of issuing a command. */
struct IssueResult
{
    /** First cycle of the data burst (column accesses only). */
    Tick dataStart = 0;
    /** One past the last cycle of the data burst (column accesses only). */
    Tick dataEnd = 0;
};

/**
 * The complete simulated main memory.
 *
 * One command may issue per channel per cycle (split-transaction
 * command/address bus); column accesses additionally reserve the
 * channel's data bus. All checks are side-effect free via probe();
 * issue() applies the command and panics on any violation, so a buggy
 * scheduler fails loudly rather than silently cheating.
 */
class MemorySystem
{
  public:
    /** Build the device tree described by @p cfg. */
    explicit MemorySystem(const DramConfig &cfg);

    /** Configuration this system was built with. */
    const DramConfig &config() const { return cfg_; }

    /** Active timing parameter set. */
    const Timing &timing() const { return cfg_.timing; }

    /** Address decoder for this organization. */
    const AddressMap &addressMap() const { return map_; }

    /** Functional contents of memory. */
    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }

    /** Bank state at @p c. */
    const Bank &bank(const Coords &c) const;

    /** Rank holding @p c. */
    const Rank &rank(const Coords &c) const;

    /** Channel holding @p c. */
    const Channel &channel(const Coords &c) const;

    /** Row hit / empty / conflict classification for an access at @p c. */
    RowOutcome
    classify(const Coords &c) const
    {
        return bank(c).classify(c.row);
    }

    /**
     * The next transaction an access at @p c needs, derived from current
     * bank state: column access on a row hit, ACTIVATE on a row empty,
     * PRECHARGE on a row conflict.
     */
    CmdType nextCmdFor(const Coords &c, AccessType type) const;

    /** Is the channel's command bus free at @p now? */
    bool
    cmdBusFree(std::uint32_t channel, Tick now) const
    {
        return channels_[channel].cmdBusFree(now);
    }

    /**
     * One walk over every constraint on @p cmd at @p now, in a fixed
     * check order: command bus, bank state and bank windows, the rank's
     * tRRD / tFAW / tWTR, then the data bus and its turnaround gap.
     * Returns the exact earliest issue tick (the max of every deadline;
     * kTickMax behind a state gate such as a wrong row or a refresh
     * drain), the first binding cause, and the tick that cause expires
     * or flips. Every constraint is a fixed deadline that only a later
     * command on the same channel (or a drain-gate flip) can move, i.e.
     * only an epoch() bump: that keeps readyAt exact for the skip
     * engine's caches and causeUntil exact for the stall accountant's
     * span splits.
     */
    Probe probe(const Command &cmd, Tick now) const;

    /** May @p cmd legally issue at @p now? (includes command bus) */
    bool
    canIssue(const Command &cmd, Tick now) const
    {
        return probe(cmd, now).cause == StallCause::None;
    }

    /** Exact first tick >= @p now at which @p cmd may issue. */
    Tick readyAt(const Command &cmd, Tick now) const
    {
        return probe(cmd, now).readyAt;
    }

    /** Issue @p cmd at @p now; panics if illegal. */
    IssueResult issue(const Command &cmd, Tick now);

    /** Total command-bus busy cycles, summed over channels. */
    std::uint64_t cmdBusyCycles() const;

    /** Total data-bus busy cycles, summed over channels. */
    std::uint64_t dataBusyCycles() const;

    /** Address bus utilization over @p elapsed ticks. */
    double addressBusUtilization(Tick elapsed) const;

    /** Data bus utilization over @p elapsed ticks. */
    double dataBusUtilization(Tick elapsed) const;

    /** Number of channels. */
    std::uint32_t numChannels() const
    {
        return std::uint32_t(channels_.size());
    }

    /** Attach a command log; every subsequent issue() is recorded.
     *  Pass nullptr to detach. The log is not owned. */
    void attachLog(class CommandLog *log) { log_ = log; }

    /** Attach a command-stream observer (e.g. the protocol auditor);
     *  every subsequent issue() is reported. Pass nullptr to detach.
     *  The observer is not owned. */
    void attachObserver(class CommandObserver *obs) { observer_ = obs; }

    /** Predictive page policy: fraction of column accesses the predictor
     *  chose to auto-precharge (diagnostics; 0 for static policies). */
    double predictedCloseRate() const;

    /** Issue counts per command type (feeds the energy model). */
    const CommandCounts &commandCounts() const { return cmdCounts_; }

    /**
     * Refresh-drain gate: while set for a rank, Activate commands to it
     * are reported blocked (StallCause::RefreshDrain), so schedulers
     * stop opening rows and the rank's banks can close for the pending
     * RefreshAll. Without this gate a busy scheduler can re-activate
     * banks as fast as the refresh engine precharges them and starve
     * the refresh forever. Set and cleared by the controller's refresh
     * engine; never by the device itself. A change bumps the channel's
     * epoch().
     */
    void
    setRefreshDrain(std::uint32_t channel, std::uint32_t rank, bool on)
    {
        std::uint8_t &gate =
            refreshDrain_[std::size_t(channel) * cfg_.ranksPerChannel +
                          rank];
        if (gate != std::uint8_t(on)) {
            gate = on;
            epoch_[channel] += 1;
        }
    }

    /** Is the refresh-drain gate set for this rank? */
    bool
    refreshDraining(std::uint32_t channel, std::uint32_t rank) const
    {
        return refreshDrain_[std::size_t(channel) *
                                 cfg_.ranksPerChannel +
                             rank] != 0;
    }

    /**
     * Channel @p channel's device epoch: bumped by every command issued
     * on the channel and by every change of one of its refresh-drain
     * gates, the only events that move a deadline or a gate probe()
     * reads. While it holds, probe(cmd, t2).readyAt equals
     * max(t2, probe(cmd, t1).readyAt) for any t1 < t2: the one
     * staleness rule of the schedulers' bound caches and the
     * controller's horizon memo.
     */
    std::uint64_t epoch(std::uint32_t channel) const
    {
        return epoch_[channel];
    }

  private:
    Bank &bankRef(const Coords &c);

    /** Per-bank 2-bit saturating open/close predictor (PagePolicy::
     *  Predictive): 0-1 predict "stay open", 2-3 predict "close". */
    std::uint8_t &predictorOf(const Coords &c);
    bool decideAutoPrecharge(const Coords &c);
    void trainPredictor(const Command &cmd);

    DramConfig cfg_;
    AddressMap map_;
    BackingStore store_;
    std::vector<Channel> channels_;
    class CommandLog *log_ = nullptr;
    class CommandObserver *observer_ = nullptr;
    std::vector<std::uint8_t> predictor_;
    std::vector<std::uint8_t> refreshDrain_;
    std::vector<std::uint64_t> epoch_; //!< per channel, see epoch()
    std::uint64_t predCloses_ = 0;
    std::uint64_t predColumns_ = 0;
    CommandCounts cmdCounts_;
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_MEMORY_SYSTEM_HH
