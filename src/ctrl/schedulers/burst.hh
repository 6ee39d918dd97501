/**
 * @file
 * Burst scheduling — the paper's primary contribution (Section 3).
 *
 * Outstanding reads are clustered into bursts: groups of accesses to the
 * same row of the same bank, kept per bank in arrival order of each
 * burst's first access. Within a burst every access but the first is a
 * row hit, so data transfers run back to back. The mechanism is a
 * two-level scheduler:
 *
 *  - a per-bank *bank arbiter* (Figure 5) chooses the bank's ongoing
 *    access from its read bursts and write queue, implementing read
 *    preemption and write piggybacking under the static write-queue
 *    occupancy threshold;
 *  - a global per-channel *transaction scheduler* (Figure 6) issues, each
 *    memory cycle, the unblocked transaction with the best static
 *    priority (Table 2): column accesses within the last rank first
 *    (same bank before other banks, reads before writes), then precharge
 *    and activate (they do not use the data bus), and column accesses to
 *    other ranks last to avoid rank-to-rank turnaround bubbles.
 *
 * New reads join an existing burst for their row even while that burst is
 * being serviced; bursts within a bank are ordered by the arrival time of
 * their first access to prevent starvation.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_BURST_HH
#define BURSTSIM_CTRL_SCHEDULERS_BURST_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/scheduler.hh"

namespace bsim::ctrl
{

/** Burst scheduling with optional read preemption / write piggybacking. */
class BurstScheduler : public Scheduler
{
  public:
    explicit BurstScheduler(const SchedulerContext &ctx);

    void enqueue(MemAccess *a) override;
    Issued tick(Tick now) override;
    std::size_t readCount() const override { return reads_; }
    std::size_t writeCount() const override { return writes_; }
    bool hasWork() const override;
    std::map<std::string, double> extraStats() const override;
    void queueOccupancy(std::vector<std::uint32_t> &reads,
                        std::vector<std::uint32_t> &writes) const override;
    dram::StallCause stallScan(Tick now,
                               obs::StallAttribution &sink) const override;
    Tick nextEventTick(Tick now) const override;
    void onIdleSpan(Tick from, Tick span) override;

    /** Bands of the global write count Figure 5 compares: queue-full,
     *  above-threshold (piggyback gate) and below-threshold (preempt
     *  gate). No Figure 5 decision can change while all bits hold. */
    std::uint64_t
    globalSignature() const override
    {
        const std::size_t gw = ctx_.global->writesOutstanding;
        const std::size_t th = effectiveThreshold();
        return std::uint64_t(gw >= ctx_.params.writeCap) |
               std::uint64_t(gw > th) << 1 |
               std::uint64_t(gw < th) << 2;
    }

    /** A cluster of same-row reads within one bank (for tests). */
    struct Burst
    {
        std::uint32_t row = 0;
        Tick firstArrival = 0;
        FlatQueue<MemAccess *> reads;
    };

    /** Read-burst list of bank @p b (test introspection). */
    const FlatQueue<Burst> &burstsOfBank(std::uint32_t b) const
    {
        return banks_[b].bursts;
    }

  private:
    struct BankState
    {
        FlatQueue<Burst> bursts;        //!< read queue, burst-clustered
        FlatQueue<MemAccess *> writeQ;  //!< writes in arrival order
        MemAccess *ongoing = nullptr;
        bool ongoingFromBurst = false;   //!< ongoing came from front burst
        bool ongoingFirstOfBurst = false; //!< ongoing opened its burst
        bool endOfBurst = false;         //!< last access ended a burst
        bool frontStarted = false;       //!< front burst partially served
    };

    /**
     * Per-bank state bits, 64 banks per word. Every bank arbiter move
     * needs a queued access, so the Figure 5 pass and the horizon scan
     * visit only banks with queued work and no ongoing access, plus
     * banks whose ongoing write a queued read could preempt; the
     * Figure 6 pick and the timing scan visit only ongoing banks. For
     * every other bank maybePreempt() and arbitrate() are no-ops.
     */
    struct BankBits
    {
        std::uint64_t ongoing = 0;      //!< an ongoing access
        std::uint64_t ongoingWrite = 0; //!< ... which is a write
        std::uint64_t reads = 0;        //!< queued read bursts
        std::uint64_t writes = 0;       //!< queued writes

        /** Banks where a Figure 5 move is possible. */
        std::uint64_t
        live() const
        {
            return ((reads | writes) & ~ongoing) | (ongoingWrite & reads);
        }
    };

    /** Re-derive bank @p b's bits after its state changed. */
    void syncBits(std::uint32_t b);

    /** Call @p f(b) for every bank set in @p pick(word), ascending. */
    template <class Pick, class F>
    void
    forEachBank(Pick pick, F f) const
    {
        for (std::size_t w = 0; w < bits_.size(); ++w)
            for (std::uint64_t m = pick(bits_[w]); m; m &= m - 1)
                f(std::uint32_t(w * 64 + std::countr_zero(m)));
    }

    /** Figure 5: pick an ongoing access for bank @p b if it has none. */
    void arbitrate(std::uint32_t b, Tick now);

    /** Figure 5 lines 9-11: read preemption of an ongoing write. */
    void maybePreempt(std::uint32_t b, Tick now);

    /** Oldest write in bank @p b directed to the bank's open row. */
    FlatQueue<MemAccess *>::iterator findPiggybackWrite(std::uint32_t b);

    /** Table 2 priority of @p a's next transaction @p cmd (1 = best). */
    int priorityOf(const MemAccess *a, dram::CmdType cmd) const;

    /** Effective threshold for this cycle (static or dynamic, §7). */
    std::size_t effectiveThreshold() const;

    std::vector<BankState> banks_;
    std::vector<BankBits> bits_;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;

    bool lastValid_ = false;
    std::uint32_t lastBank_ = 0; //!< flat index of last column access
    std::uint32_t lastRank_ = 0;

    std::uint64_t preemptions_ = 0;
    std::uint64_t piggybacks_ = 0;
    std::uint64_t burstsFormed_ = 0;
    std::uint64_t burstJoinCount_ = 0;

    /** Decayed read/write arrival counts for the dynamic threshold. */
    double readArrivals_ = 1.0;
    double writeArrivals_ = 1.0;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_BURST_HH
