/**
 * @file
 * Burst scheduling — the paper's primary contribution (Section 3) — as
 * a policy on the two-level chassis (two_level.hh).
 *
 * Outstanding reads are clustered into bursts: groups of accesses to the
 * same row of the same bank, kept per bank in arrival order of each
 * burst's first access. Within a burst every access but the first is a
 * row hit, so data transfers run back to back. The two levels:
 *
 *  - the per-bank *bank arbiter* (Figure 5) chooses the bank's ongoing
 *    access from its read bursts and write queue, implementing read
 *    preemption and write piggybacking under the static write-queue
 *    occupancy threshold. It is walkMoves(): one const walk that tick()
 *    applies and the horizon stops at;
 *  - the per-channel *transaction scheduler* (Figure 6) issues, each
 *    memory cycle, the unblocked ongoing access with the best static
 *    priority (Table 2, slotBefore()), oldest first among equals:
 *    column accesses within the last rank first (same bank before other
 *    banks, reads before writes), then precharge and activate (they do
 *    not use the data bus), and column accesses to other ranks last to
 *    avoid rank-to-rank turnaround bubbles.
 *
 * One policy serves Burst, Burst_RP, Burst_WP and Burst_TH; the
 * SchedulerParams switches tell them apart. New reads join an existing
 * burst for their row even while that burst is being serviced; bursts
 * within a bank are ordered by the arrival time of their first access
 * to prevent starvation.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_BURST_HH
#define BURSTSIM_CTRL_SCHEDULERS_BURST_HH

#include <cstdint>
#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/schedulers/two_level.hh"

namespace bsim::ctrl
{

/** Burst scheduling with optional read preemption / write piggybacking. */
class BurstScheduler : public TwoLevelScheduler
{
  public:
    explicit BurstScheduler(const SchedulerContext &ctx);

    std::map<std::string, double> extraStats() const override;
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
        FlatQueue<MemAccess *> reads;
    };

    /** Read-burst list of bank @p b (test introspection). */
    const FlatQueue<Burst> &burstsOfBank(std::uint32_t b) const
    {
        return banks_[b].bursts;
    }

  protected:
    bool walkMoves(MoveSink &take) const override;
    void applyMove(const Move &m, Tick now) override;
    void admit(MemAccess *a) override;
    bool slotBefore(std::uint32_t x, std::uint32_t y) const override;
    void onColumnIssued(std::uint32_t b, MemAccess *a, Tick now) override;
    dram::StallCause backlogCause(std::uint32_t b) const override;
    void queuedOccupancy(std::vector<std::uint32_t> &reads,
                         std::vector<std::uint32_t> &writes) const override;

  private:
    struct BankState
    {
        FlatQueue<Burst> bursts;        //!< read queue, burst-clustered
        FlatQueue<MemAccess *> writeQ;  //!< writes in arrival order
        bool ongoingFirstOfBurst = false; //!< ongoing opened its burst
        bool endOfBurst = false;         //!< last access ended a burst
        bool frontStarted = false;       //!< front burst partially served
    };

    /** Queued-work bits of banks 64w .. 64w+63. */
    struct QueueBits
    {
        std::uint64_t reads = 0;  //!< queued read bursts
        std::uint64_t writes = 0; //!< queued writes
    };

    /**
     * Banks of word @p w where a Figure 5 move is possible. Every move
     * needs a queued access, so these are banks with queued work and
     * an empty slot, plus banks whose ongoing write a queued read could
     * preempt. For every other bank the arbiter is a no-op.
     */
    std::uint64_t
    live(std::size_t w) const
    {
        const SlotBits &s = slotBits(w);
        const QueueBits &q = queued_[w];
        return ((q.reads | q.writes) & ~s.filled) | (s.writes & q.reads);
    }

    /** Re-derive bank @p b's queue bits after its queues changed. */
    void syncBits(std::uint32_t b);

    /** Figure 5 lines 1-8: what bank @p b's arbiter puts in its empty
     *  slot; kind None when it leaves the slot empty. */
    Move arbitrate(std::uint32_t b) const;

    /** Position of the oldest write in bank @p b directed to the
     *  bank's open row; the write queue's size when there is none. */
    std::size_t piggybackPos(std::uint32_t b) const;

    /** Make bank @p b the last-serviced bank of Table 2. */
    void pointAt(std::uint32_t b);

    /** Table 2 priority of bank @p b's slot access @p a: lower issues
     *  first. */
    int slotPriority(std::uint32_t b, const MemAccess *a) const;

    /** Effective threshold for this cycle (static or dynamic, §7). */
    std::size_t effectiveThreshold() const;

    std::vector<BankState> banks_;
    std::vector<QueueBits> queued_;

    std::uint32_t lastBank_ = kNoBank; //!< bank of last column access
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
