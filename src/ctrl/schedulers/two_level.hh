/**
 * @file
 * The two-level chassis every mechanism runs on: the paper's controller
 * (Section 3, Figures 5 and 6) for burst scheduling, Intel's patented
 * scheduler and the per-bank-queue baselines and contention families
 * (paper Table 4; contention.hh).
 *
 * Each keeps one ongoing slot per bank. A per-bank arbiter fills the
 * slot from the policy's queues, and a transaction scheduler issues,
 * each memory cycle, the best slot whose next transaction may issue.
 * The chassis owns the slots, the transaction pick, the stall scan and
 * the event horizon. A policy owns its queues and supplies:
 *
 *  - its bank arbiters as one const walk over their moves (walkMoves);
 *  - the order of the slots (slotBefore; by default the order value
 *    each slot was filled with);
 *  - what a column access does to its state (onColumnIssued);
 *  - optionally a hold that quiesces the whole channel (heldUntil) and
 *    the access to blame for work no slot holds (gatedVictim).
 *
 * tick() walks the arbiters applying every move, then picks. The
 * horizon walks the same arbiters and stops at the first move, so it
 * returns `now` exactly when tick() would change state.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_TWO_LEVEL_HH
#define BURSTSIM_CTRL_SCHEDULERS_TWO_LEVEL_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/scheduler.hh"

namespace bsim::ctrl
{

/** Per-bank ongoing slots filled by bank arbiters, and the pick. */
class TwoLevelScheduler : public Scheduler
{
  public:
    void enqueue(MemAccess *a) override;
    Issued tick(Tick now) override;
    std::size_t readCount() const override { return reads_; }
    std::size_t writeCount() const override { return writes_; }
    bool hasWork() const override { return reads_ + writes_ > 0; }
    void queueOccupancy(std::vector<std::uint32_t> &reads,
                        std::vector<std::uint32_t> &writes) const override;
    dram::StallCause stallScan(Tick now,
                               obs::StallAttribution &sink) const override;
    Tick nextEventTick(Tick now) const override;

  protected:
    /** No bank (oldestSlot() with every slot empty). */
    static constexpr std::uint32_t kNoBank = ~0u;

    /** One bank-arbiter move. Its kind is the horizon pin it sets:
     *  Preempt, ArbFill, WriteDrain, Piggyback or DrainFlip. */
    struct Move
    {
        HorizonPin kind = HorizonPin::None;
        std::uint32_t bank = 0; //!< the slot it changes
        std::size_t pos = 0;    //!< queue position it takes from
    };

    /** Where a move walk sends its moves. tick() applies each one and
     *  walks on; the horizon keeps the first and stops. */
    struct MoveSink
    {
        TwoLevelScheduler *apply = nullptr; //!< nullptr: stop at first
        Tick now = 0;
        Move first;

        /** Take @p m; false ends the walk. */
        bool
        operator()(const Move &m)
        {
            if (apply)
                apply->applyMove(m, now);
            else
                first = m;
            return apply != nullptr;
        }
    };

    /** Slot-state bits of banks 64w .. 64w+63. */
    struct SlotBits
    {
        std::uint64_t filled = 0; //!< the slot holds an access
        std::uint64_t writes = 0; //!< ... which is a write
    };

    explicit TwoLevelScheduler(const SchedulerContext &ctx);

    /**
     * The bank arbiters as a const walk: offer each move to @p take in
     * the order tick() applies them, and return true as soon as @p take
     * returns false. A move @p take accepted has been applied, so each
     * later step must read the state afresh. Returns false when no
     * further move exists.
     */
    virtual bool walkMoves(MoveSink &take) const = 0;

    /** Apply @p m, a move walkMoves() just offered. */
    virtual void applyMove(const Move &m, Tick now) = 0;

    /** Queue an admitted access (the counts are already updated). */
    virtual void admit(MemAccess *a) = 0;

    /** Does bank @p x's slot issue before bank @p y's (both filled)?
     *  The pick visits the slots in ascending bank order and keeps the
     *  first ready one no later slot issues before. The default: the
     *  lower fill order first. */
    virtual bool
    slotBefore(std::uint32_t x, std::uint32_t y) const
    {
        return slots_[x].order < slots_[y].order;
    }

    /** Bank @p b's slot access @p a issued its column access at @p now
     *  and has left the slot and the counts. */
    virtual void onColumnIssued(std::uint32_t b, MemAccess *a, Tick now)
    {
        (void)b, (void)a, (void)now;
    }

    /** Why bank @p b's queued work waits while its slot is empty;
     *  NoWork when nothing is noted. */
    virtual dram::StallCause backlogCause(std::uint32_t b) const
    {
        (void)b;
        return dram::StallCause::NoWork;
    }

    /** The policy holds the whole channel (no move, no issue) while
     *  `now` is before this tick. The walk offers no move during the
     *  hold; the horizon wakes when it ends. */
    virtual Tick heldUntil() const { return 0; }

    /** The access to blame when the channel has work but every slot is
     *  empty: a policy mode gates all queued work. */
    virtual const MemAccess *gatedVictim() const { return nullptr; }

    /** Append the per-bank counts of queued (not ongoing) accesses. */
    virtual void queuedOccupancy(std::vector<std::uint32_t> &reads,
                                 std::vector<std::uint32_t> &writes) const = 0;

    /** Bank @p b's ongoing access; nullptr when the slot is empty. */
    MemAccess *slot(std::uint32_t b) const { return slots_[b].access; }

    /** Put @p a in bank @p b's empty slot. The lower @p order is the
     *  older slot (and by default issues first). */
    void fillSlot(std::uint32_t b, MemAccess *a, std::uint64_t order);

    /** Empty bank @p b's slot and return what it held. */
    MemAccess *clearSlot(std::uint32_t b);

    /** The order value bank @p b's slot was filled with. */
    std::uint64_t slotOrder(std::uint32_t b) const { return slots_[b].order; }

    std::size_t filledSlots() const { return filled_; }

    /** The filled slot with the lowest order; kNoBank when none. */
    std::uint32_t oldestSlot() const;

    const SlotBits &slotBits(std::size_t w) const { return bits_[w]; }

    /**
     * Call @p f(b) for every bank set in @p pick(w), word by word in
     * ascending bank order, until @p f returns false. Each word's mask
     * is read once, before its banks are visited. Returns false when
     * @p f stopped the visit.
     */
    template <class Pick, class F>
    bool
    forEachBank(Pick pick, F f) const
    {
        for (std::size_t w = 0; w < bits_.size(); ++w)
            for (std::uint64_t m = pick(w); m; m &= m - 1)
                if (!f(std::uint32_t(w * 64 + std::countr_zero(m))))
                    return false;
        return true;
    }

    /** Remove and return the access at position @p pos of @p q. */
    static MemAccess *
    takeAt(FlatQueue<MemAccess *> &q, std::size_t pos)
    {
        MemAccess *a = q[pos];
        q.erase(q.begin() + std::ptrdiff_t(pos));
        return a;
    }

  private:
    /** forEachBank() over the filled slots. */
    template <class F>
    bool
    forEachFilled(F f) const
    {
        return forEachBank(
            [this](std::size_t w) { return bits_[w].filled; }, f);
    }

    struct Slot
    {
        MemAccess *access = nullptr;
        std::uint64_t order = 0;
    };

    std::vector<Slot> slots_;
    std::vector<SlotBits> bits_;
    std::size_t filled_ = 0;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_TWO_LEVEL_HH
