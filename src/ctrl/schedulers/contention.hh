/**
 * @file
 * The seven per-bank-queue policies, written on the two-level chassis
 * (two_level.hh) like burst scheduling and Intel's scheduler.
 *
 * Every policy here keeps one unified queue per bank beside the
 * chassis's per-bank ongoing slot, and differs only in two hooks: the
 * intra-bank order that fills a bank's empty slot, and the inter-bank
 * pick among the slots whose next transaction may issue.
 *
 * The paper's baselines and its related-work comparison point:
 *
 *  - BkInOrder (paper Table 4): arrival order within a bank, banks
 *    served round robin. Reads and writes share the queue, so writes
 *    are not postponed.
 *  - RowHit (Rixner et al., ISCA'00; paper Table 4): the oldest access
 *    to the bank's open row first, else the oldest; round robin.
 *  - AdaptiveHistory (Hur & Lin, MICRO'04; paper Section 2.2, not part
 *    of Table 4): row hit first within a 4-deep window; across banks,
 *    a score that steers the scheduled read/write mix toward the
 *    arrival mix and spreads consecutive services over banks.
 *
 * The contention-aware CMP classics the fairness layer judges the
 * paper's burst mechanisms against:
 *
 *  - FR-FCFS (Rixner et al., ISCA'00): ready row hits first across all
 *    banks, then oldest arrival.
 *  - PAR-BS (Mutlu & Moscibroda, ISCA'08): request batching with
 *    shortest-job-first per-thread ranking inside each batch.
 *  - ATLAS (Kim et al., HPCA'10): least-attained-service thread
 *    ranking over exponentially decayed quanta.
 *  - BLISS (Subramanian et al., ICCD'14): streak-based blacklisting of
 *    interference-heavy threads.
 *
 * The four contention families also share one optional watermark
 * write-drain mode (HI_WM/LO_WM hysteresis with a policy bus-turnaround
 * hold on each drain flip). Thread identity is MemAccess::tag (the CMP
 * core id).
 *
 * Engine contract: every policy-state change is anchored either to a
 * real issue/enqueue event (PAR-BS batch formation, the history mixes)
 * or to the absolute tick lattice and caught up lazily in syncEpochs()
 * (ATLAS quantum folds, BLISS blacklist clearing) — a pure function of
 * `now` and issue-accumulated counters, so the step and skip engines
 * observe byte-identical decisions.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_CONTENTION_HH
#define BURSTSIM_CTRL_SCHEDULERS_CONTENTION_HH

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/schedulers/two_level.hh"

namespace bsim::ctrl
{

/**
 * The per-bank-queue policies on the two-level chassis: unified
 * per-bank queues and the optional watermark write-drain mode. A policy
 * fixes its Shape at construction and overrides the two order hooks,
 * fillPick() (intra-bank) and beats() (inter-bank priority).
 *
 * Its bank arbiter (walkMoves) flips the drain mode (DrainFlip, with a
 * turnaround hold, see heldUntil()) and fills empty slots (ArbFill).
 */
class ContentionScheduler : public TwoLevelScheduler
{
  public:
    /** How the chassis chooses which bank's ready candidate issues. */
    enum class InterBank : std::uint8_t
    {
        Priority,   //!< fill every slot, then serve the beats() winner
        RoundRobin, //!< rotate from the last served bank, filling each
                    //!< slot only when the rotation reaches it
    };

    /** What a policy fixes about the chassis when it is built. */
    struct Shape
    {
        InterBank pick = InterBank::Priority;
        /** Intra-bank order is arrival order. The pick reads no bank
         *  state, so a slot fills on enqueue and on issue and the walk
         *  has no move (no ArbFill pin). */
        bool fifo = false;
        /** Honour SchedulerParams::watermarkDrain, a contention-family
         *  axis. */
        bool watermarkAxis = true;
    };

    explicit ContentionScheduler(const SchedulerContext &ctx)
        : ContentionScheduler(ctx, Shape{})
    {
    }
    ContentionScheduler(const SchedulerContext &ctx, Shape shape);

    std::map<std::string, double> extraStats() const override;
    std::uint64_t globalSignature() const override;

  protected:
    bool walkMoves(MoveSink &take) const override;
    void applyMove(const Move &m, Tick now) override;
    void admit(MemAccess *a) override;
    bool slotBefore(std::uint32_t x, std::uint32_t y) const override;
    void onColumnIssued(std::uint32_t b, MemAccess *a, Tick now) override;
    Tick heldUntil() const override { return turnUntil_; }
    const MemAccess *gatedVictim() const override;
    void queuedOccupancy(std::vector<std::uint32_t> &reads,
                         std::vector<std::uint32_t> &writes) const override;

    /**
     * Does @p a take priority over @p b? Decides the inter-bank pick
     * under InterBank::Priority and the default fillPick(). The
     * contention families induce a strict total order (their chains end
     * with olderFirst(), the default), so both engines resolve every
     * tie identically. Round-robin policies never call it.
     */
    virtual bool beats(const MemAccess *a, const MemAccess *b) const
    {
        return olderFirst(a, b);
    }

    /**
     * Intra-bank order: the position in bankQueue(@p b) of the access
     * that fills bank @p b's empty slot, or the queue's size when no
     * queued access is eligible. Called only on an empty slot with
     * backlog (never under Shape::fifo, which takes the front). The
     * default takes the first eligible access no other one beats().
     */
    virtual std::size_t fillPick(std::uint32_t b) const;

    /**
     * Lazily catch tick-lattice policy state up to @p now (quantum
     * folds, blacklist clearing). Called at the top of every walk, so
     * before tick() fills or picks; must be a pure function of @p now
     * and state accumulated on issue events.
     */
    virtual void syncEpochs(Tick now) const { (void)now; }

    /** Called after the base queued @p a (batch formation trigger). */
    virtual void onEnqueued(MemAccess *a) { (void)a; }

    /** Called when @p a's column access issued and it left the
     *  scheduler (service accounting, streak tracking). */
    virtual void onServed(MemAccess *a) { (void)a; }

    /** Family-specific extra statistics merged by extraStats(). */
    virtual void familyStats(std::map<std::string, double> &out) const
    {
        (void)out;
    }

    /** Older arrival first, then lower id: a strict total order. */
    static bool
    olderFirst(const MemAccess *a, const MemAccess *b)
    {
        if (a->arrival != b->arrival)
            return a->arrival < b->arrival;
        return a->id < b->id;
    }

    /** Would @p a's next transaction be the column access already
     *  (open-row hit)? The contention families' row-hit test. */
    bool rowHit(const MemAccess *a) const
    {
        return dram::isColumnAccess(nextCmd(a));
    }

    /** Position of the first of the oldest @p window accesses in bank
     *  @p b's queue that targets the bank's open row; 0 (the oldest)
     *  when the bank is closed or none does. The baselines' row-hit
     *  test: it compares rows, not the next command. */
    std::size_t openRowFirst(std::uint32_t b, std::size_t window) const;

    /** May @p a be pulled into an ongoing slot under the current
     *  drain mode? Always true without watermark drain. */
    bool eligible(const MemAccess *a) const
    {
        if (!watermark_)
            return true;
        return drainMode_ ? a->isWrite() : a->isRead();
    }

    /** Read-only view of bank @p b's queue (oldest first). */
    const FlatQueue<MemAccess *> &bankQueue(std::uint32_t b) const
    {
        return queues_[b];
    }

  private:
    /** Fill bank @p b's empty slot from the front of its queue, if it
     *  has backlog (Shape::fifo). */
    void fillFront(std::uint32_t b);

    /** Is a drain-mode flip due given the current counts? */
    bool flipPending() const;

    const Shape shape_;
    std::vector<FlatQueue<MemAccess *>> queues_; //!< unified, per bank
    std::uint32_t rr_ = 0; //!< bank whose column access issued last

    // Watermark write-drain mode (SNIPPETS.md snippets 1-2).
    bool watermark_ = false;
    std::size_t hi_ = 0;
    std::size_t lo_ = 0;
    bool drainMode_ = false;
    Tick turnUntil_ = 0; //!< policy bus-turnaround hold after a flip
    std::uint64_t drainFlips_ = 0;
};

/** BkInOrder: arrival order within a bank, round robin across banks. */
class BkInOrderPolicy : public ContentionScheduler
{
  public:
    explicit BkInOrderPolicy(const SchedulerContext &ctx)
        : ContentionScheduler(ctx, {.pick = InterBank::RoundRobin,
                                    .fifo = true,
                                    .watermarkAxis = false})
    {
    }
};

/** RowHit: the oldest open-row access first within a bank, else the
 *  oldest; round robin across banks. */
class RowHitPolicy : public ContentionScheduler
{
  public:
    explicit RowHitPolicy(const SchedulerContext &ctx)
        : ContentionScheduler(ctx, {.pick = InterBank::RoundRobin,
                                    .watermarkAxis = false})
    {
    }

  protected:
    std::size_t fillPick(std::uint32_t b) const override;
};

/**
 * AdaptiveHistory (Hur & Lin, simplified): row hit first within a
 * 4-deep window; across banks the highest history score wins — steer
 * the scheduled read/write mix toward the arrival mix, avoid the two
 * most recently served banks, weakly prefer row hits — with the older
 * access winning a tie.
 */
class AdaptiveHistoryPolicy : public ContentionScheduler
{
  public:
    explicit AdaptiveHistoryPolicy(const SchedulerContext &ctx)
        : ContentionScheduler(ctx, {.watermarkAxis = false})
    {
    }

  protected:
    bool beats(const MemAccess *a, const MemAccess *b) const override;
    std::size_t fillPick(std::uint32_t b) const override;
    void onEnqueued(MemAccess *a) override;
    void onServed(MemAccess *a) override;
    void familyStats(std::map<std::string, double> &out) const override;

  private:
    /** History-match score of serving @p a next (higher = better). */
    double scoreOf(const MemAccess *a) const;

    /** Read share of the arrival mix minus that of the served mix. */
    double readDeficit() const;

    // Decayed arrival and service mixes.
    double readArrivals_ = 1.0;
    double writeArrivals_ = 1.0;
    double readsScheduled_ = 1.0;
    double writesScheduled_ = 1.0;

    std::uint32_t lastBank_ = ~0u;
    std::uint32_t prevBank_ = ~0u;
    std::uint64_t mixSteered_ = 0; //!< picks that corrected the mix
};

/** FR-FCFS: ready row hits first across banks, then oldest arrival. */
class FrFcfsScheduler : public ContentionScheduler
{
  public:
    using ContentionScheduler::ContentionScheduler;

  protected:
    bool beats(const MemAccess *a, const MemAccess *b) const override;
};

/**
 * PAR-BS: when the previous batch completes, mark up to
 * parbsMarkingCap oldest queued requests per (thread, bank) and rank
 * the marked threads shortest-job-first (max-bank-load, then total
 * load). Priority: marked first, then row hit, then rank, then age.
 */
class ParbsScheduler : public ContentionScheduler
{
  public:
    explicit ParbsScheduler(const SchedulerContext &ctx)
        : ContentionScheduler(ctx)
    {
    }

  protected:
    bool beats(const MemAccess *a, const MemAccess *b) const override;
    void onEnqueued(MemAccess *a) override;
    void onServed(MemAccess *a) override;
    void familyStats(std::map<std::string, double> &out) const override;

  private:
    /** Mark the current queue contents as a new batch and rank the
     *  marked threads. Triggered by the issue that completes the
     *  previous batch or the enqueue that ends an empty spell — real
     *  events in both engines, so formation timing is cadence-free. */
    void formBatch();

    std::uint32_t rankOf(std::uint64_t tag) const;

    std::unordered_set<const MemAccess *> marked_;
    std::unordered_map<std::uint64_t, std::uint32_t> rank_;
    std::uint64_t batches_ = 0;
    std::uint64_t markedServed_ = 0;
};

/**
 * ATLAS: threads are ranked by long-term attained service, folded at
 * quantum boundaries with exponential decay (alpha = 0.875); the
 * least-serviced thread wins. Folds are caught up lazily (pure
 * function of `now`), so skipped quanta cost repeated multiplies, not
 * correctness.
 */
class AtlasScheduler : public ContentionScheduler
{
  public:
    explicit AtlasScheduler(const SchedulerContext &ctx)
        : ContentionScheduler(ctx)
    {
    }

  protected:
    bool beats(const MemAccess *a, const MemAccess *b) const override;
    void syncEpochs(Tick now) const override;
    void onServed(MemAccess *a) override;
    void familyStats(std::map<std::string, double> &out) const override;

  private:
    struct Service
    {
        double total = 0;   //!< decayed attained service (rank key)
        double quantum = 0; //!< service attained in the open quantum
    };

    double totalOf(std::uint64_t tag) const;

    mutable std::unordered_map<std::uint64_t, Service> service_;
    mutable Tick anchor_ = 0; //!< start of the open quantum
};

/**
 * BLISS: a thread served blissThreshold times in a row is blacklisted
 * (deprioritized, never blocked); the blacklist clears every
 * blissClearInterval cycles. Clearing is caught up lazily on the
 * absolute tick lattice.
 */
class BlissScheduler : public ContentionScheduler
{
  public:
    explicit BlissScheduler(const SchedulerContext &ctx)
        : ContentionScheduler(ctx)
    {
    }

  protected:
    bool beats(const MemAccess *a, const MemAccess *b) const override;
    void syncEpochs(Tick now) const override;
    void onServed(MemAccess *a) override;
    void familyStats(std::map<std::string, double> &out) const override;

  private:
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

    mutable std::unordered_set<std::uint64_t> blacklist_;
    mutable std::uint64_t lastTag_ = kNoTag;
    mutable std::size_t streak_ = 0;
    mutable Tick nextClear_ = 0;
    std::uint64_t insertions_ = 0;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_CONTENTION_HH
