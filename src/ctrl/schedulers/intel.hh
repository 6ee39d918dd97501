/**
 * @file
 * Intel's patented out of order memory scheduling (Rotithor, Osborne and
 * Aboulenein, US patent 7127574; paper Table 4), reimplemented from the
 * paper's description as a policy on the two-level chassis
 * (two_level.hh):
 *
 *  - unique read queues per bank, a single write queue for all banks;
 *  - reads are prioritized over writes to minimize read latency, with a
 *    best-effort preference for row-hit reads within a bank;
 *  - writes are serviced only when the write queue is full or no reads
 *    are outstanding;
 *  - once an access is started it receives the highest priority so that
 *    it finishes as quickly as possible (limits the reordering degree) —
 *    modelled by servicing ongoing slots strictly in start order with
 *    no rank-aware transaction interleaving;
 *  - Intel_RP additionally lets newly arrived reads interrupt an ongoing
 *    write (not part of the patent; added by the paper for comparison).
 *
 * The arbiter (walkMoves) preempts, flips the write-drain mode, drains
 * writes and fills reads, in that order, into at most kMaxOngoing slots.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_INTEL_HH
#define BURSTSIM_CTRL_SCHEDULERS_INTEL_HH

#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/schedulers/two_level.hh"

namespace bsim::ctrl
{

/** Intel out of order scheduling, optionally with read preemption. */
class IntelScheduler : public TwoLevelScheduler
{
  public:
    explicit IntelScheduler(const SchedulerContext &ctx);

    std::map<std::string, double> extraStats() const override;

    /** Bands of the global write count the patent's arbitration
     *  compares: queue-full (flush trigger) and half-empty (flush
     *  release). Decisions cannot change while both bits hold. */
    std::uint64_t
    globalSignature() const override
    {
        const std::size_t gw = ctx_.global->writesOutstanding;
        return std::uint64_t(gw >= ctx_.params.writeCap) |
               std::uint64_t(gw <= ctx_.params.writeCap / 2) << 1;
    }

  protected:
    bool walkMoves(MoveSink &take) const override;
    void applyMove(const Move &m, Tick now) override;
    void admit(MemAccess *a) override;
    dram::StallCause backlogCause(std::uint32_t b) const override;
    void queuedOccupancy(std::vector<std::uint32_t> &reads,
                         std::vector<std::uint32_t> &writes) const override;

  private:
    /** Position in bank @p b's read queue of the read that fills its
     *  slot: the first open-row hit in the reorder window, else 0. */
    std::size_t readPick(std::uint32_t b) const;

    std::vector<FlatQueue<MemAccess *>> readQ_; //!< per bank
    FlatQueue<MemAccess *> writeQ_;             //!< single, all banks
    std::uint64_t seq_ = 0;  //!< slots started so far: the start order
    bool drainMode_ = false; //!< flushing the write queue to a watermark
    std::uint64_t preemptions_ = 0;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_INTEL_HH
