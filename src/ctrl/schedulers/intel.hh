/**
 * @file
 * Intel's patented out of order memory scheduling (Rotithor, Osborne and
 * Aboulenein, US patent 7127574; paper Table 4), reimplemented from the
 * paper's description:
 *
 *  - unique read queues per bank, a single write queue for all banks;
 *  - reads are prioritized over writes to minimize read latency, with a
 *    best-effort preference for row-hit reads within a bank;
 *  - writes are serviced only when the write queue is full or no reads
 *    are outstanding;
 *  - once an access is started it receives the highest priority so that
 *    it finishes as quickly as possible (limits the reordering degree) —
 *    modelled by servicing ongoing accesses strictly in start order with
 *    no rank-aware transaction interleaving;
 *  - Intel_RP additionally lets newly arrived reads interrupt an ongoing
 *    write (not part of the patent; added by the paper for comparison).
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_INTEL_HH
#define BURSTSIM_CTRL_SCHEDULERS_INTEL_HH

#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/scheduler.hh"

namespace bsim::ctrl
{

/** Intel out of order scheduling, optionally with read preemption. */
class IntelScheduler : public Scheduler
{
  public:
    explicit IntelScheduler(const SchedulerContext &ctx);

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

  private:
    /** Select ongoing accesses for idle banks; handle preemption. */
    void arbitrate();

    std::vector<FlatQueue<MemAccess *>> readQ_; //!< per bank
    FlatQueue<MemAccess *> writeQ_;             //!< single, all banks
    std::vector<MemAccess *> ongoing_;           //!< per bank
    std::vector<std::uint64_t> startSeq_;        //!< per bank, start order
    std::uint64_t seq_ = 0;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;
    bool drainMode_ = false; //!< flushing the write queue to a watermark
    std::uint64_t preemptions_ = 0;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_INTEL_HH
