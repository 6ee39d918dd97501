/**
 * @file
 * Fault-injection scheduler wrapper (test harness only): behaves exactly
 * like the wrapped policy until a programmed number of column accesses
 * have issued, then stops issuing forever while still reporting queued
 * work. The controller consequently stays busy with no access ever
 * retiring — precisely the hang signature the forward-progress watchdog
 * (SystemConfig::watchdogCycles) must detect. Never instantiated by the
 * factory; inject through ControllerConfig::schedulerFactory.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_FAULTY_HH
#define BURSTSIM_CTRL_SCHEDULERS_FAULTY_HH

#include <cstdint>
#include <memory>

#include "ctrl/scheduler.hh"

namespace bsim::ctrl
{

/** Decorator that freezes the wrapped scheduler after N column accesses. */
class FaultyScheduler : public Scheduler
{
  public:
    /**
     * Wrap @p inner; after @p freezeAfter of this channel's column
     * accesses have issued, tick() stops offering the slot to the
     * wrapped policy (0 = frozen from the start).
     */
    FaultyScheduler(const SchedulerContext &ctx,
                    std::unique_ptr<Scheduler> inner,
                    std::uint64_t freezeAfter);

    void enqueue(MemAccess *a) override { inner_->enqueue(a); }
    Issued tick(Tick now) override;
    std::size_t readCount() const override { return inner_->readCount(); }
    std::size_t writeCount() const override
    {
        return inner_->writeCount();
    }
    bool hasWork() const override { return inner_->hasWork(); }
    MemAccess *findWrite(Addr block_base) const override
    {
        return inner_->findWrite(block_base);
    }
    std::map<std::string, double> extraStats() const override;
    dram::StallCause stallScan(Tick now,
                               obs::StallAttribution &sink) const override;

    /**
     * While frozen with work queued the wrapper must keep the engine
     * stepping tick by tick: returning anything past @p now would let
     * the cycle-skipping engine leap over the very cycles in which the
     * watchdog counts the hang.
     */
    Tick nextEventTick(Tick now) const override;

    void setIntrospect(obs::EngineIntrospect *intro) override
    {
        Scheduler::setIntrospect(intro);
        inner_->setIntrospect(intro);
    }
    // Engine flags must reach the wrapped policy: the inner scheduler
    // computes the bounds and (pre-freeze) the horizons, so configuring
    // only the wrapper would leave it running cache-free conservative.
    void setEventDriven(bool on) override
    {
        Scheduler::setEventDriven(on);
        inner_->setEventDriven(on);
    }
    void setHorizonMemo(bool on) override
    {
        Scheduler::setHorizonMemo(on);
        inner_->setHorizonMemo(on);
    }
    void setAuditor(obs::ProtocolAuditor *auditor) override
    {
        Scheduler::setAuditor(auditor);
        inner_->setAuditor(auditor);
    }
    // Without this forward a wrapped policy that reads global counts
    // would present the base signature (0): the controller's horizon
    // memo would survive watermark/threshold band crossings it must not.
    std::uint64_t globalSignature() const override
    {
        return inner_->globalSignature();
    }
    void onIdleSpan(Tick from, Tick span) override
    {
        inner_->onIdleSpan(from, span);
    }
    void queueOccupancy(std::vector<std::uint32_t> &reads,
                        std::vector<std::uint32_t> &writes) const override
    {
        inner_->queueOccupancy(reads, writes);
    }

    /** True once the injected fault has triggered. */
    bool frozen() const { return issued_ >= freezeAfter_; }

  private:
    std::unique_ptr<Scheduler> inner_;
    std::uint64_t freezeAfter_;
    std::uint64_t issued_ = 0; //!< column accesses issued so far
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_FAULTY_HH
