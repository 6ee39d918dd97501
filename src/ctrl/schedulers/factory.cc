#include "ctrl/schedulers/factory.hh"

#include "common/error.hh"
#include "ctrl/schedulers/contention.hh"
#include "ctrl/schedulers/burst.hh"
#include "ctrl/schedulers/intel.hh"

namespace bsim::ctrl
{

std::unique_ptr<Scheduler>
makeScheduler(Mechanism m, const SchedulerContext &ctx)
{
    switch (m) {
      case Mechanism::BkInOrder:
        return std::make_unique<BkInOrderPolicy>(ctx);
      case Mechanism::RowHit:
        return std::make_unique<RowHitPolicy>(ctx);
      case Mechanism::Intel:
      case Mechanism::IntelRP:
        return std::make_unique<IntelScheduler>(ctx);
      case Mechanism::Burst:
      case Mechanism::BurstRP:
      case Mechanism::BurstWP:
      case Mechanism::BurstTH:
        return std::make_unique<BurstScheduler>(ctx);
      case Mechanism::AdaptiveHistory:
        return std::make_unique<AdaptiveHistoryPolicy>(ctx);
      case Mechanism::FrFcfs:
        return std::make_unique<FrFcfsScheduler>(ctx);
      case Mechanism::Parbs:
        return std::make_unique<ParbsScheduler>(ctx);
      case Mechanism::Atlas:
        return std::make_unique<AtlasScheduler>(ctx);
      case Mechanism::Bliss:
        return std::make_unique<BlissScheduler>(ctx);
    }
    // Fail fast with the offending name: a silent nullptr here used to
    // surface only as a generic "factory returned null" in the
    // controller, long after the config mistake.
    throwSimError(ErrorCategory::Config,
                  "makeScheduler: unrecognized mechanism '%s' (id %d)",
                  mechanismName(m), int(m));
}

} // namespace bsim::ctrl
