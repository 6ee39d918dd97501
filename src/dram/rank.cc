#include "dram/rank.hh"

namespace bsim::dram
{

void
Rank::probe(Probe &p, CmdType type, const Timing &t) const
{
    switch (type) {
      case CmdType::Activate:
        if (anyActYet_ && t.tRRD)
            p.deadline(lastActAt_ + t.tRRD, StallCause::TimingTRRD);
        // The oldest entry in the 4-deep window is the 4th-last
        // activate; a 5th activate must wait tFAW past it.
        if (t.tFAW && actWindow_[actWindowPos_] != 0)
            p.deadline(actWindow_[actWindowPos_] + t.tFAW,
                       StallCause::TimingTFAW);
        break;
      case CmdType::Read:
        p.deadline(rdAllowedAt_, StallCause::TimingTWTR);
        break;
      case CmdType::RefreshAll:
        if (!allBanksClosed()) {
            p.gate(StallCause::WrongState);
            break;
        }
        for (const auto &b : banks_)
            p.deadline(b.actAllowedAt(), b.actBlockCause());
        break;
      case CmdType::Precharge:
      case CmdType::Write:
        break;
    }
}

void
Rank::noteActivate(Tick now, const Timing &t)
{
    (void)t;
    lastActAt_ = now;
    anyActYet_ = true;
    // Store now+1 so that a legitimate activate at tick 0 is not mistaken
    // for the "empty slot" sentinel 0; canActivate compensates nowhere
    // because a one-tick slack on tFAW at cold start is harmless.
    actWindow_[actWindowPos_] = now == 0 ? 1 : now;
    actWindowPos_ = (actWindowPos_ + 1) % actWindow_.size();
}

bool
Rank::allBanksClosed() const
{
    for (const auto &b : banks_)
        if (b.isOpen())
            return false;
    return true;
}

bool
Rank::canRefresh(Tick now) const
{
    if (!allBanksClosed())
        return false;
    for (const auto &b : banks_)
        if (now < b.actAllowedAt())
            return false;
    return true;
}

void
Rank::refresh(Tick now, const Timing &t)
{
    for (auto &b : banks_)
        b.refreshUntil(now + t.tRFC);
}

} // namespace bsim::dram
