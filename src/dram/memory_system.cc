#include "dram/memory_system.hh"

#include "common/log.hh"
#include "dram/command_log.hh"

namespace bsim::dram
{

MemorySystem::MemorySystem(const DramConfig &cfg)
    : cfg_(cfg), map_(cfg), store_(cfg.blockBytes)
{
    cfg_.validate();
    channels_.reserve(cfg_.channels);
    for (std::uint32_t i = 0; i < cfg_.channels; ++i)
        channels_.emplace_back(cfg_.ranksPerChannel, cfg_.banksPerRank);
    // Open-biased initial prediction: start every bank at "stay open".
    predictor_.assign(std::size_t(cfg_.channels) * cfg_.ranksPerChannel *
                          cfg_.banksPerRank,
                      1);
    refreshDrain_.assign(std::size_t(cfg_.channels) *
                             cfg_.ranksPerChannel,
                         0);
    epoch_.assign(cfg_.channels, 0);
}

std::uint8_t &
MemorySystem::predictorOf(const Coords &c)
{
    const std::size_t idx =
        (std::size_t(c.channel) * cfg_.ranksPerChannel + c.rank) *
            cfg_.banksPerRank +
        c.bank;
    return predictor_[idx];
}

bool
MemorySystem::decideAutoPrecharge(const Coords &c)
{
    switch (cfg_.pagePolicy) {
      case PagePolicy::OpenPage:
        return false;
      case PagePolicy::ClosePageAuto:
        return true;
      case PagePolicy::Predictive:
        return predictorOf(c) >= 2;
    }
    return false;
}

void
MemorySystem::trainPredictor(const Command &cmd)
{
    // Training events (Ying Xu style, reconstructed at engine level):
    //  - row-hit column access: leaving the row open paid off;
    //  - access-driven precharge (row conflict): we should have closed;
    //  - activate to the same row we last had open: the earlier close
    //    was wrong;
    //  - activate to a different row on a closed bank: the earlier close
    //    avoided a conflict precharge.
    std::uint8_t &ctr = predictorOf(cmd.at);
    const Bank &b = bank(cmd.at);
    auto toward_open = [&] { ctr = std::uint8_t(ctr ? ctr - 1 : 0); };
    auto toward_close = [&] { ctr = std::uint8_t(ctr < 3 ? ctr + 1 : 3); };

    switch (cmd.type) {
      case CmdType::Read:
      case CmdType::Write:
        toward_open(); // this column access found its row open
        break;
      case CmdType::Precharge:
        if (cmd.accessId != 0)
            toward_close(); // conflict-driven precharge
        break;
      case CmdType::Activate:
        if (b.hasLastRow()) {
            if (b.lastRow() == cmd.at.row)
                toward_open(); // re-opening the row we closed
            else
                toward_close(); // the close avoided a conflict
        }
        break;
      case CmdType::RefreshAll:
        break;
    }
}

const Bank &
MemorySystem::bank(const Coords &c) const
{
    return channels_[c.channel].rank(c.rank).bank(c.bank);
}

Bank &
MemorySystem::bankRef(const Coords &c)
{
    return channels_[c.channel].rank(c.rank).bank(c.bank);
}

const Rank &
MemorySystem::rank(const Coords &c) const
{
    return channels_[c.channel].rank(c.rank);
}

const Channel &
MemorySystem::channel(const Coords &c) const
{
    return channels_[c.channel];
}

CmdType
MemorySystem::nextCmdFor(const Coords &c, AccessType type) const
{
    const Bank &b = bank(c);
    switch (b.classify(c.row)) {
      case RowOutcome::Hit:
        return type == AccessType::Read ? CmdType::Read : CmdType::Write;
      case RowOutcome::Empty:
        return CmdType::Activate;
      case RowOutcome::Conflict:
        return CmdType::Precharge;
    }
    panic("unreachable row outcome");
}

Probe
MemorySystem::probe(const Command &cmd, Tick now) const
{
    const Channel &ch = channels_[cmd.at.channel];
    const Rank &r = ch.rank(cmd.at.rank);
    const Bank &b = r.bank(cmd.at.bank);
    const Timing &t = cfg_.timing;

    Probe p(now);
    p.deadline(ch.cmdBusFreeAt(), StallCause::TimingCmdBus);
    switch (cmd.type) {
      case CmdType::Precharge:
        if (!b.isOpen())
            p.gate(StallCause::WrongState);
        p.deadline(b.preAllowedAt(), b.preBlockCause());
        break;
      case CmdType::Activate:
        if (b.isOpen())
            p.gate(StallCause::WrongState);
        // The drain gate clears only when the refresh engine issues the
        // pending RefreshAll: an external state change, like WrongState.
        if (refreshDraining(cmd.at.channel, cmd.at.rank))
            p.gate(StallCause::RefreshDrain);
        p.deadline(b.actAllowedAt(), b.actBlockCause());
        break;
      case CmdType::Read:
      case CmdType::Write:
        if (!b.isOpen() || b.openRow() != cmd.at.row)
            p.gate(StallCause::WrongState);
        p.deadline(cmd.type == CmdType::Read ? b.rdAllowedAt()
                                             : b.wrAllowedAt(),
                   StallCause::TimingTRCD);
        break;
      case CmdType::RefreshAll:
        break;
    }
    r.probe(p, cmd.type, t);
    if (cmd.type == CmdType::Read)
        ch.probeDataStart(p, cmd.at.rank, false, t.tCL, t);
    else if (cmd.type == CmdType::Write)
        ch.probeDataStart(p, cmd.at.rank, true, t.tWL, t);
    return p;
}

IssueResult
MemorySystem::issue(const Command &cmd, Tick now)
{
    if (!canIssue(cmd, now))
        panic("illegal %s issue at tick %llu (ch%u r%u b%u row%u)",
              cmdName(cmd.type), static_cast<unsigned long long>(now),
              cmd.at.channel, cmd.at.rank, cmd.at.bank, cmd.at.row);

    if (cfg_.pagePolicy == PagePolicy::Predictive)
        trainPredictor(cmd);

    Channel &ch = channels_[cmd.at.channel];
    Rank &r = ch.rank(cmd.at.rank);
    Bank &b = r.bank(cmd.at.bank);
    const Timing &t = cfg_.timing;
    const bool auto_pre =
        isColumnAccess(cmd.type) && decideAutoPrecharge(cmd.at);
    if (isColumnAccess(cmd.type)) {
        predColumns_ += 1;
        predCloses_ += auto_pre;
    }

    ch.useCmdBus(now);
    epoch_[cmd.at.channel] += 1;

    IssueResult res;
    switch (cmd.type) {
      case CmdType::Precharge:
        b.precharge(now, t);
        cmdCounts_.precharges += 1;
        break;
      case CmdType::Activate:
        b.activate(cmd.at.row, now, t);
        r.noteActivate(now, t);
        cmdCounts_.activates += 1;
        break;
      case CmdType::Read: {
        res.dataStart = now + t.tCL;
        res.dataEnd = res.dataStart + t.dataCycles();
        ch.useDataBus(res.dataStart, cmd.at.rank, false, t);
        b.read(now, t, auto_pre);
        cmdCounts_.reads += 1;
        cmdCounts_.precharges += auto_pre;
        break;
      }
      case CmdType::Write: {
        res.dataStart = now + t.tWL;
        res.dataEnd = res.dataStart + t.dataCycles();
        ch.useDataBus(res.dataStart, cmd.at.rank, true, t);
        b.write(now, t, auto_pre);
        r.noteWrite(res.dataEnd, t);
        cmdCounts_.writes += 1;
        cmdCounts_.precharges += auto_pre;
        break;
      }
      case CmdType::RefreshAll:
        r.refresh(now, t);
        cmdCounts_.refreshes += 1;
        break;
    }

    if (log_ || observer_) {
        CommandRecord rec;
        rec.at = now;
        rec.type = cmd.type;
        rec.coords = cmd.at;
        rec.accessId = cmd.accessId;
        rec.dataStart = res.dataStart;
        rec.dataEnd = res.dataEnd;
        rec.autoPrecharge = auto_pre;
        if (log_)
            log_->record(rec);
        if (observer_)
            observer_->onCommand(rec);
    }
    return res;
}

std::uint64_t
MemorySystem::cmdBusyCycles() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch.cmdBusyCycles();
    return n;
}

std::uint64_t
MemorySystem::dataBusyCycles() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch.dataBusyCycles();
    return n;
}

double
MemorySystem::predictedCloseRate() const
{
    if (cfg_.pagePolicy != PagePolicy::Predictive || !predColumns_)
        return 0.0;
    return double(predCloses_) / double(predColumns_);
}

double
MemorySystem::addressBusUtilization(Tick elapsed) const
{
    if (!elapsed)
        return 0.0;
    return double(cmdBusyCycles()) /
           (double(elapsed) * double(channels_.size()));
}

double
MemorySystem::dataBusUtilization(Tick elapsed) const
{
    if (!elapsed)
        return 0.0;
    return double(dataBusyCycles()) /
           (double(elapsed) * double(channels_.size()));
}

} // namespace bsim::dram
