#include "layers.hh"

#include <chrono>
#include <deque>

#include "cpu/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "ctrl/controller.hh"
#include "ctrl/schedulers/factory.hh"
#include "dram/memory_system.hh"
#include "sim/system.hh"
#include "trace/trace_file.hh"

using namespace bsim;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point t0)
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - t0)
                             .count());
}

/**
 * Transparent decorator: forwards every Scheduler virtual to the wrapped
 * policy (engine flags and observability sinks included, so the wrapped
 * policy computes the same bounds it would unwrapped) and adds the host
 * time of tick() and nextEventTick() into a per-family sink.
 */
class TimingScheduler final : public ctrl::Scheduler
{
  public:
    TimingScheduler(const ctrl::SchedulerContext &ctx,
                    std::unique_ptr<ctrl::Scheduler> inner,
                    SchedTiming &sink)
        : Scheduler(ctx), inner_(std::move(inner)), sink_(sink)
    {}

    void enqueue(ctrl::MemAccess *a) override { inner_->enqueue(a); }

    Issued
    tick(Tick now) override
    {
        const auto t0 = Clock::now();
        const Issued issued = inner_->tick(now);
        sink_.tickNs += nsSince(t0);
        sink_.ticks += 1;
        sink_.issued += issued.access != nullptr;
        return issued;
    }

    Tick
    nextEventTick(Tick now) const override
    {
        const auto t0 = Clock::now();
        const Tick horizon = inner_->nextEventTick(now);
        sink_.horizonNs += nsSince(t0);
        sink_.horizons += 1;
        pin_ = inner_->lastHorizonPin();
        return horizon;
    }

    std::size_t readCount() const override { return inner_->readCount(); }
    std::size_t writeCount() const override { return inner_->writeCount(); }
    bool hasWork() const override { return inner_->hasWork(); }
    ctrl::MemAccess *
    findWrite(Addr block_base) const override
    {
        return inner_->findWrite(block_base);
    }
    std::map<std::string, double>
    extraStats() const override
    {
        return inner_->extraStats();
    }
    dram::StallCause
    stallScan(Tick now, obs::StallAttribution &sink) const override
    {
        return inner_->stallScan(now, sink);
    }
    const ctrl::MemAccess *
    lastStallVictim() const override
    {
        return inner_->lastStallVictim();
    }
    void
    setEventDriven(bool on) override
    {
        Scheduler::setEventDriven(on);
        inner_->setEventDriven(on);
    }
    void onExternalCommand() override { inner_->onExternalCommand(); }
    void
    setHorizonMemo(bool on) override
    {
        Scheduler::setHorizonMemo(on);
        inner_->setHorizonMemo(on);
    }
    void
    setExactBounds(bool on) override
    {
        Scheduler::setExactBounds(on);
        inner_->setExactBounds(on);
    }
    std::uint64_t
    globalSignature() const override
    {
        return inner_->globalSignature();
    }
    bool
    globallySensitive() const override
    {
        return inner_->globallySensitive();
    }
    void
    onIdleSpan(Tick from, Tick span) override
    {
        inner_->onIdleSpan(from, span);
    }
    void
    setAuditor(obs::ProtocolAuditor *auditor) override
    {
        Scheduler::setAuditor(auditor);
        inner_->setAuditor(auditor);
    }
    void
    setIntrospect(obs::EngineIntrospect *intro) override
    {
        Scheduler::setIntrospect(intro);
        inner_->setIntrospect(intro);
    }
    void
    queueOccupancy(std::vector<std::uint32_t> &reads,
                   std::vector<std::uint32_t> &writes) const override
    {
        inner_->queueOccupancy(reads, writes);
    }

  private:
    std::unique_ptr<ctrl::Scheduler> inner_;
    SchedTiming &sink_;
};

/** Memory ops of @p instrs (loads and stores only). */
std::vector<trace::TraceInstr>
memOps(const std::vector<trace::TraceInstr> &instrs)
{
    std::vector<trace::TraceInstr> ops;
    for (const auto &in : instrs)
        if (in.op != trace::TraceInstr::Op::Compute)
            ops.push_back(in);
    return ops;
}

/** Accepts everything; fills are released by the replay loop. */
struct StubPort final : cpu::MemPort
{
    bool canSend(unsigned) const override { return true; }
    void
    sendRead(Addr block_addr, bool) override
    {
        fills.push_back({block_addr, now + latencyCpu});
    }
    void sendWrite(Addr) override {}

    struct Fill
    {
        Addr addr = 0;
        std::uint64_t due = 0; //!< CPU cycle the fill returns
    };
    std::deque<Fill> fills;
    std::uint64_t now = 0;
    std::uint64_t latencyCpu = 0;
};

/** Fixed-latency stand-in for DRAM in the core replay, CPU cycles. */
constexpr std::uint64_t kStubLatencyCpu = 200;
/** Fills the cache replay keeps outstanding before releasing the oldest. */
constexpr std::size_t kCacheReplayFills = 8;
/** Controller replay: accesses kept in flight (as BM_ControllerTick). */
constexpr std::size_t kCtrlInFlight = 64;
/** Controller replay length per (profile, mechanism), memory cycles. */
constexpr Tick kCtrlReplayTicks = 4000;
/** DRAM replay: commands probed per device state, and states visited. */
constexpr std::size_t kProbeBatch = 64;
constexpr std::size_t kProbeStates = 3000;

double
replayTrace(const ReplayInputs &in,
            std::vector<std::vector<trace::TraceInstr>> &out)
{
    std::uint64_t ns = 0, calls = 0;
    for (const auto &p : in.profiles) {
        trace::SyntheticGenerator timed(p, in.instructions, in.seed);
        trace::TraceInstr instr;
        const auto t0 = Clock::now();
        while (timed.next(instr))
            ++calls;
        ns += nsSince(t0);

        trace::SyntheticGenerator gen(p, in.instructions, in.seed);
        auto &v = out.emplace_back();
        v.reserve(in.instructions);
        while (gen.next(instr))
            v.push_back(instr);
    }
    return calls ? double(ns) / double(calls) : 0.0;
}

double
replayCache(const std::vector<std::vector<trace::TraceInstr>> &traces)
{
    std::uint64_t ns = 0, accesses = 0;
    for (const auto &t : traces) {
        const auto ops = memOps(t);
        StubPort port;
        cpu::CacheHierarchy h(cpu::HierarchyConfig{}, port);
        const auto t0 = Clock::now();
        for (const auto &op : ops) {
            h.access(op.addr, op.op == trace::TraceInstr::Op::Store);
            while (port.fills.size() > kCacheReplayFills) {
                h.onMemResponse(port.fills.front().addr);
                port.fills.pop_front();
            }
        }
        ns += nsSince(t0);
        accesses += ops.size();
    }
    return accesses ? double(ns) / double(accesses) : 0.0;
}

double
replayCore(const std::vector<std::vector<trace::TraceInstr>> &traces)
{
    std::uint64_t ns = 0, cycles = 0;
    for (const auto &t : traces) {
        trace::VectorTrace src(t);
        StubPort port;
        port.latencyCpu = kStubLatencyCpu;
        cpu::CacheHierarchy h(cpu::HierarchyConfig{}, port);
        cpu::Core core(cpu::CoreConfig{}, h, src);
        const std::uint64_t cap = t.size() * 400 + 10'000;
        std::uint64_t now = 0;
        const auto t0 = Clock::now();
        for (; !core.done() && now < cap; ++now) {
            port.now = now;
            while (!port.fills.empty() && port.fills.front().due <= now) {
                core.onMemResponse(port.fills.front().addr, now);
                port.fills.pop_front();
            }
            core.cpuCycle(now);
        }
        ns += nsSince(t0);
        cycles += now;
    }
    return cycles ? double(ns) / double(cycles) : 0.0;
}

/** One controller replay: @p gens feed tags 0..n-1 round robin. */
void
replayController(ctrl::Mechanism m,
                 std::vector<trace::SyntheticGenerator> &gens,
                 std::uint64_t &tick_ns, std::uint64_t &horizon_ns,
                 std::uint64_t &ticks)
{
    const sim::SystemConfig base = sim::SystemConfig::baseline();
    dram::MemorySystem mem(base.dram);
    ctrl::ControllerConfig cfg = base.ctrl;
    cfg.mechanism = m;
    ctrl::MemoryController ctl(mem, cfg);
    ctl.setEventDriven(true);

    std::size_t next_gen = 0;
    trace::TraceInstr in;
    for (Tick now = 0; now < kCtrlReplayTicks; ++now) {
        while (ctl.readsOutstanding() + ctl.writesOutstanding() <
                   kCtrlInFlight &&
               ctl.canAccept()) {
            auto &g = gens[next_gen];
            do {
                g.next(in);
            } while (in.op == trace::TraceInstr::Op::Compute);
            ctl.submit(in.op == trace::TraceInstr::Op::Store
                           ? AccessType::Write
                           : AccessType::Read,
                       in.addr, now, nullptr, next_gen);
            next_gen = (next_gen + 1) % gens.size();
        }
        const auto t0 = Clock::now();
        ctl.tick(now);
        tick_ns += nsSince(t0);
        const auto t1 = Clock::now();
        (void)ctl.nextEventTick(now + 1);
        horizon_ns += nsSince(t1);
        ++ticks;
    }
}

void
replayControllers(const ReplayInputs &in, ReplayTimings &out)
{
    std::uint64_t tick_ns = 0, horizon_ns = 0, ticks = 0;
    for (ctrl::Mechanism m : in.mechanisms) {
        if (in.sharedController) {
            std::vector<trace::SyntheticGenerator> gens;
            for (const auto &p : in.profiles)
                gens.emplace_back(p, 1ULL << 40, in.seed);
            replayController(m, gens, tick_ns, horizon_ns, ticks);
            continue;
        }
        for (const auto &p : in.profiles) {
            std::vector<trace::SyntheticGenerator> gens;
            gens.emplace_back(p, 1ULL << 40, in.seed);
            replayController(m, gens, tick_ns, horizon_ns, ticks);
        }
    }
    out.ctrlTickNs = ticks ? double(tick_ns) / double(ticks) : 0.0;
    out.ctrlHorizonNs = ticks ? double(horizon_ns) / double(ticks) : 0.0;
}

double
replayDram(const std::vector<std::vector<trace::TraceInstr>> &traces)
{
    const sim::SystemConfig base = sim::SystemConfig::baseline();
    std::uint64_t ns = 0, probes = 0, sink = 0, id = 1;
    for (const auto &t : traces) {
        const auto ops = memOps(t);
        if (ops.empty())
            continue;
        dram::MemorySystem mem(base.dram);
        std::vector<dram::Command> batch(kProbeBatch);
        std::size_t next_op = 0;
        for (std::size_t s = 0; s < kProbeStates; ++s) {
            const Tick now = Tick(s);
            for (auto &cmd : batch) {
                const auto &op = ops[next_op];
                next_op = (next_op + 1) % ops.size();
                const dram::Coords c = mem.addressMap().decode(op.addr);
                const AccessType type = op.op == trace::TraceInstr::Op::Store
                                            ? AccessType::Write
                                            : AccessType::Read;
                cmd = dram::Command{mem.nextCmdFor(c, type), c, id++};
            }
            const auto t0 = Clock::now();
            for (const auto &cmd : batch) {
                sink += mem.canIssue(cmd, now);
                sink += mem.readyAt(cmd, now);
            }
            ns += nsSince(t0);
            probes += 2 * batch.size();
            // Evolve the device state: issue the first legal command.
            for (const auto &cmd : batch) {
                if (mem.canIssue(cmd, now)) {
                    mem.issue(cmd, now);
                    break;
                }
            }
        }
    }
    // Keep the probe results observable so they cannot be elided.
    if (sink == 0)
        ns += 1;
    return probes ? double(ns) / double(probes) : 0.0;
}

} // namespace

const char *
familyName(Family f)
{
    switch (f) {
      case Family::BkInOrder: return "bk_in_order";
      case Family::RowHit: return "row_hit";
      case Family::Intel: return "intel";
      case Family::Burst: return "burst";
      case Family::History: return "history";
      case Family::Contention: return "contention";
    }
    return "?";
}

Family
familyOf(ctrl::Mechanism m)
{
    using M = ctrl::Mechanism;
    switch (m) {
      case M::BkInOrder: return Family::BkInOrder;
      case M::RowHit: return Family::RowHit;
      case M::Intel:
      case M::IntelRP: return Family::Intel;
      case M::Burst:
      case M::BurstRP:
      case M::BurstWP:
      case M::BurstTH: return Family::Burst;
      case M::AdaptiveHistory: return Family::History;
      case M::FrFcfs:
      case M::Parbs:
      case M::Atlas:
      case M::Bliss: return Family::Contention;
    }
    return Family::Contention;
}

ctrl::Mechanism
familyRepresentative(Family f)
{
    using M = ctrl::Mechanism;
    switch (f) {
      case Family::BkInOrder: return M::BkInOrder;
      case Family::RowHit: return M::RowHit;
      case Family::Intel: return M::Intel;
      case Family::Burst: return M::BurstTH;
      case Family::History: return M::AdaptiveHistory;
      case Family::Contention: return M::FrFcfs;
    }
    return M::BkInOrder;
}

SchedulerFactory
timingFactory(FamilyTimings &sink)
{
    return [&sink](ctrl::Mechanism m, const ctrl::SchedulerContext &ctx)
               -> std::unique_ptr<ctrl::Scheduler> {
        return std::make_unique<TimingScheduler>(
            ctx, ctrl::makeScheduler(m, ctx),
            sink[std::size_t(familyOf(m))]);
    };
}

ReplayTimings
runReplays(const ReplayInputs &in)
{
    ReplayTimings out;
    std::vector<std::vector<trace::TraceInstr>> traces;
    out.traceNextNs = replayTrace(in, traces);
    out.cacheAccessNs = replayCache(traces);
    out.coreCycleNs = replayCore(traces);
    replayControllers(in, out);
    out.dramProbeNs = replayDram(traces);
    return out;
}

double
clockPairNs()
{
    constexpr int kPairs = 200'000;
    std::uint64_t total = 0;
    for (int i = 0; i < kPairs; ++i) {
        const auto t0 = Clock::now();
        total += nsSince(t0);
    }
    return double(total) / kPairs;
}

} // namespace perfbench
