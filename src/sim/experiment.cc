#include "sim/experiment.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>

#include "common/rng.hh"

#include "common/error.hh"
#include "common/log.hh"
#include "obs/observability.hh"
#include "obs/selfprof.hh"
#include "sim/sweep_runner.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_file.hh"

namespace bsim::sim
{

namespace
{

/**
 * Start each run from a warmed steady state instead of cold caches: the
 * hot set is resident (its hottest prefix in L1), and part of L2 holds
 * dirty write-stream blocks, so streaming fills displace dirty victims
 * and produce main-memory writeback traffic from the first cycle — as a
 * long-running benchmark would. Without this, short runs see no writes
 * at all until the L2 fills (the paper simulates 2 billion instructions
 * and never observes that transient). Reads @p k and nothing else.
 */
void
prewarmCaches(cpu::CacheHierarchy &h, const WarmKey &k)
{
    const std::uint64_t blk = k.l1d.blockBytes;
    Rng rng(k.seed ^ 0x5eedcafe);

    const std::uint64_t l1_blocks = k.l1d.sizeBytes / blk;
    const std::uint64_t hot_blocks = k.hotBytes / blk;
    for (std::uint64_t i = 0; i < hot_blocks; ++i) {
        const Addr a = k.regionBase + i * blk;
        h.prefill(a, rng.chance(k.writeFraction), i < l1_blocks);
    }

    // Offer the rest of the L2 capacity one block at a time, alternating
    // dirty write-stream blocks with clean read-stream blocks, so that
    // roughly half the victims of a warmed run are dirty — the
    // steady-state writeback behaviour of a long run. The L2 does not
    // end full: read stream 0 starts at the hot set's base, so part of
    // the filler re-touches hot blocks, and streams that alias in set
    // index evict one another.
    const std::uint64_t l2_blocks = k.l2.sizeBytes / blk;
    const std::uint64_t budget =
        l2_blocks > hot_blocks ? l2_blocks - hot_blocks : 0;
    const std::size_t reads = k.readBases.size();
    const std::size_t writes = k.writeBases.size();
    std::size_t ws = 0, rs = 0;
    std::uint64_t woff = 0, roff = 0;
    for (std::uint64_t i = 0; i < budget; ++i) {
        if (i % 2 == 0) {
            h.prefill(k.writeBases[ws] + woff, true);
            ws = (ws + 1) % writes;
            if (ws == 0)
                woff += blk;
        } else {
            h.prefill(k.readBases[rs] + roff, false);
            rs = (rs + 1) % reads;
            if (rs == 0)
                roff += blk;
        }
    }
}

/**
 * This thread's last warm image: the key and both levels as the
 * prewarm left them (about 0.6 MB at the Table 3 geometry). Sweeps run
 * the mechanisms of one workload back to back, so most points restore
 * it instead of prewarming. Each sweep worker keeps its own.
 */
struct WarmImage
{
    bool valid = false;
    WarmKey key;
    std::optional<cpu::Cache> l1d;
    std::optional<cpu::Cache> l2;
};

thread_local WarmImage t_warm;

/**
 * Arms the host self-profiler for the guarded region. The enable flag
 * and the sample tree are thread-local, so parallel sweep slots profile
 * independently; the destructor disarms on every exit path (including
 * SimError unwinds) so a failed point never leaks profiling into the
 * next run on its worker thread.
 */
struct SelfProfGuard
{
    explicit SelfProfGuard(bool on) : on_(on)
    {
        if (on_) {
            obs::prof::reset();
            obs::prof::setEnabled(true);
        }
    }
    ~SelfProfGuard()
    {
        if (on_)
            obs::prof::setEnabled(false);
    }
    bool on_;
};

} // namespace

WarmKey
warmKeyOf(const cpu::CacheHierarchy &h, const trace::SyntheticGenerator &gen,
          std::uint64_t seed)
{
    const trace::WorkloadProfile &p = gen.profile();
    WarmKey k;
    k.l1d = h.l1d().config();
    k.l2 = h.l2().config();
    k.regionBase = p.regionBase;
    k.hotBytes = p.hotBytes;
    k.writeFraction = p.writeFraction;
    for (std::uint32_t i = 0; i < p.numStreams; ++i)
        k.readBases.push_back(gen.readStreamBase(i));
    for (std::uint32_t i = 0; i < p.numWriteStreams; ++i)
        k.writeBases.push_back(gen.writeStreamBase(i));
    k.seed = seed;
    return k;
}

void
warmStart(cpu::CacheHierarchy &h, const WarmKey &key)
{
    if (t_warm.valid && t_warm.key == key) {
        h.restoreWarm(*t_warm.l1d, *t_warm.l2);
        return;
    }
    // Invalid until the copies are whole, so an unwind keeps no image;
    // the copies reuse the old image's storage.
    t_warm.valid = false;
    prewarmCaches(h, key);
    t_warm.key = key;
    t_warm.l1d = h.l1d();
    t_warm.l2 = h.l2();
    t_warm.valid = true;
}

const char *
deviceGenName(DeviceGen g)
{
    switch (g) {
      case DeviceGen::DDR2_800: return "DDR2-800 PC2-6400";
      case DeviceGen::DDR_266: return "DDR-266 PC-2100";
    }
    return "?";
}

const char *
timingVariantName(TimingVariant v)
{
    switch (v) {
      case TimingVariant::Baseline: return "baseline";
      case TimingVariant::ZeroWindows: return "zero-windows";
      case TimingVariant::RefreshPrime: return "refresh-prime";
      case TimingVariant::RefreshHeavy: return "refresh-heavy";
      case TimingVariant::NoRefresh: return "no-refresh";
    }
    return "?";
}

std::uint64_t
defaultInstructions()
{
    if (const char *env = std::getenv("BURSTSIM_INSTR")) {
        const long long v = std::atoll(env);
        if (v > 0)
            return std::uint64_t(v);
        warn("ignoring invalid BURSTSIM_INSTR='%s'", env);
    }
    return 150'000;
}

std::vector<std::string>
mixWorkloads(const std::string &workload)
{
    if (!workload.empty() && workload[0] == '@')
        return {workload};
    std::vector<std::string> out;
    std::size_t from = 0;
    for (;;) {
        const std::size_t plus = workload.find('+', from);
        out.push_back(workload.substr(from, plus - from));
        if (plus == std::string::npos)
            return out;
        from = plus + 1;
    }
}

namespace
{

/** The machine @p cfg describes (Table 3 baseline plus overrides). */
SystemConfig
systemConfigFor(const ExperimentConfig &cfg)
{
    SystemConfig sys_cfg = SystemConfig::baseline();
    sys_cfg.ctrl.mechanism = cfg.mechanism;
    sys_cfg.ctrl.threshold = cfg.threshold;
    sys_cfg.ctrl.dynamicThreshold = cfg.dynamicThreshold;
    sys_cfg.ctrl.sortBurstsBySize = cfg.sortBurstsBySize;
    sys_cfg.ctrl.criticalFirst = cfg.criticalFirst;
    sys_cfg.ctrl.rankAware = cfg.rankAware;
    sys_cfg.ctrl.coalesceWrites = cfg.coalesceWrites;
    sys_cfg.ctrl.watermarkDrain = cfg.watermarkDrain;
    sys_cfg.ctrl.horizonMemo = cfg.horizonMemo;
    sys_cfg.engine = cfg.engine;
    if (cfg.robSize)
        sys_cfg.core.robSize = cfg.robSize;
    if (cfg.issueWidth)
        sys_cfg.core.issueWidth = cfg.issueWidth;
    sys_cfg.dram.pagePolicy = cfg.pagePolicy;
    sys_cfg.dram.addressMap = cfg.addressMap;
    sys_cfg.obs = cfg.obs;
    if (cfg.channels)
        sys_cfg.dram.channels = cfg.channels;
    if (cfg.ranksPerChannel)
        sys_cfg.dram.ranksPerChannel = cfg.ranksPerChannel;
    if (cfg.banksPerRank)
        sys_cfg.dram.banksPerRank = cfg.banksPerRank;
    if (cfg.device == DeviceGen::DDR_266) {
        // Section 6: DDR PC-2100 has a 133 MHz bus but nearly the same
        // absolute core timings — 2-2-2 in cycles. Keep the 64 B block
        // (burst of 8 beats, 4 bus clocks) so traffic is comparable.
        sys_cfg.dram.timing = dram::Timing::ddr_266();
        sys_cfg.dram.timing.burstLength = 8;
        sys_cfg.busMHz = 133.0;
        sys_cfg.cpuCyclesPerMemCycle = 30; // 4 GHz / 133 MHz
    }
    {
        // Timing perturbations stack on the device preset (fuzz axis).
        dram::Timing &t = sys_cfg.dram.timing;
        switch (cfg.timingVariant) {
          case TimingVariant::Baseline:
            break;
          case TimingVariant::ZeroWindows:
            t.tFAW = 0;
            t.tRRD = 0;
            break;
          case TimingVariant::RefreshPrime:
            // Primes near the presets' tREFI, so refresh deadlines never
            // fall on any periodic span lattice of the skip engine.
            t.tREFI = cfg.device == DeviceGen::DDR_266 ? 1039 : 3119;
            break;
          case TimingVariant::RefreshHeavy:
            t.tREFI = std::max(t.tREFI / 8, t.tRFC + 1);
            break;
          case TimingVariant::NoRefresh:
            t.tREFI = 0;
            break;
        }
        t.validate();
    }

    sys_cfg.ctrl.schedulerFactory = cfg.schedulerFactory;
    sys_cfg.watchdogCycles = cfg.watchdogCycles;
    sys_cfg.deadlineSec = cfg.deadlineSec;
    return sys_cfg;
}

/**
 * Run @p cfg's mix with core i's profile displaced by shifts[i]
 * address regions and seeded cfg.seed + shifts[i]. The shift — not the
 * core index — selects region and seed, so a core's alone baseline
 * replays exactly the address stream it had in the shared mix.
 */
RunResult
simulate(const ExperimentConfig &cfg, const std::vector<std::size_t> &shifts)
{
    const SystemConfig sys_cfg = systemConfigFor(cfg);
    const std::vector<std::string> workloads = mixWorkloads(cfg.workload);
    std::uint64_t instructions =
        cfg.instructions ? cfg.instructions : defaultInstructions();

    // "@/path" workloads replay a text trace from disk; anything else
    // is a synthetic profile per core. File traces run cold (no
    // prewarm) and at their recorded length.
    std::unique_ptr<trace::VectorTrace> file_trace;
    std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens;
    std::vector<trace::TraceSource *> sources;
    if (workloads[0][0] == '@') {
        file_trace = trace::loadTraceFile(workloads[0].substr(1));
        instructions = file_trace->size();
        sources.push_back(file_trace.get());
    } else {
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            trace::WorkloadProfile prof =
                trace::profileByName(workloads[i]);
            prof.regionBase +=
                Addr(shifts[i]) * (prof.footprintBytes + (64ULL << 20));
            gens.push_back(std::make_unique<trace::SyntheticGenerator>(
                prof, instructions, cfg.seed + shifts[i]));
            sources.push_back(gens.back().get());
        }
    }

    System sys(sys_cfg, sources);
    for (std::size_t i = 0; i < gens.size(); ++i) {
        cpu::CacheHierarchy &h = sys.caches(std::uint32_t(i));
        warmStart(h, warmKeyOf(h, *gens[i], cfg.seed + shifts[i]));
    }
    // Safety net: no run should need more than ~20k memory cycles per
    // thousand instructions per core; a hang here is a simulator bug.
    const Tick cap = instructions * 200 * sources.size() + 10'000'000;
    SelfProfGuard prof_guard(cfg.obs.selfProf);
    sys.run(cap);
    if (!sys.done())
        throwSimError(
            ErrorCategory::Internal,
            "experiment %s/%s did not drain within %llu memory cycles",
            cfg.workload.c_str(), ctrl::mechanismName(cfg.mechanism),
            static_cast<unsigned long long>(cap));

    // Commit the trailing partial metrics epoch before detaching.
    sys.controller().flushMetrics(sys.memCycles());

    RunResult r;
    if (cfg.obs.selfProf)
        r.selfprof = std::make_shared<obs::prof::SelfProfile>(
            obs::prof::collect());
    r.obs = sys.releaseObservability();
    r.workload = cfg.workload;
    r.mechanism = cfg.mechanism;
    r.instructions = instructions;
    r.execCpuCycles = sys.execCpuCycles();
    r.memCycles = sys.memCycles();
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const std::uint64_t cycles = sys.coreExecCpuCycles(i);
        r.perCoreCpuCycles.push_back(cycles);
        r.perCoreIpc.push_back(
            cycles ? double(instructions) / double(cycles) : 0.0);
        r.l2Misses += sys.caches(i).l2().misses();
        r.memReads += sys.caches(i).memReads();
        r.memWrites += sys.caches(i).memWrites();
    }
    r.ctrl = sys.controller().stats();
    r.sched = sys.controller().schedulerStats();
    r.addrBusUtil = sys.mem().addressBusUtilization(sys.memCycles());
    r.dataBusUtil = sys.mem().dataBusUtilization(sys.memCycles());
    r.ipc = r.execCpuCycles ? double(instructions * sources.size()) /
                                  double(r.execCpuCycles)
                            : 0.0;
    // Effective bandwidth: transferred bytes over the execution interval.
    const double seconds =
        double(r.memCycles) / (sys_cfg.busMHz * 1e6);
    r.bandwidthGBs =
        seconds > 0 ? double(r.ctrl.bytesTransferred) / seconds / 1e9 : 0.0;
    r.dramCommands = sys.mem().commandCounts();
    const double clock_ns = 1e3 / sys_cfg.busMHz;
    r.energy = dram::estimateEnergy(r.dramCommands, r.memCycles,
                                    sys_cfg.dram,
                                    dram::PowerParams::ddr2_800(),
                                    clock_ns);
    r.avgPowerW = r.energy.averagePower(seconds);
    return r;
}

} // namespace

RunResult
runExperiment(const ExperimentConfig &cfg)
{
    const std::vector<std::string> workloads = mixWorkloads(cfg.workload);
    std::vector<std::size_t> shifts(workloads.size());
    for (std::size_t i = 0; i < shifts.size(); ++i)
        shifts[i] = i;
    RunResult r = simulate(cfg, shifts);
    if (!cfg.fairness)
        return r;

    // Alone baselines: each core by itself on the machine, with the
    // address-region shift and seed it had in the mix, under the same
    // mechanism and policy axes. The pillars observe the shared run
    // only.
    std::vector<double> alone_ipc;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        ExperimentConfig alone = cfg;
        alone.workload = workloads[i];
        alone.obs = obs::ObsConfig{};
        alone.fairness = false;
        alone_ipc.push_back(simulate(alone, {i}).perCoreIpc.at(0));
    }
    r.fairness = computeFairness(r.perCoreIpc, alone_ipc);
    return r;
}

FairnessMetrics
computeFairness(const std::vector<double> &ipcShared,
                const std::vector<double> &ipcAlone)
{
    if (ipcShared.size() != ipcAlone.size())
        throwSimError(ErrorCategory::Internal,
                      "fairness: %zu shared IPCs vs %zu alone IPCs",
                      ipcShared.size(), ipcAlone.size());
    FairnessMetrics m;
    m.perCoreIpcAlone = ipcAlone;
    double slowdown_sum = 0.0;
    for (std::size_t i = 0; i < ipcShared.size(); ++i) {
        const double sd = ipcShared[i] > 0 ? ipcAlone[i] / ipcShared[i]
                                           : 0.0;
        m.perCoreSlowdown.push_back(sd);
        m.maxSlowdown = std::max(m.maxSlowdown, sd);
        slowdown_sum += sd;
        m.weightedSpeedup +=
            ipcAlone[i] > 0 ? ipcShared[i] / ipcAlone[i] : 0.0;
    }
    m.harmonicSpeedup = slowdown_sum > 0
                            ? double(ipcShared.size()) / slowdown_sum
                            : 0.0;
    return m;
}

std::vector<RunResult>
runMechanismSweep(const std::string &workload,
                  const std::vector<ctrl::Mechanism> &mechanisms,
                  std::uint64_t instructions, unsigned jobs,
                  EngineKind engine)
{
    return SweepRunner(jobs).map<RunResult>(
        mechanisms.size(), [&](std::size_t i) {
            ExperimentConfig cfg;
            cfg.workload = workload;
            cfg.mechanism = mechanisms[i];
            cfg.instructions = instructions;
            cfg.engine = engine;
            return runExperiment(cfg);
        });
}

} // namespace bsim::sim
