/**
 * @file
 * Experiment harness: run (workload, mechanism) pairs and collect the
 * metrics reported in the paper's figures. Used by all bench binaries
 * and by the integration tests.
 */

#ifndef BURSTSIM_SIM_EXPERIMENT_HH
#define BURSTSIM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/controller.hh"
#include "dram/config.hh"
#include "obs/obs_config.hh"
#include "sim/system.hh"
#include "trace/trace_gen.hh"

namespace bsim::obs::prof
{
struct SelfProfile;
} // namespace bsim::obs::prof

namespace bsim::sim
{

/** SDRAM generation to simulate (Section 6 technology trend). */
enum class DeviceGen : std::uint8_t
{
    DDR2_800, //!< PC2-6400 5-5-5, 400 MHz bus (Table 3 baseline)
    DDR_266,  //!< PC-2100 2-2-2, 133 MHz bus (Section 6 comparison)
};

/** Printable device name. */
const char *deviceGenName(DeviceGen g);

/**
 * Systematic timing perturbation layered on top of the device preset.
 * These are the corner geometries the differential fuzzer (src/fuzz/)
 * sweeps: zeroed inter-activate windows (DDR1-style), refresh intervals
 * prime to any cycle-skipping span lattice, refresh-dominated devices,
 * and refresh disabled outright.
 */
enum class TimingVariant : std::uint8_t
{
    Baseline,     //!< the device preset unchanged
    ZeroWindows,  //!< tFAW = 0, tRRD = 0 (DDR1-style relaxation)
    RefreshPrime, //!< tREFI moved to a nearby prime number
    RefreshHeavy, //!< tREFI cut to ~1/8th (refresh-dominated)
    NoRefresh,    //!< tREFI = 0 (refresh engine off)
};

constexpr std::size_t kNumTimingVariants = 5;

/** Printable variant name (also the repro-file token). */
const char *timingVariantName(TimingVariant v);

/**
 * One simulation run specification. A run is a machine of one or more
 * cores sharing the memory controller (paper Section 6); single-core is
 * simply the 1-core case.
 */
struct ExperimentConfig
{
    /**
     * Profile name (spec_profiles), one per core joined by '+' for a
     * CMP mix ("mcf+swim"), or "@/path/to/file" to replay one text
     * trace from disk (no cache prewarm; see trace_file.hh). A trace
     * path is never split. Core i of a mix runs its profile shifted to
     * the i-th disjoint address region with seed `seed + i`.
     */
    std::string workload = "swim";
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;
    std::uint64_t instructions = 0; //!< per core; 0 = defaultInstructions()
    std::uint64_t seed = 20070212;  //!< HPCA 2007, for determinism
    std::size_t threshold = 52;     //!< Burst_TH threshold
    dram::PagePolicy pagePolicy = dram::PagePolicy::OpenPage;
    dram::AddressMapKind addressMap = dram::AddressMapKind::PageInterleave;
    DeviceGen device = DeviceGen::DDR2_800;
    /** Timing perturbation applied after the device preset. */
    TimingVariant timingVariant = TimingVariant::Baseline;
    /** Simulation engine; both report identical statistics. */
    EngineKind engine = EngineKind::Skip;
    /** Debug switch (`--no-horizon-memo`): run the skip engine with
     *  every horizon memo and bound cache disabled. Statistics AND the
     *  engine_introspect skipped/stepped totals must be unchanged —
     *  the fuzzer's engine_equivalence oracle checks exactly that. */
    bool horizonMemo = true;
    /** Organization overrides (0 = keep the Table 3 baseline value). */
    std::uint32_t channels = 0;
    std::uint32_t ranksPerChannel = 0;
    std::uint32_t banksPerRank = 0;

    // Extension / ablation switches (Section 7 future work + Table 2
    // rank-awareness ablation).
    bool dynamicThreshold = false;
    bool sortBurstsBySize = false;
    bool criticalFirst = false;
    bool rankAware = true;
    bool coalesceWrites = false;
    /** Watermark write-drain mode of the contention-aware scheduler
     *  families (ControllerConfig::watermarkDrain). Ignored by the
     *  paper's Table 4 mechanisms. */
    bool watermarkDrain = false;
    /** Core overrides (0 = Table 3 baseline). A robSize of 1 with
     *  issueWidth 1 approximates a blocking in-order core. */
    std::uint32_t robSize = 0;
    std::uint32_t issueWidth = 0;

    /** Observability pillars (latency breakdown, metrics, trace). */
    obs::ObsConfig obs;

    /** Also run each core alone on its own region and seed, and report
     *  CMP fairness (RunResult::fairness). */
    bool fairness = false;

    /** Forward-progress watchdog (SystemConfig::watchdogCycles). */
    Tick watchdogCycles = 50'000;
    /** Wall-clock limit in seconds, 0 = none (SystemConfig::deadlineSec). */
    double deadlineSec = 0.0;
    /** Scheduler factory override (fault injection; ControllerConfig). */
    std::function<std::unique_ptr<ctrl::Scheduler>(
        ctrl::Mechanism, const ctrl::SchedulerContext &)>
        schedulerFactory;
    /**
     * Stable identity of schedulerFactory for sweep journaling: a
     * std::function has no comparable identity of its own, so any user
     * of schedulerFactory who wants resumable sweeps must name the
     * decoration here (e.g. "faulty:freeze@100"). Points whose factory
     * differs then hash to different journal keys instead of silently
     * reusing each other's results.
     */
    std::string schedulerFactoryId;
};

/**
 * CMP fairness metrics (Section 6 extension): per-core slowdown against
 * the core's alone-run baseline (same mechanism, same address-region
 * shift and seed, the core running by itself), and the three standard
 * CMP aggregates derived from it.
 */
struct FairnessMetrics
{
    std::vector<double> perCoreIpcAlone; //!< alone-run IPC per core
    std::vector<double> perCoreSlowdown; //!< IPC_alone / IPC_shared
    double maxSlowdown = 0.0;            //!< unfairness (max slowdown)
    /** Weighted speedup: sum of IPC_shared / IPC_alone (== N when every
     *  slowdown is exactly 1). */
    double weightedSpeedup = 0.0;
    /** Harmonic mean of speedups: N / sum of slowdowns (balances
     *  fairness and throughput). */
    double harmonicSpeedup = 0.0;
};

/** Metrics of one run (the quantities behind Figures 7-12). */
struct RunResult
{
    std::string workload;
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;

    std::uint64_t instructions = 0;  //!< per core
    std::uint64_t execCpuCycles = 0; //!< the paper's execution time
    std::uint64_t memCycles = 0;
    /** Completion CPU cycle and IPC of each core, in mix order. */
    std::vector<std::uint64_t> perCoreCpuCycles;
    std::vector<double> perCoreIpc;

    ctrl::ControllerStats ctrl; //!< latencies, rates, histograms
    std::map<std::string, double> sched; //!< policy extras

    double addrBusUtil = 0.0;
    double dataBusUtil = 0.0;
    double bandwidthGBs = 0.0; //!< effective bandwidth
    double ipc = 0.0; //!< all cores' instructions over execCpuCycles

    /** Summed over the cores' private hierarchies. */
    std::uint64_t l2Misses = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;

    /** DRAM energy estimate over the run (extension; see dram/power.hh). */
    dram::EnergyBreakdown energy;
    double avgPowerW = 0.0;
    dram::CommandCounts dramCommands;

    /** Observability data collected during the run; null when all
     *  pillars were off. Shared so RunResult stays copyable. */
    std::shared_ptr<obs::Observability> obs;

    /** Host-side self-profile of the run (ObsConfig::selfProf); null
     *  when off. Host wall time — never part of the result JSON. */
    std::shared_ptr<obs::prof::SelfProfile> selfprof;

    /** Set when ExperimentConfig::fairness was. */
    std::optional<FairnessMetrics> fairness;
};

/**
 * Default instruction count per run: 150,000, overridable through the
 * BURSTSIM_INSTR environment variable (the benches print which value was
 * used). Scaled down from the paper's 2 billion so the full figure suite
 * reproduces in minutes.
 */
std::uint64_t defaultInstructions();

/**
 * Per-core profiles of a workload string: the '+'-separated mix, or
 * the workload itself for a "@path" trace.
 */
std::vector<std::string> mixWorkloads(const std::string &workload);

/**
 * Everything the warm start reads: the caches' geometry, the hot set,
 * the stream bases and the seed. The warm start is a pure function of
 * this key, so two runs with equal keys start from the same caches.
 */
struct WarmKey
{
    cpu::CacheConfig l1d;
    cpu::CacheConfig l2;
    Addr regionBase = 0;
    std::uint64_t hotBytes = 0;
    double writeFraction = 0.0;
    std::vector<Addr> readBases;  //!< one per read stream
    std::vector<Addr> writeBases; //!< one per write stream
    std::uint64_t seed = 0;

    bool operator==(const WarmKey &) const = default;
};

/** The warm-start key of a core with caches @p h running @p gen
 *  whose prewarm is seeded by @p seed. */
WarmKey warmKeyOf(const cpu::CacheHierarchy &h,
                  const trace::SyntheticGenerator &gen, std::uint64_t seed);

/**
 * Start @p h, a hierarchy no access has touched yet, from the warmed
 * steady state of @p key. The calling thread keeps the image of the
 * last key it warmed: a run with the same key restores it, any other
 * prewarms and replaces it. Either way @p h ends in the same state.
 */
void warmStart(cpu::CacheHierarchy &h, const WarmKey &key);

/**
 * Run one experiment. With ExperimentConfig::fairness the shared run
 * is followed by one alone run per core (same mechanism, region and
 * seed, the core by itself on the machine).
 */
RunResult runExperiment(const ExperimentConfig &cfg);

/** Compute the aggregates from shared and alone per-core IPCs. */
FairnessMetrics computeFairness(const std::vector<double> &ipcShared,
                                const std::vector<double> &ipcAlone);

/**
 * Run @p workload under every mechanism in @p mechanisms, @p jobs runs
 * in parallel (0 = one per hardware thread). Results come back in
 * mechanism order regardless of completion order.
 */
std::vector<RunResult> runMechanismSweep(
    const std::string &workload,
    const std::vector<ctrl::Mechanism> &mechanisms,
    std::uint64_t instructions = 0, unsigned jobs = 1,
    EngineKind engine = EngineKind::Skip);

} // namespace bsim::sim

#endif // BURSTSIM_SIM_EXPERIMENT_HH
