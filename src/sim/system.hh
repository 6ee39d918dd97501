/**
 * @file
 * Full-system wiring: core(s) -> caches -> front-side buffer -> memory
 * controller -> SDRAM, with the Table 3 baseline configuration and the
 * 4 GHz CPU : 400 MHz memory bus clock-domain crossing (10 CPU cycles per
 * memory cycle).
 *
 * The system supports chip multiprocessing (paper Section 6: "access
 * reordering mechanisms will play a more important role with chip level
 * multiple processors"): each core has private L1/L2 caches and its own
 * FSB queue; all cores share the memory controller. Workloads are
 * assumed address-disjoint (no coherence is modelled).
 */

#ifndef BURSTSIM_SIM_SYSTEM_HH
#define BURSTSIM_SIM_SYSTEM_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hh"
#include "cpu/cache_hierarchy.hh"
#include "cpu/core.hh"
#include "ctrl/controller.hh"
#include "dram/memory_system.hh"
#include "obs/obs_config.hh"
#include "trace/instr.hh"

namespace bsim::obs
{
class EngineIntrospect;
class Observability;
struct WakeSource;
} // namespace bsim::obs

namespace bsim::sim
{

/**
 * Simulation engine selection.
 *
 * Both engines produce bit-identical statistics (asserted by the
 * engine-equivalence suite); Skip additionally fast-forwards across
 * provably dead tick spans, so it is the default.
 */
enum class EngineKind : std::uint8_t
{
    Step, //!< tick-accurate: every memory cycle is simulated
    Skip, //!< event-driven: dead cycles are batched (same results)
};

/** Printable engine name. */
const char *engineKindName(EngineKind k);

/** Complete machine configuration. */
struct SystemConfig
{
    cpu::CoreConfig core;
    cpu::HierarchyConfig caches;
    dram::DramConfig dram;
    ctrl::ControllerConfig ctrl;

    /** CPU cycles per memory bus cycle (4 GHz / 400 MHz). */
    std::uint32_t cpuCyclesPerMemCycle = 10;
    /** Front-side bus buffer depth per core (requests toward memory). */
    std::size_t memQueueCap = 6;
    /** FSB transfer latency, memory cycles, each direction. */
    Tick fsbLatency = 2;
    /** Memory bus clock in MHz (for bandwidth reporting). */
    double busMHz = 400.0;
    /** Simulation engine (results are identical either way). */
    EngineKind engine = EngineKind::Skip;

    /** Observability pillars to enable (all off by default). */
    obs::ObsConfig obs;

    /**
     * Forward-progress watchdog: if the controller stays busy for this
     * many memory cycles without a single access retiring (read or
     * write completion, or a forwarded read), run() throws a SimError
     * (category internal) whose context carries the controller's
     * queue/bank snapshot. Refreshes deliberately do not count as
     * progress — a stuck scheduler leaves the refresh engine running,
     * and counting them would mask exactly the hangs the watchdog
     * exists to catch. The default is far above any legitimate
     * completion gap (tRFC and tREFI are a few thousand cycles at
     * most); 0 disables the watchdog.
     */
    Tick watchdogCycles = 50'000;
    /**
     * Wall-clock guard: run() throws a SimError (category resource)
     * once the run has consumed this many real seconds. 0 disables.
     */
    double deadlineSec = 0.0;

    /** The baseline machine of Table 3. */
    static SystemConfig baseline();
};

/** One simulated machine running one or more workloads. */
class System
{
  public:
    /** Single-core machine; @p trace must outlive the system. */
    System(const SystemConfig &cfg, trace::TraceSource &trace);

    /** CMP machine with one private cache stack per trace. */
    System(const SystemConfig &cfg,
           const std::vector<trace::TraceSource *> &traces);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Advance one memory bus cycle. */
    void tick();

    /**
     * Run until every workload retires and memory drains, or
     * @p max_ticks elapse. Returns memory cycles simulated.
     */
    Tick run(Tick max_ticks = kTickMax);

    /** All workloads retired and all memory traffic drained. */
    bool done() const;

    /** Memory cycles elapsed. */
    Tick memCycles() const { return now_; }

    /** CPU cycles elapsed. */
    std::uint64_t cpuCycles() const { return cpuNow_; }

    /** CPU cycle at which the last core finished (execution time). */
    std::uint64_t execCpuCycles() const { return execCpuCycles_; }

    /** CPU cycle at which core @p i finished (0 while running). */
    std::uint64_t coreExecCpuCycles(std::uint32_t i) const
    {
        return cores_[i].doneAtCpu;
    }

    /** Number of cores. */
    std::uint32_t numCores() const
    {
        return std::uint32_t(cores_.size());
    }

    /** Components (stats access). */
    cpu::Core &core(std::uint32_t i = 0) { return *cores_[i].core; }
    cpu::CacheHierarchy &caches(std::uint32_t i = 0)
    {
        return *cores_[i].caches;
    }
    ctrl::MemoryController &controller() { return *ctrl_; }
    dram::MemorySystem &mem() { return *mem_; }
    const SystemConfig &config() const { return cfg_; }

    /**
     * Quiescence verdicts the skip engine derived from scratch, i.e.
     * misses of its per-core quiescence cache. A host-cost counter,
     * not a statistic of the modelled machine.
     */
    std::uint64_t quiescenceWalks() const { return quiesceWalks_; }

    /** Observability pillars of this run; nullptr when all disabled. */
    obs::Observability *observability() { return obs_.get(); }

    /**
     * Detach the observability pillars from the machine and transfer
     * ownership to the caller (so collected data can outlive the
     * System). Returns nullptr when observability was off.
     */
    std::unique_ptr<obs::Observability> releaseObservability();

    // Single-core MemPort convenience (routes to core 0's FSB queue);
    // primarily for tests exercising the queue discipline.
    bool canSend(unsigned n) const;
    void sendRead(Addr block_addr, bool critical = false);
    void sendWrite(Addr block_addr);

  private:
    struct FsbRequest
    {
        Addr addr = 0;
        bool isWrite = false;
        bool critical = false;
        Tick readyAt = 0; //!< memory tick when it may enter the controller
    };

    /** Per-core MemPort shim feeding the core's FSB queue. */
    class CorePort;

    struct CoreNode
    {
        std::unique_ptr<CorePort> port;
        std::unique_ptr<cpu::CacheHierarchy> caches;
        std::unique_ptr<cpu::Core> core;
        std::deque<FsbRequest> fsbQueue;
        bool done = false;
        std::uint64_t doneAtCpu = 0;

        /**
         * Cached quiescence verdict (skip engine). Once a core is
         * quiescent it stays so until its own wakeup cycle
         * (quiesceEventCpu), a memory response, or an FSB pop while it
         * has a parked access; the cache is invalidated on those and
         * after any stepped CPU cycle, so the per-tick check is O(1)
         * instead of a ROB/pending-load walk.
         */
        bool quiesceValid = false;
        std::uint64_t quiesceEventCpu = 0;
    };

    /** Read data in flight back to a core. */
    struct Response
    {
        Tick at = 0;           //!< delivery tick
        std::uint64_t seq = 0; //!< FIFO order among equal delivery ticks
        Addr addr = 0;
        std::uint32_t core = 0;
    };

    /** Min-heap order: earliest delivery tick first, FIFO within a tick. */
    struct ResponseLater
    {
        bool operator()(const Response &a, const Response &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    /** Forward-progress / deadline bookkeeping local to one run(). */
    struct WatchState
    {
        std::uint64_t lastRetired = 0; //!< retired count at lastProgress
        Tick lastProgress = 0;         //!< last tick an access retired
        std::chrono::steady_clock::time_point started;
        std::uint32_t iter = 0; //!< loop iterations (deadline polling)
    };

    void build(const std::vector<trace::TraceSource *> &traces);

    /** Accesses retired so far (reads + writes + forwarded reads). */
    std::uint64_t retiredAccesses() const;

    /**
     * Enforce the forward-progress watchdog and wall-clock deadline
     * (SystemConfig::watchdogCycles / deadlineSec); throws SimError.
     */
    void checkProgress(WatchState &w);

    /** FSB admission (tick step 3); wakes cores with parked accesses. */
    void admitFsb();

    /**
     * One core's CPU cycles of the current tick (tick step 4). Under
     * the skip engine a core quiescent through the whole window is
     * charged in bulk; otherwise its cycles are stepped, and a core
     * that goes quiescent mid-window is bulk-charged for the rest.
     */
    void cpuWindow(CoreNode &node);

    /**
     * Refresh @p node's quiescence cache; false when the core is not
     * quiescent at cpuNow_.
     */
    bool coreQuiescent(CoreNode &node);

    /**
     * Earliest tick >= now_ at which anything observable can happen:
     * a core leaving quiescence, a response delivery, a controller
     * event, or an FSB admission. now_ itself when any core is not
     * quiescent (no skip possible). Assumes tick() has just run.
     *
     * When @p src is non-null the winning bound is attributed to the
     * component that pinned it (first-minimum-wins over the same scan
     * order, so the horizon is identical with and without attribution).
     */
    Tick skipHorizon(obs::WakeSource *src = nullptr);

    /** Bulk-apply the dead span [now_, @p target) and jump to it. */
    void skipTo(Tick target);

    SystemConfig cfg_;
    std::unique_ptr<dram::MemorySystem> mem_;
    std::unique_ptr<ctrl::MemoryController> ctrl_;
    std::unique_ptr<obs::Observability> obs_;
    /** Engine introspection sink; null unless the pillar is on. */
    obs::EngineIntrospect *intro_ = nullptr;
    std::vector<CoreNode> cores_;

    std::priority_queue<Response, std::vector<Response>, ResponseLater>
        respQueue_;
    std::uint64_t respSeq_ = 0;

    Tick now_ = 0;
    std::uint64_t cpuNow_ = 0;
    std::uint64_t execCpuCycles_ = 0;
    bool allDone_ = false;
    std::uint32_t rrCore_ = 0; //!< FSB admission round robin
    std::uint64_t quiesceWalks_ = 0;
};

} // namespace bsim::sim

#endif // BURSTSIM_SIM_SYSTEM_HH
