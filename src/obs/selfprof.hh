/**
 * @file
 * Host-side self-profiler: hierarchical scoped timers over a
 * thread-local tree, measuring where the *simulator* spends wall time
 * (scheduler pick, timing checks, horizon computation, stall scan,
 * stats export) rather than where simulated time goes.
 *
 * Design constraints:
 *  - near-zero cost when off: Scope checks one thread-local flag and
 *    arms nothing, so instrumented hot paths stay branch-predictable;
 *  - thread-confined: each run owns its thread's tree, so parallel
 *    sweeps profile every slot independently with no synchronization;
 *  - host time never leaks into deterministic outputs: SelfProfile is
 *    exported to the text report and progress telemetry only, never to
 *    the result JSON the engine-equivalence gates byte-compare.
 */

#ifndef BURSTSIM_OBS_SELFPROF_HH
#define BURSTSIM_OBS_SELFPROF_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace bsim::obs::prof
{

/** Instrumented simulator phases (tree nodes aggregate per phase). */
enum class Phase : std::uint8_t
{
    Run,           //!< whole System::run() call
    CpuPhase,      //!< core windows (cache stack + ROB)
    FsbAdmit,      //!< front-side bus arbitration / admission
    CtrlTick,      //!< MemoryController::tick / tickSpan
    SchedPick,     //!< Scheduler::tick (the pick itself)
    TimingCheck,   //!< Scheduler::probeFor timing probes into the engine
    StallScan,     //!< stall-attribution scans on idle slots
    RefreshEngine, //!< refresh due/drain handling
    Horizon,       //!< System::skipHorizon
    SchedHorizon,  //!< Scheduler::nextEventTick recomputation
    SkipSpan,      //!< System::skipTo bulk state advance
    ObsExport,     //!< metrics sampling / report export
};

constexpr std::size_t kNumPhases = 12;

/** Printable phase name (stable: used in progress JSONL rollups). */
const char *phaseName(Phase p);

namespace detail
{
/** This thread's armed flag: a constant-initialized thread_local, so
 *  reading it is one TLS load with no guard or wrapper call. */
inline thread_local bool tlsEnabled = false;
} // namespace detail

/** Is self-profiling armed on this thread? */
inline bool
enabled()
{
    return detail::tlsEnabled;
}

/** Arm or disarm self-profiling on this thread. */
void setEnabled(bool on);

/** Drop this thread's tree (call before an instrumented run). */
void reset();

/** One aggregated node of the phase tree, preorder with depth. */
struct ProfNode
{
    Phase phase = Phase::Run;
    int depth = 0;
    std::uint64_t count = 0; //!< times the scope was entered
    double totalUs = 0.0;    //!< inclusive wall microseconds
    double selfUs = 0.0;     //!< exclusive (minus instrumented children)
};

/** Snapshot of one thread's profile, exportable after the run. */
struct SelfProfile
{
    bool valid = false;            //!< profiling was on during the run
    std::vector<ProfNode> nodes;   //!< preorder tree
    /** Exclusive time per phase summed over the whole tree. */
    std::array<double, kNumPhases> selfUsByPhase{};
    double totalUs = 0.0; //!< sum of root-level inclusive times

    /** Human-readable indented tree (text report section). */
    void writeText(std::ostream &os) const;
};

/** Snapshot and aggregate this thread's tree (valid iff enabled). */
SelfProfile collect();

/**
 * RAII phase scope. Arms only when profiling is enabled at entry, and
 * stays armed through its own destructor even if the flag flips
 * mid-scope, so enter/leave always pair up.
 */
class Scope
{
  public:
    explicit Scope(Phase p)
    {
        if (enabled()) {
            armed_ = true;
            enter(p);
        }
    }

    ~Scope()
    {
        if (armed_)
            leave();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    static void enter(Phase p);
    static void leave();

    bool armed_ = false;
};

} // namespace bsim::obs::prof

#endif // BURSTSIM_OBS_SELFPROF_HH
