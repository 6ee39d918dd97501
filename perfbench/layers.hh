/**
 * @file
 * Per-layer instruments of the burstsim benchmark: a timing Scheduler
 * decorator injected through the public schedulerFactory seam, and
 * isolated replays through the public APIs of trace/, cpu/, ctrl/ and
 * dram/. Everything here is host time measured from the benchmark's own
 * files; nothing is compiled into the library.
 */

#ifndef BURSTSIM_PERFBENCH_LAYERS_HH
#define BURSTSIM_PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/scheduler.hh"
#include "trace/trace_gen.hh"

namespace perfbench
{

/** Scheduler families the per-layer table reports, in table order. */
enum class Family : std::uint8_t
{
    BkInOrder,
    RowHit,
    Intel,
    Burst,
    History,
    Contention,
};

constexpr std::size_t kNumFamilies = 6;

/** Metric-name stem of @p f ("bk_in_order", "burst", ...). */
const char *familyName(Family f);

/** Family a mechanism's scheduler belongs to. */
Family familyOf(bsim::ctrl::Mechanism m);

/** Mechanism that stands for @p f on coverage points. */
bsim::ctrl::Mechanism familyRepresentative(Family f);

/** Host-time counters of one scheduler family (all channels, all runs). */
struct SchedTiming
{
    std::uint64_t ticks = 0;     //!< tick() calls offered
    std::uint64_t issued = 0;    //!< tick() calls that issued a command
    std::uint64_t tickNs = 0;    //!< host ns inside tick()
    std::uint64_t horizons = 0;  //!< nextEventTick() calls
    std::uint64_t horizonNs = 0; //!< host ns inside nextEventTick()

    /** Host ns this family spent in the timed calls. */
    std::uint64_t selfNs() const { return tickNs + horizonNs; }
};

/** Per-family sinks the timing decorators add into. */
using FamilyTimings = std::array<SchedTiming, kNumFamilies>;

/** The schedulerFactory signature of ExperimentConfig / ControllerConfig. */
using SchedulerFactory =
    std::function<std::unique_ptr<bsim::ctrl::Scheduler>(
        bsim::ctrl::Mechanism, const bsim::ctrl::SchedulerContext &)>;

/**
 * A factory that builds the library's own scheduler for each channel
 * (ctrl::makeScheduler) and wraps it in a transparent timing decorator
 * adding into @p sink, which must outlive every run using the factory.
 */
SchedulerFactory timingFactory(FamilyTimings &sink);

/** Inputs the replays draw from: one entry per distinct profile. */
struct ReplayInputs
{
    std::vector<bsim::trace::WorkloadProfile> profiles;
    std::uint64_t instructions = 0; //!< per profile
    std::uint64_t seed = 0;
    /** Mechanisms the controller replay runs. */
    std::vector<bsim::ctrl::Mechanism> mechanisms;
    /** Controller replay: one controller shared by every profile (tag =
     *  profile index, as on a CMP) instead of one controller each. */
    bool sharedController = false;
};

/** Host ns per operation measured by the isolated replays. */
struct ReplayTimings
{
    double traceNextNs = 0;      //!< SyntheticGenerator::next
    double cacheAccessNs = 0;    //!< CacheHierarchy::access (+ MSHR release)
    double coreCycleNs = 0;      //!< Core::cpuCycle over a real hierarchy
    double ctrlTickNs = 0;       //!< MemoryController::tick
    double ctrlHorizonNs = 0;    //!< MemoryController::nextEventTick
    double dramProbeNs = 0;      //!< MemorySystem::canIssue / readyAt
};

/** Run every replay on @p in. */
ReplayTimings runReplays(const ReplayInputs &in);

/** Cost of one steady_clock read pair, ns (printed beside the spans). */
double clockPairNs();

} // namespace perfbench

#endif // BURSTSIM_PERFBENCH_LAYERS_HH
