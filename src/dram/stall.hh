/**
 * @file
 * Stall-cause taxonomy for per-cycle accounting.
 *
 * Lives in dram (not obs) so the device timing engine can report *why*
 * a command is blocked without a layering inversion: dram produces the
 * causes, ctrl routes them, obs aggregates them. Every memory cycle of
 * a channel is attributed to exactly one cause (see
 * obs/stall_attribution.hh for the telescoping invariant).
 */

#ifndef BURSTSIM_DRAM_STALL_HH
#define BURSTSIM_DRAM_STALL_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace bsim::dram
{

/**
 * Why a command could not issue — or, lifted to per-cycle accounting,
 * what a channel's command slot was doing that cycle.
 *
 * The first group are cycle categories assigned by the accounting
 * layer; the Timing* group are the binding device constraints a
 * MemorySystem::probe() reports; the policy group is reported by the
 * schedulers themselves.
 */
enum class StallCause : std::uint8_t
{
    None = 0,     //!< not blocked: the command may issue

    // Cycle categories (assigned by obs::StallAttribution).
    DataTransfer, //!< the data bus carried a burst this cycle
    PrepIssue,    //!< a command issued this cycle, no data on the bus yet
    PendingData,  //!< burst scheduled; waiting out the CAS / write gap
    NoWork,       //!< nothing outstanding in this channel

    // Binding timing constraint (from MemorySystem::probe).
    TimingTRCD,       //!< activate-to-column delay
    TimingTRP,        //!< precharge-to-activate delay
    TimingTRC,        //!< activate-to-activate, same bank
    TimingTRAS,       //!< minimum row-open time before precharge
    TimingTWR,        //!< write recovery before precharge
    TimingTRTP,       //!< read-to-precharge delay
    TimingTRRD,       //!< activate-to-activate, same rank
    TimingTFAW,       //!< four-activate window, same rank
    TimingTWTR,       //!< write-to-read turnaround, same rank
    TimingTRFC,       //!< refresh cycle time blocks the bank
    TimingTurnaround, //!< tRTRS / tRTW data-bus gap delays the burst
    TimingDataBus,    //!< data bus busy with a previous burst
    TimingCmdBus,     //!< channel command slot already used this cycle

    // Policy causes (reported by Scheduler::stallScan).
    ThresholdGated, //!< writes postponed by read-priority / RP-WP policy
    ArbLoss,        //!< issuable (or near), but lost arbitration
    RefreshDrain,   //!< new activates barred: rank drains for refresh

    WrongState, //!< bank state does not match the command (defensive)
};

/** Number of distinct causes (array-index bound). */
inline constexpr std::size_t kNumStallCauses =
    std::size_t(StallCause::WrongState) + 1;

/** Stable snake_case cause name (used in reports, CSV and JSON keys). */
const char *stallCauseName(StallCause c);

/**
 * The answer of one walk over a command's timing constraints at a tick
 * `now`: when it may issue, what blocks it first, and until when.
 *
 * The walk feeds every constraint in a fixed check order: a deadline
 * ("not before tick X") or a state gate (wrong bank state, refresh
 * drain), which only another command can open. The first constraint
 * that binds at `now` is the cause; every constraint may move readyAt.
 * So `cause == None` exactly when `readyAt == now`.
 */
struct Probe
{
    /** Exact first tick >= now at which the command may issue, the max
     *  of every deadline; kTickMax when a state gate is closed. */
    Tick readyAt;
    /** First binding constraint in check order; None when legal. */
    StallCause cause = StallCause::None;
    /** Tick at which @c cause expires or flips to another cause (the
     *  data bus clearing turns TimingDataBus into TimingTurnaround);
     *  kTickMax for a state gate, now when legal. Until then the same
     *  probe reports the same cause. */
    Tick causeUntil;

    /** Start a walk at @p now: nothing binds yet. */
    explicit Probe(Tick now) : readyAt(now), causeUntil(now) {}

    /** The command may not issue before tick @p at. */
    void
    deadline(Tick at, StallCause why)
    {
        // While nothing binds, readyAt is now: a deadline at or before
        // it neither binds nor moves readyAt.
        if (at <= readyAt)
            return;
        if (cause == StallCause::None) {
            cause = why;
            causeUntil = at;
        }
        readyAt = at;
    }

    /** A closed state gate: only another command can open it. */
    void
    gate(StallCause why)
    {
        if (cause == StallCause::None) {
            cause = why;
            causeUntil = kTickMax;
        }
        readyAt = kTickMax;
    }
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_STALL_HH
