/**
 * @file
 * Simplified out-of-order core model (Table 3 baseline: 4 GHz, 8-way,
 * 196-entry ROB, 32-entry LSQ).
 *
 * The model captures exactly what the paper's mechanisms exercise:
 *  - multiple outstanding misses (non-blocking caches + ROB window),
 *  - read latency converting into pipeline stalls via in-order retire,
 *  - dependent (pointer-chase) loads limiting memory-level parallelism,
 *  - stores retiring without waiting for memory, so main-memory write
 *    traffic only throttles the CPU through back-pressure (a full
 *    write queue blocking admission blocks fills too).
 */

#ifndef BURSTSIM_CPU_CORE_HH
#define BURSTSIM_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "cpu/cache_hierarchy.hh"
#include "trace/instr.hh"

namespace bsim::cpu
{

/** Core parameters (Table 3 defaults). */
struct CoreConfig
{
    std::uint32_t issueWidth = 8;
    std::uint32_t robSize = 196;
    std::uint32_t lsqSize = 32;
    std::uint32_t computeLatency = 1; //!< CPU cycles
};

/** The out-of-order core. */
class Core
{
  public:
    /** Build a core pulling from @p trace and accessing @p mem. */
    Core(const CoreConfig &cfg, CacheHierarchy &mem,
         trace::TraceSource &trace);

    /** Advance one CPU cycle (@p now is the CPU cycle number). */
    void cpuCycle(std::uint64_t now);

    /** A memory fill for @p block_addr returned at CPU cycle @p now. */
    void onMemResponse(Addr block_addr, std::uint64_t now);

    /** True when the trace is exhausted and the ROB has drained. */
    bool done() const { return traceEnded_ && rob_.empty(); }

    /** Instructions retired so far. */
    std::uint64_t retired() const { return retired_; }

    /** Loads that went to the cache hierarchy. */
    std::uint64_t loads() const { return loads_; }

    /** Stores performed at retirement. */
    std::uint64_t stores() const { return stores_; }

    /** Cycles retirement was blocked by an unready ROB head. */
    std::uint64_t headStallCycles() const { return headStalls_; }

    /** Cycles retirement was blocked by memory back-pressure (stores). */
    std::uint64_t storeStallCycles() const { return storeStalls_; }

    /** Current ROB occupancy. */
    std::size_t robOccupancy() const { return rob_.size(); }

    /**
     * True when cpuCycle(@p now) would be a pure stall: retirement
     * blocked on an unready head or on a parked store, no pending load
     * able to start, and issue blocked without pulling from the trace.
     * Such a cycle's only effect is one headStalls_ (or storeStalls_)
     * increment, so the cycle-skipping engine may batch it. A parked
     * access (one that got Retry, see CacheHierarchy::wakeEpoch) is not
     * re-probed until a wake event, so it does not break quiescence; a
     * load with a ready producer that would probe the hierarchy does.
     */
    bool quiescentAt(std::uint64_t now) const;

    /**
     * Next CPU cycle at which this core leaves quiescence on its own:
     * the head's readyAt or the first producer wakeup of a blocked
     * pending load. kTickMax when only an external event can wake it:
     * a memory response, or a wake event for a parked access (a parked
     * store at the ROB head waits on nothing local). Only meaningful
     * while quiescentAt(now) holds.
     */
    std::uint64_t nextLocalEventCpu(std::uint64_t now) const;

    /**
     * Bulk-apply @p n skipped quiescent cycles: store stalls while a
     * parked store holds the ROB head, head stalls otherwise.
     */
    void
    skipStallCycles(std::uint64_t n)
    {
        (storeParkedAtHead() ? storeStalls_ : headStalls_) += n;
    }

    /** True while some load or store is parked on back-pressure, i.e.
     *  a hierarchy wake event would let it probe again. */
    bool hasParkedAccess() const { return parked_ > 0; }

  private:
    static constexpr std::uint64_t kUnparked = ~std::uint64_t{0};

    struct RobEntry
    {
        trace::TraceInstr::Op op;
        Addr addr = 0;
        std::uint64_t seq = 0;
        std::uint64_t readyAt = kTickMax; //!< CPU cycle result is ready
        std::uint64_t producerSeq = kTickMax; //!< dep-chain producer
        bool started = false; //!< load sent to the hierarchy
        bool isChainHead = false; //!< member of a dependence chain
        /** Hierarchy wake epoch of the last Retry; kUnparked if none. */
        std::uint64_t parkedEpoch = kUnparked;
    };

    /** @p e got Retry and no wake event has happened since: probing it
     *  again would Retry without any effect. */
    bool
    parked(const RobEntry &e) const
    {
        return e.parkedEpoch == mem_.wakeEpoch();
    }

    bool
    storeParkedAtHead() const
    {
        return !rob_.empty() &&
               rob_.front().op == trace::TraceInstr::Op::Store &&
               parked(rob_.front());
    }

    /** Record a Retry of @p e (park) or its success (unpark). */
    void park(RobEntry &e);
    void unpark(RobEntry &e);

    RobEntry *entryOf(std::uint64_t seq);
    const RobEntry *entryOf(std::uint64_t seq) const;
    bool producerReady(const RobEntry &e, std::uint64_t now) const;
    /** Try to send a load to the hierarchy; false on resource retry. */
    bool startLoad(RobEntry &e, std::uint64_t now);
    void retire(std::uint64_t now);
    void startPendingLoads(std::uint64_t now);
    void issue(std::uint64_t now);

    CoreConfig cfg_;
    CacheHierarchy &mem_;
    trace::TraceSource &trace_;

    std::deque<RobEntry> rob_;
    std::uint64_t frontSeq_ = 0; //!< seq of rob_.front()
    std::uint64_t nextSeq_ = 0;
    std::deque<std::uint64_t> pendingLoads_; //!< waiting to start
    std::vector<std::uint64_t> lastChainSeq_; //!< per chain id
    std::size_t memOpsInRob_ = 0;
    std::size_t parked_ = 0; //!< entries with parkedEpoch != kUnparked

    trace::TraceInstr lookahead_;
    bool lookaheadValid_ = false;
    bool traceEnded_ = false;

    std::uint64_t retired_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t headStalls_ = 0;
    std::uint64_t storeStalls_ = 0;
};

} // namespace bsim::cpu

#endif // BURSTSIM_CPU_CORE_HH
