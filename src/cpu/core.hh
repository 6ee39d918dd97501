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

#include <bit>
#include <cstdint>
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
    std::uint32_t robSize = 196; //!< 1..kMaxRobSize
    std::uint32_t lsqSize = 32;
    std::uint32_t computeLatency = 1; //!< CPU cycles
};

/** Largest CoreConfig::robSize the core accepts (its ring is sized
 *  from it up front). */
constexpr std::uint32_t kMaxRobSize = 1u << 16;

/**
 * The out-of-order core.
 *
 * The ROB is a power-of-two ring of RobEntry indexed by seq, and the
 * loads waiting to start are indexed by what they wait on, so that a
 * CPU cycle visits only the loads that can act:
 *  - ready_: loads that can start now (no producer, or a ready or
 *    retired one; not parked);
 *  - parkedLoads_: loads that got Retry at wake epoch parkEpoch_; they
 *    join ready_ as soon as CacheHierarchy::wakeEpoch() moves;
 *  - timed_: loads whose producer's data arrives at a known future
 *    cycle; they join ready_ at that cycle;
 *  - a load whose producer's data time is not yet known hangs off the
 *    producer (RobEntry::consumerSeq) and joins ready_ or timed_ when
 *    the producer's readyAt is set: by a hit in startLoad() or by the
 *    fill in onMemResponse().
 *
 * Invariants the index keeps (the lockstep test in tests/cpu checks
 * them against a full scan of every pending load each cycle):
 *  - within a cycle, loads start in ascending seq order;
 *  - a load with a producer is first tried the cycle after it issues,
 *    even when its producer is already ready;
 *  - a parked load that a miss earlier in the same scan unparks (an
 *    MSHR allocation moves the wake epoch) starts later in that scan
 *    if its seq is higher, and next cycle otherwise;
 *  - quiescentAt() and nextLocalEventCpu() answer exactly what a scan
 *    of every pending load would, so the skip engine's stepped and
 *    skipped cycles and its wake reasons do not depend on the index.
 */
class Core
{
  public:
    /** Build a core pulling from @p trace and accessing @p mem. Throws
     *  SimError(Config) unless 1 <= robSize <= kMaxRobSize. */
    Core(const CoreConfig &cfg, CacheHierarchy &mem,
         trace::TraceSource &trace);

    /** Advance one CPU cycle (@p now is the CPU cycle number). */
    void cpuCycle(std::uint64_t now);

    /** A memory fill for @p block_addr returned at CPU cycle @p now. */
    void onMemResponse(Addr block_addr, std::uint64_t now);

    /** True when the trace is exhausted and the ROB has drained. */
    bool done() const { return traceEnded_ && robEmpty(); }

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
    std::size_t robOccupancy() const { return nextSeq_ - frontSeq_; }

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
        bool isChainHead = false; //!< member of a dependence chain
        Addr addr = 0;
        std::uint64_t seq = 0;
        std::uint64_t readyAt = kTickMax; //!< CPU cycle result is ready
        std::uint64_t producerSeq = kTickMax; //!< dep-chain producer
        /** The chain load waiting for this one's readyAt to be set. */
        std::uint64_t consumerSeq = kTickMax;
        /** Hierarchy wake epoch of the last Retry; kUnparked if none. */
        std::uint64_t parkedEpoch = kUnparked;
    };

    /** A set of ROB ring slots: one bit per slot. */
    class SlotSet
    {
      public:
        explicit SlotSet(std::size_t slots) : words_((slots + 63) / 64) {}

        bool empty() const { return count_ == 0; }

        void
        insert(std::size_t s)
        {
            words_[s >> 6] |= bit(s);
            count_ += 1;
        }

        void
        erase(std::size_t s)
        {
            words_[s >> 6] &= ~bit(s);
            count_ -= 1;
        }

        /** Move every member of @p o (disjoint from this set) here. */
        void
        absorb(SlotSet &o)
        {
            for (std::size_t i = 0; i < words_.size(); ++i) {
                words_[i] |= o.words_[i];
                o.words_[i] = 0;
            }
            count_ += o.count_;
            o.count_ = 0;
        }

        /** Lowest member in [@p from, @p to), or @p to when none. */
        std::size_t
        next(std::size_t from, std::size_t to) const
        {
            if (from >= to)
                return to;
            std::size_t w = from >> 6;
            std::uint64_t bits = words_[w] & ~(bit(from) - 1);
            const std::size_t last = (to - 1) >> 6;
            while (bits == 0) {
                if (++w > last)
                    return to;
                bits = words_[w];
            }
            const std::size_t s = (w << 6) + std::countr_zero(bits);
            return s < to ? s : to;
        }

      private:
        static std::uint64_t
        bit(std::size_t s)
        {
            return std::uint64_t{1} << (s & 63);
        }

        std::vector<std::uint64_t> words_;
        std::size_t count_ = 0;
    };

    /** A pending load whose producer's data is ready at cycle @p at. */
    struct TimedLoad
    {
        std::uint64_t at;
        std::uint64_t seq;
    };

    bool robEmpty() const { return frontSeq_ == nextSeq_; }
    std::size_t slotOf(std::uint64_t seq) const { return seq & robMask_; }
    RobEntry &front() { return rob_[slotOf(frontSeq_)]; }
    const RobEntry &front() const { return rob_[slotOf(frontSeq_)]; }

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
        return !robEmpty() && front().op == trace::TraceInstr::Op::Store &&
               parked(front());
    }

    /** Record a Retry of @p e (park) or its success (unpark). */
    void park(RobEntry &e);
    void unpark(RobEntry &e);

    /** The live entry of @p seq, or null when it retired (or is not
     *  issued yet). */
    RobEntry *
    entryOf(std::uint64_t seq)
    {
        return seq - frontSeq_ < nextSeq_ - frontSeq_ ? &rob_[slotOf(seq)]
                                                      : nullptr;
    }
    const RobEntry *
    entryOf(std::uint64_t seq) const
    {
        return seq - frontSeq_ < nextSeq_ - frontSeq_ ? &rob_[slotOf(seq)]
                                                      : nullptr;
    }

    /** Lowest seq >= @p from (a live seq or nextSeq_) in @p set, or
     *  nextSeq_ when none: walks the ring in seq order. */
    std::uint64_t nextIn(const SlotSet &set, std::uint64_t from) const;
    /** The parked loads may probe again: the wake epoch moved. */
    bool parkedLoadsWoken() const
    {
        return !parkedLoads_.empty() && parkEpoch_ != mem_.wakeEpoch();
    }
    /** Move woken parked loads to ready_. */
    void wakeParkedLoads();
    /** Load @p seq can start once its producer's data is ready at @p at. */
    void schedule(std::uint64_t seq, std::uint64_t at, std::uint64_t now);
    /** @p p's readyAt was just set: its waiting consumer is scheduled. */
    void producerKnown(const RobEntry &p, std::uint64_t now);

    /** Try to send a load to the hierarchy; false on resource retry,
     *  which parks it. */
    bool startLoad(RobEntry &e, std::uint64_t now);
    void retire(std::uint64_t now);
    void startPendingLoads(std::uint64_t now);
    void issue(std::uint64_t now);

    CoreConfig cfg_;
    CacheHierarchy &mem_;
    trace::TraceSource &trace_;

    std::vector<RobEntry> rob_; //!< ring, indexed by seq & robMask_
    std::uint64_t robMask_;
    std::uint64_t frontSeq_ = 0; //!< seq of the ROB head
    std::uint64_t nextSeq_ = 0;  //!< seq of the next issued instruction

    SlotSet ready_;       //!< pending loads that can start now
    SlotSet parkedLoads_; //!< pending loads parked at parkEpoch_
    std::uint64_t parkEpoch_ = 0;
    std::vector<TimedLoad> timed_; //!< at most one per chain

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
