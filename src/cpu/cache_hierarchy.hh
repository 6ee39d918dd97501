/**
 * @file
 * Two-level writeback cache hierarchy with MSHR merging.
 *
 * Mirrors the baseline machine of Table 3: 128 KB 2-way L1 D-cache and a
 * 2 MB 16-way L2, 64 B lines. Instruction fetch is assumed to hit (the
 * selected benchmarks are data bound). Main-memory reads are L2 load/fill
 * misses; main-memory writes are dirty L2 evictions — so the write
 * traffic the controller sees is bursty writeback traffic, as in the
 * paper. Tag state updates immediately; outstanding fills are tracked in
 * MSHRs so that accesses to in-flight blocks merge and wait.
 */

#ifndef BURSTSIM_CPU_CACHE_HIERARCHY_HH
#define BURSTSIM_CPU_CACHE_HIERARCHY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "cpu/cache.hh"

namespace bsim::cpu
{

/** Downstream port the hierarchy uses to reach main memory. */
class MemPort
{
  public:
    virtual ~MemPort() = default;
    /** Can @p n more requests be queued right now? */
    virtual bool canSend(unsigned n) const = 0;
    /** Queue a block read (cache fill); @p critical marks fills a
     *  serialized dependence chain is waiting on (Section 7). */
    virtual void sendRead(Addr block_addr, bool critical = false) = 0;
    /** Queue a block write (dirty writeback). */
    virtual void sendWrite(Addr block_addr) = 0;
};

/** Configuration of the hierarchy (Table 3 defaults). */
struct HierarchyConfig
{
    CacheConfig l1d{128 * 1024, 2, 64};
    CacheConfig l2{2 * 1024 * 1024, 16, 64};
    std::uint32_t l1LatencyCpu = 3;  //!< CPU cycles, load-to-use
    std::uint32_t l2LatencyCpu = 15; //!< CPU cycles
    std::uint32_t mshrs = 32;        //!< outstanding fill limit
};

/** Where an access was satisfied. */
enum class CacheOutcome : std::uint8_t
{
    L1Hit,
    L2Hit,
    Miss,   //!< memory read started (or merged into an in-flight fill)
    Retry,  //!< resources exhausted (MSHRs or memory queue); try again
};

/** Result of a hierarchy access. */
struct HierarchyResult
{
    CacheOutcome outcome = CacheOutcome::L1Hit;
    std::uint32_t latencyCpu = 0; //!< valid for L1Hit / L2Hit
};

/** Sentinel waiter id for accesses nobody waits on (stores). */
constexpr std::uint64_t kNoWaiter = ~std::uint64_t{0};

/** The L1D + L2 stack. */
class CacheHierarchy
{
  public:
    /** Build with @p cfg, sending misses/writebacks to @p port. */
    CacheHierarchy(const HierarchyConfig &cfg, MemPort &port);
    virtual ~CacheHierarchy() = default;

    /**
     * Perform a load (@p is_write false) or store (@p is_write true) to
     * the block of @p addr. When the access must wait for a memory fill
     * and @p waiter is not kNoWaiter, the waiter id is recorded and
     * handed back by onMemResponse(). A Retry has no side effect: it
     * counts no L1 or L2 miss, so each demand lookup is counted once,
     * by its final outcome. Virtual so that a test can record the
     * core's call sequence.
     */
    virtual HierarchyResult access(Addr addr, bool is_write,
                                   std::uint64_t waiter = kNoWaiter,
                                   bool critical = false);

    /**
     * A memory read for @p block_addr completed: releases the MSHR and
     * returns the ids waiting on it.
     */
    std::vector<std::uint64_t> onMemResponse(Addr block_addr);

    /**
     * The port made room: a queued request left it. Called by the
     * port's owner; wakes accesses parked on a full port.
     */
    void onPortRoom() { wakeEpoch_ += 1; }

    /**
     * Back-pressure wake epoch. It moves only on the three events that
     * can turn a Retry into a success: an MSHR is released
     * (onMemResponse), an MSHR is allocated (a merge becomes possible)
     * and the port makes room (onPortRoom). An access that got Retry
     * at epoch E gets Retry again while the epoch is still E, so its
     * caller may park it instead of re-probing.
     */
    std::uint64_t wakeEpoch() const { return wakeEpoch_; }

    /**
     * Steady-state warmup: install @p block in L2 (and in L1 when
     * @p also_l1), optionally dirty, without generating any memory
     * traffic or statistics. Used to start runs from a realistic warmed
     * state instead of a cold, writeback-free one.
     */
    void prefill(Addr block, bool dirty, bool also_l1 = false);

    /** Outstanding fill count. */
    std::size_t mshrsInUse() const { return mshr_.size(); }

    /** L1 data cache (stats access). */
    const Cache &l1d() const { return l1d_; }

    /** L2 cache (stats access). */
    const Cache &l2() const { return l2_; }

    /** Memory reads issued (fills). */
    std::uint64_t memReads() const { return memReads_; }

    /** Memory writes issued (dirty L2 writebacks). */
    std::uint64_t memWrites() const { return memWrites_; }

    /** Accesses merged into an in-flight fill. */
    std::uint64_t mshrMerges() const { return mshrMerges_; }

  private:
    Addr blockBase(Addr a) const
    {
        return a & ~Addr(cfg_.l1d.blockBytes - 1);
    }

    /** Fill @p block into L1 (and L2 on a memory fill), routing dirty
     *  victims downwards; may emit memory writes. */
    void fillL1(Addr block, bool dirty);

    HierarchyConfig cfg_;
    MemPort &port_;
    Cache l1d_;
    Cache l2_;
    std::unordered_map<Addr, std::vector<std::uint64_t>> mshr_;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
    std::uint64_t mshrMerges_ = 0;
    std::uint64_t wakeEpoch_ = 0;
};

} // namespace bsim::cpu

#endif // BURSTSIM_CPU_CACHE_HIERARCHY_HH
