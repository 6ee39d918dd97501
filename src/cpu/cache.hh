/**
 * @file
 * Set-associative writeback cache with true-LRU replacement.
 *
 * Sets are flat: one allocation holds, per set, the ways' tags, their
 * LRU stamps, a valid mask and a dirty mask (one bit per way), so a
 * lookup reads the set's tags contiguously and walks only its valid
 * ways. The masks cap associativity at kMaxAssoc.
 *
 * The cache is a state container: lookups and fills update tag state
 * immediately; timing is applied by the CacheHierarchy/Core. Dirty
 * victims are returned to the caller, which routes them down the
 * hierarchy (eventually becoming main-memory writes — the only write
 * traffic the controller sees, as in the paper's writeback baseline).
 */

#ifndef BURSTSIM_CPU_CACHE_HH
#define BURSTSIM_CPU_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace bsim::cpu
{

/** Largest CacheConfig::assoc: one bit per way in a 64-bit mask. */
constexpr std::uint32_t kMaxAssoc = 64;

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 128 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t blockBytes = 64;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (std::uint64_t(assoc) * blockBytes);
    }

    bool operator==(const CacheConfig &) const = default;
};

/** Result of inserting a block. */
struct Eviction
{
    bool valid = false; //!< a victim was evicted
    bool dirty = false; //!< ... and it was dirty
    Addr addr = 0;      //!< victim block address
};

/** One level of writeback cache. */
class Cache
{
  public:
    /** Build with @p cfg; the set count and block size must be powers
     *  of two and 1 <= assoc <= kMaxAssoc (else SimError(Config)). */
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p addr; on a hit updates LRU and (for @p is_write) the
     * dirty bit. Returns true on hit.
     */
    bool access(Addr addr, bool is_write);

    /** Tag-only probe; no LRU update. */
    bool contains(Addr addr) const;

    /**
     * Insert the block of @p addr (marks dirty when @p dirty), evicting
     * the LRU way of its set when full.
     */
    Eviction insert(Addr addr, bool dirty);

    /** Invalidate @p addr if present; returns the eviction record. */
    Eviction invalidate(Addr addr);

    /** Hits observed by access(). */
    std::uint64_t hits() const { return hits_; }

    /** Misses observed by access(). */
    std::uint64_t misses() const { return misses_; }

    /** Dirty evictions produced by insert(). */
    std::uint64_t writebacks() const { return writebacks_; }

    /** Geometry. */
    const CacheConfig &config() const { return cfg_; }

    /** Same geometry, tag state, LRU stamps and counters. */
    bool operator==(const Cache &) const = default;

  private:
    /** Set @p set's words: assoc tags, assoc LRU stamps, the valid
     *  mask, then the dirty mask. */
    std::uint64_t *
    setWords(std::uint64_t set)
    {
        return &words_[set * stride_];
    }
    const std::uint64_t *
    setWords(std::uint64_t set) const
    {
        return &words_[set * stride_];
    }
    /** Way of @p tag among the valid ways of @p w, or assoc. */
    std::uint32_t find(const std::uint64_t *w, Addr tag) const;

    std::uint64_t setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr rebuild(std::uint64_t set, Addr tag) const;

    CacheConfig cfg_;
    std::uint32_t assoc_;
    std::uint64_t setMask_;
    std::uint32_t offsetBits_;
    std::uint32_t setBits_;
    std::size_t stride_; //!< words per set: 2 * assoc + 2
    std::vector<std::uint64_t> words_; //!< every set, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace bsim::cpu

#endif // BURSTSIM_CPU_CACHE_HH
