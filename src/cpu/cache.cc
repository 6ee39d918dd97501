#include "cpu/cache.hh"

#include <bit>

#include "common/error.hh"
#include "common/log.hh"

namespace bsim::cpu
{

namespace
{
std::uint32_t
log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        throwSimError(ErrorCategory::Config, "cache: %s (%llu) must be a power of two", what,
              static_cast<unsigned long long>(v));
    std::uint32_t b = 0;
    while ((std::uint64_t(1) << b) < v)
        ++b;
    return b;
}

std::uint32_t
checkedAssoc(std::uint32_t assoc)
{
    if (assoc == 0 || assoc > kMaxAssoc)
        throwSimError(ErrorCategory::Config,
                      "cache: assoc (%u) must be between 1 and %u", assoc,
                      kMaxAssoc);
    return assoc;
}

std::uint64_t
wayBit(std::uint32_t w)
{
    return std::uint64_t{1} << w;
}
} // namespace

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg),
      assoc_(checkedAssoc(cfg.assoc)),
      setMask_(cfg.numSets() - 1),
      offsetBits_(log2Exact(cfg.blockBytes, "blockBytes")),
      setBits_(log2Exact(cfg.numSets(), "numSets")),
      stride_(2 * std::size_t(assoc_) + 2),
      words_(cfg.numSets() * stride_, 0)
{
}

std::uint64_t
Cache::setOf(Addr addr) const
{
    return (addr >> offsetBits_) & setMask_;
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> (offsetBits_ + setBits_);
}

Addr
Cache::rebuild(std::uint64_t set, Addr tag) const
{
    return (tag << (offsetBits_ + setBits_)) | (set << offsetBits_);
}

std::uint32_t
Cache::find(const std::uint64_t *w, Addr tag) const
{
    for (std::uint64_t m = w[2 * assoc_]; m != 0; m &= m - 1) {
        const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
        if (w[way] == tag)
            return way;
    }
    return assoc_;
}

bool
Cache::access(Addr addr, bool is_write)
{
    std::uint64_t *w = setWords(setOf(addr));
    const std::uint32_t way = find(w, tagOf(addr));
    if (way == assoc_) {
        misses_ += 1;
        return false;
    }
    w[assoc_ + way] = ++useClock_;
    if (is_write)
        w[2 * assoc_ + 1] |= wayBit(way);
    hits_ += 1;
    return true;
}

bool
Cache::contains(Addr addr) const
{
    return find(setWords(setOf(addr)), tagOf(addr)) != assoc_;
}

Eviction
Cache::insert(Addr addr, bool dirty)
{
    const std::uint64_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    std::uint64_t *w = setWords(set);
    std::uint64_t *stamps = w + assoc_;
    std::uint64_t &valid = w[2 * assoc_];
    std::uint64_t &dirtyMask = w[2 * assoc_ + 1];

    // One pass over the valid ways: the block itself (a racing fill
    // just merges the dirty bit), else the true-LRU way.
    std::uint32_t lru = assoc_;
    for (std::uint64_t m = valid; m != 0; m &= m - 1) {
        const auto way = static_cast<std::uint32_t>(std::countr_zero(m));
        if (w[way] == tag) {
            stamps[way] = ++useClock_;
            if (dirty)
                dirtyMask |= wayBit(way);
            return {};
        }
        if (lru == assoc_ || stamps[way] < stamps[lru])
            lru = way;
    }

    // Prefer the first invalid way, else evict the LRU one.
    Eviction ev;
    const std::uint64_t full =
        assoc_ == 64 ? ~std::uint64_t{0} : wayBit(assoc_) - 1;
    std::uint32_t victim = lru;
    if (valid != full) {
        victim = static_cast<std::uint32_t>(std::countr_one(valid));
    } else {
        ev.valid = true;
        ev.dirty = (dirtyMask & wayBit(victim)) != 0;
        ev.addr = rebuild(set, w[victim]);
        if (ev.dirty)
            writebacks_ += 1;
    }
    w[victim] = tag;
    stamps[victim] = ++useClock_;
    valid |= wayBit(victim);
    dirtyMask = dirty ? dirtyMask | wayBit(victim)
                      : dirtyMask & ~wayBit(victim);
    return ev;
}

Eviction
Cache::invalidate(Addr addr)
{
    const std::uint64_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    std::uint64_t *w = setWords(set);
    const std::uint32_t way = find(w, tag);
    if (way == assoc_)
        return {};
    Eviction ev;
    ev.valid = true;
    ev.dirty = (w[2 * assoc_ + 1] & wayBit(way)) != 0;
    ev.addr = rebuild(set, tag);
    w[2 * assoc_] &= ~wayBit(way);
    w[2 * assoc_ + 1] &= ~wayBit(way);
    return ev;
}

} // namespace bsim::cpu
