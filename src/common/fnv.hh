/**
 * @file
 * FNV-1a (64-bit), the repo's cheap non-cryptographic digest: sweep
 * journal config keys, content-addressed scratch trace names and the
 * critical-path access-record digest. Pass a previous digest as @p h
 * to extend it over more bytes.
 */

#ifndef BURSTSIM_COMMON_FNV_HH
#define BURSTSIM_COMMON_FNV_HH

#include <cstdint>
#include <string_view>

namespace bsim
{

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;

/** FNV-1a of @p bytes, continuing from digest @p h. */
constexpr std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = kFnv1aOffset)
{
    for (const char c : bytes) {
        h ^= std::uint8_t(c);
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace bsim

#endif // BURSTSIM_COMMON_FNV_HH
