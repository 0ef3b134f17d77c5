/**
 * @file
 * The 128-bit incremental content hash that keys the experiment
 * engine's System and training caches.
 *
 * Hash128 is not cryptographic. It is two independent 64-bit lanes —
 * FNV-1a plus a golden-ratio mix — which is plenty for cache keying:
 * a colliding pair would have to agree in both lanes.
 */

#ifndef BITSPEC_SUPPORT_HASH_H_
#define BITSPEC_SUPPORT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace bitspec
{

/** A 128-bit hash value; usable as an unordered_map key. */
struct Hash128
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const Hash128 &) const = default;

    /** 32 lowercase hex digits (hi then lo); stable across runs. */
    std::string hex() const;
};

/** Functor for unordered containers keyed by Hash128. */
struct Hash128Hasher
{
    size_t
    operator()(const Hash128 &k) const
    {
        return static_cast<size_t>(k.lo ^
                                   (k.hi * 0x9e3779b97f4a7c15ULL));
    }
};

/** Incremental Hash128 builder. Deterministic across processes and
 *  platforms (byte-oriented, no pointer or layout dependence). */
class Hash128Builder
{
  public:
    Hash128Builder();

    void update(const void *data, size_t size);
    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Canonical little-endian encodings so integer fields hash
     *  identically regardless of host width. */
    void updateU64(uint64_t v);
    void updateDouble(double v); ///< By bit pattern (%.17g-faithful).

    Hash128 digest() const { return h_; }

  private:
    Hash128 h_;
};

} // namespace bitspec

#endif // BITSPEC_SUPPORT_HASH_H_
