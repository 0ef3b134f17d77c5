/**
 * @file
 * The 128-bit incremental content hash that keys the experiment
 * engine's System and training caches, and the one 64-bit FNV-1a
 * step it shares with the output checksum of both execution tiers
 * and the cell key's source hash; and a word-at-a-time variant,
 * WordHash128, that keys the engine's simulation memo.
 *
 * Hash128 is not cryptographic. It is two independent 64-bit lanes —
 * FNV-1a plus a golden-ratio mix (WordHash128: two multiply-rotate
 * mixes) — which is plenty for cache keying: a colliding pair would
 * have to agree in both lanes.
 */

#ifndef BITSPEC_SUPPORT_HASH_H_
#define BITSPEC_SUPPORT_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace bitspec
{

/** The 64-bit FNV-1a offset basis: the hash of no bytes. */
constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/** One 64-bit FNV-1a step: @p h with byte @p byte folded in. */
constexpr uint64_t
fnv1aStep(uint64_t h, uint8_t byte)
{
    return (h ^ byte) * 0x100000001b3ULL;
}

/** @p h with the eight bytes of @p word folded in, least significant
 *  first: one output value of the Interpreter's and FastCore's
 *  shared outputChecksum(). */
constexpr uint64_t
fnv1aWord(uint64_t h, uint64_t word)
{
    for (unsigned b = 0; b < 8; ++b)
        h = fnv1aStep(h, static_cast<uint8_t>(word >> (8 * b)));
    return h;
}

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

    /** Canonical little-endian encoding, so integer fields hash
     *  identically regardless of host width. */
    void updateU64(uint64_t v);

    Hash128 digest() const { return h_; }

  private:
    Hash128 h_;
};

/**
 * Incremental Hash128 over 64-bit words, for keys over large inputs
 * that never leave the process (the pre-decoded code, a run's data
 * image), where Hash128Builder's byte loop would cost: two
 * independent multiply-rotate lanes take one word per step each. Its
 * digests differ from Hash128Builder's and follow the host's byte
 * order, so they key in-process memos only.
 */
class WordHash128
{
  public:
    void
    add(uint64_t w)
    {
        a_ = std::rotl((a_ ^ w) * 0x9e3779b97f4a7c15ULL, 29);
        b_ = std::rotl(b_ + w * 0xc2b2ae3d27d4eb4fULL, 31) *
             0x165667b19e3779f9ULL;
        ++words_;
    }

    /** @p size bytes, eight to a word (the last zero-padded), then
     *  @p size itself. */
    void addBytes(const void *data, size_t size);

    Hash128 digest() const;

  private:
    uint64_t a_ = kFnv1aOffset;
    uint64_t b_ = 0x9e3779b97f4a7c15ULL;
    uint64_t words_ = 0;
};

} // namespace bitspec

#endif // BITSPEC_SUPPORT_HASH_H_
