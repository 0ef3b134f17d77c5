/**
 * @file
 * Bit-level utilities shared across the compiler and the simulator.
 *
 * The central definition is requiredBits(), the paper's
 * RequiredBits(a) = floor(lg a + 1): the number of low-order bits needed
 * to store a value without information loss under zero extension.
 *
 * The width helpers here run once per interpreted IR instruction and
 * once per simulated machine instruction, so the hot ones are defined
 * inline; all take bits in [1, 64] (checked only in debug builds).
 */

#ifndef BITSPEC_SUPPORT_BITS_H_
#define BITSPEC_SUPPORT_BITS_H_

#include <bit>
#include <cassert>
#include <cstdint>

namespace bitspec
{

/**
 * Number of bits required to represent @p value under zero extension.
 *
 * requiredBits(0) == 1 by convention (one bit stores a zero), matching
 * the paper's floor(lg a + 1) with the a == 0 case pinned to 1.
 */
inline unsigned
requiredBits(uint64_t value)
{
    if (value == 0)
        return 1;
    return 64u - static_cast<unsigned>(std::countl_zero(value));
}

/**
 * Round a bit count up to the nearest storage class used throughout the
 * paper's figures: 8, 16, 32 or 64.
 */
inline unsigned
bitwidthClass(unsigned bits)
{
    if (bits <= 8)
        return 8;
    if (bits <= 16)
        return 16;
    if (bits <= 32)
        return 32;
    return 64;
}

/** Mask covering the low @p bits bits (bits in [1, 64]). */
inline uint64_t
lowMask(unsigned bits)
{
    assert(bits >= 1 && bits <= 64 && "lowMask: bits out of range");
    return ~0ULL >> (64u - bits);
}

/** Truncate @p value to its low @p bits bits. */
inline uint64_t
truncTo(uint64_t value, unsigned bits)
{
    return value & lowMask(bits);
}

/** Zero-extend the low @p bits bits of @p value to 64 bits. */
inline uint64_t
zextFrom(uint64_t value, unsigned bits)
{
    return truncTo(value, bits);
}

/** Sign-extend the low @p bits bits of @p value to 64 bits. */
inline uint64_t
sextFrom(uint64_t value, unsigned bits)
{
    assert(bits >= 1 && bits <= 64 && "sextFrom: bits out of range");
    uint64_t v = truncTo(value, bits);
    uint64_t sign = 1ULL << (bits - 1);
    return (v ^ sign) - sign;
}

} // namespace bitspec

#endif // BITSPEC_SUPPORT_BITS_H_
