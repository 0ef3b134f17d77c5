#include "support/hash.h"

#include <bit>
#include <cstdio>

namespace bitspec
{

namespace
{

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

} // namespace

std::string
Hash128::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

Hash128Builder::Hash128Builder()
{
    h_.hi = kFnv1aOffset;
    h_.lo = kGolden;
}

void
Hash128Builder::update(const void *data, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t hi = h_.hi, lo = h_.lo;
    for (size_t i = 0; i < size; ++i) {
        hi = fnv1aStep(hi, p[i]);
        lo ^= p[i] + kGolden + (lo << 6) + (lo >> 2);
    }
    h_.hi = hi;
    h_.lo = lo;
}

void
Hash128Builder::updateU64(uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    update(b, sizeof b);
}

void
Hash128Builder::updateDouble(double v)
{
    updateU64(std::bit_cast<uint64_t>(v));
}

} // namespace bitspec
