#include "support/hash.h"

#include <cstdio>
#include <cstring>

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
WordHash128::addBytes(const void *data, size_t size)
{
    const auto *p = static_cast<const uint8_t *>(data);
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        add(w);
    }
    if (i < size) {
        uint64_t w = 0;
        std::memcpy(&w, p + i, size - i);
        add(w);
    }
    add(size);
}

Hash128
WordHash128::digest() const
{
    // The murmur3 finalizer per lane, so every input bit reaches
    // every output bit, with the word count folded in.
    auto fmix = [](uint64_t k) {
        k ^= k >> 33;
        k *= 0xff51afd7ed558ccdULL;
        k ^= k >> 33;
        k *= 0xc4ceb9fe1a85ec53ULL;
        k ^= k >> 33;
        return k;
    };
    return {fmix(a_ ^ words_), fmix(b_ + words_)};
}

} // namespace bitspec
