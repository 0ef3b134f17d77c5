#include "support/mapped_bytes.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

namespace bitspec
{

MappedBytes::MappedBytes(size_t size)
{
    if (size == 0)
        return;
    void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    bytes_ = {static_cast<uint8_t *>(p), size};
}

MappedBytes::~MappedBytes()
{
    if (!bytes_.empty())
        munmap(bytes_.data(), bytes_.size());
}

void
MappedBytes::zero()
{
    // A private anonymous mapping reads as zeros after MADV_DONTNEED.
    if (!bytes_.empty() &&
        madvise(bytes_.data(), bytes_.size(), MADV_DONTNEED) != 0)
        std::fill(bytes_.begin(), bytes_.end(), 0);
}

} // namespace bitspec
