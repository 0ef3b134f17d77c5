/**
 * @file
 * A zero-initialised byte buffer backed by an anonymous private
 * mapping: the data memory of both execution tiers (the Interpreter
 * and FastCore).
 *
 * Pages cost no RSS until first written, so a 4 MiB memory of which a
 * run touches a few pages never writes the rest. zero() hands the
 * pages back to the OS instead of writing 4 MiB of zeros; they read
 * as zeros again and are faulted in on next touch. Destruction unmaps
 * the buffer rather than returning it to the heap, where the compiles
 * between runs would fragment it.
 */

#ifndef BITSPEC_SUPPORT_MAPPED_BYTES_H_
#define BITSPEC_SUPPORT_MAPPED_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace bitspec
{

class MappedBytes
{
  public:
    /** Maps @p size zero bytes; throws std::bad_alloc on failure. */
    explicit MappedBytes(size_t size);
    ~MappedBytes();
    MappedBytes(const MappedBytes &) = delete;
    MappedBytes &operator=(const MappedBytes &) = delete;

    std::span<uint8_t> bytes() const { return bytes_; }

    /** Make every byte read as zero again by dropping the pages. */
    void zero();

  private:
    std::span<uint8_t> bytes_;
};

} // namespace bitspec

#endif // BITSPEC_SUPPORT_MAPPED_BYTES_H_
