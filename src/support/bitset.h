/**
 * @file
 * A fixed-size set of dense ids packed 64 to a word, for dataflow
 * fixpoints (liveness in the squeezer and the register allocator).
 *
 * The set is sized once at construction; ids must be below that size.
 * unionWith()/unionWithDifference() report whether they added
 * anything, which is all an iterate-to-fixpoint loop needs, and
 * forEach() visits members in ascending id order, so results derived
 * from it never depend on heap addresses.
 */

#ifndef BITSPEC_SUPPORT_BITSET_H_
#define BITSPEC_SUPPORT_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bitspec
{

class BitSet
{
  public:
    explicit BitSet(size_t size) : words_((size + 63) / 64) {}

    void set(size_t i) { words_[i / 64] |= bit(i); }

    bool test(size_t i) const { return (words_[i / 64] & bit(i)) != 0; }

    /** this |= @p o (same size); true when a bit was added. */
    bool
    unionWith(const BitSet &o)
    {
        uint64_t added = 0;
        for (size_t w = 0; w < words_.size(); ++w) {
            added |= o.words_[w] & ~words_[w];
            words_[w] |= o.words_[w];
        }
        return added != 0;
    }

    /** this |= @p o & ~@p minus (all the same size); true when a bit
     *  was added. */
    bool
    unionWithDifference(const BitSet &o, const BitSet &minus)
    {
        uint64_t added = 0;
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t in = o.words_[w] & ~minus.words_[w];
            added |= in & ~words_[w];
            words_[w] |= in;
        }
        return added != 0;
    }

    /** Call @p fn(id) for every member, in ascending id order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
                fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
        }
    }

  private:
    static uint64_t bit(size_t i) { return uint64_t{1} << (i % 64); }

    std::vector<uint64_t> words_;
};

} // namespace bitspec

#endif // BITSPEC_SUPPORT_BITSET_H_
