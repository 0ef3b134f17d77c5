/**
 * @file
 * Heap allocations on per-step paths, counted by replacing the global
 * operator new in this binary (hence a binary of its own): a holding
 * bsAssert with a literal message allocates nothing, and a profiled
 * training run allocates per run, not per load or store it executes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "profile/bitwidth_profile.h"
#include "support/error.h"
#include "transform/expander.h"
#include "workloads/workload.h"

// Every form that pairs with the plain operator delete is replaced,
// so memory from any of them is freed the way it was allocated (a
// sanitizer runtime checks that). Aligned forms keep their own pairs.
namespace
{

std::atomic<uint64_t> g_newCalls{0};

void *
countedAlloc(std::size_t n) noexcept
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

// Kept out of line: inlined into a new-expression's cleanup, free()
// of an operator new pointer trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace bitspec
{
namespace
{

uint64_t
newCalls()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

TEST(AllocCount, HoldingLiteralAssertAllocatesNothing)
{
    // Longer than any short-string buffer: as a std::string argument
    // it would be heap-allocated on every call.
    static constexpr char kMessage[] = "a thirty-character message....";
    static_assert(sizeof kMessage == 31);
    // Read at run time, so the compiler cannot drop the assertion.
    volatile bool holds = true;

    const uint64_t before = newCalls();
    for (int i = 0; i < 100; ++i)
        bsAssert(holds, kMessage);
    bsAssert(holds, "a thirty-character literal....");
    EXPECT_EQ(newCalls() - before, 0u);

    EXPECT_THROW(bsAssert(!holds, kMessage), PanicError);
}

/** Loads plus stores a plain run of @p m's main executes: each block's
 *  entries times its static loads and stores. */
uint64_t
memoryAccesses(Module &m)
{
    Interpreter interp(m);
    interp.setBlockProfile(true);
    interp.run("main", {});
    uint64_t accesses = 0;
    for (const auto &b : interp.blockProfile()) {
        const BasicBlock *bb = nullptr;
        for (const auto &candidate : b.function->blocks())
            if (candidate->name() == b.blockName)
                bb = candidate.get();
        EXPECT_NE(bb, nullptr) << b.blockName;
        if (!bb)
            continue;
        uint64_t per_entry = 0;
        for (const auto &inst : bb->insts())
            per_entry += inst->op() == Opcode::Load ||
                         inst->op() == Opcode::Store;
        accesses += b.entries * per_entry;
    }
    return accesses;
}

TEST(AllocCount, ProfiledTrainingRunAllocatesPerRunNotPerAccess)
{
    // TrainedModule's profiled run. It allocates for decoding and
    // the profile (about 700 times here); one allocation per
    // interpreted load or store would add about 28,000.
    const Workload &w = getWorkload("CRC32");
    std::unique_ptr<Module> m = compileSource(w.source);
    w.setInput(*m, 0);
    expandModule(*m, ExpanderOptions{});
    const uint64_t accesses = memoryAccesses(*m);
    ASSERT_GT(accesses, 10'000u);

    const uint64_t before = newCalls();
    {
        Interpreter interp(*m);
        BitwidthProfile profile;
        profile.profileRun(interp, "main", {});
    }
    const uint64_t allocations = newCalls() - before;
    EXPECT_LT(allocations, accesses / 10)
        << accesses << " loads and stores";
}

} // namespace
} // namespace bitspec
