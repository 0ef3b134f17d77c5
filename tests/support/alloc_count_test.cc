/**
 * @file
 * Heap allocations on per-step paths, counted by replacing the global
 * operator new in this binary (hence a binary of its own): a holding
 * bsAssert with a literal message allocates nothing, and a profiled
 * training run allocates per run, not per load or store it executes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

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

/** Loads plus stores a plain run of @p m's main executes. The value
 *  profile counts each value-producing instruction's executions: a
 *  load its own, a store those of its block's first value-producing
 *  instruction (the module is unsqueezed, so a block once entered
 *  runs to its end). */
uint64_t
memoryAccesses(Module &m)
{
    Interpreter interp(m);
    interp.enableValueProfile();
    interp.run("main", {});
    std::vector<Interpreter::ValueProfileEntry> executed =
        interp.valueProfile();
    const std::less<const Instruction *> before;
    std::sort(executed.begin(), executed.end(),
              [&](const auto &a, const auto &b) {
                  return before(a.inst, b.inst);
              });
    auto count = [&](const Instruction *inst) -> uint64_t {
        auto it = std::lower_bound(
            executed.begin(), executed.end(), inst,
            [&](const auto &e, const Instruction *i) {
                return before(e.inst, i);
            });
        return it != executed.end() && it->inst == inst ? it->count : 0;
    };

    uint64_t accesses = 0;
    for (const auto &f : m.functions()) {
        for (const auto &bb : f->blocks()) {
            const Instruction *counted = nullptr;
            uint64_t stores = 0;
            for (const auto &inst : bb->insts()) {
                if (!counted && !inst->type().isVoid())
                    counted = inst.get();
                if (inst->op() == Opcode::Load)
                    accesses += count(inst.get());
                stores += inst->op() == Opcode::Store;
            }
            if (stores == 0)
                continue;
            if (!counted) {
                ADD_FAILURE() << f->name() << ":" << bb->name()
                              << " stores but produces no value to "
                                 "count its executions by";
                continue;
            }
            accesses += stores * count(counted);
        }
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
