/**
 * @file
 * Fig. 3: loop unrolling monotonically reduces dynamic IR
 * instructions while assembly instructions eventually rise again
 * (register pressure) — the expander motivation (§2.5).
 */

#include <future>

#include "../bench/common.h"
#include "backend/compiler.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "support/threadpool.h"
#include "transform/expander.h"
#include "uarch/fast_core.h"

using namespace bitspec;

int
main()
{
    bench::printHeader(
        "Figure 3: loop unrolling vs dynamic instructions",
        "Accumulation kernel; unroll factor sweep on the baseline "
        "architecture.\nIR = dynamic IR instructions, ASM = dynamic "
        "machine instructions.");

    const char *src = R"(
        u32 data[1024];
        u32 main() {
            u32 h = 0;
            for (u32 i = 0; i < 1024; i++)
                h = h * 31 + (data[i] ^ (h >> 7)) + (data[i] >> 3);
            return h;
        }
    )";

    std::printf("%-8s %12s %12s\n", "factor", "IR", "ASM");
    // Each unroll factor is an independent compile+run; fan them out
    // across the pool and print rows in factor order.
    ThreadPool pool;
    std::vector<std::future<std::string>> rows;
    for (unsigned factor : {1u, 2u, 4u, 8u, 16u}) {
        rows.push_back(pool.submit([src, factor]() -> std::string {
            auto mod = compileSource(src);
            Global *g = mod->getGlobal("data");
            for (size_t i = 0; i < g->elemCount(); ++i)
                g->setElem(i, (i * 2654435761u) & 0xffff);

            ExpanderOptions opts;
            opts.unrollFactor = factor;
            opts.maxLoopSize = 400;
            opts.maxFunctionSize = 8000;
            expandModule(*mod, opts);

            Interpreter in(*mod);
            in.run("main");

            CompiledProgram cp =
                compileModule(*mod, TargetISA::Baseline);
            PredecodedProgram pre(cp.program);
            FastCore core(pre, *mod);
            core.run();

            return strFormat(
                "%-8u %12llu %12llu\n", factor,
                static_cast<unsigned long long>(in.stats().steps),
                static_cast<unsigned long long>(
                    core.counters().instructions));
        }));
    }
    for (auto &row : rows)
        std::fputs(row.get().c_str(), stdout);
    return 0;
}
