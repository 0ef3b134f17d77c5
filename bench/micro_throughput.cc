/**
 * @file
 * google-benchmark microbenchmarks of the infrastructure itself:
 * interpreter throughput, core-model throughput (a micro loop and
 * three real workloads), the squeezer's and the backend's throughput
 * on three real workloads each, compilation and squeezing latency. Not a paper
 * artefact — an engineering health check for this reproduction.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "backend/compiler.h"
#include "core/system.h"
#include "support/log.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "ir/clone.h"
#include "profile/bitwidth_profile.h"
#include "transform/squeezer.h"
#include "uarch/fast_core.h"
#include "workloads/workload.h"

using namespace bitspec;

namespace
{

const char *kKernel = R"(
    u32 data[256];
    u32 main(u32 n) {
        u32 h = 0;
        for (u32 r = 0; r < n; r++)
            for (u32 i = 0; i < 256; i++)
                h = h * 31 + (data[i] ^ (h >> 5));
        return h;
    }
)";

void
BM_InterpreterThroughput(benchmark::State &state)
{
    auto mod = compileSource(kKernel);
    Interpreter in(*mod);
    uint64_t steps = 0;
    for (auto _ : state) {
        in.run("main", {64});
        steps = in.stats().steps;
    }
    state.counters["ir_instrs_per_s"] = benchmark::Counter(
        static_cast<double>(steps), benchmark::Counter::kIsRate);
}

void
BM_InterpreterProfiledThroughput(benchmark::State &state)
{
    // The profiler's hot path: the built-in value profile.
    auto mod = compileSource(kKernel);
    uint64_t steps = 0;
    for (auto _ : state) {
        BitwidthProfile profile;
        Interpreter in(*mod);
        profile.profileRun(in, "main", {8});
        steps += in.stats().steps; // Fresh interpreter per iteration.
        benchmark::DoNotOptimize(profile.totalAssignments());
    }
    state.counters["ir_instrs_per_s"] = benchmark::Counter(
        static_cast<double>(steps), benchmark::Counter::kIsRate);
}

void
BM_CoreThroughput(benchmark::State &state)
{
    auto mod = compileSource(kKernel);
    CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
    // kIsRate divides the counter by the TOTAL elapsed time of every
    // iteration, so the retire count must accumulate across
    // iterations (core counters restart per run, unlike the
    // interpreter's cumulative stats().steps above).
    uint64_t instrs = 0;
    // Pre-decode is per-program, outside the timed loop (System
    // builds it once). The core is reused, so its block memos carry
    // across iterations and the loop times the core alone; System
    // instead builds a fresh core, and its memos, per run.
    PredecodedProgram pre(cp.program);
    FastCore core(pre, *mod);
    for (auto _ : state) {
        core.reset();
        core.run({64});
        instrs += core.counters().instructions;
    }
    state.counters["machine_instrs_per_s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}

/** The core on a real workload: System::run on a System built
 *  beforehand (bitspec under heuristic @p h, input seed 0), so an
 *  iteration times what every experiment cell pays — a fresh
 *  FastCore, building the memos it replays. Items are retired machine
 *  instructions. */
void
BM_CoreWorkload(benchmark::State &state, const char *name, Heuristic h)
{
    const Workload &w = getWorkload(name);
    auto input = [&w](Module &m) { w.setInput(m, 0); };
    const System sys(w.source, SystemConfig::bitspec(h), input);
    uint64_t instrs = 0;
    for (auto _ : state) {
        RunResult r = sys.run(input);
        instrs += r.counters.instructions;
        benchmark::DoNotOptimize(r.outputChecksum);
    }
    state.SetItemsProcessed(static_cast<int64_t>(instrs));
}

/** The squeezer on a real workload: what System does before the
 *  backend — clone the trained module with a value map, re-key the
 *  training profile onto the copy and squeeze it at bitspec-max, the
 *  final verify included. Training runs once, outside the loop. Items
 *  are the IR instructions of the module squeezed. */
void
BM_SqueezeWorkload(benchmark::State &state, const char *name)
{
    const Workload &w = getWorkload(name);
    const TrainedModule trained(w.source, ExpanderOptions{},
                                [&w](Module &m) { w.setInput(m, 0); });
    const SqueezeOptions opts =
        SystemConfig::bitspec(Heuristic::Max).squeezeOpts;
    int64_t insts = 0;
    for (const auto &f : trained.module().functions())
        insts += static_cast<int64_t>(f->instructionCount());
    int64_t items = 0;
    for (auto _ : state) {
        ValueMap copy_of;
        auto mod = cloneModule(trained.module(), &copy_of);
        SqueezeStats st = squeezeModule(
            *mod, trained.profile().rekeyed(copy_of), opts);
        benchmark::DoNotOptimize(st.narrowed);
        items += insts;
    }
    state.SetItemsProcessed(items);
}

/** The backend on a real workload: compileModule (instruction
 *  selection, allocation, layout, MIR verification, linking) on the
 *  bitspec-max squeezed module. Training and the squeeze run once;
 *  each iteration compiles a fresh clone of the squeezed module,
 *  cloned (and the last program freed) outside the timed region, as
 *  the backend splits the clone's critical edges. Items are linked
 *  static instructions. */
void
BM_BackendWorkload(benchmark::State &state, const char *name)
{
    const Workload &w = getWorkload(name);
    const TrainedModule trained(w.source, ExpanderOptions{},
                                [&w](Module &m) { w.setInput(m, 0); });
    const SystemConfig cfg = SystemConfig::bitspec(Heuristic::Max);
    ValueMap copy_of;
    const std::unique_ptr<Module> squeezed =
        cloneModule(trained.module(), &copy_of);
    squeezeModule(*squeezed, trained.profile().rekeyed(copy_of),
                  cfg.squeezeOpts);
    std::unique_ptr<Module> mod;
    CompiledProgram cp;
    int64_t items = 0;
    for (auto _ : state) {
        state.PauseTiming();
        cp = CompiledProgram{};
        mod = cloneModule(*squeezed);
        state.ResumeTiming();
        cp = compileModule(*mod, cfg.isa);
        items += static_cast<int64_t>(cp.program.flat.size());
    }
    state.SetItemsProcessed(items);
}

void
BM_CompileBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        auto mod = compileSource(kKernel);
        CompiledProgram cp = compileModule(*mod, TargetISA::Baseline);
        benchmark::DoNotOptimize(cp.program.flat.size());
    }
}

void
BM_SqueezePipeline(benchmark::State &state)
{
    for (auto _ : state) {
        auto mod = compileSource(kKernel);
        BitwidthProfile profile;
        profile.profileRun(*mod, "main", {4});
        SqueezeOptions opts;
        squeezeModule(*mod, profile, opts);
        CompiledProgram cp = compileModule(*mod, TargetISA::BitSpec);
        benchmark::DoNotOptimize(cp.program.flat.size());
    }
}

void
BM_FullSystemBuild(benchmark::State &state)
{
    const Workload &w = getWorkload("CRC32");
    for (auto _ : state) {
        System sys(w.source, SystemConfig::bitspec(),
                   [&](Module &m) { w.setInput(m, 0); });
        benchmark::DoNotOptimize(&sys);
    }
}

// The names keep the engine suffixes they had when each tier carried
// two engines, so the gated rate.* series (obs/trajectory.cc) keep
// their history.
BENCHMARK(BM_InterpreterThroughput)
    ->Name("BM_InterpreterThroughput/decoded");
BENCHMARK(BM_InterpreterProfiledThroughput)
    ->Name("BM_InterpreterProfiledThroughput/decoded");
BENCHMARK(BM_CoreThroughput)->Name("BM_CoreThroughput/fast");
// Read into the trajectory as rate.core_workload_<name>_per_s. The
// bitspec-max runs redirect rarely; susan-edges-min (bitspec-min)
// redirects once, early, then runs the original code, heavy in spills
// and copies, as most of perfbench's cross-input grid does.
BENCHMARK_CAPTURE(BM_CoreWorkload, susan_edges, "susan-edges",
                  Heuristic::Max)
    ->Name("BM_CoreWorkload/susan-edges");
BENCHMARK_CAPTURE(BM_CoreWorkload, susan_edges_min, "susan-edges",
                  Heuristic::Min)
    ->Name("BM_CoreWorkload/susan-edges-min");
BENCHMARK_CAPTURE(BM_CoreWorkload, stringsearch, "stringsearch",
                  Heuristic::Max)
    ->Name("BM_CoreWorkload/stringsearch");
BENCHMARK_CAPTURE(BM_CoreWorkload, qsort, "qsort", Heuristic::Max)
    ->Name("BM_CoreWorkload/qsort");
// Read into the trajectory as rate.squeeze_workload_<name>_per_s:
// qsort and rijndael are the two largest squeezes of the suite.
BENCHMARK_CAPTURE(BM_SqueezeWorkload, qsort, "qsort")
    ->Name("BM_SqueezeWorkload/qsort");
BENCHMARK_CAPTURE(BM_SqueezeWorkload, rijndael, "rijndael")
    ->Name("BM_SqueezeWorkload/rijndael");
BENCHMARK_CAPTURE(BM_SqueezeWorkload, susan_edges, "susan-edges")
    ->Name("BM_SqueezeWorkload/susan-edges");
// Read into the trajectory as rate.backend_workload_<name>_per_s: the
// three largest backends at bitspec-max.
BENCHMARK_CAPTURE(BM_BackendWorkload, qsort, "qsort")
    ->Name("BM_BackendWorkload/qsort");
BENCHMARK_CAPTURE(BM_BackendWorkload, rijndael, "rijndael")
    ->Name("BM_BackendWorkload/rijndael");
BENCHMARK_CAPTURE(BM_BackendWorkload, stringsearch, "stringsearch")
    ->Name("BM_BackendWorkload/stringsearch");
BENCHMARK(BM_CompileBaseline);
BENCHMARK(BM_SqueezePipeline);
BENCHMARK(BM_FullSystemBuild);

#ifndef NDEBUG
/** Loud tripwire: debug-built rates must never enter the perf
 *  trajectory unflagged. bench_gate additionally tags the history
 *  record debug_build=true (from the benchmark JSON context), so a
 *  debug run can never become the rolling baseline for release
 *  runs. */
struct DebugBuildWarning
{
    DebugBuildWarning()
    {
        log::warn("micro_throughput built without NDEBUG: throughput "
                  "numbers are NOT comparable to release records");
    }
} g_debugBuildWarning;
#endif

} // namespace

BENCHMARK_MAIN();
