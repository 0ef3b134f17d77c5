#include "paper.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "analysis/demanded_bits.h"
#include "backend/compiler.h"
#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "obs/profiler.h"
#include "profile/bitwidth_profile.h"
#include "support/bits.h"
#include "support/stats.h"
#include "support/str.h"
#include "support/threadpool.h"
#include "transform/expander.h"
#include "uarch/fast_core.h"
#include "workloads/workload.h"

namespace bitspec::paper
{

namespace
{

void
printHeader(std::FILE *out, const std::string &title,
            const std::string &caption)
{
    std::fprintf(out, "\n==== %s ====\n%s\n\n", title.c_str(),
                 caption.c_str());
}

struct Hist
{
    uint64_t c[4] = {0, 0, 0, 0}; // 8/16/32/64.

    void
    add(unsigned bits, uint64_t n = 1)
    {
        unsigned cls = bitwidthClass(bits);
        c[cls == 8 ? 0 : cls == 16 ? 1 : cls == 32 ? 2 : 3] += n;
    }

    std::string
    str() const
    {
        uint64_t total = c[0] + c[1] + c[2] + c[3];
        if (total == 0)
            return "-";
        return strFormat("8b:%5.1f%%  16b:%5.1f%%  32b:%5.1f%%",
                         100.0 * c[0] / total, 100.0 * c[1] / total,
                         100.0 * (c[2] + c[3]) / total);
    }
};

/**
 * Fig. 1 (a-d): percentage of dynamic IR integer instructions at each
 * bitwidth under four selection techniques — (a) required bits,
 * (b) programmer-selected, (c) demanded-bits static analysis,
 * (d) basic-block-granularity coercion [Pokam et al.]. Profiles the
 * unexpanded module, so it keeps its own pipeline instead of the
 * runner's (expanded) trainings.
 */
void
fig01BitwidthSelection(ExperimentRunner &, std::FILE *out)
{
    printHeader(
        out, "Figure 1: bitwidth selection techniques",
        "Share of dynamic integer IR instructions per bitwidth class.\n"
        "(a) required  (b) programmer-selected  (c) demanded-bits  "
        "(d) basic-block max");

    // One self-contained task per workload; results are strings
    // printed in submission order so the table is identical to the
    // serial version regardless of thread count.
    ThreadPool pool;
    std::vector<std::future<std::string>> rows;
    for (const Workload &w : mibenchSuite()) {
        rows.push_back(pool.submit([&w]() -> std::string {
        auto mod = compileSource(w.source);
        w.setInput(*mod, 0);

        // Static analyses.
        std::map<const Instruction *, unsigned> demanded;
        for (const auto &f : mod->functions()) {
            DemandedBits db(*f);
            for (const auto &bb : f->blocks())
                for (const auto &inst : bb->insts())
                    if (inst->type().isInt())
                        demanded[inst.get()] = std::min(
                            inst->type().bits,
                            db.demandedWidth(inst.get()));
        }

        // Dynamic profiling run: collect required bits per
        // instruction (for the block max) and the histograms.
        Hist required, programmer, demand_hist;
        std::map<const Instruction *, unsigned> max_bits;
        std::map<const Instruction *, uint64_t> exec_count;
        {
            Interpreter in(*mod);
            in.onAssign = [&](const Instruction *inst, uint64_t v) {
                unsigned rb = requiredBits(v);
                required.add(rb);
                programmer.add(inst->type().bits);
                demand_hist.add(demanded.count(inst)
                                    ? demanded[inst]
                                    : inst->type().bits);
                unsigned &m = max_bits[inst];
                m = std::max(m, rb);
                ++exec_count[inst];
            };
            in.run("main");
        }

        // (d) coerce every variable to the max required bits seen in
        // its basic block.
        std::map<const BasicBlock *, unsigned> block_max;
        for (const auto &[inst, bits] : max_bits) {
            unsigned &m = block_max[inst->parent()];
            m = std::max(m, bits);
        }
        Hist block_hist;
        for (const auto &[inst, n] : exec_count)
            block_hist.add(block_max[inst->parent()], n);

        return strFormat("%-16s\n"
                         "  (a) required    %s\n"
                         "  (b) programmer  %s\n"
                         "  (c) demanded    %s\n"
                         "  (d) block max   %s\n",
                         w.name.c_str(), required.str().c_str(),
                         programmer.str().c_str(),
                         demand_hist.str().c_str(),
                         block_hist.str().c_str());
        }));
    }
    for (auto &row : rows)
        std::fputs(row.get().c_str(), out);
}

/**
 * Fig. 3: loop unrolling monotonically reduces dynamic IR
 * instructions while assembly instructions eventually rise again
 * (register pressure) — the expander motivation (§2.5). A private
 * kernel swept over unroll factors, outside the runner.
 */
void
fig03Unrolling(ExperimentRunner &, std::FILE *out)
{
    printHeader(
        out, "Figure 3: loop unrolling vs dynamic instructions",
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

    std::fprintf(out, "%-8s %12s %12s\n", "factor", "IR", "ASM");
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
        std::fputs(row.get().c_str(), out);
}

/**
 * Fig. 5: percent of dynamic integer instructions the profiler
 * classifies as 8/16/32 bits under T = MAX, AVG, MIN. Profiles the
 * unexpanded module, like Fig. 1.
 */
void
fig05Heuristics(ExperimentRunner &, std::FILE *out)
{
    printHeader(
        out, "Figure 5: profiler bitwidth selections per heuristic",
        "Share of dynamic assignments classified 8/16/32+ bits when "
        "T = MAX / AVG / MIN.");

    // One profiling run per workload, fanned out across the pool;
    // rows print in suite order.
    ThreadPool pool;
    std::vector<std::future<std::string>> rows;
    for (const Workload &w : mibenchSuite()) {
        rows.push_back(pool.submit([&w]() -> std::string {
            auto mod = compileSource(w.source);
            w.setInput(*mod, 0);
            BitwidthProfile p;
            p.profileRun(*mod);

            std::string line = strFormat("%-16s", w.name.c_str());
            for (Heuristic h :
                 {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
                auto hist = p.classHistogram(h);
                double total = static_cast<double>(hist[0] + hist[1] +
                                                   hist[2] + hist[3]);
                line += strFormat(
                    "  %s[8b:%5.1f%% 16b:%5.1f%% 32b:%5.1f%%]",
                    heuristicName(h), 100.0 * hist[0] / total,
                    100.0 * hist[1] / total,
                    100.0 * (hist[2] + hist[3]) / total);
            }
            line += "\n";
            return line;
        }));
    }
    for (auto &row : rows)
        std::fputs(row.get().c_str(), out);
}

/**
 * Fig. 8 (RQ0): energy consumption, dynamic instructions and EPI of
 * BITSPEC relative to BASELINE. The paper reports a 9.9% mean energy
 * reduction, up to 28.2% (rijndael).
 */
void
fig08Energy(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 8: energy / dynamic instructions / EPI",
                "All metrics are BITSPEC relative to BASELINE "
                "(lower is better).");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
    }
    std::vector<RunResult> res = runner.run(cells);

    std::vector<double> e_ratios, i_ratios, epi_ratios;
    std::fprintf(out, "%-16s %10s %10s %10s %10s\n", "benchmark",
                 "energy", "dyninst", "EPI", "misspecs");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &spec = res[k++];

        double e = spec.totalEnergy / base.totalEnergy;
        double i = static_cast<double>(spec.counters.instructions) /
                   static_cast<double>(base.counters.instructions);
        double epi = spec.epi / base.epi;
        e_ratios.push_back(e);
        i_ratios.push_back(i);
        epi_ratios.push_back(epi);
        std::fprintf(out, "%-16s %9.3f %10.3f %10.3f %10llu\n",
                     w.name.c_str(), e, i, epi,
                     static_cast<unsigned long long>(
                         spec.counters.misspeculations));
    }
    std::fprintf(out, "%-16s %9.3f %10.3f %10.3f\n", "mean",
                 mean(e_ratios), mean(i_ratios), mean(epi_ratios));
    std::fprintf(out, "\npaper: mean energy 0.901 (-9.9%%), best 0.718 "
                      "(rijndael -28.2%%); EPI reduced on all but "
                      "qsort.\n");
}

/**
 * Fig. 9: per-component energy breakdown (ALU, register file, D$, I$,
 * pipeline), BITSPEC relative to the same component on BASELINE.
 */
void
fig09Breakdown(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 9: component energy breakdown",
                "Each column: BITSPEC component energy / BASELINE "
                "component energy.");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
    }
    std::vector<RunResult> res = runner.run(cells);

    std::fprintf(out, "%-16s %8s %8s %8s %8s %8s | %s\n", "benchmark",
                 "ALU", "RF", "D$", "I$", "pipe", "baseline shares");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &b = res[k++];
        const RunResult &s = res[k++];
        double bt = b.energy.total();
        std::fprintf(
            out,
            "%-16s %8.3f %8.3f %8.3f %8.3f %8.3f | "
            "alu %.0f%% rf %.0f%% d$ %.0f%% i$ %.0f%% pipe %.0f%%\n",
            w.name.c_str(), s.energy.alu / b.energy.alu,
            s.energy.regfile / b.energy.regfile,
            s.energy.dcache / b.energy.dcache,
            s.energy.icache / b.energy.icache,
            s.energy.pipeline / b.energy.pipeline,
            100 * b.energy.alu / bt, 100 * b.energy.regfile / bt,
            100 * b.energy.dcache / bt, 100 * b.energy.icache / bt,
            100 * b.energy.pipeline / bt);
    }
}

/**
 * Fig. 10 (RQ1): dynamic loads, stores and copies injected by the
 * register allocator, normalised to their sum on BASELINE.
 */
void
fig10Spills(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 10: register-allocator traffic",
                "Dynamic spill loads / spill stores / copies, each "
                "normalised to the BASELINE total.");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
    }
    std::vector<RunResult> res = runner.run(cells);

    std::fprintf(out, "%-16s %10s %10s %10s %12s\n", "benchmark",
                 "loads", "stores", "copies", "(base total)");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &b = res[k++];
        const RunResult &s = res[k++];
        double base_total = static_cast<double>(
            b.counters.dynSpillLoads + b.counters.dynSpillStores +
            b.counters.dynCopies);
        if (base_total == 0)
            base_total = 1;
        std::fprintf(out, "%-16s %10.3f %10.3f %10.3f %12.0f\n",
                     w.name.c_str(),
                     s.counters.dynSpillLoads / base_total,
                     s.counters.dynSpillStores / base_total,
                     s.counters.dynCopies / base_total, base_total);
    }
    std::fprintf(out, "\npaper: spill loads shrink or vanish (CRC32, "
                      "dijkstra); copies sometimes grow in trade.\n");
}

/**
 * Fig. 11 (RQ1): dynamic register-file accesses at 8 and 32 bits,
 * normalised to BASELINE's all-32-bit access count.
 */
void
fig11RegAccess(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 11: register accesses by width",
                "BITSPEC register accesses (32-bit and 8-bit slice) "
                "normalised to BASELINE accesses.");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
    }
    std::vector<RunResult> res = runner.run(cells);

    std::fprintf(out, "%-16s %10s %10s %10s\n", "benchmark", "32-bit",
                 "8-bit", "total");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &b = res[k++];
        const RunResult &s = res[k++];
        double base = static_cast<double>(
            b.counters.rfRead32 + b.counters.rfWrite32);
        double s32 = (s.counters.rfRead32 + s.counters.rfWrite32) /
                     base;
        double s8 = (s.counters.rfRead8 + s.counters.rfWrite8) / base;
        std::fprintf(out, "%-16s %10.3f %10.3f %10.3f\n",
                     w.name.c_str(), s32, s8, s32 + s8);
    }
    std::fprintf(out, "\npaper: total accesses drop for most "
                      "benchmarks; a slice access costs 1/4 of a "
                      "32-bit access.\n");
}

/**
 * Fig. 12 (RQ2): register packing WITHOUT speculation (exact
 * demanded-bits narrowing only) vs full BITSPEC, both relative to
 * BASELINE. The paper: no-speculation loses ~3.2% additional energy
 * on average and recovers nothing on CRC32.
 */
void
fig12NoSpec(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 12: is speculation necessary? (RQ2)",
                "Energy relative to BASELINE: exact (no-speculation) "
                "narrowing vs speculative BITSPEC.");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::noSpeculation());
        cells.emplace_back(&w, SystemConfig::bitspec());
    }
    std::vector<RunResult> res = runner.run(cells);

    std::vector<double> nospec_r, spec_r;
    std::fprintf(out, "%-16s %12s %12s\n", "benchmark", "no-spec",
                 "bitspec");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &ns = res[k++];
        const RunResult &sp = res[k++];
        double rn = ns.totalEnergy / base.totalEnergy;
        double rs = sp.totalEnergy / base.totalEnergy;
        nospec_r.push_back(rn);
        spec_r.push_back(rs);
        std::fprintf(out, "%-16s %12.3f %12.3f\n", w.name.c_str(), rn,
                     rs);
    }
    std::fprintf(out, "%-16s %12.3f %12.3f\n", "mean", mean(nospec_r),
                 mean(spec_r));
}

/**
 * RQ3 ablations: compare elimination (§3.2.4) and bitmask elision.
 * Paper: without compare elimination dijkstra consumes +9.5% energy
 * (+13.1% instructions); without bitmask elision blowfish +6.3% and
 * rijndael +33.4% relative to BASELINE.
 */
void
rq3Optimizations(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "RQ3: BitSpec-specific optimisation ablations",
                "Energy and dynamic instructions relative to "
                "BASELINE, with one optimisation removed at a time.");

    SystemConfig no_ce = SystemConfig::bitspec();
    no_ce.squeezeOpts.compareElimination = false;
    SystemConfig no_be = SystemConfig::bitspec();
    no_be.squeezeOpts.bitmaskElision = false;

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
        cells.emplace_back(&w, no_ce);
        cells.emplace_back(&w, no_be);
    }
    std::vector<RunResult> res = runner.run(cells);

    std::fprintf(out, "%-16s %10s | %12s %10s | %12s %10s\n",
                 "benchmark", "full", "-cmp-elim", "dyninst",
                 "-bitmask", "dyninst");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &full = res[k++];
        const RunResult &nce = res[k++];
        const RunResult &nbe = res[k++];

        auto rel = [&](const RunResult &r) {
            return r.totalEnergy / base.totalEnergy;
        };
        auto reli = [&](const RunResult &r) {
            return static_cast<double>(r.counters.instructions) /
                   static_cast<double>(base.counters.instructions);
        };
        std::fprintf(out,
                     "%-16s %10.3f | %12.3f %10.3f | %12.3f %10.3f\n",
                     w.name.c_str(), rel(full), rel(nce), reli(nce),
                     rel(nbe), reli(nbe));
    }
}

/**
 * Fig. 13 (RQ4): disabling the expander. Paper: BASELINE loses ~10%
 * energy without it; BITSPEC's EPI advantage shrinks from 10.36% to
 * 6.41% — expansion and BitSpec compound.
 */
void
fig13Expander(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 13: expander ablation (RQ4)",
                "Energy/EPI relative to BASELINE-with-expander.");

    SystemConfig base_noexp = SystemConfig::baseline();
    base_noexp.expander.enabled = false;
    SystemConfig sp_noexp = SystemConfig::bitspec();
    sp_noexp.expander.enabled = false;

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, base_noexp);
        cells.emplace_back(&w, SystemConfig::bitspec());
        cells.emplace_back(&w, sp_noexp);
    }
    std::vector<RunResult> res = runner.run(cells);

    std::vector<double> epi_on, epi_off;
    std::fprintf(out, "%-16s %14s %14s %14s\n", "benchmark",
                 "base(-exp)", "bitspec", "bitspec(-exp)");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &bn = res[k++];
        const RunResult &sp = res[k++];
        const RunResult &sn = res[k++];

        epi_on.push_back(sp.epi / base.epi);
        epi_off.push_back(sn.epi / bn.epi);
        std::fprintf(out, "%-16s %14.3f %14.3f %14.3f\n",
                     w.name.c_str(), bn.totalEnergy / base.totalEnergy,
                     sp.totalEnergy / base.totalEnergy,
                     sn.totalEnergy / base.totalEnergy);
    }
    std::fprintf(out,
                 "\nmean EPI ratio with expander: %.4f, without: %.4f "
                 "(paper: 0.8964 vs 0.9359)\n",
                 mean(epi_on), mean(epi_off));
}

/**
 * Fig. 14 + Table 2 (RQ5): energy per bitwidth-selection heuristic
 * and the misspeculation counts. Paper: more aggressive heuristics
 * misspeculate more, always correlating with higher energy.
 */
void
fig14Aggressiveness(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out,
                "Figure 14 + Table 2: heuristic aggressiveness (RQ5)",
                "Energy relative to BASELINE and misspeculation "
                "counts for MAX / AVG / MIN.");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        for (Heuristic h :
             {Heuristic::Max, Heuristic::Avg, Heuristic::Min})
            cells.emplace_back(&w, SystemConfig::bitspec(h));
    }
    std::vector<RunResult> res = runner.run(cells);

    std::fprintf(out, "%-16s | %8s %8s %8s | %8s %8s %8s\n",
                 "benchmark", "MAX", "AVG", "MIN", "mis-MAX",
                 "mis-AVG", "mis-MIN");
    size_t i = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[i++];
        double rel[3];
        unsigned long long mis[3];
        for (int k = 0; k < 3; ++k) {
            const RunResult &r = res[i++];
            rel[k] = r.totalEnergy / base.totalEnergy;
            mis[k] = r.counters.misspeculations;
        }
        std::fprintf(out,
                     "%-16s | %8.3f %8.3f %8.3f | %8llu %8llu %8llu\n",
                     w.name.c_str(), rel[0], rel[1], rel[2], mis[0],
                     mis[1], mis[2]);
    }
}

/**
 * Fig. 15 (RQ6): profile-input sensitivity. Profile on an alternate
 * input, run on the provided one. Paper: BitSpec stays robust, only
 * +1.14% energy on average.
 */
void
fig15Sensitivity(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 15: profiler input sensitivity (RQ6)",
                "Energy relative to BASELINE when profiling on the "
                "provided input (self) vs an alternate input (alt).");

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec(), 0, 0);
        cells.emplace_back(&w, SystemConfig::bitspec(), 3, 0);
    }
    std::vector<RunResult> res = runner.run(cells);

    std::vector<double> selfs, alts;
    std::fprintf(out, "%-16s %10s %10s %10s\n", "benchmark", "self",
                 "alt", "alt/self");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &self = res[k++];
        const RunResult &alt = res[k++];
        double rs = self.totalEnergy / base.totalEnergy;
        double ra = alt.totalEnergy / base.totalEnergy;
        selfs.push_back(rs);
        alts.push_back(ra);
        std::fprintf(out, "%-16s %10.3f %10.3f %10.3f\n",
                     w.name.c_str(), rs, ra, ra / rs);
    }
    std::fprintf(out, "%-16s %10.3f %10.3f %10.4f  (paper: +1.14%%)\n",
                 "mean", mean(selfs), mean(alts),
                 mean(alts) / mean(selfs));
}

/**
 * Fig. 16 (RQ6 deep dive): susan-edges cross-product over synthetic
 * images — compile with image i as the profile input, run on image j,
 * report dynamic instructions relative to the self-profiled binary,
 * as a cumulative distribution per heuristic. Paper: MAX is robust,
 * AVG and MIN are input-sensitive.
 *
 * The grid is one experiment matrix per heuristic: the runner's
 * System cache compiles each profile image once and reuses it for all
 * run images (kImages builds serving kImages^2 cells).
 */
void
fig16Cdf(ExperimentRunner &runner, std::FILE *out)
{
    // The paper's grid is 50x50 BSDS500 images; 6x6 synthetic ones
    // here.
    constexpr unsigned kImages = 6;
    printHeader(out,
                "Figure 16: susan-edges profile/run image "
                "cross-product CDF",
                strFormat("%ux%u image pairs; value = dyn. "
                          "instructions of cross-profiled binary / "
                          "self-profiled binary.",
                          kImages, kImages));

    const Workload &w = getWorkload("susan-edges");

    for (Heuristic h :
         {Heuristic::Max, Heuristic::Avg, Heuristic::Min}) {
        const SystemConfig cfg = SystemConfig::bitspec(h);

        // Self-profiled reference cells (profile j, run j), then the
        // full profile x run cross product; one matrix, cached
        // Systems shared between both halves.
        std::vector<ExperimentCell> cells;
        for (unsigned j = 0; j < kImages; ++j)
            cells.emplace_back(&w, cfg, 100 + j, 100 + j);
        for (unsigned i = 0; i < kImages; ++i)
            for (unsigned j = 0; j < kImages; ++j)
                cells.emplace_back(&w, cfg, 100 + i, 100 + j);
        std::vector<RunResult> res = runner.run(cells);

        std::vector<double> self_insts(kImages);
        for (unsigned j = 0; j < kImages; ++j)
            self_insts[j] =
                static_cast<double>(res[j].counters.instructions);

        std::vector<double> ratios;
        size_t k = kImages;
        for (unsigned i = 0; i < kImages; ++i) {
            for (unsigned j = 0; j < kImages; ++j) {
                const RunResult &r = res[k++];
                ratios.push_back(
                    static_cast<double>(r.counters.instructions) /
                    self_insts[j]);
            }
        }
        std::sort(ratios.begin(), ratios.end());
        std::fprintf(out,
                     "%s CDF:  p10=%.4f  p50=%.4f  p90=%.4f  "
                     "p100=%.4f\n",
                     heuristicName(h), percentile(ratios, 10),
                     percentile(ratios, 50), percentile(ratios, 90),
                     percentile(ratios, 100));
    }
    std::fprintf(out, "\npaper: MAX stabilises at a shared worst case; "
                      "AVG and MIN spread wider.\n");
}

/** Widen every u8/u16 declaration in the source to u32. */
std::string
widenTypes(std::string src)
{
    auto replace_all = [&](const std::string &from,
                           const std::string &to) {
        size_t pos = 0;
        while ((pos = src.find(from, pos)) != std::string::npos) {
            src.replace(pos, from.size(), to);
            pos += to.size();
        }
    };
    replace_all("u8 ", "u32 ");
    replace_all("u16 ", "u32 ");
    replace_all("(u8)", "(u32)");
    replace_all("(u16)", "(u32)");
    return src;
}

/**
 * RQ7: does BitSpec eliminate the need for programmer-selected
 * bitwidths? The paper widens every integer in dijkstra and
 * stringsearch to the machine's widest type and compares. Here the
 * widest type is u32 (32-bit target); the narrow u8 declarations of
 * the original sources are replaced wholesale.
 */
void
rq7AutoBitwidth(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "RQ7: fully automatic bitwidth selection",
                "Widen every integer declaration to u32; can BitSpec "
                "recover the narrow-typed program's energy?");

    const std::vector<const char *> names = {"dijkstra",
                                             "stringsearch"};
    // Widened workload copies must outlive the matrix run: cells
    // hold Workload pointers.
    std::vector<Workload> wides;
    for (const char *name : names) {
        Workload wide = getWorkload(name);
        wide.source = widenTypes(wide.source);
        wides.push_back(std::move(wide));
    }

    std::vector<ExperimentCell> cells;
    for (size_t i = 0; i < names.size(); ++i) {
        const Workload &w = getWorkload(names[i]);
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&wides[i], SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
        cells.emplace_back(&wides[i], SystemConfig::bitspec());
    }
    std::vector<RunResult> res = runner.run(cells);

    size_t k = 0;
    for (const char *name : names) {
        const RunResult &base_orig = res[k++];
        const RunResult &base_wide = res[k++];
        const RunResult &spec_orig = res[k++];
        const RunResult &spec_wide = res[k++];

        double b = base_orig.totalEnergy;
        std::fprintf(out,
                     "%-16s baseline(orig)=1.000  baseline(wide)=%.3f\n"
                     "%-16s bitspec(orig)=%.3f   bitspec(wide)=%.3f\n",
                     name, base_wide.totalEnergy / b, "",
                     spec_orig.totalEnergy / b,
                     spec_wide.totalEnergy / b);
    }
    std::fprintf(out, "\npaper: stringsearch reaches parity (yes); "
                      "dijkstra improves but falls short.\n");
}

/**
 * Fig. 17 (RQ8): composition with dynamic timing slack. Paper: DTS
 * alone -28.4%, DTS+BITSPEC -35.0% mean (-38.8% including the larger
 * benchmarks), roughly the product of the individual savings. The
 * width-aware DTS estimator (the paper's future work) is included as
 * an extension row.
 */
void
fig17Dts(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 17: DTS and DTS+BitSpec (RQ8)",
                "Energy relative to BASELINE. product = dts * "
                "bitspec (the paper's composition observation).");

    SystemConfig oracle = SystemConfig::dtsPlusBitspec();
    oracle.dtsParams.widthAware = true;

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, SystemConfig::bitspec());
        cells.emplace_back(&w, SystemConfig::dtsOnly());
        cells.emplace_back(&w, SystemConfig::dtsPlusBitspec());
        cells.emplace_back(&w, oracle);
    }
    std::vector<RunResult> res = runner.run(cells);

    std::vector<double> d_r, db_r, prod_r, oracle_r;
    std::fprintf(out, "%-16s %8s %8s %10s %10s %12s\n", "benchmark",
                 "bitspec", "dts", "dts+bspec", "product",
                 "width-aware");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &sp = res[k++];
        const RunResult &dts = res[k++];
        const RunResult &both = res[k++];
        const RunResult &ow = res[k++];

        double rs = sp.totalEnergy / base.totalEnergy;
        double rd = dts.totalEnergy / base.totalEnergy;
        double rb = both.totalEnergy / base.totalEnergy;
        double ro = ow.totalEnergy / base.totalEnergy;
        d_r.push_back(rd);
        db_r.push_back(rb);
        prod_r.push_back(rs * rd);
        oracle_r.push_back(ro);
        std::fprintf(out, "%-16s %8.3f %8.3f %10.3f %10.3f %12.3f\n",
                     w.name.c_str(), rs, rd, rb, rs * rd, ro);
    }
    std::fprintf(out, "%-16s %8s %8.3f %10.3f %10.3f %12.3f\n", "mean",
                 "", mean(d_r), mean(db_r), mean(prod_r),
                 mean(oracle_r));
}

/**
 * Fig. 18 (RQ9): the compact Thumb-like ISA executes more dynamic
 * instructions than BASELINE (two-address ops, fewer registers).
 * Paper: +25.76% on average, up to +73.59%.
 */
void
fig18Thumb(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out, "Figure 18: Thumb-like compact ISA (RQ9)",
                "Dynamic instructions relative to BASELINE.");

    SystemConfig tc = SystemConfig::baseline();
    tc.isa = TargetISA::Thumb;

    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline());
        cells.emplace_back(&w, tc);
    }
    std::vector<RunResult> res = runner.run(cells);

    std::vector<double> ratios;
    std::fprintf(out, "%-16s %12s\n", "benchmark", "thumb/base");
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k++];
        const RunResult &th = res[k++];
        double r = static_cast<double>(th.counters.instructions) /
                   static_cast<double>(base.counters.instructions);
        ratios.push_back(r);
        std::fprintf(out, "%-16s %12.3f\n", w.name.c_str(), r);
    }
    std::fprintf(out, "%-16s %12.3f  (paper: mean 1.258, max 1.736)\n",
                 "mean", mean(ratios));
}

/** The reports profile on seed 0 and run on this held-out seed: on
 *  the training seed every speculation holds and all misspec columns
 *  would be zero. */
constexpr uint64_t kReportRunSeed = 1;

/** The reports' configuration: the aggressive heuristic maximises
 *  speculative coverage, which is what makes the misspec and
 *  overhead columns interesting. */
SystemConfig
reportConfig()
{
    return SystemConfig::bitspec(Heuristic::Max);
}

/** A finished run of a workload's report System with a block sink
 *  attached. */
struct ObservedRun
{
    const System &system;
    const BlockMap &map;
    const BlockProfilerSink &sink;
    const RunResult &result;
};

/** Run @p w's report System (cached in @p runner) on the held-out
 *  seed with a block sink attached, and hand the run to @p fn. The
 *  System may have been built for a DTS cell of its key (Fig. 17's),
 *  so the run's energy is evaluated under reportConfig(). */
void
observeRun(ExperimentRunner &runner, const Workload &w,
           const std::function<void(const ObservedRun &)> &fn)
{
    runner.withSystem(w, reportConfig(), 0, [&](const System &sys) {
        BlockMap map(sys.program());
        BlockProfilerSink sink(map);
        RunResult r = sys.run(
            [&w](Module &m) { w.setInput(m, kReportRunSeed); },
            {.blocks = &sink});
        evaluateEnergy(r, reportConfig());
        fn({sys, map, sink, r});
    });
}

/** The sink's per-block sums equal the core's counters exactly (the
 *  BlockMap is a total partition). */
bool
reconciles(const ObservedRun &run)
{
    const ActivityCounters &c = run.result.counters;
    return run.sink.totalInsts() == c.instructions &&
           run.sink.totalCycles() == c.cycles &&
           run.sink.totalMisspecs() == c.misspeculations &&
           run.sink.unattributed() == 0;
}

constexpr Figure kFigures[] = {
    {"fig01", fig01BitwidthSelection},
    {"fig03", fig03Unrolling},
    {"fig05", fig05Heuristics},
    {"fig08", fig08Energy},
    {"fig09", fig09Breakdown},
    {"fig10", fig10Spills},
    {"fig11", fig11RegAccess},
    {"fig12", fig12NoSpec},
    {"rq3", rq3Optimizations},
    {"fig13", fig13Expander},
    {"fig14", fig14Aggressiveness},
    {"fig15", fig15Sensitivity},
    {"fig16", fig16Cdf},
    {"rq7", rq7AutoBitwidth},
    {"fig17", fig17Dts},
    {"fig18", fig18Thumb},
};

} // namespace

std::span<const Figure>
figures()
{
    return kFigures;
}

const Figure *
findFigure(std::string_view id)
{
    for (const Figure &f : kFigures)
        if (id == f.id)
            return &f;
    return nullptr;
}

bool
printReport(ExperimentRunner &runner, std::FILE *out)
{
    printHeader(out,
                "bitspec-report: per-region misspeculation attribution",
                "region = function#id at its source line; overhead = "
                "recovery + handler energy; saved = share of the "
                "squeeze savings vs the unsqueezed baseline. Profiled "
                "on seed 0, run on held-out seed 1 so speculation can "
                "actually miss.");

    // One matrix builds every System and runs the unsqueezed
    // baselines; each squeezed System then runs again with a sink.
    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.emplace_back(&w, SystemConfig::baseline(), 0,
                           kReportRunSeed);
        cells.emplace_back(&w, reportConfig(), 0, kReportRunSeed);
    }
    const std::vector<RunResult> res = runner.run(cells);

    bool ok = true;
    size_t k = 0;
    for (const Workload &w : mibenchSuite()) {
        const RunResult &base = res[k];
        k += 2;
        observeRun(runner, w, [&](const ObservedRun &run) {
            const RunResult &r = run.result;
            RegionReportInputs inputs;
            inputs.energy = reportConfig().energy;
            inputs.totalInstructions = r.counters.instructions;
            inputs.totalEnergyPj = r.totalEnergy;
            inputs.baselineEnergyPj = base.totalEnergy;
            auto rows = buildRegionReport(run.map, run.sink, inputs);

            uint64_t region_misspecs = 0;
            for (const RegionReportRow &row : rows)
                region_misspecs += row.activity.misspecs;
            const bool sums_match =
                reconciles(run) &&
                region_misspecs == r.counters.misspeculations &&
                run.sink.unattributedMisspecs() == 0;
            ok = ok && sums_match;
            std::fprintf(out,
                         "--- %s: %zu regions, %llu misspeculations "
                         "(attribution %s)\n",
                         w.name.c_str(), rows.size(),
                         static_cast<unsigned long long>(
                             r.counters.misspeculations),
                         sums_match ? "exact" : "MISMATCH");
            if (!rows.empty())
                std::fputs(formatRegionReport(rows, w.name + ".c").c_str(),
                           out);
            std::fputs("\n", out);
        });
    }
    return ok;
}

bool
printHeat(ExperimentRunner &runner, std::FILE *out,
          const std::string &folded_dir)
{
    printHeader(out, "bitspec-heat: per-block cycle attribution",
                "block = MachBlock with file:line provenance via its "
                "SpecRegion; energy = model split (pipeline ~ cycles, "
                "recovery ~ misspecs, rest ~ insts). Profiled on seed "
                "0, run on held-out seed 1 so speculation can "
                "actually miss.");
    constexpr size_t kTopN = 10;
    if (!folded_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(folded_dir, ec);
    }

    // One matrix builds every System; each then runs with a sink.
    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite())
        cells.emplace_back(&w, reportConfig(), 0, kReportRunSeed);
    runner.run(cells);

    bool ok = true;
    for (const Workload &w : mibenchSuite()) {
        observeRun(runner, w, [&](const ObservedRun &run) {
            const bool sums_match = reconciles(run);
            ok = ok && sums_match;

            HeatReportInputs inputs;
            inputs.energy = reportConfig().energy;
            inputs.totalEnergyPj = run.result.totalEnergy;
            auto rows = buildHeatReport(run.map, run.sink, inputs);
            std::fprintf(out,
                         "--- %s: %zu block sites, %llu cycles "
                         "(reconciliation %s)\n",
                         w.name.c_str(), run.map.sites().size(),
                         static_cast<unsigned long long>(
                             run.result.counters.cycles),
                         sums_match ? "exact" : "MISMATCH");
            std::fputs(
                formatHeatListing(rows, w.name + ".c", kTopN).c_str(),
                out);

            if (!folded_dir.empty()) {
                const std::string path =
                    folded_dir + "/" + w.name + ".folded";
                std::ofstream of(path);
                if (of) {
                    of << foldedStacks(rows, w.name + ".c");
                    std::fprintf(out, "folded stacks -> %s\n",
                                 path.c_str());
                } else {
                    std::fprintf(out, "cannot write %s\n", path.c_str());
                    ok = false;
                }
            }
            std::fputs("\n", out);
        });
    }
    return ok;
}

} // namespace bitspec::paper
