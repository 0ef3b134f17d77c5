#include "matrix.h"

#include <map>
#include <memory>
#include <utility>

#include "frontend/irgen.h"
#include "interp/interpreter.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/stats.h"
#include "support/str.h"
#include "workloads/workload.h"

namespace bitspec::perfbench
{

namespace
{

/** Fig. 16's image seeds start here; --seed shifts the window by a
 *  whole grid so two seeds never share an image. */
constexpr uint64_t kImageSeedBase = 100;
constexpr unsigned kImages = 6;
constexpr unsigned kRandomPolicyRuns = 3;

ExperimentCell
makeCell(const Workload &w, const SystemConfig &cfg,
         uint64_t profile_seed = 0, uint64_t run_seed = 0)
{
    return ExperimentCell(&w, cfg, profile_seed, run_seed);
}

std::vector<ExperimentCell>
suiteCompile()
{
    const SystemConfig configs[] = {
        SystemConfig::baseline(),
        SystemConfig::bitspec(Heuristic::Max),
        SystemConfig::bitspec(Heuristic::Avg),
        SystemConfig::bitspec(Heuristic::Min),
        SystemConfig::noSpeculation(),
    };
    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite())
        for (const SystemConfig &cfg : configs)
            cells.push_back(makeCell(w, cfg));
    return cells;
}

std::vector<ExperimentCell>
crossInput(uint64_t seed)
{
    const Workload &w = getWorkload("susan-edges");
    const uint64_t base = kImageSeedBase + seed * kImages;
    std::vector<ExperimentCell> cells;
    for (Heuristic h : {Heuristic::Max, Heuristic::Avg, Heuristic::Min})
        for (unsigned i = 0; i < kImages; ++i)
            for (unsigned j = 0; j < kImages; ++j)
                cells.push_back(makeCell(w, SystemConfig::bitspec(h),
                                         base + i, base + j));
    return cells;
}

std::vector<ExperimentCell>
misspecSlowpath(uint64_t seed)
{
    const SystemConfig cfg = SystemConfig::bitspec(Heuristic::Min);
    std::vector<ExperimentCell> cells;
    for (const Workload &w : mibenchSuite()) {
        cells.push_back(makeCell(w, cfg));
        ExperimentCell forced = makeCell(w, cfg);
        forced.policy = MisspecPolicy::ForceFirst;
        cells.push_back(forced);
        for (unsigned k = 0; k < kRandomPolicyRuns; ++k) {
            ExperimentCell rnd = makeCell(w, cfg);
            rnd.policy = MisspecPolicy::Random;
            rnd.policySeed = 0x5eed + seed * kRandomPolicyRuns + k;
            cells.push_back(rnd);
        }
    }
    return cells;
}

std::string
configName(const SystemConfig &c)
{
    if (!c.squeeze)
        return c.isa == TargetISA::Baseline ? "baseline" : "unsqueezed";
    if (!c.squeezeOpts.speculate)
        return "no-spec";
    switch (c.squeezeOpts.heuristic) {
      case Heuristic::Max: return "bitspec-max";
      case Heuristic::Avg: return "bitspec-avg";
      case Heuristic::Min: return "bitspec-min";
    }
    return "bitspec";
}

/** What the reference interpreter observed for one run input. */
struct Reference
{
    uint32_t ret = 0;
    uint64_t checksum = 0;
};

Reference
interpreterReference(const Workload &w, uint64_t run_seed)
{
    std::unique_ptr<Module> m = compileSource(w.source);
    w.setInput(*m, run_seed);
    Interpreter in(*m);
    Reference ref;
    ref.ret = static_cast<uint32_t>(truncTo(in.run("main"), 32));
    ref.checksum = in.outputChecksum();
    return ref;
}

/** Same workload, configuration, profile and run seed. */
std::string
twinKey(const ExperimentCell &c)
{
    return ExperimentRunner::systemKeyHash(*c.workload, c.config,
                                           c.profileSeed)
               .hex() +
           "/" + std::to_string(c.runSeed);
}

} // namespace

std::vector<ExperimentCell>
buildMatrix(const std::string &name, uint64_t seed)
{
    if (name == "suite-compile")
        return suiteCompile();
    if (name == "cross-input")
        return crossInput(seed);
    if (name == "misspec-slowpath")
        return misspecSlowpath(seed);
    fatal("unknown workload \"" + name + "\"");
}

std::string
cellLabel(const ExperimentCell &c)
{
    std::string s = strFormat(
        "%s/%s/p%llu/r%llu/%s", c.workload->name.c_str(),
        configName(c.config).c_str(),
        static_cast<unsigned long long>(c.profileSeed),
        static_cast<unsigned long long>(c.runSeed),
        misspecPolicyName(c.policy));
    if (c.policy == MisspecPolicy::Random)
        s += strFormat(":%llx",
                       static_cast<unsigned long long>(c.policySeed));
    return s;
}

CellFailures
checkCells(const std::vector<ExperimentCell> &cells,
           const std::vector<RunResult> &results)
{
    bsAssert(cells.size() == results.size(), "cell/result mismatch");
    std::map<std::pair<std::string, uint64_t>, Reference> refs;
    std::map<std::string, size_t> hardware;
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].policy == MisspecPolicy::Hardware)
            hardware.emplace(twinKey(cells[i]), i);

    CellFailures failures;
    for (size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &c = cells[i];
        const RunResult &r = results[i];
        const Workload &w = *c.workload;
        auto key = std::make_pair(w.name, c.runSeed);
        auto it = refs.find(key);
        if (it == refs.end())
            it = refs.emplace(key, interpreterReference(w, c.runSeed))
                     .first;
        const Reference &ref = it->second;

        std::string why;
        if (r.returnValue != ref.ret)
            why = strFormat("return %u, interpreter %u", r.returnValue,
                            ref.ret);
        else if (r.outputChecksum != ref.checksum)
            why = strFormat("checksum %llx, interpreter %llx",
                            static_cast<unsigned long long>(
                                r.outputChecksum),
                            static_cast<unsigned long long>(
                                ref.checksum));
        else if (c.runSeed == 0 && w.expectedChecksum != 0 &&
                 r.outputChecksum != w.expectedChecksum)
            why = "checksum differs from the workload's expected one";
        else if (c.policy != MisspecPolicy::Hardware) {
            auto hw = hardware.find(twinKey(c));
            if (hw == hardware.end())
                why = "no Hardware twin in the matrix";
            else if (results[hw->second].returnValue != r.returnValue ||
                     results[hw->second].outputChecksum !=
                         r.outputChecksum)
                why = "differs from its Hardware twin";
        }
        if (!why.empty())
            failures.emplace(i, cellLabel(c) + ": " + why);
    }
    return failures;
}

double
fig8MeanEnergyRatio(const std::vector<ExperimentCell> &cells,
                    const std::vector<RunResult> &results)
{
    std::map<std::string, double> base, spec;
    for (size_t i = 0; i < cells.size(); ++i) {
        const std::string cfg = configName(cells[i].config);
        if (cfg == "baseline")
            base[cells[i].workload->name] = results[i].totalEnergy;
        else if (cfg == "bitspec-max")
            spec[cells[i].workload->name] = results[i].totalEnergy;
    }
    std::vector<double> ratios;
    for (const auto &[name, e] : spec)
        if (base.count(name))
            ratios.push_back(e / base[name]);
    return mean(ratios);
}

} // namespace bitspec::perfbench
