/**
 * @file
 * The traced run: a stage-by-stage replica of System::System and
 * System::run, built from each layer's public entry point and timed
 * with the benchmark's own clock.
 *
 *   compileSource -> Workload::setInput -> expandModule
 *   -> Interpreter + BitwidthProfile::profileRun (Interpreter::run
 *      when squeeze=false) -> squeezeModule
 *   -> Module::layoutGlobals -> per function selectFunction /
 *      allocateRegisters / layoutFunction / mirVerifyOrDie
 *   -> linkProgram
 *   -> PredecodedProgram -> FastCore::run -> computeEnergy / applyDts
 *
 * Like ExperimentRunner's cache, it builds once per distinct system
 * key and reuses the build (with its FastCore memos) for every later
 * cell of that key, so its layer shares match the untraced run. It
 * never enables BITSPEC_TRACE, so FastCore stays on its replay path.
 * The replica must reproduce the System path's RunResult exactly; the
 * traced mode of bitspec_perfbench checks that on every cell.
 */

#ifndef BITSPEC_PERFBENCH_REPLICA_H_
#define BITSPEC_PERFBENCH_REPLICA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "support/hash.h"

namespace bitspec::perfbench
{

/** Host seconds spent in each layer, and the work it did. Counts are
 *  summed over builds (compile layers) or over cells (uarch). */
struct LayerProfile
{
    double frontendSec = 0;
    double workloadsSec = 0; ///< Global restore + setInput.
    double expanderSec = 0;
    double profileSec = 0;
    double squeezerSec = 0;
    double globalsSec = 0; ///< Module::layoutGlobals + id numbering.
    double iselSec = 0;
    double regallocSec = 0;
    double layoutSec = 0;
    double mirVerifySec = 0;
    double linkSec = 0;
    double predecodeSec = 0;
    double coreSec = 0; ///< FastCore construction/reset + run.
    double energySec = 0;
    double wallSec = 0; ///< Whole Replica::run, glue included.
    /** The same cells through ExperimentRunner in the same process,
     *  untraced; wallSec / untracedWallSec is the tracing overhead. */
    double untracedWallSec = 0;

    uint64_t frontendIrInsts = 0;
    uint64_t expanderIrInsts = 0;
    uint64_t inlinedCalls = 0;
    uint64_t unrolledLoops = 0;
    uint64_t irSteps = 0;
    uint64_t squeezerIrInsts = 0;
    uint64_t narrowed = 0;
    uint64_t regions = 0;
    uint64_t checksDropped = 0;
    uint64_t staticInsts = 0;
    uint64_t spilledVRegs = 0;
    uint64_t skeletonInsts = 0;
    uint64_t simInstrs = 0;
    uint64_t simCycles = 0;
    uint64_t slowInsts = 0;
    uint64_t memos = 0;
};

/** One named per-layer metric. */
struct LayerMetric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The per-layer metrics of @p p, named `<layer>.<metric>` after the
 *  src/ modules. */
std::vector<LayerMetric> layerMetrics(const LayerProfile &p);

class Replica
{
  public:
    Replica();
    ~Replica();

    /** Run @p cells in order, as ExperimentRunner::run does at one
     *  job. Accumulates into profile(). */
    std::vector<RunResult> run(const std::vector<ExperimentCell> &cells);

    const LayerProfile &profile() const { return prof_; }

  private:
    struct Build;

    Build &getOrBuild(const ExperimentCell &cell);
    RunResult runCell(Build &b, const ExperimentCell &cell);

    std::unordered_map<Hash128, std::unique_ptr<Build>, Hash128Hasher>
        cache_;
    LayerProfile prof_;
};

} // namespace bitspec::perfbench

#endif // BITSPEC_PERFBENCH_REPLICA_H_
