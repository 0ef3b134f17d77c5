/**
 * @file
 * Per-stage verification (BITSPEC_VERIFY_EACH) in CI: for every
 * workload, the five compile-heavy configurations run through a fresh
 * runner with the checks forced on — the verifier and lint
 * checkpoint after every pipeline stage, and the known-bits
 * static-bounds check on the training run — must pass and must not
 * change any RunResult field. One test per workload, like the
 * codegen freeze (`ctest -L verify-each`).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "core/experiment.h"
#include "obs/trace.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

class VerifyEach : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    TearDown() override
    {
        setPipelineVerifyForced(-1);
        trace::setEnabled(false);
        trace::reset();
    }
};

TEST_P(VerifyEach, ChecksPassAndChangeNothing)
{
    const Workload &w = getWorkload(GetParam());
    std::vector<ExperimentCell> cells;
    for (const SystemConfig &c :
         {SystemConfig::baseline(), SystemConfig::bitspec(Heuristic::Max),
          SystemConfig::bitspec(Heuristic::Avg),
          SystemConfig::bitspec(Heuristic::Min),
          SystemConfig::noSpeculation()})
        cells.push_back({&w, c, 0, 0});

    const std::vector<RunResult> plain = ExperimentRunner(1).run(cells);

    setPipelineVerifyForced(1);
    trace::reset();
    trace::setEnabled(true);
    const std::vector<RunResult> verified =
        ExperimentRunner(1).run(cells);
    trace::setEnabled(false);

    ASSERT_EQ(plain.size(), verified.size());
    for (size_t i = 0; i < plain.size(); ++i)
        EXPECT_TRUE(plain[i] == verified[i]) << "config " << i;

    // Each module-level checkpoint ran: two in the one shared
    // training, one per squeeze, one per backend compile.
    std::map<std::string, int> stages;
    for (const trace::Event &e : trace::snapshot())
        if (e.phase == 'E' && e.name == "verify.checkpoint")
            for (const auto &[key, value] : e.args)
                if (key == "stage")
                    ++stages[value];
    EXPECT_EQ(stages["frontend:irgen"], 1);
    EXPECT_EQ(stages["transform:expander"], 1);
    EXPECT_EQ(stages["transform:squeezer"], 4);
    EXPECT_EQ(stages["backend:pre_isel"], 5);
}

INSTANTIATE_TEST_SUITE_P(
    Mibench, VerifyEach,
    ::testing::Values("CRC32", "FFT", "basicmath", "bitcount",
                      "blowfish", "dijkstra", "patricia", "qsort",
                      "rijndael", "sha", "stringsearch", "susan-edges",
                      "susan-corners", "susan-smoothing"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace bitspec
