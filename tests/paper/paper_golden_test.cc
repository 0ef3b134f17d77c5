/**
 * @file
 * Figure goldens: every entry of bitspec-paper's figure table, run in
 * this one process over one ExperimentRunner (as `bitspec-paper all`
 * runs them), must print its recorded output
 * tests/golden/paper/<id>.txt byte for byte; so must the `report` and
 * `heat` reports (report.txt, heat.txt), run next on the same runner,
 * whose Systems the figures already built. A failure names each
 * output that drifted and its first differing line.
 *
 * Re-record one output after an intended change with
 * `bitspec-paper <id> > tests/golden/paper/<id>.txt` (<id> = report
 * or heat for the reports).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "paper.h"

using namespace bitspec;

namespace
{

/** What @p print prints. */
std::string
capture(const std::function<void(std::FILE *)> &print)
{
    char *buf = nullptr;
    size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    if (!out)
        return "<open_memstream failed>";
    print(out);
    std::fclose(out);
    std::string text(buf, len);
    std::free(buf);
    return text;
}

/** The first line where @p got differs from @p golden, both sides
 *  quoted. */
std::string
firstDifference(const std::string &golden, const std::string &got)
{
    std::istringstream g(golden), p(got);
    std::string gl, pl;
    for (size_t n = 1;; ++n) {
        const bool more_g = static_cast<bool>(std::getline(g, gl));
        const bool more_p = static_cast<bool>(std::getline(p, pl));
        if (!more_g && !more_p)
            return "same lines, different line endings";
        if (more_g != more_p || gl != pl)
            return "line " + std::to_string(n) + ":\n  golden:  " +
                   (more_g ? gl : "<end of file>") +
                   "\n  printed: " + (more_p ? pl : "<end of output>");
    }
}

/** Fails the test when @p got is not tests/golden/paper/<id>.txt. */
void
expectGolden(const std::string &id, const std::string &got)
{
    const std::string path =
        std::string(BITSPEC_PAPER_GOLDEN_DIR) + "/" + id + ".txt";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ADD_FAILURE() << id << ": no golden at " << path;
        return;
    }
    std::ostringstream golden;
    golden << in.rdbuf();
    if (got != golden.str())
        ADD_FAILURE() << id << " differs from " << path << " at "
                      << firstDifference(golden.str(), got);
}

} // namespace

TEST(PaperGolden, EveryFigurePrintsItsGolden)
{
    ExperimentRunner runner;
    for (const paper::Figure &fig : paper::figures())
        expectGolden(fig.id, capture([&](std::FILE *out) {
                         fig.print(runner, out);
                     }));

    // The reports run on Systems the figures built, and their own
    // self-checks (per-block and per-region sums) must hold.
    const ExperimentStats built = runner.stats();
    bool reconciled = false;
    expectGolden("report", capture([&](std::FILE *out) {
                     reconciled = paper::printReport(runner, out);
                 }));
    EXPECT_TRUE(reconciled) << "report: sums do not reconcile";
    expectGolden("heat", capture([&](std::FILE *out) {
                     reconciled = paper::printHeat(runner, out);
                 }));
    EXPECT_TRUE(reconciled) << "heat: sums do not reconcile";
    EXPECT_EQ(runner.stats().systemsBuilt, built.systemsBuilt);
    EXPECT_EQ(runner.stats().trainings, built.trainings);
}
