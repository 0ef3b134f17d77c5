/**
 * @file
 * Figure goldens: every entry of bitspec-paper's figure table, run in
 * this one process over one ExperimentRunner (as `bitspec-paper all`
 * runs them), must print its recorded output
 * tests/golden/paper/<id>.txt byte for byte. A failure names each
 * figure that drifted and its first differing line.
 *
 * Re-record one figure after an intended change with
 * `bitspec-paper <id> > tests/golden/paper/<id>.txt`.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "paper.h"

using namespace bitspec;

namespace
{

/** What @p fig prints on @p runner. */
std::string
capture(const paper::Figure &fig, ExperimentRunner &runner)
{
    char *buf = nullptr;
    size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    if (!out)
        return "<open_memstream failed>";
    fig.print(runner, out);
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

} // namespace

TEST(PaperGolden, EveryFigurePrintsItsGolden)
{
    ExperimentRunner runner;
    for (const paper::Figure &fig : paper::figures()) {
        const std::string path =
            std::string(BITSPEC_PAPER_GOLDEN_DIR) + "/" + fig.id + ".txt";
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            ADD_FAILURE() << fig.id << ": no golden at " << path;
            continue;
        }
        std::ostringstream golden;
        golden << in.rdbuf();
        const std::string got = capture(fig, runner);
        if (got != golden.str())
            ADD_FAILURE() << fig.id << " differs from " << path << " at "
                          << firstDifference(golden.str(), got);
    }
}
