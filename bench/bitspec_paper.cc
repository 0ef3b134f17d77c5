/**
 * @file
 * bitspec-paper: regenerate the paper's evaluation (§4).
 *
 *   bitspec-paper all             every figure, in the paper's order
 *   bitspec-paper fig08 rq3 ...   the named figures, in that order
 *
 * Every figure of one invocation runs on one ExperimentRunner, so a
 * System shared by several figures compiles once. BITSPEC_JOBS sets
 * the worker count; the output does not depend on it. With no
 * argument or an unknown id, prints the valid ids to stderr and exits
 * 2 without running anything.
 */

#include <cstdio>
#include <string_view>
#include <vector>

#include "paper.h"

using namespace bitspec;

int
main(int argc, char **argv)
{
    std::vector<const paper::Figure *> selected;
    bool ok = argc > 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "all") {
            for (const paper::Figure &f : paper::figures())
                selected.push_back(&f);
        } else if (const paper::Figure *f = paper::findFigure(arg)) {
            selected.push_back(f);
        } else {
            std::fprintf(stderr, "%s: unknown figure id '%s'\n",
                         argv[0], argv[i]);
            ok = false;
        }
    }
    if (!ok) {
        std::fprintf(stderr, "usage: %s all | <id>...\nids:", argv[0]);
        for (const paper::Figure &f : paper::figures())
            std::fprintf(stderr, " %s", f.id);
        std::fprintf(stderr, "\n");
        return 2;
    }

    ExperimentRunner runner;
    for (const paper::Figure *f : selected)
        f->print(runner, stdout);
    return 0;
}
