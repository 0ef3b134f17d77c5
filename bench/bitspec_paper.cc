/**
 * @file
 * bitspec-paper: regenerate the paper's evaluation (§4), and every
 * other report the repository prints.
 *
 *   bitspec-paper all             every figure, in the paper's order
 *   bitspec-paper fig08 rq3 ...   the named figures, in that order
 *   bitspec-paper report          per-region misspeculation attribution
 *   bitspec-paper heat [dir]      per-block heat listing; with a
 *                                 directory, also <dir>/<workload>.folded
 *   bitspec-paper diff A B [...]  regression forensics between two run
 *                                 ledgers (obs/diff.h)
 *   bitspec-paper smoke [BENCH]   experiment-engine and telemetry
 *                                 gates, appended to a BENCH_micro.json
 *
 * Every figure of one invocation runs on one ExperimentRunner, so a
 * System shared by several figures compiles once; `report` and `heat`
 * take their Systems from such a runner too, and exit 1 when their
 * per-block or per-region sums do not reconcile. BITSPEC_JOBS sets
 * the worker count; the output does not depend on it. Run-ledger
 * records (BITSPEC_LEDGER) name what printed them: `bench` is
 * `bitspec-paper/<id>` (or `/report`, `/heat`). With no argument, an
 * unknown id or a malformed mode, prints the usage and the valid ids
 * to stderr and exits 2 without running anything.
 *
 * `diff` joins two ledgers on the canonical cell key and reports
 * per-field drift localized to stage, region and block. Options:
 * --abs-tol X, --rel-tol-pct X (X a plain number), --verbose,
 * --json <path> (machine verdict). Exit 0 = no regression, 1 = a cell
 * regressed or diverged, 2 = bad usage or a ledger with no records.
 * Each ledger line it skips (torn, corrupt or of a newer schema) is
 * named on stderr as `path:line`.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/diff.h"
#include "paper.h"
#include "smoke.h"
#include "support/json.h"

using namespace bitspec;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s all | <id>...\n"
                 "       %s report\n"
                 "       %s heat [folded-dir]\n"
                 "       %s diff <A.jsonl> <B.jsonl> [--abs-tol X] "
                 "[--rel-tol-pct X] [--verbose] [--json <path>]\n"
                 "       %s smoke [BENCH.json]\n"
                 "ids:",
                 argv0, argv0, argv0, argv0, argv0);
    for (const paper::Figure &f : paper::figures())
        std::fprintf(stderr, " %s", f.id);
    std::fprintf(stderr, "\n");
    return 2;
}

/** `diff <A.jsonl> <B.jsonl> [options]`; @p args follow the mode. */
int
runDiff(const char *argv0, const std::vector<std::string> &args)
{
    std::string path_a, path_b, json_out;
    DiffOptions opts;
    bool verbose = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const bool has_value = i + 1 < args.size();
        const bool has_number = has_value && isJsonNumber(args[i + 1]);
        if (arg == "--abs-tol" && has_number)
            opts.absTol = std::strtod(args[++i].c_str(), nullptr);
        else if (arg == "--rel-tol-pct" && has_number)
            opts.relTolPct = std::strtod(args[++i].c_str(), nullptr);
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--json" && has_value)
            json_out = args[++i];
        else if (arg.starts_with("--") || !path_b.empty())
            return usage(argv0);
        else
            (path_a.empty() ? path_a : path_b) = arg;
    }
    if (path_b.empty())
        return usage(argv0);

    const auto files =
        diffLedgerFiles(path_a, path_b, opts, "bitspec-diff");
    if (!files)
        return 2;
    std::printf("bitspec-diff: %s (%zu records) vs %s (%zu records)\n",
                path_a.c_str(), files->recordsA, path_b.c_str(),
                files->recordsB);
    std::printf("%s", formatLedgerDiff(files->diff, verbose).c_str());
    if (!json_out.empty()) {
        std::ofstream of(json_out);
        if (!of) {
            std::fprintf(stderr, "bitspec-diff: cannot write %s\n",
                         json_out.c_str());
            return 2;
        }
        of << ledgerDiffToJson(files->diff) << "\n";
        std::printf("verdict -> %s\n", json_out.c_str());
    }
    return files->diff.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string_view mode = argc > 1 ? argv[1] : "";
    if (mode == "diff")
        return runDiff(argv[0], std::vector<std::string>(argv + 2,
                                                         argv + argc));
    if (mode == "smoke")
        return runSmoke(argc > 2 ? argv[2] : "");
    if (mode == "report" || mode == "heat") {
        ExperimentRunner runner;
        runner.setLedgerLabel("bitspec-paper/" + std::string(mode));
        const bool ok = mode == "report"
                             ? paper::printReport(runner, stdout)
                             : paper::printHeat(runner, stdout,
                                                argc > 2 ? argv[2] : "");
        return ok ? 0 : 1;
    }

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
    if (!ok)
        return usage(argv[0]);

    ExperimentRunner runner;
    for (const paper::Figure *f : selected) {
        runner.setLedgerLabel(std::string("bitspec-paper/") + f->id);
        f->print(runner, stdout);
    }
    return 0;
}
