/**
 * @file
 * The `bitspec-paper diff` front end, run as a process on a ledger
 * this test writes (a 2-cell CRC32 matrix): a ledger against itself
 * exits 0; against a copy with one counter raised past tolerance it
 * exits 1 and names the field; `--json P` writes a verdict the strict
 * reader parses; a missing file, an unknown flag and a tolerance that
 * is not a number each exit 2.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/ledger.h"
#include "support/json.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

namespace fs = std::filesystem;

/** Exit status and stdout of one `bitspec-paper diff` run. */
struct DiffRun
{
    int status = -1;
    std::string out;
};

DiffRun
diff(const std::string &args)
{
    const std::string cmd =
        std::string(BITSPEC_PAPER_BIN) + " diff " + args + " 2>/dev/null";
    DiffRun run;
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return run;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        run.out.append(buf, n);
    const int st = pclose(p);
    run.status = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return run;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

class DiffCli : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("bitspec_diff_cli_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
        a_ = (dir_ / "a.jsonl").string();
        b_ = (dir_ / "b.jsonl").string();

        LedgerWriter::setGlobal(std::make_unique<LedgerWriter>(a_));
        const Workload &w = getWorkload("CRC32");
        ExperimentRunner runner(1);
        runner.run({ExperimentCell(&w, SystemConfig::baseline()),
                    ExperimentCell(&w, SystemConfig::bitspec())});
        LedgerWriter::setGlobal(nullptr);

        // B: the first cell's cycle count doubled.
        std::string text = readFile(a_);
        const std::string field = "\"counters.cycles\":";
        const size_t at = text.find(field);
        ASSERT_NE(at, std::string::npos);
        const size_t begin = at + field.size();
        const size_t end = text.find_first_not_of("0123456789", begin);
        const uint64_t cycles = std::stoull(text.substr(begin, end - begin));
        text.replace(begin, end - begin, std::to_string(2 * cycles));
        std::ofstream(b_, std::ios::binary) << text;
    }

    void
    TearDown() override
    {
        LedgerWriter::setGlobal(nullptr);
        fs::remove_all(dir_);
    }

    fs::path dir_;
    std::string a_, b_;
};

TEST_F(DiffCli, LedgerAgainstItselfExitsZero)
{
    const DiffRun run = diff(a_ + " " + a_);
    EXPECT_EQ(run.status, 0) << run.out;
    EXPECT_NE(run.out.find("(3 records)"), std::string::npos) << run.out;
}

TEST_F(DiffCli, RaisedCounterExitsOneAndNamesTheField)
{
    const DiffRun run = diff(a_ + " " + b_);
    EXPECT_EQ(run.status, 1) << run.out;
    EXPECT_NE(run.out.find("counters.cycles"), std::string::npos)
        << run.out;
}

TEST_F(DiffCli, JsonVerdictParses)
{
    const std::string verdict = (dir_ / "verdict.json").string();
    const DiffRun run = diff(a_ + " " + b_ + " --json " + verdict);
    EXPECT_EQ(run.status, 1) << run.out;
    EXPECT_NE(run.out.find("verdict -> " + verdict), std::string::npos)
        << run.out;
    const JsonValue doc = parseJson(readFile(verdict));
    EXPECT_EQ(doc.getU64("regressed_cells"), 1u);
    ASSERT_NE(doc.find("clean"), nullptr);
    EXPECT_FALSE(doc.find("clean")->asBool());
}

TEST_F(DiffCli, BadInputExitsTwo)
{
    EXPECT_EQ(diff(a_ + " " + (dir_ / "missing.jsonl").string()).status,
              2);
    EXPECT_EQ(diff(a_ + " " + a_ + " --bogus").status, 2);
    // Read as 0 by a bare strtod, which would turn the clean diff of
    // A against B at 100% tolerance into a regression.
    EXPECT_EQ(diff(a_ + " " + b_ + " --rel-tol-pct 100").status, 0);
    EXPECT_EQ(diff(a_ + " " + b_ + " --rel-tol-pct hundred").status, 2);
}

} // namespace
} // namespace bitspec
