/**
 * @file
 * `bitspec-paper fig16` run as a process with BITSPEC_TRACE naming a
 * file in a directory of the test's own: tracing must not change what
 * it prints (stdout equals the fig16 golden byte for byte), and the
 * trace written at exit must parse, with one sample on each counter
 * lane for every system.run span.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "support/json.h"

namespace bitspec
{
namespace
{

namespace fs = std::filesystem;

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(TracedPaper, Fig16PrintsItsGoldenAndAParsableTrace)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("bitspec_trace_cli_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const fs::path trace = dir / "fig16.json";

    const std::string cmd = "BITSPEC_TRACE=" + trace.string() + " " +
                            BITSPEC_PAPER_BIN + " fig16 2>/dev/null";
    std::FILE *p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    const int st = pclose(p);
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << st;

    EXPECT_EQ(out, readFile(fs::path(BITSPEC_PAPER_GOLDEN_DIR) /
                            "fig16.txt"));

    const JsonValue doc = parseJson(readFile(trace));
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<std::string, size_t> runs, samples;
    for (const JsonValue &e : events->asArray()) {
        const std::string ph = e.getString("ph");
        if (ph == "B")
            ++runs[e.getString("name")];
        else if (ph == "C")
            ++samples[e.getString("name")];
    }
    const size_t simulations = runs["system.run"];
    EXPECT_GT(simulations, 0u);
    EXPECT_EQ(samples.size(), 3u);
    for (const char *lane :
         {"core.ipc", "core.misspec_per_kinst", "core.l1d_hit_pct"})
        EXPECT_EQ(samples[lane], simulations) << lane;
    fs::remove_all(dir);
}

} // namespace
} // namespace bitspec
