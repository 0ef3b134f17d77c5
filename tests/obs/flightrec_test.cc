#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/flightrec.h"

namespace bitspec
{
namespace
{

namespace fs = std::filesystem;

struct TempDir
{
    TempDir()
    {
        path = (fs::temp_directory_path() /
                ("bitspec_flightrec_" +
                 std::to_string(static_cast<unsigned long long>(
                     reinterpret_cast<uintptr_t>(this)))))
                   .string();
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string path;
};

/** Deactivates capture and clears the rings on exit. */
struct RecorderGuard
{
    ~RecorderGuard()
    {
        flightrec::setActive(false);
        flightrec::clearInflight();
        flightrec::reset();
    }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** True when every brace/bracket outside string literals balances —
 *  the "torn but loadable" contract a post-mortem dump guarantees. */
bool
jsonBalanced(const std::string &s)
{
    int depth = 0;
    bool in_string = false, escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(Flightrec, InactiveRecorderDropsEvents)
{
    RecorderGuard guard;
    flightrec::setActive(false);
    flightrec::reset();
    flightrec::record('i', "ignored", "test", "x");
    EXPECT_EQ(flightrec::eventCount(), 0u);
}

TEST(Flightrec, RecordsAndDumpsLoadableTrace)
{
    RecorderGuard guard;
    TempDir tmp;
    flightrec::reset();
    flightrec::setActive(true);
    flightrec::record('B', "runCell", "experiment", "CRC32");
    flightrec::record('C', "cycles", "counters", "12345");
    flightrec::record('i', "log.warn", "log", "quote \" and \\ slash");
    flightrec::record('E', "runCell", "experiment", "");
    EXPECT_GE(flightrec::eventCount(), 4u);

    const std::string path = tmp.path + "/dump.json";
    ASSERT_TRUE(flightrec::dumpTo(path, "unit-test"));
    const std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(dump.find("\"reason\":\"unit-test\""),
              std::string::npos);
    EXPECT_NE(dump.find("runCell"), std::string::npos);
    EXPECT_TRUE(jsonBalanced(dump)) << dump;
}

TEST(Flightrec, InflightRecordEmbeddedAsEscapedString)
{
    RecorderGuard guard;
    TempDir tmp;
    flightrec::reset();
    flightrec::setActive(true);
    flightrec::record('B', "cell", "experiment", "");
    flightrec::setInflight(
        "{\"schema_version\":1,\"kind\":\"cell\",\"workload\":\"CRC32\"}");

    const std::string path = tmp.path + "/inflight.json";
    ASSERT_TRUE(flightrec::dumpTo(path, "unit-test"));
    flightrec::clearInflight();
    const std::string dump = slurp(path);
    EXPECT_NE(dump.find("\"inflight\":["), std::string::npos);
    // The payload is embedded as one escaped string, so its quotes
    // arrive backslashed and the dump stays loadable even when the
    // payload is torn.
    EXPECT_NE(dump.find("\\\"workload\\\":\\\"CRC32\\\""),
              std::string::npos)
        << dump;
    EXPECT_TRUE(jsonBalanced(dump)) << dump;

    const std::string path2 = tmp.path + "/cleared.json";
    ASSERT_TRUE(flightrec::dumpTo(path2, "unit-test"));
    EXPECT_EQ(slurp(path2).find("CRC32"), std::string::npos);
}

TEST(Flightrec, DumpNowRequiresInstall)
{
    RecorderGuard guard;
    flightrec::setActive(true);
    if (flightrec::dumpDir()[0] == '\0') {
        EXPECT_EQ(flightrec::dumpNow("unit-test"), "");
    }
}

/** The acceptance test: kill a child mid-run and assert the crash
 *  handler leaves a loadable post-mortem trace behind. */
TEST(Flightrec, CrashedChildLeavesLoadableDump)
{
    TempDir tmp;
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm the recorder the way BITSPEC_FLIGHTREC would,
        // simulate a run in progress, then die the hard way.
        flightrec::install(tmp.path);
        flightrec::record('B', "runCell", "experiment", "sha");
        flightrec::record('C', "instructions", "counters", "99");
        flightrec::setInflight(
            "{\"kind\":\"cell\",\"workload\":\"sha\"}");
        ::raise(SIGSEGV);
        ::_exit(0); // Unreachable: the handler re-raises.
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    const std::string dump_path = tmp.path + "/flightrec-" +
                                  std::to_string(pid) + "-crash.json";
    ASSERT_TRUE(fs::exists(dump_path)) << dump_path;
    const std::string dump = slurp(dump_path);
    EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(dump.find("runCell"), std::string::npos);
    EXPECT_NE(dump.find("\"reason\":\"signal:"), std::string::npos);
    EXPECT_NE(dump.find("\\\"workload\\\":\\\"sha\\\""),
              std::string::npos);
    EXPECT_TRUE(jsonBalanced(dump)) << dump;
}

} // namespace
} // namespace bitspec
