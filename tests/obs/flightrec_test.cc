#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/flightrec.h"
#include "obs/ledger.h"
#include "support/json.h"

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

/** The workload of the in-flight cell records in @p dump (one per
 *  thread that had one), each read back as a ledger line. */
std::vector<std::string>
inflightWorkloads(const std::string &dump)
{
    const JsonValue doc = parseJson(dump);
    const JsonValue *inflight = doc.find("inflight");
    if (!inflight)
        return {"<no inflight array>"};
    std::vector<std::string> out;
    for (const JsonValue &line : inflight->asArray()) {
        std::optional<LedgerRecord> rec =
            parseLedgerLine(line.asString());
        out.push_back(rec ? rec->workload : "<not a ledger line>");
    }
    return out;
}

/** A provenance-only cell record as the runner marks in flight. */
std::string
inflightLine(const std::string &workload)
{
    LedgerRecord rec;
    rec.workload = workload;
    return toJsonLine(rec);
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
    flightrec::record('C', "ratio", "counters", "inf");
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
    // A counter value that is not a JSON number stays a string.
    EXPECT_NE(dump.find("\"detail\":\"inf\""), std::string::npos);
    EXPECT_NO_THROW(parseJson(dump)) << dump;
}

TEST(Flightrec, InflightRecordEmbeddedAsEscapedString)
{
    RecorderGuard guard;
    TempDir tmp;
    flightrec::reset();
    flightrec::setActive(true);
    flightrec::record('B', "cell", "experiment", "");
    flightrec::setInflight(inflightLine("CRC32").c_str());

    const std::string path = tmp.path + "/inflight.json";
    ASSERT_TRUE(flightrec::dumpTo(path, "unit-test"));
    flightrec::clearInflight();
    // The payload is embedded as one escaped string, so the dump stays
    // loadable even when the payload is torn; here it reads back whole.
    const std::string dump = slurp(path);
    EXPECT_EQ(inflightWorkloads(dump),
              std::vector<std::string>{"CRC32"})
        << dump;

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
    const std::string inflight = inflightLine("sha");
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm the recorder the way BITSPEC_FLIGHTREC would,
        // simulate a run in progress, then die the hard way.
        flightrec::install(tmp.path);
        flightrec::record('B', "runCell", "experiment", "sha");
        flightrec::record('C', "instructions", "counters", "99");
        flightrec::setInflight(inflight.c_str());
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
    EXPECT_EQ(inflightWorkloads(dump), std::vector<std::string>{"sha"})
        << dump;
}

} // namespace
} // namespace bitspec
