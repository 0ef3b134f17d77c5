#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/trace.h"
#include "support/json.h"
#include "workloads/workload.h"

namespace bitspec
{
namespace
{

/** End-to-end: trace two full pipeline+execution workloads, then
 *  validate everything the ISSUE's selfcheck demands. */
class TraceSelfcheck : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::reset();
        trace::setEnabled(true);
        ExperimentRunner runner(2);
        for (const char *name : {"CRC32", "rijndael"}) {
            const Workload &w = getWorkload(name);
            runner.run({ExperimentCell(&w, SystemConfig::bitspec())});
            runner.run({ExperimentCell(&w, SystemConfig::baseline())});
        }
        trace::setEnabled(false);
        events_ = trace::snapshot();
    }

    void TearDown() override { trace::reset(); }

    std::vector<trace::Event> events_;
};

TEST_F(TraceSelfcheck, CapturesCompileAndExecuteSpans)
{
    std::map<std::string, int> begins;
    for (const auto &e : events_)
        if (e.phase == 'B')
            ++begins[e.name];
    // One per System build (2 workloads x 2 configs = 4)...
    EXPECT_EQ(begins["system.build"], 4);
    EXPECT_EQ(begins["backend.compile"], 4);
    // ...one per training, shared by both configs of a workload...
    EXPECT_EQ(begins["system.train"], 2);
    EXPECT_EQ(begins["frontend.parse"], 2);
    EXPECT_EQ(begins["profile.train_run"], 2);
    // ...one per cell run...
    EXPECT_EQ(begins["experiment.cell"], 4);
    EXPECT_EQ(begins["core.run"], 4);
    // ...and the squeezer only on the bitspec builds.
    EXPECT_EQ(begins["transform.squeeze"], 2);
    EXPECT_GT(begins["interp.run"], 0);
}

TEST_F(TraceSelfcheck, BeginEndBalancedPerThread)
{
    // Spans never cross threads, so each thread's B/E stream must
    // follow stack discipline with matching names.
    std::map<uint32_t, std::vector<const trace::Event *>> stacks;
    for (const auto &e : events_) {
        if (e.phase == 'B') {
            stacks[e.tid].push_back(&e);
        } else if (e.phase == 'E') {
            auto &st = stacks[e.tid];
            ASSERT_FALSE(st.empty())
                << "E without B on tid " << e.tid;
            EXPECT_EQ(st.back()->name, e.name);
            st.pop_back();
        }
    }
    for (const auto &[tid, st] : stacks)
        EXPECT_TRUE(st.empty()) << "unclosed span on tid " << tid;
}

TEST_F(TraceSelfcheck, TimestampsMonotonicPerThread)
{
    std::map<uint32_t, uint64_t> last;
    for (const auto &e : events_) {
        if (e.phase == 'M')
            continue; // Metadata records carry no timestamp.
        auto it = last.find(e.tid);
        if (it != last.end()) {
            ASSERT_GE(e.tsNs, it->second)
                << "timestamp regression on tid " << e.tid;
        }
        last[e.tid] = e.tsNs;
    }
}

TEST_F(TraceSelfcheck, CacheInstantsRecorded)
{
    int hits = 0, misses = 0;
    for (const auto &e : events_) {
        if (e.phase != 'i')
            continue;
        if (e.name == "cache.hit")
            ++hits;
        else if (e.name == "cache.miss")
            ++misses;
    }
    EXPECT_EQ(misses, 4); // Four distinct (workload, config) keys.
    EXPECT_EQ(hits, 0);   // Each key evaluated once.
}

TEST_F(TraceSelfcheck, ExportedJsonIsWellFormed)
{
    std::string json = trace::toJson();
    EXPECT_NO_THROW(parseJson(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);

    // writeTo produces the same payload on disk.
    std::string path = ::testing::TempDir() + "trace_selfcheck.json";
    ASSERT_TRUE(trace::writeTo(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NO_THROW(parseJson(buf.str()));
    EXPECT_FALSE(buf.str().empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace bitspec
