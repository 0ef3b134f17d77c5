#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "support/json.h"

namespace bitspec
{
namespace
{

/** Every case starts from a clean, enabled tracer and leaves it
 *  disabled and empty. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::reset();
        trace::setEnabled(true);
    }

    void
    TearDown() override
    {
        trace::setEnabled(false);
        trace::reset();
    }
};

TEST_F(TraceTest, SpanEmitsBalancedBeginEnd)
{
    {
        trace::Span s("unit.span", "test");
    }
    auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, 'B');
    EXPECT_EQ(events[0].name, "unit.span");
    EXPECT_EQ(events[1].phase, 'E');
    EXPECT_EQ(events[1].name, "unit.span");
    EXPECT_LE(events[0].tsNs, events[1].tsNs);
    EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, DisabledSpanEmitsNothing)
{
    trace::setEnabled(false);
    {
        trace::Span s("unit.hidden", "test");
        s.arg("k", "v");
        trace::instant("unit.instant", "test");
        trace::counter("unit.counter", "test", 1.0);
    }
    EXPECT_EQ(trace::eventCount(), 0u);
}

TEST_F(TraceTest, ArgsLandOnEndEvent)
{
    {
        trace::Span s("unit.args", "test");
        s.arg("answer", "42");
        s.arg("name", "squeeze");
    }
    auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_TRUE(events[0].args.empty());
    ASSERT_EQ(events[1].args.size(), 2u);
    EXPECT_EQ(events[1].args[0].first, "answer");
    EXPECT_EQ(events[1].args[0].second, "42");
}

TEST_F(TraceTest, NestedSpansCloseInnerFirst)
{
    {
        trace::Span outer("outer", "test");
        trace::Span inner("inner", "test");
    }
    auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[2].name, "inner"); // Inner 'E' before outer 'E'.
    EXPECT_EQ(events[3].name, "outer");
}

TEST_F(TraceTest, InstantAndCounterPhases)
{
    trace::instant("tick", "test", {{"k", "v"}});
    trace::counter("gauge", "test", 3.5);
    auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, 'i');
    EXPECT_EQ(events[1].phase, 'C');
}

TEST_F(TraceTest, ThreadsGetDistinctTids)
{
    uint32_t main_tid = 0;
    {
        trace::Span s("main.span", "test");
    }
    main_tid = trace::snapshot().back().tid;

    std::thread t([] { trace::Span s("worker.span", "test"); });
    t.join();

    auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 4u);
    uint32_t worker_tid = events.back().tid;
    EXPECT_NE(main_tid, worker_tid);
}

TEST_F(TraceTest, PerThreadTimestampsAreMonotonic)
{
    for (int i = 0; i < 100; ++i) {
        trace::Span s("loop.span", "test");
    }
    auto events = trace::snapshot();
    ASSERT_EQ(events.size(), 200u);
    for (size_t i = 1; i < events.size(); ++i) {
        ASSERT_EQ(events[i].tid, events[0].tid);
        EXPECT_GE(events[i].tsNs, events[i - 1].tsNs);
    }
}

TEST_F(TraceTest, JsonHasTraceEventsArray)
{
    {
        trace::Span s("json.span", "test");
        s.arg("count", "12");
        s.arg("label", "abc");
    }
    std::string json = trace::toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"json.span\""), std::string::npos);
    // Numeric-looking args are exported unquoted, text quoted.
    EXPECT_NE(json.find("\"count\":12"), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"abc\""), std::string::npos);
}

TEST_F(TraceTest, ArgsAreNumbersOnlyByJsonGrammar)
{
    // A C-subset function named inf or nan is a span arg like any
    // other: only text the JSON number grammar accepts goes unquoted.
    const std::vector<std::string> texts = {"inf", "nan", "0x1f", " 12",
                                            "1."};
    const std::vector<std::string> numbers = {"12", "-0.5", "1e3"};
    {
        trace::Span s("grammar.span", "test");
        for (size_t i = 0; i < texts.size(); ++i)
            s.arg("t" + std::to_string(i), texts[i]);
        for (size_t i = 0; i < numbers.size(); ++i)
            s.arg("n" + std::to_string(i), numbers[i]);
    }
    trace::counter("unbounded", "test",
                   std::numeric_limits<double>::infinity());

    const JsonValue doc = parseJson(trace::toJson());
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    const JsonValue *args = nullptr;
    for (const JsonValue &e : events->asArray())
        if (e.getString("ph") == "E")
            args = e.find("args");
    ASSERT_NE(args, nullptr);
    for (size_t i = 0; i < texts.size(); ++i) {
        const JsonValue *v = args->find("t" + std::to_string(i));
        ASSERT_NE(v, nullptr) << texts[i];
        EXPECT_EQ(v->kind, JsonValue::Kind::String) << texts[i];
        EXPECT_EQ(v->text, texts[i]);
    }
    for (size_t i = 0; i < numbers.size(); ++i) {
        const JsonValue *v = args->find("n" + std::to_string(i));
        ASSERT_NE(v, nullptr) << numbers[i];
        EXPECT_EQ(v->kind, JsonValue::Kind::Number) << numbers[i];
        EXPECT_EQ(v->text, numbers[i]);
    }
}

TEST_F(TraceTest, ResetDropsEverything)
{
    trace::instant("gone", "test");
    EXPECT_GT(trace::eventCount(), 0u);
    trace::reset();
    EXPECT_EQ(trace::eventCount(), 0u);
}

} // namespace
} // namespace bitspec
