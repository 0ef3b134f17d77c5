#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "obs/flightrec.h"
#include "support/env.h"
#include "support/json.h"
#include "support/log.h"

namespace bitspec::trace
{

std::atomic<bool> g_enabled{false};

namespace
{

using Clock = std::chrono::steady_clock;

/** Events of one thread. Appends lock the buffer's own (uncontended)
 *  mutex; the global registry mutex is taken only on thread
 *  registration and at flush. */
struct ThreadBuffer
{
    std::mutex mu;
    std::vector<Event> events;
    uint32_t tid = 0;
};

struct Registry
{
    std::mutex mu;
    /** shared_ptrs keep buffers alive after their thread exits, so a
     *  flush at process exit still sees worker events. */
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::atomic<uint32_t> nextTid{1};
    Clock::time_point epoch = Clock::now();
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        Registry &r = registry();
        b->tid = r.nextTid.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(r.mu);
        r.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - registry().epoch)
            .count());
}

void
append(Event e)
{
    ThreadBuffer &b = localBuffer();
    e.tid = b.tid;
    std::lock_guard<std::mutex> lock(b.mu);
    b.events.push_back(std::move(e));
}

void
writeEvent(std::ostream &os, const Event &e)
{
    os << "{\"name\":\"";
    os << jsonEscape(e.name);
    os << "\",\"cat\":\"" << (e.cat && *e.cat ? e.cat : "bitspec")
       << "\",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid;
    if (e.phase != 'M') {
        char ts[48];
        std::snprintf(ts, sizeof ts, "%.3f",
                      static_cast<double>(e.tsNs) / 1000.0);
        os << ",\"ts\":" << ts;
    }
    if (e.phase == 'i')
        os << ",\"s\":\"t\"";
    if (!e.args.empty()) {
        os << ",\"args\":{";
        for (size_t i = 0; i < e.args.size(); ++i) {
            if (i)
                os << ",";
            os << "\"";
            os << jsonEscape(e.args[i].first);
            os << "\":";
            // A JSON number stays a number, so counter tracks and
            // numeric annotations stay numeric in Perfetto; anything
            // else ("inf", "0x1f", a function named "nan") is text.
            if (isJsonNumber(e.args[i].second)) {
                os << e.args[i].second;
            } else {
                os << "\"";
                os << jsonEscape(e.args[i].second);
                os << "\"";
            }
        }
        os << "}";
    }
    os << "}";
}

/** Reads BITSPEC_TRACE once at static-init time: enables tracing,
 *  names the main thread, and registers the at-exit export. */
struct EnvInit
{
    EnvInit()
    {
        std::string path = env::getString("BITSPEC_TRACE");
        if (path.empty())
            return;
        static std::string s_path;
        s_path = path;
        g_enabled.store(true, std::memory_order_relaxed);
        nameThisThread("main");
        std::atexit([] {
            if (!writeTo(s_path))
                log::error("BITSPEC_TRACE: cannot write %s",
                           s_path.c_str());
            else
                log::info("BITSPEC_TRACE: wrote %s", s_path.c_str());
        });
    }
};

EnvInit g_envInit;

} // namespace

Span::Span(std::string name, const char *category)
    : live_(enabled()), name_(std::move(name)), cat_(category)
{
    // The flight recorder rides along even when tracing is off: its
    // rings are bounded, so always-on capture cannot grow memory the
    // way the trace buffers would.
    if (flightrec::active())
        flightrec::record('B', name_.c_str(), cat_, "");
    if (!live_)
        return;
    Event e;
    e.name = name_;
    e.cat = cat_;
    e.phase = 'B';
    e.tsNs = nowNs();
    append(std::move(e));
}

Span::~Span()
{
    if (flightrec::active())
        flightrec::record('E', name_.c_str(), cat_, "");
    if (!live_)
        return;
    Event e;
    e.name = std::move(name_);
    e.cat = cat_;
    e.phase = 'E';
    e.tsNs = nowNs();
    e.args = std::move(args_);
    append(std::move(e));
}

void
Span::arg(std::string key, std::string value)
{
    if (!live_)
        return;
    args_.emplace_back(std::move(key), std::move(value));
}

void
instant(std::string name, const char *category,
        std::vector<std::pair<std::string, std::string>> args)
{
    if (flightrec::active()) {
        char detail[96];
        size_t len = 0;
        detail[0] = 0;
        for (const auto &[key, value] : args) {
            int n = std::snprintf(detail + len, sizeof detail - len,
                                  "%s%s=%s", len ? " " : "",
                                  key.c_str(), value.c_str());
            if (n < 0 ||
                static_cast<size_t>(n) >= sizeof detail - len)
                break;
            len += static_cast<size_t>(n);
        }
        flightrec::record('i', name.c_str(), category, detail);
    }
    if (!enabled())
        return;
    Event e;
    e.name = std::move(name);
    e.cat = category;
    e.phase = 'i';
    e.tsNs = nowNs();
    e.args = std::move(args);
    append(std::move(e));
}

void
counter(std::string name, const char *category, double value)
{
    const std::string text = jsonNumber(value);
    if (flightrec::active())
        flightrec::record('C', name.c_str(), category, text.c_str());
    if (!enabled())
        return;
    Event e;
    e.name = std::move(name);
    e.cat = category;
    e.phase = 'C';
    e.tsNs = nowNs();
    e.args.emplace_back("value", text);
    append(std::move(e));
}

void
nameThisThread(const std::string &name)
{
    if (!enabled())
        return;
    thread_local bool named = false;
    if (named)
        return;
    named = true;
    ThreadBuffer &b = localBuffer();
    Event e;
    e.name = "thread_name";
    e.phase = 'M';
    e.args.emplace_back("name",
                        name + "-" + std::to_string(b.tid));
    append(std::move(e));
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

std::vector<Event>
snapshot()
{
    Registry &r = registry();
    std::vector<std::shared_ptr<ThreadBuffer>> bufs;
    {
        std::lock_guard<std::mutex> lock(r.mu);
        bufs = r.buffers;
    }
    std::vector<Event> out;
    for (const auto &b : bufs) {
        std::lock_guard<std::mutex> lock(b->mu);
        out.insert(out.end(), b->events.begin(), b->events.end());
    }
    return out;
}

size_t
eventCount()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    size_t n = 0;
    for (const auto &b : r.buffers) {
        std::lock_guard<std::mutex> bl(b->mu);
        n += b->events.size();
    }
    return n;
}

void
reset()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &b : r.buffers) {
        std::lock_guard<std::mutex> bl(b->mu);
        b->events.clear();
    }
}

std::string
toJson()
{
    std::ostringstream os;
    os << "{\"traceEvents\":[\n";
    std::vector<Event> events = snapshot();
    for (size_t i = 0; i < events.size(); ++i) {
        writeEvent(os, events[i]);
        os << (i + 1 < events.size() ? ",\n" : "\n");
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
}

bool
writeTo(const std::string &path)
{
    std::ofstream of(path, std::ios::trunc);
    if (!of)
        return false;
    of << toJson();
    return static_cast<bool>(of);
}

} // namespace bitspec::trace
