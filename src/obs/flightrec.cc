#include "obs/flightrec.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>

#include "support/env.h"
#include "support/json.h"
#include "support/log.h"

namespace bitspec::flightrec
{

std::atomic<bool> g_active{false};

namespace
{

constexpr size_t kSlots = 512;       ///< Events kept per thread.
constexpr size_t kNameChars = 64;
constexpr size_t kCatChars = 16;
constexpr size_t kDetailChars = 96;
constexpr size_t kInflightChars = 4096;
constexpr size_t kDirChars = 512;

struct Slot
{
    uint64_t tsNs = 0;
    char phase = 0;
    char name[kNameChars] = {};
    char cat[kCatChars] = {};
    char detail[kDetailChars] = {};
};

/**
 * One thread's ring. Rings are heap-allocated once per thread and
 * intentionally never freed: the crash dumper must be able to walk
 * them from a signal handler long after threads have exited, and a
 * leak of a few hundred KB at process death is the cheap side of
 * that trade.
 */
struct Ring
{
    std::atomic<uint64_t> head{0}; ///< Total events ever recorded.
    uint32_t tid = 0;
    Ring *next = nullptr;          ///< Intrusive registry list.
    std::atomic<bool> inflightSet{false};
    char inflight[kInflightChars] = {};
    Slot slots[kSlots];
};

std::atomic<Ring *> g_rings{nullptr};
std::atomic<uint32_t> g_nextTid{1};
char g_dir[kDirChars] = {};
std::atomic<uint64_t> g_epochNs{0};
std::atomic<uint32_t> g_dumpSeq{0};
/** First crash dump wins; abort() after terminate must not re-dump. */
std::atomic_flag g_crashDumped = ATOMIC_FLAG_INIT;
std::terminate_handler g_prevTerminate = nullptr;

uint64_t
monotonicNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

Ring *
localRing()
{
    thread_local Ring *ring = [] {
        Ring *r = new Ring;
        r->tid = g_nextTid.fetch_add(1, std::memory_order_relaxed);
        r->next = g_rings.load(std::memory_order_acquire);
        while (!g_rings.compare_exchange_weak(
            r->next, r, std::memory_order_release,
            std::memory_order_acquire)) {
        }
        return r;
    }();
    return ring;
}

void
copyTruncated(char *dst, size_t cap, const char *src)
{
    if (!src) {
        dst[0] = 0;
        return;
    }
    size_t i = 0;
    for (; i + 1 < cap && src[i]; ++i)
        dst[i] = src[i];
    dst[i] = 0;
}

/**
 * Append @p src to @p dst JSON-escaped. Everything below here runs in
 * the dump path, possibly inside a signal handler: fixed buffers,
 * no allocation, and snprintf only for integers (glibc's integer
 * formatting does not allocate — the pragmatic crash-handler
 * standard).
 */
void
appendEscaped(char *dst, size_t cap, size_t &len, const char *src)
{
    for (size_t i = 0; src[i] && len + 8 < cap; ++i) {
        unsigned char c = static_cast<unsigned char>(src[i]);
        if (c == '"' || c == '\\') {
            dst[len++] = '\\';
            dst[len++] = static_cast<char>(c);
        } else if (c < 0x20) {
            len += static_cast<size_t>(std::snprintf(
                dst + len, cap - len, "\\u%04x", c));
        } else {
            dst[len++] = static_cast<char>(c);
        }
    }
    dst[len] = 0;
}

void
appendRaw(char *dst, size_t cap, size_t &len, const char *src)
{
    for (size_t i = 0; src[i] && len + 1 < cap; ++i)
        dst[len++] = src[i];
    dst[len] = 0;
}

bool
writeAll(int fd, const char *buf, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::write(fd, buf + off, n - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(w);
    }
    return true;
}

/** Emit one slot as a Chrome trace event. */
bool
writeSlot(int fd, const Slot &slot, uint32_t tid, bool first)
{
    char buf[640];
    size_t len = 0;
    if (!first)
        appendRaw(buf, sizeof buf, len, ",\n");
    appendRaw(buf, sizeof buf, len, "{\"name\":\"");
    appendEscaped(buf, sizeof buf, len, slot.name);
    appendRaw(buf, sizeof buf, len, "\",\"cat\":\"");
    appendEscaped(buf, sizeof buf, len,
                  slot.cat[0] ? slot.cat : "bitspec");
    char ph = slot.phase;
    if (ph != 'B' && ph != 'E' && ph != 'i' && ph != 'C')
        ph = 'i'; // Torn slot: keep the dump loadable.
    len += static_cast<size_t>(std::snprintf(
        buf + len, sizeof buf - len,
        "\",\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"ts\":%llu", ph, tid,
        static_cast<unsigned long long>(slot.tsNs / 1000)));
    if (ph == 'i')
        appendRaw(buf, sizeof buf, len, ",\"s\":\"t\"");
    if (slot.detail[0]) {
        if (ph == 'C' && isJsonNumber(slot.detail)) {
            appendRaw(buf, sizeof buf, len, ",\"args\":{\"value\":");
            appendRaw(buf, sizeof buf, len, slot.detail);
            appendRaw(buf, sizeof buf, len, "}");
        } else {
            appendRaw(buf, sizeof buf, len,
                      ",\"args\":{\"detail\":\"");
            appendEscaped(buf, sizeof buf, len, slot.detail);
            appendRaw(buf, sizeof buf, len, "\"}");
        }
    }
    appendRaw(buf, sizeof buf, len, "}");
    return writeAll(fd, buf, len);
}

/** The whole dump payload; signal-handler safe. */
bool
dumpToFd(int fd, const char *reason)
{
    if (!writeAll(fd, "{\"traceEvents\":[\n", 17))
        return false;
    bool first = true;
    for (Ring *r = g_rings.load(std::memory_order_acquire); r;
         r = r->next) {
        uint64_t head = r->head.load(std::memory_order_acquire);
        uint64_t count = head < kSlots ? head : kSlots;
        // Oldest first; racing writers may overwrite a slot as it is
        // read, which yields a stale-but-escaped event.
        for (uint64_t i = head - count; i < head; ++i) {
            if (!writeSlot(fd, r->slots[i % kSlots], r->tid, first))
                return false;
            first = false;
        }
    }
    char buf[kInflightChars + 256];
    size_t len = 0;
    appendRaw(buf, sizeof buf, len,
              "\n],\"displayTimeUnit\":\"ms\",\"reason\":\"");
    appendEscaped(buf, sizeof buf, len, reason);
    appendRaw(buf, sizeof buf, len, "\",\"inflight\":[");
    if (!writeAll(fd, buf, len))
        return false;
    bool firstInflight = true;
    for (Ring *r = g_rings.load(std::memory_order_acquire); r;
         r = r->next) {
        if (!r->inflightSet.load(std::memory_order_acquire))
            continue;
        len = 0;
        if (!firstInflight)
            appendRaw(buf, sizeof buf, len, ",");
        firstInflight = false;
        // Embedded as an escaped *string*, not raw JSON: a crash
        // mid-setInflight can leave torn bytes, and escaping keeps
        // the dump loadable regardless.
        appendRaw(buf, sizeof buf, len, "\"");
        appendEscaped(buf, sizeof buf, len, r->inflight);
        appendRaw(buf, sizeof buf, len, "\"");
        if (!writeAll(fd, buf, len))
            return false;
    }
    return writeAll(fd, "]}\n", 3);
}

/** Crash-context dump into the configured directory. */
void
crashDump(const char *reason)
{
    if (!g_dir[0])
        return;
    if (g_crashDumped.test_and_set())
        return;
    char path[kDirChars + 96];
    std::snprintf(path, sizeof path, "%s/flightrec-%d-crash.json",
                  g_dir, static_cast<int>(::getpid()));
    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return;
    dumpToFd(fd, reason);
    ::close(fd);
    char msg[kDirChars + 160];
    int n = std::snprintf(msg, sizeof msg,
                          "bitspec[flightrec]: wrote %s (%s)\n", path,
                          reason);
    if (n > 0)
        writeAll(2, msg, static_cast<size_t>(n));
}

extern "C" void
onFatalSignal(int sig)
{
    char reason[32];
    std::snprintf(reason, sizeof reason, "signal:%d", sig);
    crashDump(reason);
    // SA_RESETHAND restored the default disposition; re-raise so the
    // process still dies with the original signal (wait status,
    // core dumps, and the crash-dump test's expectations all hold).
    ::raise(sig);
}

void
onTerminate()
{
    crashDump("terminate");
    if (g_prevTerminate)
        g_prevTerminate();
    std::abort();
}

void
logSink(log::Level level, const char *msg)
{
    static const char *const names[] = {"log.error", "log.warn",
                                        "log.info", "log.debug"};
    record('i', names[static_cast<int>(level)], "log", msg);
}

/** Reads BITSPEC_FLIGHTREC once at static-init time. */
struct EnvInit
{
    EnvInit()
    {
        std::string dir = env::getString("BITSPEC_FLIGHTREC");
        if (!dir.empty())
            install(dir);
    }
};

EnvInit g_envInit;

} // namespace

void
install(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    copyTruncated(g_dir, sizeof g_dir, dir.c_str());
    g_epochNs.store(monotonicNs(), std::memory_order_relaxed);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onFatalSignal;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
        ::sigaction(sig, &sa, nullptr);
    g_prevTerminate = std::set_terminate(onTerminate);
    log::setSink(logSink);
    g_active.store(true, std::memory_order_release);
}

void
setActive(bool on)
{
    if (on && g_epochNs.load(std::memory_order_relaxed) == 0)
        g_epochNs.store(monotonicNs(), std::memory_order_relaxed);
    g_active.store(on, std::memory_order_release);
}

const char *
dumpDir()
{
    return g_dir;
}

void
record(char phase, const char *name, const char *cat,
       const char *detail)
{
    if (!active())
        return;
    Ring *r = localRing();
    uint64_t head = r->head.load(std::memory_order_relaxed);
    Slot &slot = r->slots[head % kSlots];
    slot.tsNs = monotonicNs() -
                g_epochNs.load(std::memory_order_relaxed);
    slot.phase = phase;
    copyTruncated(slot.name, sizeof slot.name, name);
    copyTruncated(slot.cat, sizeof slot.cat, cat);
    copyTruncated(slot.detail, sizeof slot.detail, detail);
    r->head.store(head + 1, std::memory_order_release);
}

void
setInflight(const char *json)
{
    if (!active())
        return;
    Ring *r = localRing();
    copyTruncated(r->inflight, sizeof r->inflight, json);
    r->inflightSet.store(true, std::memory_order_release);
}

void
clearInflight()
{
    if (!active())
        return;
    Ring *r = localRing();
    r->inflightSet.store(false, std::memory_order_release);
    r->inflight[0] = 0;
}

bool
dumpTo(const std::string &path, const char *reason)
{
    int fd = ::open(path.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return false;
    bool ok = dumpToFd(fd, reason);
    ::close(fd);
    return ok;
}

std::string
dumpNow(const char *reason)
{
    if (!g_dir[0])
        return "";
    uint32_t seq = g_dumpSeq.fetch_add(1, std::memory_order_relaxed);
    char path[kDirChars + 96];
    std::snprintf(path, sizeof path, "%s/flightrec-%d-%s-%u.json",
                  g_dir, static_cast<int>(::getpid()), reason, seq);
    if (!dumpTo(path, reason))
        return "";
    return path;
}

size_t
eventCount()
{
    size_t n = 0;
    for (Ring *r = g_rings.load(std::memory_order_acquire); r;
         r = r->next) {
        uint64_t head = r->head.load(std::memory_order_acquire);
        n += head < kSlots ? head : kSlots;
    }
    return n;
}

void
reset()
{
    for (Ring *r = g_rings.load(std::memory_order_acquire); r;
         r = r->next) {
        r->head.store(0, std::memory_order_release);
        r->inflightSet.store(false, std::memory_order_release);
        r->inflight[0] = 0;
    }
}

} // namespace bitspec::flightrec
