#include "support/flightrec.h"

#include <atomic>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

namespace treegion::support::flightrec {

namespace {

struct Event
{
    int64_t t_us = 0;     ///< CLOCK_REALTIME microseconds
    uint64_t a = 0;
    uint64_t b = 0;
    char tag[kTagChars] = {};
    char detail[kDetailChars] = {};
};

struct Ring
{
    std::atomic<uint32_t> head{0}; ///< next write index (monotonic)
    std::atomic<uint32_t> tid{0};  ///< claiming thread's small id
    Event events[kRingEvents];
};

// All storage is static: the recorder must work when the heap is the
// thing that broke.
Ring g_rings[kMaxThreads];
std::atomic<uint32_t> g_claimed{0};
std::atomic<uint64_t> g_notes{0};
std::atomic<uint64_t> g_lost{0};
std::atomic<uint32_t> g_next_tid{0};
std::atomic<bool> g_dumped{false};
char g_dump_path[512] = {};

int64_t
wallUs()
{
    struct timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000 +
           ts.tv_nsec / 1000;
}

/** The calling thread's ring, claimed on first use; nullptr once the
 * slots are exhausted. */
Ring *
myRing()
{
    thread_local Ring *ring = []() -> Ring * {
        const uint32_t slot =
            g_claimed.fetch_add(1, std::memory_order_relaxed);
        if (slot >= kMaxThreads)
            return nullptr;
        g_rings[slot].tid.store(
            g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return &g_rings[slot];
    }();
    return ring;
}

void
copyField(char *dst, int cap, const char *src)
{
    int k = 0;
    if (src) {
        for (; k < cap - 1 && src[k]; ++k)
            dst[k] = src[k];
    }
    dst[k] = '\0';
}

// ---- async-signal-safe formatting ---------------------------------

void
putRaw(int fd, const char *data, size_t len)
{
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, data + off, len - off);
        if (n <= 0)
            return;
        off += static_cast<size_t>(n);
    }
}

void
putStr(int fd, const char *s)
{
    putRaw(fd, s, std::strlen(s));
}

void
putU64(int fd, uint64_t v)
{
    char buf[24];
    int k = sizeof(buf);
    do {
        buf[--k] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v);
    putRaw(fd, buf + k, sizeof(buf) - k);
}

void
putI64(int fd, int64_t v)
{
    if (v < 0) {
        putStr(fd, "-");
        putU64(fd, static_cast<uint64_t>(-(v + 1)) + 1);
    } else {
        putU64(fd, static_cast<uint64_t>(v));
    }
}

/** JSON string body: printable ASCII passes, quote/backslash escape,
 * everything else becomes '?' (a crash dump is not the place for
 * \uXXXX machinery). */
void
putEscaped(int fd, const char *s)
{
    for (; *s; ++s) {
        const unsigned char c = static_cast<unsigned char>(*s);
        if (c == '"' || c == '\\') {
            const char esc[2] = {'\\', static_cast<char>(c)};
            putRaw(fd, esc, 2);
        } else if (c >= 0x20 && c < 0x7f) {
            putRaw(fd, reinterpret_cast<const char *>(&c), 1);
        } else {
            putStr(fd, "?");
        }
    }
}

void
crashHandler(int sig)
{
    dumpConfigured();
    // Restore the default disposition and re-raise so the process
    // still dies with the original signal (and core-dumps when
    // configured to).
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_DFL;
    sigaction(sig, &sa, nullptr);
    raise(sig);
}

} // namespace

void
note(const char *tag, const char *detail, uint64_t a, uint64_t b)
{
    g_notes.fetch_add(1, std::memory_order_relaxed);
    Ring *ring = myRing();
    if (!ring) {
        g_lost.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const uint32_t idx =
        ring->head.load(std::memory_order_relaxed);
    Event &e = ring->events[idx % kRingEvents];
    e.t_us = wallUs();
    e.a = a;
    e.b = b;
    copyField(e.tag, kTagChars, tag);
    copyField(e.detail, kDetailChars, detail);
    // Publish after the payload so a post-join reader sees complete
    // events; a mid-crash reader may see a torn latest entry, which
    // the dump format tolerates.
    ring->head.store(idx + 1, std::memory_order_release);
}

uint64_t
noteCount()
{
    return g_notes.load(std::memory_order_relaxed);
}

void
setDumpPath(const char *path)
{
    if (!path || std::strlen(path) >= sizeof(g_dump_path)) {
        g_dump_path[0] = '\0';
        return;
    }
    std::strncpy(g_dump_path, path, sizeof(g_dump_path) - 1);
    g_dump_path[sizeof(g_dump_path) - 1] = '\0';
}

void
dump(int fd)
{
    const uint32_t claimed = g_claimed.load(std::memory_order_relaxed);
    const uint32_t rings =
        claimed < kMaxThreads ? claimed : kMaxThreads;
    for (uint32_t r = 0; r < rings; ++r) {
        Ring &ring = g_rings[r];
        const uint32_t head =
            ring.head.load(std::memory_order_acquire);
        const uint32_t count =
            head < kRingEvents ? head : kRingEvents;
        const uint32_t tid = ring.tid.load(std::memory_order_relaxed);
        for (uint32_t k = 0; k < count; ++k) {
            const Event &e =
                ring.events[(head - count + k) % kRingEvents];
            putStr(fd, "{\"t_us\":");
            putI64(fd, e.t_us);
            putStr(fd, ",\"tid\":");
            putU64(fd, tid);
            putStr(fd, ",\"tag\":\"");
            putEscaped(fd, e.tag);
            putStr(fd, "\",\"detail\":\"");
            putEscaped(fd, e.detail);
            putStr(fd, "\",\"a\":");
            putU64(fd, e.a);
            putStr(fd, ",\"b\":");
            putU64(fd, e.b);
            putStr(fd, "}\n");
        }
    }
    const uint64_t lost = g_lost.load(std::memory_order_relaxed);
    if (lost) {
        putStr(fd, "{\"t_us\":0,\"tid\":0,\"tag\":\"flightrec\","
                   "\"detail\":\"notes lost to thread cap\",\"a\":");
        putU64(fd, lost);
        putStr(fd, ",\"b\":0}\n");
    }
}

bool
dumpToFile(const char *path)
{
    const int fd =
        ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    dump(fd);
    ::close(fd);
    return true;
}

void
dumpConfigured()
{
    bool expected = false;
    if (!g_dumped.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel))
        return;
    if (g_dump_path[0] != '\0') {
        if (dumpToFile(g_dump_path))
            return;
    }
    dump(STDERR_FILENO);
}

bool
installCrashHandlers()
{
    static const int kSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL,
                                   SIGABRT};
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &crashHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_NODEFER;
    bool ok = true;
    for (const int sig : kSignals)
        ok = sigaction(sig, &sa, nullptr) == 0 && ok;
    return ok;
}

} // namespace treegion::support::flightrec
