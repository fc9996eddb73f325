#include "sim/checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>

#include <pthread.h>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"
#include "sim/trace_event.hh"

namespace nuca {

namespace {

/** FNV-1a over a byte range, continuing from @p hash. */
std::uint64_t
fnv1a(std::uint64_t hash, const std::uint8_t *data, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ull;

/**
 * Canonical encoding of every SystemConfig field, in configFields()
 * order. Uses the same fixed-width wire format as checkpoints, so the
 * digest is stable across platforms and compiler settings.
 */
void
encodeConfig(Serializer &s, const SystemConfig &c)
{
    for (const ConfigField &field : configFields()) {
        const std::uint64_t value = field.get(c);
        switch (field.type) {
          case ConfigField::Type::U64:
            s.putU64(value);
            break;
          case ConfigField::Type::Bool:
            s.putBool(value != 0);
            break;
          default:
            s.putU32(static_cast<std::uint32_t>(value));
        }
    }
}

std::uint64_t
keyOf(const SystemConfig &config,
      const std::vector<std::string> &apps, std::uint64_t seed,
      Cycle warmupCycles, Cycle measureCycles, bool midRun)
{
    Serializer s;
    encodeConfig(s, config);
    s.putU64(apps.size());
    for (const auto &app : apps)
        s.putString(app);
    s.putU64(seed);
    s.putU64(warmupCycles);
    if (midRun)
        s.putU64(measureCycles);
    return fnv1a(fnvOffsetBasis, s.bytes().data(), s.size());
}

std::string
artifactPath(const CheckpointConfig &cfg, std::uint64_t key,
             const char *suffix)
{
    static const char digits[] = "0123456789abcdef";
    std::string name(16, '0');
    for (int i = 15; i >= 0; --i) {
        name[i] = digits[key & 0xf];
        key >>= 4;
    }
    return cfg.dir + "/" + name + suffix;
}

} // namespace

std::uint64_t
hashBytes(const std::uint8_t *data, std::size_t size)
{
    return fnv1a(fnvOffsetBasis, data, size);
}

std::string
hex16(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
    return buf;
}

std::uint64_t
configHash(const SystemConfig &config)
{
    Serializer s;
    encodeConfig(s, config);
    return fnv1a(fnvOffsetBasis, s.bytes().data(), s.size());
}

std::uint64_t
warmupKey(const SystemConfig &config,
          const std::vector<std::string> &apps, std::uint64_t seed,
          Cycle warmupCycles)
{
    return keyOf(config, apps, seed, warmupCycles, 0, false);
}

std::uint64_t
runKey(const SystemConfig &config,
       const std::vector<std::string> &apps, std::uint64_t seed,
       Cycle warmupCycles, Cycle measureCycles)
{
    return keyOf(config, apps, seed, warmupCycles, measureCycles,
                 true);
}

std::string
warmupPath(const CheckpointConfig &cfg, std::uint64_t key)
{
    return artifactPath(cfg, key, ".warm.ckpt");
}

std::string
runPath(const CheckpointConfig &cfg, std::uint64_t key)
{
    return artifactPath(cfg, key, ".run.ckpt");
}

bool
tryRestoreCheckpoint(CmpSystem &system, const std::string &path,
                     std::uint64_t configHash)
{
    if (!checkpointFileExists(path))
        return false;
    try {
        prof::Scope profRestore(prof::Phase::CheckpointRestore);
        const auto payload = readCheckpointFile(path, configHash);
        prof::add(prof::Counter::CheckpointBytesIn, payload.size());
        Deserializer d(payload);
        system.restore(d);
        d.expectEnd("checkpoint payload");
    } catch (const CheckpointError &e) {
        // A stale or corrupt cache entry must never poison a run;
        // fall back to simulating from scratch.
        warn("ignoring unusable checkpoint ", path, ": ", e.what());
        return false;
    }
    // Touch the artifact so the size-capped prune's mtime order is
    // true LRU order, not just write order. Best-effort.
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    return true;
}

namespace {

/** Writes handed to a writer thread and not yet finished. */
std::atomic<std::size_t> writesPending{0};

} // namespace

/**
 * A SnapshotWriter's buffer, its writer thread and their handshake.
 * The owner fills the job fields only while no write is busy, and
 * the writer thread touches them only while one is.
 *
 * The writer thread never calls malloc or free: it is a bare pthread
 * (std::thread frees its start state on the new thread), its job is
 * writeCheckpointTo on owner-built names, and the owner does the
 * warning and the trace span after joining. A thread that never
 * touches the heap never takes a glibc malloc arena. One that did,
 * started per run, changed which arena a sweep's next worker threads
 * got, and a finished sweep's freed memory stayed resident beside the
 * next one's (docs/CHECKPOINT.md, "Cost"). Only the profiler's
 * per-thread state, under REPRO_PROFILE, is allocated there.
 */
struct SnapshotWriter::Worker
{
    // The job, written by the owner.
    Serializer buf;
    std::string path;
    std::string tmp;
    std::uint64_t hash = 0;
    bool traced = false;

    // Its outcome, written by the writer thread.
    int error = 0;
    double startUs = 0.0;
    double endUs = 0.0;

    // Owner-only bookkeeping.
    bool started = false; ///< a write started since the last join
    int track = -1;       ///< Chrome-trace track, once named

    std::mutex mutex;
    std::condition_variable cv;
    bool busy = false; ///< guarded by mutex
    bool stop = false; ///< guarded by mutex
    pthread_t thread{};
    bool running = false;

    ~Worker()
    {
        if (!running)
            return;
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        cv.notify_all();
        ::pthread_join(thread, nullptr);
    }

    /** Start writing on the writer thread, or write here if no
     *  thread can be started (a tight RLIMIT_AS, say). */
    void
    handOff()
    {
        started = true;
        if (!running && !startThread()) {
            write();
            return;
        }
        writesPending.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mutex);
            busy = true;
        }
        cv.notify_all();
    }

    bool
    startThread()
    {
        // The thread inherits a full signal mask: process-directed
        // signals (a sandbox child's SIGTERM preempt, SIGINT) keep
        // landing on the simulating threads, as before.
        sigset_t all;
        sigset_t old;
        sigfillset(&all);
        ::pthread_sigmask(SIG_BLOCK, &all, &old);
        running = ::pthread_create(
                      &thread, nullptr,
                      [](void *self) -> void * {
                          static_cast<Worker *>(self)->loop();
                          return nullptr;
                      },
                      this) == 0;
        ::pthread_sigmask(SIG_SETMASK, &old, nullptr);
        return running;
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            cv.wait(lock, [this] { return busy || stop; });
            if (!busy)
                return;
            lock.unlock();
            write();
            lock.lock();
            busy = false;
            writesPending.fetch_sub(1, std::memory_order_relaxed);
            cv.notify_all();
        }
    }

    /** CRC, write and rename. */
    void
    write()
    {
        TraceEventLog &log = TraceEventLog::global();
        if (traced)
            startUs = log.nowUs();
        {
            prof::Scope profWrite(prof::Phase::CheckpointWrite);
            error = writeCheckpointTo(path.c_str(), tmp.c_str(), hash,
                                      buf.bytes().data(), buf.size());
        }
        if (traced)
            endUs = log.nowUs();
    }

    /** Owner side, after the join: report what the write did. */
    void
    settle()
    {
        if (error != 0)
            warn("could not save checkpoint ", path, ": ",
                 std::strerror(error));
        TraceEventLog &log = TraceEventLog::global();
        if (traced && log.enabled()) {
            if (track < 0)
                track = log.newThread(TraceEventLog::kHostPid,
                                      "ckpt writer");
            log.complete(TraceEventLog::kHostPid, track, "ckpt write",
                         startUs, endUs - startUs,
                         json::Value::object()
                             .set("path", path)
                             .set("bytes", std::uint64_t{buf.size()}));
        }
    }
};

SnapshotWriter::SnapshotWriter(const CheckpointConfig &cfg) : cfg_(cfg)
{
}

SnapshotWriter::~SnapshotWriter()
{
    wait();
}

void
SnapshotWriter::save(const CmpSystem &system, const std::string &path,
                     std::uint64_t configHash)
{
    wait();
    if (!worker_)
        worker_ = std::make_unique<Worker>();
    Worker &w = *worker_;
    prof::Scope profSave(prof::Phase::CheckpointSave);
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    w.buf.clear();
    system.checkpoint(w.buf);
    prof::add(prof::Counter::CheckpointBytesOut, w.buf.size());
    w.path = path;
    w.tmp = checkpointTempPath(path);
    w.hash = configHash;
    w.traced = TraceEventLog::global().enabled();
    w.handOff();
}

bool
SnapshotWriter::join()
{
    if (!worker_ || !worker_->started)
        return false;
    Worker &w = *worker_;
    {
        std::unique_lock<std::mutex> lock(w.mutex);
        w.cv.wait(lock, [&w] { return !w.busy; });
    }
    w.started = false;
    w.settle();
    return true;
}

void
SnapshotWriter::wait()
{
    if (join())
        pruneCheckpointDir(cfg_);
}

void
SnapshotWriter::remove(const std::string &path)
{
    join();
    removeCheckpoint(path);
    pruneCheckpointDir(cfg_);
}

std::size_t
SnapshotWriter::writesInFlight()
{
    return writesPending.load(std::memory_order_relaxed);
}

void
saveCheckpoint(const CmpSystem &system, const std::string &path,
               std::uint64_t configHash)
{
    SnapshotWriter writer;
    writer.save(system, path, configHash);
    writer.wait();
}

void
removeCheckpoint(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

std::size_t
pruneCheckpointDir(const CheckpointConfig &cfg)
{
    if (!cfg.enabled() || cfg.maxMb == 0)
        return 0;

    namespace fs = std::filesystem;
    struct Entry
    {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t size;
    };

    std::error_code ec;
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    for (fs::directory_iterator it(cfg.dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path &p = it->path();
        if (p.extension() != ".ckpt")
            continue;
        std::error_code fec;
        if (!it->is_regular_file(fec) || fec)
            continue;
        Entry e;
        e.path = p;
        e.size = it->file_size(fec);
        if (fec)
            continue;
        e.mtime = fs::last_write_time(p, fec);
        if (fec)
            continue;
        total += e.size;
        entries.push_back(std::move(e));
    }

    const std::uint64_t cap = cfg.maxMb * 1024 * 1024;
    if (total <= cap)
        return 0;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    std::size_t pruned = 0;
    for (const Entry &e : entries) {
        if (total <= cap)
            break;
        std::error_code rec;
        if (fs::remove(e.path, rec) && !rec) {
            total -= e.size;
            ++pruned;
        }
    }
    return pruned;
}

} // namespace nuca
