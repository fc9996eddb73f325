#include "sim/checkpoint.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "base/logging.hh"
#include "base/profiler.hh"
#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"
#include "sim/cmp_system.hh"

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

void
putCacheLevelParams(Serializer &s, const CacheLevelParams &p)
{
    s.putU64(p.sizeBytes);
    s.putU32(p.assoc);
    s.putU64(p.hitLatency);
    s.putU32(p.mshrs);
}

/**
 * Canonical encoding of every SystemConfig field. Uses the same
 * fixed-width wire format as checkpoints, so the digest is stable
 * across platforms and compiler settings.
 */
void
encodeConfig(Serializer &s, const SystemConfig &c)
{
    s.putU32(c.numCores);
    s.putU32(static_cast<std::uint32_t>(c.scheme));

    s.putU32(c.core.ruuSize);
    s.putU32(c.core.lsqSize);
    s.putU32(c.core.fetchQueueSize);
    s.putU32(c.core.fetchWidth);
    s.putU32(c.core.dispatchWidth);
    s.putU32(c.core.issueWidth);
    s.putU32(c.core.commitWidth);
    s.putU64(c.core.mispredictPenalty);
    s.putU32(c.core.predictor.bimodalEntries);
    s.putU32(c.core.predictor.historyEntries);
    s.putU32(c.core.predictor.historyBits);
    s.putU32(c.core.predictor.chooserEntries);
    s.putU32(c.core.predictor.btbEntries);
    s.putU32(c.core.predictor.btbAssoc);
    s.putU32(c.core.funcUnits.intAlus);
    s.putU32(c.core.funcUnits.fpAlus);
    s.putU32(c.core.funcUnits.intMultDiv);
    s.putU32(c.core.funcUnits.fpMultDiv);
    s.putU32(c.core.funcUnits.memPorts);

    putCacheLevelParams(s, c.coreMem.l1i);
    putCacheLevelParams(s, c.coreMem.l1d);
    putCacheLevelParams(s, c.coreMem.l2i);
    putCacheLevelParams(s, c.coreMem.l2d);
    s.putU32(c.coreMem.tlbEntries);
    s.putU64(c.coreMem.tlbMissPenalty);
    s.putBool(c.coreMem.enablePrefetcher);
    s.putU32(c.coreMem.prefetcher.tableEntries);
    s.putU32(c.coreMem.prefetcher.degree);
    s.putU32(c.coreMem.prefetcher.confidenceThreshold);
    s.putBool(c.coreMem.prefetcher.zoneStreams);
    s.putU32(c.coreMem.prefetcher.zoneEntries);

    s.putU64(c.l3SizePerCoreBytes);
    s.putU32(c.l3LocalAssoc);
    s.putU64(c.l3LocalLatency);
    s.putU64(c.l3SharedLatency);
    s.putU64(c.memFirstChunkShared);
    s.putU64(c.memFirstChunkPrivate);
    s.putU64(c.epochMisses);
    s.putU32(c.shadowSampleShift);
    s.putBool(c.adaptationEnabled);
    s.putBool(c.coherentSharing);
    s.putU32(static_cast<std::uint32_t>(c.l3ReplPolicy));
    s.putU64(c.schemeSeed);
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

void
saveCheckpoint(const CmpSystem &system, const std::string &path,
               std::uint64_t configHash)
{
    try {
        prof::Scope profSave(prof::Phase::CheckpointSave);
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        Serializer s;
        system.checkpoint(s);
        prof::add(prof::Counter::CheckpointBytesOut, s.size());
        writeCheckpointFile(path, configHash, s.bytes());
    } catch (const CheckpointError &e) {
        warn("could not save checkpoint ", path, ": ", e.what());
    }
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
