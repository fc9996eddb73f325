/**
 * @file
 * The content-addressed checkpoint cache and mid-run resume policy.
 *
 * Warmup artifacts are keyed by a hash of everything that determines
 * the warmed state bit-for-bit: the full SystemConfig, the per-core
 * application names, the mix seed, and the warmup length. Two jobs
 * that agree on all four would simulate identical warmups, so the
 * second one restores the first one's snapshot instead. Anything
 * else — a different scheme, an extra core, one more warmup cycle —
 * changes the key and misses the cache.
 *
 * Mid-run artifacts additionally key on the measurement length and
 * are consumed only under REPRO_RESUME=1, so a killed sweep restarts
 * from its last periodic snapshot rather than from the warmup.
 *
 * Every load is defensive: a missing file is a silent cache miss, a
 * corrupt or mismatched file is a warning plus a miss. The simulation
 * from scratch is always the fallback, never a wrong result.
 */

#ifndef NUCA_SIM_CHECKPOINT_HH
#define NUCA_SIM_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/system_config.hh"

namespace nuca {

class CmpSystem;

/** Checkpoint knobs (REPRO_CKPT_DIR / REPRO_CKPT_PERIOD /
 *  REPRO_CKPT_MAX_MB). */
struct CheckpointConfig
{
    /** Cache directory; empty disables checkpointing entirely. */
    std::string dir;

    /** Cycles between mid-run snapshots; 0 disables them. */
    Cycle period = 0;

    /** Size cap on the cache directory in MiB; 0 = unbounded
     *  (REPRO_CKPT_MAX_MB). */
    std::uint64_t maxMb = 0;

    bool enabled() const { return !dir.empty(); }
};

/**
 * Digest of every SystemConfig field, stored in the checkpoint file
 * header: a checkpoint written under one configuration refuses to
 * load into a system built from another.
 */
std::uint64_t configHash(const SystemConfig &config);

/** Content key of a warmup artifact. */
std::uint64_t warmupKey(const SystemConfig &config,
                        const std::vector<std::string> &apps,
                        std::uint64_t seed, Cycle warmupCycles);

/** Content key of a mid-run artifact (warmup key + measure length). */
std::uint64_t runKey(const SystemConfig &config,
                     const std::vector<std::string> &apps,
                     std::uint64_t seed, Cycle warmupCycles,
                     Cycle measureCycles);

/** File path of the artifact with content key @p key. */
std::string warmupPath(const CheckpointConfig &cfg, std::uint64_t key);
std::string runPath(const CheckpointConfig &cfg, std::uint64_t key);

/**
 * Restore @p system from the checkpoint at @p path if one is there.
 * A missing file is a silent miss; a corrupt, truncated, or
 * mismatched file warns and is treated as a miss.
 *
 * @return true when the system now holds the checkpointed state.
 */
bool tryRestoreCheckpoint(CmpSystem &system, const std::string &path,
                          std::uint64_t configHash);

/**
 * Saves one run's snapshots off its critical path. save() serializes
 * the system on the calling thread into a buffer this object owns
 * and reuses, then hands the CRC-32, the file write and the rename
 * to one writer thread that lives as long as the object, so the
 * simulation goes on while the file is written. At most one write is
 * in flight: save() first waits for the previous one. The files are
 * byte-identical to a synchronous save.
 *
 * One owner thread makes every call, and all allocation happens
 * there: the writer thread never touches the heap (see
 * SnapshotWriter::Worker), and it blocks every asynchronous signal,
 * so a SIGTERM preempt still lands on the simulating thread. The
 * destructor waits, so a run that returns or unwinds leaves its last
 * snapshot complete on disk. Best-effort like the cache as a whole:
 * a failed write warns (on the owner thread, when joined) and the
 * run goes on.
 */
class SnapshotWriter
{
  public:
    /** @p cfg supplies the size cap wait() enforces; the default
     *  (no cap) never prunes. */
    explicit SnapshotWriter(const CheckpointConfig &cfg = {});
    ~SnapshotWriter();
    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** Wait for the previous write, serialize @p system and start
     *  writing it to @p path (tmp + rename, as saveCheckpoint). */
    void save(const CmpSystem &system, const std::string &path,
              std::uint64_t configHash);

    /** Join the write in flight, if any, then pruneCheckpointDir. */
    void wait();

    /** Join the write in flight, delete @p path, then prune: the
     *  deleted snapshot cannot reappear from a late rename. */
    void remove(const std::string &path);

    /** Writes handed off but not finished, over all writers in the
     *  process (0 whenever no run is saving). */
    static std::size_t writesInFlight();

  private:
    struct Worker;

    /** Block until the write in flight has finished; @return
     *  whether there was one since the last join. */
    bool join();

    CheckpointConfig cfg_;
    std::unique_ptr<Worker> worker_;
};

/**
 * Snapshot @p system to @p path (atomically, via tmp + rename), and
 * return once the file is in place: a SnapshotWriter's save() then
 * wait(). Best-effort: an unwritable directory warns instead of
 * failing the run — the cache is an accelerator, not a dependency.
 */
void saveCheckpoint(const CmpSystem &system, const std::string &path,
                    std::uint64_t configHash);

/** Delete the artifact at @p path, ignoring a missing file. */
void removeCheckpoint(const std::string &path);

/**
 * Enforce cfg.maxMb on the cache directory: while the total size of
 * its "*.ckpt" files exceeds the cap, delete the least-recently-used
 * one (restores touch their artifact's mtime, so mtime order IS use
 * order). Best-effort and safe under concurrency — a file deleted
 * out from under a reader is just a cache miss. No-op when the cap
 * is 0 or the directory is missing.
 *
 * @return the number of artifacts deleted.
 */
std::size_t pruneCheckpointDir(const CheckpointConfig &cfg);

/**
 * FNV-1a digest of a byte range — the same function every checkpoint
 * content key uses, exported so the service layer can derive keys
 * for non-mix artifacts (miss-curve results) in the same key space.
 */
std::uint64_t hashBytes(const std::uint8_t *data, std::size_t size);

/** A content key as 16 hex digits: its file name and wire form. */
std::string hex16(std::uint64_t key);

} // namespace nuca

#endif // NUCA_SIM_CHECKPOINT_HH
