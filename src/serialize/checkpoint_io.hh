/**
 * @file
 * The on-disk checkpoint container: a fixed header (magic, format
 * version, configuration hash, payload length, CRC-32) followed by
 * the serialized payload. Writes go through a temporary file and a
 * rename so a killed writer never leaves a half-written checkpoint
 * under the final name; reads validate every header field and the
 * checksum before handing any payload bytes to the caller.
 */

#ifndef NUCA_SERIALIZE_CHECKPOINT_IO_HH
#define NUCA_SERIALIZE_CHECKPOINT_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serialize/serializer.hh"

namespace nuca {

/** "NCKP" little-endian. */
constexpr std::uint32_t checkpointMagic = fourcc("NCKP");

/**
 * Bump whenever the payload encoding of any component changes; a
 * version mismatch refuses the load so stale caches re-simulate
 * instead of silently misdecoding.
 */
constexpr std::uint32_t checkpointFormatVersion = 2;

/**
 * A fresh temporary name next to @p path: "<path>.tmp.<pid>.<n>",
 * where n counts every call in this process. No two threads (they
 * differ in n), and no two processes (they differ in pid, whatever
 * their counts), ever get the same name, so concurrent writers
 * sharing a checkpoint directory never open each other's
 * temporaries.
 */
std::string checkpointTempPath(const std::string &path);

/**
 * Write the checkpoint header and @p payload to @p tmp, then rename
 * it to @p path (atomic within the filesystem). Plain POSIX calls on
 * caller-owned memory: it allocates nothing and throws nothing, so a
 * background writer thread can run it without a malloc arena of its
 * own. On failure @p tmp is removed.
 *
 * @return 0, or the errno of the step that failed.
 */
int writeCheckpointTo(const char *path, const char *tmp,
                      std::uint64_t configHash,
                      const std::uint8_t *payload,
                      std::size_t size) noexcept;

/**
 * Atomically write @p payload to @p path under the checkpoint
 * header: writeCheckpointTo through a checkpointTempPath().
 * @p configHash is the caller's digest of everything that
 * determines simulated behaviour (system configuration, workload
 * identity, seed); loads with a different hash are refused.
 *
 * @throws CheckpointError on any I/O failure.
 */
void writeCheckpointFile(const std::string &path,
                         std::uint64_t configHash,
                         const std::vector<std::uint8_t> &payload);

/**
 * Read and validate @p path, returning the payload.
 *
 * @throws CheckpointError when the file is missing or unreadable, is
 *         truncated, fails the CRC, or carries a different magic,
 *         format version, or configuration hash.
 */
std::vector<std::uint8_t>
readCheckpointFile(const std::string &path, std::uint64_t configHash);

/** Whether @p path exists (cheap existence probe, no validation). */
bool checkpointFileExists(const std::string &path);

} // namespace nuca

#endif // NUCA_SERIALIZE_CHECKPOINT_IO_HH
