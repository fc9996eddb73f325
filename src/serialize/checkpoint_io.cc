#include "serialize/checkpoint_io.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include <fcntl.h>
#include <unistd.h>

namespace nuca {

namespace {

/** Header layout, all little-endian:
 *  u32 magic | u32 format version | u64 config hash |
 *  u64 payload length | u32 payload CRC-32            */
constexpr std::size_t headerSize = 4 + 4 + 8 + 8 + 4;

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** write(2) all @p size bytes; @return 0 or the errno. */
int
writeAll(int fd, const std::uint8_t *data, std::size_t size) noexcept
{
    while (size != 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return 0;
}

} // namespace

std::string
checkpointTempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> serial{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(
               serial.fetch_add(1, std::memory_order_relaxed));
}

int
writeCheckpointTo(const char *path, const char *tmp,
                  std::uint64_t configHash, const std::uint8_t *payload,
                  std::size_t size) noexcept
{
    std::uint8_t header[headerSize];
    RecordWriter w(header);
    w.putU32(checkpointMagic);
    w.putU32(checkpointFormatVersion);
    w.putU64(configHash);
    w.putU64(size);
    w.putU32(crc32(payload, size));

    const int fd =
        ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        return errno;
    int err = writeAll(fd, header, headerSize);
    if (err == 0)
        err = writeAll(fd, payload, size);
    if (::close(fd) != 0 && err == 0)
        err = errno;
    if (err == 0 && ::rename(tmp, path) != 0)
        err = errno;
    if (err != 0)
        ::unlink(tmp);
    return err;
}

void
writeCheckpointFile(const std::string &path,
                    std::uint64_t configHash,
                    const std::vector<std::uint8_t> &payload)
{
    const std::string tmp = checkpointTempPath(path);
    if (const int err =
            writeCheckpointTo(path.c_str(), tmp.c_str(), configHash,
                              payload.data(), payload.size()))
        throw CheckpointError("cannot write checkpoint " + path + ": " +
                              std::strerror(err));
}

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path, std::uint64_t configHash)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        throw CheckpointError("cannot open checkpoint " + path);

    std::uint8_t raw[headerSize];
    if (std::fread(raw, 1, headerSize, f.get()) != headerSize)
        throw CheckpointError("checkpoint header truncated: " +
                              path);
    Deserializer header(raw, headerSize);
    if (header.getU32() != checkpointMagic)
        throw CheckpointError("not a checkpoint file: " + path);
    const auto version = header.getU32();
    if (version != checkpointFormatVersion)
        throw CheckpointError(
            "checkpoint format version " + std::to_string(version) +
            " (expected " +
            std::to_string(checkpointFormatVersion) + "): " + path);
    const auto storedHash = header.getU64();
    if (storedHash != configHash)
        throw CheckpointError(
            "checkpoint configuration hash mismatch (stored " +
            std::to_string(storedHash) + ", expected " +
            std::to_string(configHash) + "): " + path);
    const auto length = header.getU64();
    const auto storedCrc = header.getU32();

    // Trust the length field only once it matches the file, so a
    // corrupt header cannot size a multi-gigabyte buffer. A short
    // file and trailing bytes are both corruption.
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        throw CheckpointError("cannot size checkpoint " + path);
    const long end = std::ftell(f.get());
    if (end < 0 ||
        std::fseek(f.get(), static_cast<long>(headerSize), SEEK_SET) != 0)
        throw CheckpointError("cannot size checkpoint " + path);
    const std::uint64_t actual =
        static_cast<std::uint64_t>(end) - headerSize;
    if (length > actual)
        throw CheckpointError("checkpoint payload truncated: " +
                              path);
    if (length < actual)
        throw CheckpointError("checkpoint has trailing bytes: " +
                              path);

    std::vector<std::uint8_t> payload(length);
    if (!payload.empty() &&
        std::fread(payload.data(), 1, length, f.get()) != length)
        throw CheckpointError("checkpoint payload truncated: " +
                              path);
    if (crc32(payload.data(), payload.size()) != storedCrc)
        throw CheckpointError("checkpoint CRC mismatch: " + path);
    return payload;
}

bool
checkpointFileExists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::exists(path, ec);
}

} // namespace nuca
