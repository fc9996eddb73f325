#include "serialize/checkpoint_io.hh"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

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

} // namespace

void
writeCheckpointFile(const std::string &path,
                    std::uint64_t configHash,
                    const std::vector<std::uint8_t> &payload)
{
    Serializer header;
    header.putU32(checkpointMagic);
    header.putU32(checkpointFormatVersion);
    header.putU64(configHash);
    header.putU64(payload.size());
    header.putU32(crc32(payload.data(), payload.size()));

    // Unique per process so concurrent sweep workers sharing a
    // checkpoint directory never clobber each other's temporaries;
    // the final rename is atomic within the filesystem.
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long long>(
            std::hash<std::string>{}(path) ^
            reinterpret_cast<std::uintptr_t>(&payload)));

    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f)
        throw CheckpointError("cannot open checkpoint temporary " +
                              tmp);
    const bool ok =
        std::fwrite(header.bytes().data(), 1, header.size(),
                    f.get()) == header.size() &&
        (payload.empty() ||
         std::fwrite(payload.data(), 1, payload.size(), f.get()) ==
             payload.size()) &&
        std::fflush(f.get()) == 0;
    f.reset();
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("cannot write checkpoint " + path);
    }
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
