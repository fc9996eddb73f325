#include "serialize/serializer.hh"

#include <array>
#include <cstring>

namespace nuca {

void
Serializer::putString(const std::string &s)
{
    auto w = record(8 + s.size());
    w.putU64(s.size());
    w.putBytes(reinterpret_cast<const std::uint8_t *>(s.data()),
               s.size());
}

void
Serializer::putVecU64(const std::vector<std::uint64_t> &v)
{
    auto w = record(8 + 8 * v.size());
    w.putU64(v.size());
    for (const auto x : v)
        w.putU64(x);
}

void
Serializer::putVecDouble(const std::vector<double> &v)
{
    auto w = record(8 + 8 * v.size());
    w.putU64(v.size());
    for (const auto x : v)
        w.putDouble(x);
}

void
RecordReader::badBool(std::uint8_t v)
{
    throw CheckpointError("checkpoint corrupt: bool byte " +
                          std::to_string(v));
}

void
Deserializer::truncated(std::size_t n) const
{
    throw CheckpointError("checkpoint truncated: need " +
                          std::to_string(n) + " bytes, " +
                          std::to_string(size_ - pos_) + " remain");
}

RecordReader
Deserializer::records(std::uint64_t count, std::size_t entryBytes)
{
    if (count > remaining() / entryBytes)
        throw CheckpointError("checkpoint truncated: need " +
                              std::to_string(count) + " entries of " +
                              std::to_string(entryBytes) + " bytes, " +
                              std::to_string(remaining()) +
                              " bytes remain");
    return record(count * entryBytes);
}

std::string
Deserializer::getString()
{
    const std::uint64_t n = getU64();
    auto r = records(n, 1);
    std::string s(n, '\0');
    r.getBytes(reinterpret_cast<std::uint8_t *>(s.data()), n);
    return s;
}

void
Deserializer::expectTag(std::uint32_t expected, const char *what)
{
    const auto got = getU32();
    if (got != expected)
        throw CheckpointError(
            std::string("checkpoint section mismatch at ") + what);
}

std::vector<std::uint64_t>
Deserializer::getVecU64()
{
    const std::uint64_t n = getU64();
    auto r = records(n, 8);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = r.getU64();
    return v;
}

void
Deserializer::getVecU64(std::vector<std::uint64_t> &into,
                        const char *what)
{
    const std::uint64_t n = getU64();
    if (n != into.size())
        throw CheckpointError(std::string("checkpoint length "
                                          "mismatch at ") +
                              what + ": stored " + std::to_string(n) +
                              ", expected " +
                              std::to_string(into.size()));
    auto r = record(n * 8);
    for (auto &x : into)
        x = r.getU64();
}

std::vector<double>
Deserializer::getVecDouble()
{
    const std::uint64_t n = getU64();
    auto r = records(n, 8);
    std::vector<double> v(n);
    for (auto &x : v)
        x = r.getDouble();
    return v;
}

void
Deserializer::expectEnd(const char *what)
{
    if (!atEnd())
        throw CheckpointError(std::string(what) + ": " +
                              std::to_string(remaining()) +
                              " trailing bytes");
}

namespace {

/**
 * Slicing-by-8 tables: crcTables[0] is the classic byte table, and
 * crcTables[k][b] is the CRC contribution of byte b followed by k
 * zero bytes, so eight table lookups advance the CRC a whole word.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr auto crcTables = makeCrcTables();

std::uint32_t
loadU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return littleEndian(v);
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const auto &t = crcTables;
    std::uint32_t c = 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = loadU32(data) ^ c;
        const std::uint32_t hi = loadU32(data + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace nuca
