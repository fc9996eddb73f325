/**
 * @file
 * The serialization wire format and the on-disk checkpoint
 * container: primitive round-trips, bounds checking, and every
 * refusal path of the file header (magic, version, config hash,
 * CRC, truncation, trailing bytes), and temporaries that no two
 * writers share.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"

namespace {

using namespace nuca;

TEST(Serializer, PrimitivesRoundTrip)
{
    Serializer s;
    s.putU8(0xab);
    s.putU16(0xbeef);
    s.putU32(0xdeadbeefu);
    s.putU64(0x0123456789abcdefull);
    s.putI64(-42);
    s.putBool(true);
    s.putBool(false);
    s.putDouble(3.14159);
    s.putDouble(-0.0);
    s.putString("hello checkpoint");
    s.putString("");

    Deserializer d(s.bytes());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_EQ(d.getU16(), 0xbeef);
    EXPECT_EQ(d.getU32(), 0xdeadbeefu);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_TRUE(d.getBool());
    EXPECT_FALSE(d.getBool());
    EXPECT_EQ(d.getDouble(), 3.14159);
    const double neg_zero = d.getDouble();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(d.getString(), "hello checkpoint");
    EXPECT_EQ(d.getString(), "");
    EXPECT_TRUE(d.atEnd());
    EXPECT_NO_THROW(d.expectEnd("test payload"));
}

TEST(Serializer, LittleEndianLayout)
{
    Serializer s;
    s.putU32(0x04030201u);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s.bytes()[0], 1);
    EXPECT_EQ(s.bytes()[1], 2);
    EXPECT_EQ(s.bytes()[2], 3);
    EXPECT_EQ(s.bytes()[3], 4);
}

TEST(Serializer, ExtremeIntegers)
{
    Serializer s;
    s.putU64(std::numeric_limits<std::uint64_t>::max());
    s.putI64(std::numeric_limits<std::int64_t>::min());
    s.putDouble(std::numeric_limits<double>::infinity());

    Deserializer d(s.bytes());
    EXPECT_EQ(d.getU64(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(d.getI64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(d.getDouble(),
              std::numeric_limits<double>::infinity());
}

TEST(Serializer, VectorsRoundTrip)
{
    Serializer s;
    const std::vector<std::uint64_t> u = {1, 2, 0xffffffffffull};
    const std::vector<double> f = {0.5, -1.25, 1e300};
    s.putVecU64(u);
    s.putVecDouble(f);
    s.putVecU64({});

    Deserializer d(s.bytes());
    EXPECT_EQ(d.getVecU64(), u);
    EXPECT_EQ(d.getVecDouble(), f);
    EXPECT_TRUE(d.getVecU64().empty());
}

TEST(Serializer, ExpectedLengthVectorMismatchThrows)
{
    Serializer s;
    s.putVecU64({1, 2, 3});
    Deserializer d(s.bytes());
    std::vector<std::uint64_t> table(4);
    EXPECT_THROW(d.getVecU64(table, "fixed table"), CheckpointError);

    Deserializer again(s.bytes());
    table.resize(3);
    again.getVecU64(table, "fixed table");
    EXPECT_EQ(table, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Serializer, ReadPastEndThrows)
{
    Serializer s;
    s.putU32(7);
    Deserializer d(s.bytes());
    d.getU16();
    EXPECT_THROW(d.getU32(), CheckpointError);
}

TEST(Serializer, TagMismatchThrows)
{
    Serializer s;
    s.putTag(fourcc("AAAA"));
    Deserializer d(s.bytes());
    EXPECT_THROW(d.expectTag(fourcc("BBBB"), "section"),
                 CheckpointError);
}

TEST(Serializer, BadBoolThrows)
{
    Serializer s;
    s.putU8(2);
    Deserializer d(s.bytes());
    EXPECT_THROW(d.getBool(), CheckpointError);
}

TEST(Serializer, ExpectEndWithLeftoverThrows)
{
    Serializer s;
    s.putU8(0);
    Deserializer d(s.bytes());
    EXPECT_THROW(d.expectEnd("payload"), CheckpointError);
}

TEST(Serializer, HugeVectorLengthThrowsWithoutAllocating)
{
    // n * 8 wraps to a small number for n >= 2^61; the length check
    // must not, or std::vector(n) throws something other than
    // CheckpointError.
    for (const std::uint64_t n :
         {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
          ~std::uint64_t{0}, std::uint64_t{2}}) {
        Serializer s;
        s.putU64(n);
        s.putU64(0); // one element's worth of bytes
        Deserializer u(s.bytes());
        EXPECT_THROW(u.getVecU64(), CheckpointError) << n;
        Deserializer f(s.bytes());
        EXPECT_THROW(f.getVecDouble(), CheckpointError) << n;
    }
    Serializer s;
    s.putU64(2);
    s.putU64(0);
    Deserializer d(s.bytes());
    std::vector<std::uint64_t> table(2);
    EXPECT_THROW(d.getVecU64(table, "fixed table"), CheckpointError);
}

TEST(Crc32, KnownVector)
{
    // The classic check value: crc32("123456789") = 0xcbf43926.
    const char *text = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(text), 9),
              0xcbf43926u);
}

/** Bit-at-a-time reflected IEEE CRC-32: the definition itself. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
    return ~c;
}

std::vector<std::uint8_t>
pseudoRandomBytes(std::size_t n)
{
    std::vector<std::uint8_t> bytes(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto &b : bytes) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x >> 24);
    }
    return bytes;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    const auto bytes = pseudoRandomBytes(257 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 257; ++len) {
            ASSERT_EQ(crc32(bytes.data() + offset, len),
                      referenceCrc32(bytes.data() + offset, len))
                << "offset " << offset << ", length " << len;
        }
    }
}

TEST(Crc32, MatchesBytewiseReferenceOnALargeBuffer)
{
    const auto bytes = pseudoRandomBytes(4u << 20);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()),
              referenceCrc32(bytes.data(), bytes.size()));
}

class CheckpointIoTest : public ::testing::Test
{
  protected:
    std::string
    path() const
    {
        return ::testing::TempDir() + "ckpt_io_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".ckpt";
    }

    void
    TearDown() override
    {
        std::remove(path().c_str());
    }

    std::vector<std::uint8_t> payload_ = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint64_t hash_ = 0x1122334455667788ull;
};

TEST_F(CheckpointIoTest, RoundTrip)
{
    writeCheckpointFile(path(), hash_, payload_);
    EXPECT_TRUE(checkpointFileExists(path()));
    EXPECT_EQ(readCheckpointFile(path(), hash_), payload_);
}

TEST_F(CheckpointIoTest, MissingFileThrows)
{
    EXPECT_FALSE(checkpointFileExists(path()));
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, WrongConfigHashRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    EXPECT_THROW(readCheckpointFile(path(), hash_ + 1),
                 CheckpointError);
}

TEST_F(CheckpointIoTest, CorruptPayloadFailsCrc)
{
    writeCheckpointFile(path(), hash_, payload_);
    // Flip one payload byte (the payload follows the fixed header).
    std::fstream f(path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xff');
    f.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, WrongMagicRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    std::fstream f(path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
    f.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, WrongVersionRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    // The version field sits right after the 4-byte magic.
    std::fstream f(path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\x7f');
    f.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, TruncatedFileRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    std::ifstream in(path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 3));
    out.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, TrailingBytesRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    std::ofstream out(path(),
                      std::ios::binary | std::ios::app);
    out.put('Z');
    out.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, LengthFieldMustMatchTheFileSize)
{
    writeCheckpointFile(path(), hash_, payload_);
    const std::uint64_t fileSize = 28 + payload_.size();
    // A huge length must be refused before anything is allocated for
    // it; one just past the file must be refused as truncation.
    for (const std::uint64_t length :
         {std::uint64_t{1} << 62, fileSize + 1, fileSize,
          std::uint64_t{payload_.size() - 1}}) {
        std::fstream f(path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16); // after magic, version and configuration hash
        for (int i = 0; i < 8; ++i)
            f.put(static_cast<char>(length >> (8 * i)));
        f.close();
        EXPECT_THROW(readCheckpointFile(path(), hash_),
                     CheckpointError)
            << "length " << length;
    }
}

TEST_F(CheckpointIoTest, EmptyPayloadRoundTrips)
{
    writeCheckpointFile(path(), hash_, {});
    EXPECT_TRUE(readCheckpointFile(path(), hash_).empty());
}

TEST(CheckpointTempPath, NamesAreUniqueAndCarryThePid)
{
    const std::string path = "cache/0123456789abcdef.warm.ckpt";
    const std::string first = checkpointTempPath(path);
    const std::string second = checkpointTempPath(path);
    EXPECT_NE(first, second);
    const std::string stem =
        path + ".tmp." + std::to_string(::getpid()) + ".";
    for (const std::string &name : {first, second}) {
        EXPECT_EQ(name.compare(0, stem.size(), stem), 0) << name;
        EXPECT_GT(name.size(), stem.size()) << name;
    }
}

TEST(CheckpointTempPath, ForkedWritersOfOnePathLeaveALoadableFile)
{
    // Two forked children run the same code at the same addresses,
    // as two sandboxed daemon jobs sharing a warm-up key do. Each
    // writes the one path 50 times; no write may fail, and the file
    // left must load with no temporary beside it.
    namespace fs = std::filesystem;
    const fs::path dir = ::testing::TempDir() + "ckpt_forked_writers";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "shared.ckpt").string();
    constexpr std::uint64_t hash = 0x5eed;

    // Both children block on the pipe until the parent closes it, so
    // their writes overlap from the first one.
    int start[2];
    ASSERT_EQ(::pipe(start), 0);
    pid_t children[2];
    for (int k = 0; k < 2; ++k) {
        children[k] = ::fork();
        ASSERT_GE(children[k], 0);
        if (children[k] == 0) {
            ::close(start[1]);
            char go;
            if (::read(start[0], &go, 1) != 0)
                ::_exit(2);
            const std::vector<std::uint8_t> payload(
                1 << 20, static_cast<std::uint8_t>('a' + k));
            int failures = 0;
            for (int i = 0; i < 50; ++i) {
                try {
                    writeCheckpointFile(path, hash, payload);
                } catch (const CheckpointError &) {
                    ++failures;
                }
            }
            ::_exit(failures == 0 ? 0 : 1);
        }
    }
    ::close(start[0]);
    ::close(start[1]);
    for (const pid_t child : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "a child's write failed";
    }

    EXPECT_EQ(readCheckpointFile(path, hash).size(), 1u << 20);
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << entry.path();
    }
    fs::remove_all(dir);
}

} // namespace
