/**
 * @file
 * Binary serialization primitives for simulator checkpoints: a
 * Serializer that appends fixed little-endian encodings to a growable
 * byte buffer and a bounds-checked Deserializer that reads them back.
 *
 * Every value moves as one whole word: a put grows the buffer once
 * and stores the word, a get checks the bounds once and loads it.
 * Encoders of large fixed-size records (a cache's tag array, a
 * predictor table) go further and take one RecordWriter or
 * RecordReader for the whole record, paying the size update or the
 * bounds check once per record instead of once per value.
 *
 * This layer deliberately has no dependency on the rest of the
 * simulator (not even logging) so the lowest-level libraries can link
 * against it; all failures are reported by throwing CheckpointError.
 */

#ifndef NUCA_SERIALIZE_SERIALIZER_HH
#define NUCA_SERIALIZE_SERIALIZER_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace nuca {

/**
 * Any failure in checkpoint encoding, decoding, or I/O. Callers
 * either surface the message (explicit restores must refuse to
 * produce a wrong result) or catch it and fall back to simulating
 * from scratch (cache lookups).
 */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * @p v converted between host order and the little-endian wire
 * order. Resolved at compile time: the identity on little-endian
 * hosts, a byte swap on big-endian ones (its own inverse, so it
 * serves loads and stores alike).
 */
template <typename T>
constexpr T
littleEndian(T v)
{
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little ||
                  sizeof(T) == 1)
        return v;
    else if constexpr (sizeof(T) == 2)
        return __builtin_bswap16(v);
    else if constexpr (sizeof(T) == 4)
        return __builtin_bswap32(v);
    else
        return __builtin_bswap64(v);
}

/**
 * Stores values into bytes a Serializer has already appended
 * (Serializer::record), with no further size update. This is where
 * the wire encoding of each value type lives; Serializer's own put*
 * are one-value records.
 */
class RecordWriter
{
  public:
    void putU8(std::uint8_t v) { *p_++ = v; }
    void putU16(std::uint16_t v) { store(v); }
    void putU32(std::uint32_t v) { store(v); }
    void putU64(std::uint64_t v) { store(v); }
    void putI64(std::int64_t v) { store(static_cast<std::uint64_t>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** IEEE-754 bit pattern; restoring reproduces the exact bits. */
    void putDouble(double v) { store(std::bit_cast<std::uint64_t>(v)); }

    void
    putBytes(const std::uint8_t *src, std::size_t n)
    {
        if (n != 0)
            std::memcpy(p_, src, n);
        p_ += n;
    }

    /** A writer at @p p; the caller guarantees room for every byte
     *  it puts. Serializer::record hands these out; a fixed-size
     *  encoding (the checkpoint file header) may use one on its own
     *  array. */
    explicit RecordWriter(std::uint8_t *p) : p_(p) {}

  private:

    template <typename T>
    void
    store(T v)
    {
        v = littleEndian(v);
        std::memcpy(p_, &v, sizeof v);
        p_ += sizeof v;
    }

    std::uint8_t *p_;
};

/**
 * Loads values from bytes a Deserializer has already bounds-checked
 * (Deserializer::record), with no further check. Value checks that
 * are not about length (a bool byte other than 0 or 1) still throw.
 */
class RecordReader
{
  public:
    std::uint8_t getU8() { return *p_++; }
    std::uint16_t getU16() { return load<std::uint16_t>(); }
    std::uint32_t getU32() { return load<std::uint32_t>(); }
    std::uint64_t getU64() { return load<std::uint64_t>(); }
    std::int64_t getI64() { return static_cast<std::int64_t>(getU64()); }
    double getDouble() { return std::bit_cast<double>(getU64()); }

    bool
    getBool()
    {
        const auto v = getU8();
        if (v > 1)
            badBool(v);
        return v != 0;
    }

    void
    getBytes(std::uint8_t *dst, std::size_t n)
    {
        if (n != 0)
            std::memcpy(dst, p_, n);
        p_ += n;
    }

  private:
    friend class Deserializer;
    explicit RecordReader(const std::uint8_t *p) : p_(p) {}

    template <typename T>
    T
    load()
    {
        T v;
        std::memcpy(&v, p_, sizeof v);
        p_ += sizeof v;
        return littleEndian(v);
    }

    [[noreturn]] static void badBool(std::uint8_t v);

    const std::uint8_t *p_;
};

/**
 * Appends values to a growable byte buffer in a fixed little-endian
 * wire format, so checkpoints are byte-identical across platforms.
 */
class Serializer
{
  public:
    void putU8(std::uint8_t v) { record(1).putU8(v); }
    void putU16(std::uint16_t v) { record(2).putU16(v); }
    void putU32(std::uint32_t v) { record(4).putU32(v); }
    void putU64(std::uint64_t v) { record(8).putU64(v); }
    void putI64(std::int64_t v) { record(8).putI64(v); }
    void putBool(bool v) { record(1).putBool(v); }
    void putDouble(double v) { record(8).putDouble(v); }
    void putString(const std::string &s);

    /**
     * A section marker. Tags cost four bytes each but catch encoder/
     * decoder drift immediately instead of as garbled state later.
     */
    void putTag(std::uint32_t tag) { putU32(tag); }

    void putVecU64(const std::vector<std::uint64_t> &v);
    void putVecDouble(const std::vector<double> &v);

    /**
     * Append @p n bytes in one size update and return a writer at the
     * first of them. The caller puts exactly @p n bytes through it
     * before the next call on this Serializer.
     */
    RecordWriter
    record(std::size_t n)
    {
        const std::size_t at = buf_.size();
        // Power-of-two capacities, as push_back's doubling gives.
        // resize() alone grows to size + n for a large record; such
        // odd multi-MB blocks raise glibc's dynamic mmap threshold,
        // after which freed checkpoint buffers stay resident in the
        // heap (+3 MB peak RSS on the llc_mix benchmark).
        if (buf_.capacity() - at < n)
            buf_.reserve(std::bit_ceil(at + n));
        buf_.resize(at + n);
        return RecordWriter(buf_.data() + at);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Empty the buffer but keep its capacity, so a Serializer
     *  reused for same-sized snapshots allocates only once. */
    void clear() { buf_.clear(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Reads the Serializer wire format back out of a byte range. Every
 * read is bounds-checked; running off the end or failing a tag or
 * value check throws CheckpointError rather than fabricating state.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8() { return record(1).getU8(); }
    std::uint16_t getU16() { return record(2).getU16(); }
    std::uint32_t getU32() { return record(4).getU32(); }
    std::uint64_t getU64() { return record(8).getU64(); }
    std::int64_t getI64() { return record(8).getI64(); }
    bool getBool() { return record(1).getBool(); }
    double getDouble() { return record(8).getDouble(); }
    std::string getString();

    /** Read a tag and fail loudly if it is not @p expected. */
    void expectTag(std::uint32_t expected, const char *what);

    std::vector<std::uint64_t> getVecU64();
    std::vector<double> getVecDouble();

    /**
     * Read a fixed-geometry table, whose size is implied by the
     * (already hash-matched) configuration, in place: the stored
     * length must equal into.size().
     */
    void getVecU64(std::vector<std::uint64_t> &into, const char *what);

    /**
     * Check once that @p n more bytes are present and return a reader
     * over them; the caller reads exactly @p n bytes through it.
     */
    RecordReader
    record(std::size_t n)
    {
        if (size_ - pos_ < n)
            truncated(n);
        const std::uint8_t *at = data_ + pos_;
        pos_ += n;
        return RecordReader(at);
    }

    /**
     * record() for @p count entries of @p entryBytes each, where
     * @p count comes from the payload: the bound is checked without
     * multiplying, so no count can wrap it.
     */
    RecordReader records(std::uint64_t count, std::size_t entryBytes);

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Fail unless every byte has been consumed. */
    void expectEnd(const char *what);

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;

    [[noreturn]] void truncated(std::size_t n) const;
};

/** CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** Build a four-byte section tag from a literal like "CORE". */
constexpr std::uint32_t
fourcc(const char (&s)[5])
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[0])) |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[1])) << 8 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[2])) << 16 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[3])) << 24;
}

} // namespace nuca

#endif // NUCA_SERIALIZE_SERIALIZER_HH
