/**
 * @file
 * Binary state serialization primitives shared by the checkpoint
 * stack: a CRC32 implementation, growable byte buffers with typed
 * read/write helpers, and a symmetric StateArchive that visits a
 * component's fields once for both save and restore.
 *
 * Readers never trust length prefixes: every count is validated
 * against the bytes actually remaining, so truncated or bit-flipped
 * images fail cleanly instead of over-allocating or reading past the
 * end.
 */

#ifndef FA3C_SIM_SERIAL_HH
#define FA3C_SIM_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/rng.hh"

namespace fa3c::sim {

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of @p size bytes. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);

/** Growable little-endian byte sink. */
class ByteWriter
{
  public:
    /** Append @p size raw bytes. */
    void
    writeRaw(const void *data, std::size_t size)
    {
        buf_.append(static_cast<const char *>(data), size);
    }

    /** Append one trivially copyable value. */
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void
    write(const T &v)
    {
        writeRaw(&v, sizeof(T));
    }

    /** Append a u32 length prefix followed by the bytes. */
    void
    writeBlob(std::string_view bytes)
    {
        write(static_cast<std::uint32_t>(bytes.size()));
        writeRaw(bytes.data(), bytes.size());
    }

    /** Everything written so far. */
    const std::string &bytes() const { return buf_; }

    std::size_t size() const { return buf_.size(); }

  private:
    std::string buf_;
};

/** Bounds-checked reader over a byte image; failures are sticky. */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t size)
        : data_(static_cast<const char *>(data)), size_(size)
    {
    }

    explicit ByteReader(std::string_view bytes)
        : ByteReader(bytes.data(), bytes.size())
    {
    }

    /** Step over @p size bytes without copying them; @p at points
     * at the first. @return false past the end. */
    bool
    view(std::size_t size, const char *&at)
    {
        if (!ok_ || size > size_ - pos_) {
            ok_ = false;
            return false;
        }
        at = data_ + pos_;
        pos_ += size;
        return true;
    }

    /** Copy @p size bytes out. @return false past the end. */
    bool
    readRaw(void *out, std::size_t size)
    {
        const char *at = nullptr;
        if (!view(size, at))
            return false;
        std::memcpy(out, at, size);
        return true;
    }

    /** Read one trivially copyable value. */
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    bool
    read(T &v)
    {
        return readRaw(&v, sizeof(T));
    }

    /** Read a u32-length-prefixed blob written by writeBlob. */
    bool
    readBlob(std::string &out)
    {
        std::uint32_t size = 0;
        if (!read(size) || size > remaining()) {
            ok_ = false;
            return false;
        }
        out.assign(data_ + pos_, size);
        pos_ += size;
        return true;
    }

    std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

    /** False once any read has failed. */
    bool ok() const { return ok_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Symmetric field visitor: constructed over a ByteWriter it appends
 * each visited field, constructed over a ByteReader it restores them
 * in the same order. Components implement one archiveState() that
 * lists their fields once, and get save and load for free.
 */
class StateArchive
{
  public:
    explicit StateArchive(ByteWriter &w) : writer_(&w) {}
    explicit StateArchive(ByteReader &r) : reader_(&r) {}

    bool saving() const { return writer_ != nullptr; }

    /** Visit one trivially copyable field. */
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    bool
    operator()(T &v)
    {
        if (writer_) {
            writer_->write(v);
            return true;
        }
        return reader_->read(v);
    }

    /** Visit an Rng (its full state, including the Gaussian spare). */
    bool
    operator()(Rng &rng)
    {
        if (writer_) {
            writer_->write(rng.state());
            return true;
        }
        RngState st;
        if (!reader_->read(st))
            return false;
        rng.setState(st);
        return true;
    }

    /** Visit a resizable vector of trivially copyable elements. */
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    bool
    operator()(std::vector<T> &v)
    {
        if (writer_) {
            writer_->write(static_cast<std::uint32_t>(v.size()));
            writer_->writeRaw(v.data(), v.size() * sizeof(T));
            return true;
        }
        std::uint32_t count = 0;
        if (!reader_->read(count) ||
            count > reader_->remaining() / sizeof(T))
            return false;
        v.resize(count);
        return reader_->readRaw(v.data(), count * sizeof(T));
    }

    /** Visit a fixed-size span; the element count must match. */
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    bool
    span(std::span<T> s)
    {
        if (writer_) {
            writer_->write(static_cast<std::uint32_t>(s.size()));
            writer_->writeRaw(s.data(), s.size_bytes());
            return true;
        }
        std::uint32_t count = 0;
        if (!reader_->read(count) || count != s.size())
            return false;
        return reader_->readRaw(s.data(), s.size_bytes());
    }

    /** Visit every field in order; stops at the first failure. */
    template <typename... Ts>
    bool
    fields(Ts &...vs)
    {
        return ((*this)(vs) && ...);
    }

  private:
    ByteWriter *writer_ = nullptr;
    ByteReader *reader_ = nullptr;
};

} // namespace fa3c::sim

#endif // FA3C_SIM_SERIAL_HH
