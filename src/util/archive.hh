/**
 * @file
 * Minimal binary archive: a byte-appending writer and a bounds-checked
 * reader with the same call shape, so one field list (a template over
 * the archive) serves both directions. The persistent translation
 * store builds its entry format on them.
 *
 * Fields go by type, explicit little-endian: bool as one byte, enums
 * as u32, other integers by width, doubles as IEEE-754 bit patterns.
 * Files written on one host parse identically on any other and
 * byte-compare across runs.
 *
 * The reader is fail-sticky: any read past the end, any container
 * count larger than the bytes left could hold, and any failed check()
 * sets a sticky error flag. Failed reads return zero and later counts
 * read as zero, so a field list runs straight through without
 * allocating from a corrupt length and the caller tests ok() once.
 */

#ifndef MESA_UTIL_ARCHIVE_HH
#define MESA_UTIL_ARCHIVE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

namespace mesa
{

namespace detail
{

/** What BinaryReader::list decodes one set or map element into. */
template <class C>
struct Decoded
{
    using type = typename C::value_type;
};

template <class C>
    requires requires { typename C::mapped_type; }
struct Decoded<C>
{
    using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

} // namespace detail

/** Append-only little-endian byte stream. */
class BinaryWriter
{
  public:
    static constexpr bool Reading = false;

    /** Append plain fields in order. */
    template <class... T>
    void
    operator()(const T &...v)
    {
        (put(v), ...);
    }

    /** A container: its length, then @p fn on each element. */
    template <class C, class Fn>
    void
    list(C &c, size_t /* min_bytes */, Fn fn)
    {
        put(uint64_t(c.size()));
        for (auto &e : c)
            fn(e);
    }

    const std::string &data() const { return data_; }

  private:
    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            put(uint8_t(v ? 1 : 0));
        else if constexpr (std::is_floating_point_v<T>)
            put(std::bit_cast<uint64_t>(v));
        else if constexpr (std::is_enum_v<T>)
            put(uint32_t(v));
        else
            for (size_t i = 0; i < sizeof(T); ++i)
                data_.push_back(char(uint64_t(v) >> (8 * i)));
    }

    std::string data_;
};

/** Bounds-checked little-endian reader over a byte buffer. */
class BinaryReader
{
  public:
    static constexpr bool Reading = true;

    BinaryReader(const void *data, size_t size)
        : data_(static_cast<const uint8_t *>(data)), size_(size)
    {}

    /** Read plain fields in order. */
    template <class... T>
    void
    operator()(T &...v)
    {
        (get(v), ...);
    }

    /**
     * A container: its length, refused (read as 0, stream failed) when
     * @p min_bytes per element would overrun the bytes left, then
     * @p fn on each element. Set and map elements are decoded into a
     * temporary and inserted.
     */
    template <class C, class Fn>
    void
    list(C &c, size_t min_bytes, Fn fn)
    {
        uint64_t n = 0;
        get(n);
        if (n > remaining() / min_bytes) {
            fail_ = true;
            n = 0;
        }
        if constexpr (requires { c.resize(n); }) {
            c.resize(n);
            for (auto &e : c)
                fn(e);
        } else {
            for (uint64_t i = 0; i < n; ++i) {
                typename detail::Decoded<C>::type e{};
                fn(e);
                c.insert(std::move(e));
            }
        }
    }

    /** Fail the stream unless @p cond holds. */
    void check(bool cond) { fail_ |= !cond; }

    bool ok() const { return !fail_; }
    size_t remaining() const { return fail_ ? 0 : size_ - pos_; }

  private:
    template <class T>
    void
    get(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            uint8_t b = 0;
            get(b);
            v = b != 0;
        } else if constexpr (std::is_floating_point_v<T>) {
            uint64_t bits = 0;
            get(bits);
            v = std::bit_cast<T>(bits);
        } else if constexpr (std::is_enum_v<T>) {
            uint32_t raw = 0;
            get(raw);
            v = T(raw);
        } else {
            std::make_unsigned_t<T> x = 0;
            fail_ |= remaining() < sizeof(T);
            if (!fail_) {
                if constexpr (std::endian::native == std::endian::little) {
                    std::memcpy(&x, data_ + pos_, sizeof(T));
                } else {
                    for (size_t i = 0; i < sizeof(T); ++i)
                        x |= decltype(x)(data_[pos_ + i]) << (8 * i);
                }
                pos_ += sizeof(T);
            }
            v = T(x);
        }
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool fail_ = false;
};

} // namespace mesa

#endif // MESA_UTIL_ARCHIVE_HH
