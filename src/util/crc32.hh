/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over arbitrary
 * byte and word streams. Used as the configuration-bitstream integrity
 * check: the ConfigBlock stamps every AcceleratorConfig with the CRC
 * of its semantic payload, and the controller re-derives it before
 * streaming so single- and multi-bit upsets in a stored configuration
 * are caught before they can reach the fabric.
 */

#ifndef MESA_UTIL_CRC32_HH
#define MESA_UTIL_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace mesa
{

namespace detail
{

/**
 * Slicing-by-8 tables. Table 0 is the classic one-byte table;
 * table k advances a byte's contribution through k further zero
 * bytes, so eight table lookups fold eight input bytes at once.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrc32Tables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> crc32_tables =
    makeCrc32Tables();

/** Little-endian 32-bit load (compiles to one load on LE hosts). */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return uint32_t(p[0]) | (uint32_t(p[1]) << 8) |
           (uint32_t(p[2]) << 16) | (uint32_t(p[3]) << 24);
}

} // namespace detail

/** Incremental CRC-32 accumulator. */
class Crc32
{
  public:
    void
    addByte(uint8_t b)
    {
        crc_ = detail::crc32_tables[0][(crc_ ^ b) & 0xffu] ^ (crc_ >> 8);
    }

    /** Slicing-by-8 over the bulk; the one-byte step takes the tail. */
    void
    addBytes(const void *data, size_t len)
    {
        const auto &t = detail::crc32_tables;
        const auto *p = static_cast<const uint8_t *>(data);
        for (; len >= 8; p += 8, len -= 8) {
            const uint32_t lo = crc_ ^ detail::loadLe32(p);
            const uint32_t hi = detail::loadLe32(p + 4);
            crc_ = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
                   t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
                   t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
                   t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
        }
        for (; len > 0; ++p, --len)
            addByte(*p);
    }

    /** The four little-endian bytes of @p v in one 4-table step. */
    void
    add32(uint32_t v)
    {
        const auto &t = detail::crc32_tables;
        const uint32_t c = crc_ ^ v;
        crc_ = t[3][c & 0xffu] ^ t[2][(c >> 8) & 0xffu] ^
               t[1][(c >> 16) & 0xffu] ^ t[0][c >> 24];
    }

    void
    add64(uint64_t v)
    {
        add32(uint32_t(v));
        add32(uint32_t(v >> 32));
    }

    uint32_t value() const { return crc_ ^ 0xffffffffu; }

  private:
    uint32_t crc_ = 0xffffffffu;
};

/** One-shot CRC-32 of a byte buffer. */
inline uint32_t
crc32(const void *data, size_t len)
{
    Crc32 c;
    c.addBytes(data, len);
    return c.value();
}

} // namespace mesa

#endif // MESA_UTIL_CRC32_HH
