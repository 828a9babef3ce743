#include "util/crc32.hh"

#include <array>

namespace ebcp
{

namespace
{

/** Bytes folded per step of the word-at-a-time loop. */
constexpr std::size_t kSlice = 16;

using Tables = std::array<std::array<std::uint32_t, 256>, kSlice>;

/**
 * Slice-by-16 tables for the reflected polynomial. t[0] is the
 * classic byte table; t[k][i] is the CRC of byte i followed by k zero
 * bytes, so sixteen independent lookups advance the CRC over sixteen
 * input bytes at once.
 */
constexpr Tables
buildTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < kSlice; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr Tables kTables = buildTables();

/** Little-endian 32-bit load from any alignment. */
inline std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const Tables &t = kTables;
    for (; len >= kSlice; len -= kSlice, p += kSlice) {
        const std::uint32_t a = crc ^ loadLe32(p);
        const std::uint32_t b = loadLe32(p + 4);
        const std::uint32_t c = loadLe32(p + 8);
        const std::uint32_t d = loadLe32(p + 12);
        crc = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^
              t[13][(a >> 16) & 0xffu] ^ t[12][a >> 24] ^
              t[11][b & 0xffu] ^ t[10][(b >> 8) & 0xffu] ^
              t[9][(b >> 16) & 0xffu] ^ t[8][b >> 24] ^
              t[7][c & 0xffu] ^ t[6][(c >> 8) & 0xffu] ^
              t[5][(c >> 16) & 0xffu] ^ t[4][c >> 24] ^
              t[3][d & 0xffu] ^ t[2][(d >> 8) & 0xffu] ^
              t[1][(d >> 16) & 0xffu] ^ t[0][d >> 24];
    }
    for (; len > 0; --len, ++p)
        crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    return crc;
}

} // namespace ebcp
