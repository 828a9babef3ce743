/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) guarding trace
 * files, checkpoints, the sweep journal and telemetry lines.
 *
 * Slice-by-16: sixteen independent table lookups fold sixteen input
 * bytes per step, in portable C++ with no alignment requirement, and
 * a bytewise tail finishes the last 0-15 bytes. The values are those
 * of the classic one-byte-per-step loop (tests/test_crc32.cc keeps
 * that loop as its oracle). Speed matters here because every
 * warm-fork checkpoint is CRC'd once when written and once per
 * restore.
 */

#ifndef EBCP_UTIL_CRC32_HH
#define EBCP_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace ebcp
{

/**
 * Update a running CRC-32 with @p len bytes at @p data.
 *
 * Start from crc32Init(), feed chunks in order, finish with
 * crc32Final(); or use crc32() for one-shot buffers.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t len);

inline std::uint32_t crc32Init() { return 0xffffffffu; }
inline std::uint32_t crc32Final(std::uint32_t crc)
{
    return crc ^ 0xffffffffu;
}

/** One-shot CRC-32 of a buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Final(crc32Update(crc32Init(), data, len));
}

} // namespace ebcp

#endif // EBCP_UTIL_CRC32_HH
