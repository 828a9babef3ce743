/**
 * @file
 * CRC-32 tests: known answers, and equivalence of the word-at-a-time
 * crc32Update() with the classic one-byte-per-step table loop, kept
 * here as the oracle, over every length 0-256, every start alignment
 * 0-15 and every way of splitting the input across two chunked
 * updates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/crc32.hh"
#include "util/random.hh"

using namespace ebcp;

namespace
{

/** The bytewise reflected-table CRC-32 update: the reference. */
std::uint32_t
referenceUpdate(std::uint32_t crc, const unsigned char *p, std::size_t len)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return crc;
}

std::uint32_t
referenceCrc(const unsigned char *p, std::size_t len)
{
    return crc32Final(referenceUpdate(crc32Init(), p, len));
}

/** @p n random bytes. */
std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Pcg32 rng(seed);
    std::vector<unsigned char> v(n);
    for (unsigned char &b : v)
        b = static_cast<unsigned char>(rng.next());
    return v;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check.data(), check.size()), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32Update(crc32Init(), nullptr, 0), crc32Init());
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(crc32(fox.data(), fox.size()), 0x414fa339u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    const std::vector<unsigned char> buf = randomBytes(256 + 16, 11);
    for (std::size_t align = 0; align < 16; ++align) {
        for (std::size_t len = 0; len <= 256; ++len) {
            const unsigned char *p = buf.data() + align;
            ASSERT_EQ(crc32(p, len), referenceCrc(p, len))
                << "len " << len << " align " << align;
        }
    }
}

TEST(Crc32, ChunkedUpdatesMatchOneShotAtEverySplit)
{
    const std::vector<unsigned char> buf = randomBytes(256 + 16, 12);
    for (std::size_t align = 0; align < 16; ++align) {
        const unsigned char *p = buf.data() + align;
        for (std::size_t len = 0; len <= 256; ++len) {
            const std::uint32_t want = referenceCrc(p, len);
            for (std::size_t split = 0; split <= len; ++split) {
                std::uint32_t c = crc32Update(crc32Init(), p, split);
                c = crc32Update(c, p + split, len - split);
                ASSERT_EQ(crc32Final(c), want)
                    << "len " << len << " align " << align << " split "
                    << split;
            }
        }
    }
}

TEST(Crc32, ManySmallChunksMatchReference)
{
    // Irregular chunk sizes carry a CRC across word boundaries at
    // every phase, as the trace and journal writers do.
    const std::vector<unsigned char> buf = randomBytes(4096, 13);
    Pcg32 rng(14);
    std::uint32_t c = crc32Init();
    std::size_t pos = 0;
    while (pos < buf.size()) {
        const std::size_t n =
            std::min<std::size_t>(rng.below(19), buf.size() - pos);
        c = crc32Update(c, buf.data() + pos, n);
        pos += n;
    }
    EXPECT_EQ(crc32Final(c), referenceCrc(buf.data(), buf.size()));
}
