/**
 * @file
 * Tests for the checkpoint subsystem: archiver primitives, bit-exact
 * simulator save/restore (in memory and through the atomic file
 * path), version/fingerprint skew rejection, the corrupted-checkpoint
 * corpus (every CkptFaultKind must surface as a coded Status, never a
 * crash), the sweep journal's torn-line tolerance, and deterministic
 * retry backoff.
 *
 * CkptRoundtrip.*, CkptCorpus.* and CkptFormat.* are also registered
 * as dedicated ctest entries (ckpt_roundtrip, ckpt_corruption_corpus,
 * ckpt_format) which check.sh stage 7 runs under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "ckpt/archiver.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/containers.hh"
#include "fuzz/sim_fixture.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "sim/simulator.hh"
#include "trace/fault_injection.hh"
#include "trace/workloads.hh"
#include "util/crc32.hh"

using namespace ebcp;
using namespace ebcp::harness;

namespace
{

constexpr std::uint64_t kWarm = 60'000;
constexpr std::uint64_t kMeasure = 120'000;

void
expectBitIdentical(const SimResults &a, const SimResults &b,
                   const std::string &what)
{
    EXPECT_EQ(a.insts, b.insts) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.epochs, b.epochs) << what;
    EXPECT_EQ(a.cpi, b.cpi) << what;
    EXPECT_EQ(a.epochsPer1k, b.epochsPer1k) << what;
    EXPECT_EQ(a.l2InstMissPer1k, b.l2InstMissPer1k) << what;
    EXPECT_EQ(a.l2LoadMissPer1k, b.l2LoadMissPer1k) << what;
    EXPECT_EQ(a.usefulPrefetches, b.usefulPrefetches) << what;
    EXPECT_EQ(a.issuedPrefetches, b.issuedPrefetches) << what;
    EXPECT_EQ(a.droppedPrefetches, b.droppedPrefetches) << what;
    EXPECT_EQ(a.timelyPrefetches, b.timelyPrefetches) << what;
    EXPECT_EQ(a.latePrefetches, b.latePrefetches) << what;
    EXPECT_EQ(a.earlyEvictedPrefetches, b.earlyEvictedPrefetches)
        << what;
    EXPECT_EQ(a.coverage, b.coverage) << what;
    EXPECT_EQ(a.accuracy, b.accuracy) << what;
    EXPECT_EQ(a.timeliness, b.timeliness) << what;
    EXPECT_EQ(a.readBusUtil, b.readBusUtil) << what;
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil) << what;
}

/** A warmed simulator's serialized state plus its cold results. */
struct WarmRun
{
    std::string blob;
    SimResults coldResults;
};

WarmRun
warmAndMeasure(const SimConfig &cfg, const PrefetcherParams &pf,
               const std::string &workload)
{
    WarmRun out;
    Simulator sim(cfg, pf);
    auto src = makeWorkload(workload);
    EXPECT_TRUE(sim.runWarm(*src, kWarm).ok());
    StatusOr<std::string> blob = sim.serializeCheckpoint(*src);
    EXPECT_TRUE(blob.ok()) << blob.status().toString();
    out.blob = blob.ok() ? blob.take() : std::string();
    StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    if (r.ok())
        out.coldResults = r.take();
    return out;
}

/** A temp path private to this process: ctest runs each test and the
 * dedicated ckpt_* entries as separate processes, possibly at the
 * same time, all in one TempDir(). */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
           name;
}

} // namespace

// ---------------------------------------------------------------------
// Archiver primitives.
// ---------------------------------------------------------------------

TEST(CkptRoundtrip, ArchiverPrimitivesAreBitExact)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint8_t a = 0xab;
        std::uint32_t b = 0xdeadbeef;
        std::uint64_t c = 0x0123456789abcdefULL;
        std::int64_t d = -42;
        double e = -0.0;
        double f = std::nan("");
        bool g = true;
        std::string h = "section";
        std::vector<std::uint64_t> v{1, 2, 3};
        ar.u8(a);
        ar.u32(b);
        ar.u64(c);
        ar.i64(d);
        ar.f64(e);
        ar.f64(f);
        ar.boolean(g);
        ar.str(h);
        ar.vecU64(v);
        ASSERT_TRUE(ar.ok());
    }
    {
        ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                                   bytes.size());
        std::uint8_t a = 0;
        std::uint32_t b = 0;
        std::uint64_t c = 0;
        std::int64_t d = 0;
        double e = 1.0, f = 1.0;
        bool g = false;
        std::string h;
        std::vector<std::uint64_t> v;
        ar.u8(a);
        ar.u32(b);
        ar.u64(c);
        ar.i64(d);
        ar.f64(e);
        ar.f64(f);
        ar.boolean(g);
        ar.str(h);
        ar.vecU64(v);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
        EXPECT_EQ(ar.remaining(), 0u);
        EXPECT_EQ(a, 0xab);
        EXPECT_EQ(b, 0xdeadbeefu);
        EXPECT_EQ(c, 0x0123456789abcdefULL);
        EXPECT_EQ(d, -42);
        EXPECT_TRUE(std::signbit(e));
        EXPECT_TRUE(std::isnan(f));
        EXPECT_TRUE(g);
        EXPECT_EQ(h, "section");
        EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
    }
}

TEST(CkptRoundtrip, TruncatedPayloadIsCodedNotUb)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint64_t v = 7;
        ar.u64(v);
    }
    // Load more than was written: sticky Corruption, not a wild read.
    ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(), 4);
    std::uint64_t v = 0;
    ar.u64(v);
    ASSERT_FALSE(ar.ok());
    EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
    // Sticky: later calls stay failed without touching outputs.
    std::uint64_t w = 99;
    ar.u64(w);
    EXPECT_EQ(w, 99u);
}

// Originally found by fuzz_ckpt_restore (the minimized inputs live in
// fuzz/corpus/regressions/ckpt_restore/): a corrupt vector count used
// to drive an n * sizeof(T) resize before any bounds check, so a
// 16-byte payload could demand terabytes of host memory. The count
// must now be rejected against the remaining payload *before* the
// allocation, scaled by the smallest possible element size.
TEST(CkptRoundtrip, CorruptVectorCountIsClampedBeforeAllocation)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint64_t huge = std::uint64_t{1} << 40;
        ar.u64(huge); // forged count with no elements behind it
    }
    ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                               bytes.size());
    std::vector<std::uint64_t> v;
    ar.vecU64(v);
    ASSERT_FALSE(ar.ok());
    EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
    EXPECT_TRUE(v.empty()); // the resize never happened
}

TEST(CkptRoundtrip, CorruptStringLengthIsClampedBeforeAllocation)
{
    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        std::uint32_t huge = 0xffffffffu;
        ar.u32(huge); // forged string length, no bytes behind it
    }
    ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                               bytes.size());
    std::string s;
    ar.str(s);
    ASSERT_FALSE(ar.ok());
    EXPECT_EQ(ar.status().code(), StatusCode::Corruption);
    EXPECT_TRUE(s.empty());
}

// Container-level cousins of the same bug class, also fuzz findings:
// a section count or section name length the buffer cannot possibly
// hold must be corruption detected up front, not a loop that
// allocates its way toward the truncation.
TEST(CkptCorpus, ImplausibleSectionFramingIsCodedUpFront)
{
    auto packU32 = [](std::string &out, std::uint32_t v) {
        for (unsigned i = 0; i < 4; ++i)
            out.push_back(static_cast<char>(v >> (8 * i)));
    };
    auto packU64 = [](std::string &out, std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i)
            out.push_back(static_cast<char>(v >> (8 * i)));
    };
    auto header = [&](std::uint32_t count) {
        std::string out;
        out.append(ckpt::kCkptMagic, sizeof ckpt::kCkptMagic);
        packU32(out, ckpt::kCkptFormatVersion);
        packU64(out, 0); // fingerprint (tests pass expect=0)
        packU32(out, count);
        packU32(out, crc32(out.data(), out.size()));
        return out;
    };

    {
        // 4 billion sections "stored" in a 16-byte body.
        std::string buf = header(0xffffffffu);
        buf.append(16, '\0');
        auto r = ckpt::CheckpointReader::fromBuffer(buf, 0);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::Corruption);
        EXPECT_NE(r.status().message().find("sections"),
                  std::string::npos);
    }
    {
        // One section whose name claims 64 KiB in a body that holds
        // it -- length-plausible, but no real section name is that
        // long, so the cap must reject it as corruption.
        std::string buf = header(1);
        packU32(buf, 1u << 16);
        buf.append(1u << 16, 'x');
        packU64(buf, 0);
        packU32(buf, crc32("", 0));
        auto r = ckpt::CheckpointReader::fromBuffer(buf, 0);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::Corruption);
        EXPECT_NE(r.status().message().find("name length"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Container API: policy names, writer error latching, file round trip.
// ---------------------------------------------------------------------

TEST(CkptContainer, PolicyNamesRoundTrip)
{
    auto strict = ckpt::ckptPolicyFromName("strict");
    ASSERT_TRUE(strict.ok());
    EXPECT_EQ(strict.value(), ckpt::CkptPolicy::Strict);
    auto rebuild = ckpt::ckptPolicyFromName("rebuild");
    ASSERT_TRUE(rebuild.ok());
    EXPECT_EQ(rebuild.value(), ckpt::CkptPolicy::Rebuild);
    EXPECT_STREQ(ckpt::ckptPolicyName(ckpt::CkptPolicy::Strict),
                 "strict");
    EXPECT_STREQ(ckpt::ckptPolicyName(ckpt::CkptPolicy::Rebuild),
                 "rebuild");

    auto bogus = ckpt::ckptPolicyFromName("lenient");
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.status().code(), StatusCode::InvalidArgument);
}

TEST(CkptContainer, WriterRejectsDuplicateSectionAndStaysLatched)
{
    ckpt::CheckpointWriter w(0);
    ASSERT_TRUE(w.section("a", [](ckpt::Archiver &ar) {
        std::uint64_t v = 1;
        ar.u64(v);
    }).ok());

    Status dup = w.section("a", [](ckpt::Archiver &ar) {
        std::uint64_t v = 2;
        ar.u64(v);
    });
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.code(), StatusCode::InvalidArgument);
    EXPECT_NE(dup.message().find("duplicate"), std::string::npos);

    // First failure latches the writer: later sections and
    // serialize() refuse rather than emit a half-built container.
    EXPECT_FALSE(w.section("b", [](ckpt::Archiver &) {}).ok());
    EXPECT_FALSE(w.serialize().ok());
    EXPECT_FALSE(w.writeAtomic(tempPath("never_written.ckpt")).ok());
}

TEST(CkptContainer, FailingFillIsContextWrappedAndSectionDropped)
{
    ckpt::CheckpointWriter w(0);
    Status s = w.section("core", [](ckpt::Archiver &ar) {
        ar.fail(corruptionError("fill exploded"));
    });
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("checkpoint section 'core'"),
              std::string::npos)
        << s.message();
}

TEST(CkptContainer, FileRoundTripAndMissingFileAreCoded)
{
    const std::string path = tempPath("ckpt_container_api.ckpt");
    ckpt::CheckpointWriter w(0xabcdef);
    ASSERT_TRUE(w.section("numbers", [](ckpt::Archiver &ar) {
        std::uint64_t a = 7, b = 9;
        ar.u64(a);
        ar.u64(b);
    }).ok());
    ASSERT_TRUE(w.writeAtomic(path).ok());

    auto r = ckpt::CheckpointReader::fromFile(path, 0xabcdef);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().fingerprint(), 0xabcdefu);
    EXPECT_TRUE(r.value().hasSection("numbers"));
    EXPECT_FALSE(r.value().hasSection("absent"));

    std::uint64_t a = 0, b = 0;
    ASSERT_TRUE(r.value().section("numbers", [&](ckpt::Archiver &ar) {
        ar.u64(a);
        ar.u64(b);
    }).ok());
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 9u);

    // Consuming only part of a section is layout skew, not success.
    Status skew = r.value().section("numbers", [&](ckpt::Archiver &ar) {
        ar.u64(a);
    });
    ASSERT_FALSE(skew.ok());
    EXPECT_EQ(skew.code(), StatusCode::Corruption);
    EXPECT_NE(skew.message().find("unconsumed"), std::string::npos);

    Status missing = r.value().section("absent",
                                       [](ckpt::Archiver &) {});
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.code(), StatusCode::Corruption);
    EXPECT_NE(missing.message().find("missing section"),
              std::string::npos);

    std::remove(path.c_str());
    auto gone = ckpt::CheckpointReader::fromFile(path, 0xabcdef);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.status().code(), StatusCode::NotFound);
}

TEST(CkptContainer, TrailingBytesAndTruncatedHeaderAreCoded)
{
    ckpt::CheckpointWriter w(0);
    ASSERT_TRUE(w.section("s", [](ckpt::Archiver &ar) {
        std::uint8_t v = 1;
        ar.u8(v);
    }).ok());
    StatusOr<std::string> data = w.serialize();
    ASSERT_TRUE(data.ok());

    const std::string trailing = data.value() + std::string(3, '\0');
    auto r = ckpt::CheckpointReader::fromBuffer(trailing, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Corruption);
    EXPECT_NE(r.status().message().find("trailing"), std::string::npos);

    const std::string stub = data.value().substr(0, 10);
    auto t = ckpt::CheckpointReader::fromBuffer(stub, 0);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::Corruption);
}

// ---------------------------------------------------------------------
// Whole-simulator save/restore.
// ---------------------------------------------------------------------

TEST(CkptRoundtrip, RestoredRunIsBitIdenticalToUninterrupted)
{
    for (const char *pf_name : {"null", "ebcp", "stream"}) {
        SCOPED_TRACE(pf_name);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = pf_name;
        const WarmRun warm = warmAndMeasure(cfg, pf, "database");
        ASSERT_FALSE(warm.blob.empty());

        Simulator sim(cfg, pf);
        auto src = makeWorkload("database");
        ASSERT_TRUE(sim.restoreCheckpoint(warm.blob, *src).ok());
        StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        expectBitIdentical(r.value(), warm.coldResults, pf_name);
    }
}

/** One database instance per core, seeded as runCmp() seeds them. */
struct CoreSources
{
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> ptrs;

    explicit CoreSources(unsigned cores)
    {
        for (unsigned i = 0; i < cores; ++i) {
            owned.push_back(makeWorkload("database", 1000 + i));
            ptrs.push_back(owned.back().get());
        }
    }
};

PrefetcherParams
twoCoreEbcp()
{
    PrefetcherParams pf;
    pf.name = "ebcp";
    pf.ebcp.numCoreStates = 2;
    return pf;
}

TEST(CkptRoundtrip, CmpRestoredRunIsBitIdenticalToUninterrupted)
{
    SimConfig cfg;
    Simulator warm(cfg, twoCoreEbcp(), 2);
    CoreSources ws(2);
    ASSERT_TRUE(warm.runWarm(ws.ptrs, kWarm).ok());
    StatusOr<std::string> blob = warm.serializeCheckpoint(ws.ptrs);
    ASSERT_TRUE(blob.ok()) << blob.status().toString();
    StatusOr<CmpResults> cold = warm.runMeasure(ws.ptrs, kMeasure);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();

    Simulator sim(cfg, twoCoreEbcp(), 2);
    CoreSources rs(2);
    ASSERT_TRUE(sim.restoreCheckpoint(blob.value(), rs.ptrs).ok());
    StatusOr<CmpResults> r = sim.runMeasure(rs.ptrs, kMeasure);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    expectBitIdentical(r.value(), cold.value(), "2-core restore");
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(r.value().perCore[i].cycles,
                  cold.value().perCore[i].cycles);
}

TEST(CkptRoundtrip, CmpImageInEarlierSectionOrderRestores)
{
    // Multi-core images used to be written core0, l1.0, trace0, ...,
    // l2side, mem, prefetcher, cmp. The reader looks sections up by
    // name, so an image in that order must restore exactly. Build
    // one from the public component serializers.
    SimConfig cfg;
    Simulator warm(cfg, twoCoreEbcp(), 2);
    CoreSources ws(2);
    ASSERT_TRUE(warm.runWarm(ws.ptrs, kWarm).ok());
    StatusOr<std::string> current = warm.serializeCheckpoint(ws.ptrs);
    ASSERT_TRUE(current.ok()) << current.status().toString();

    // The interleaving RNG is private; carry it over from the image
    // the simulator writes today.
    StatusOr<ckpt::CheckpointReader> reader =
        ckpt::CheckpointReader::fromBuffer(current.value(),
                                           warm.configFingerprint());
    ASSERT_TRUE(reader.ok()) << reader.status().toString();
    Pcg32 rng(0);
    ASSERT_TRUE(reader.value()
                    .section("cmp", [&](ckpt::Archiver &ar) {
                        ckpt::ckptPcg32(ar, rng);
                    })
                    .ok());

    ckpt::CheckpointWriter w(warm.configFingerprint());
    auto add = [&](const std::string &name,
                   const std::function<void(ckpt::Archiver &)> &fill) {
        ASSERT_TRUE(w.section(name, fill).ok()) << name;
    };
    for (unsigned i = 0; i < 2; ++i) {
        add("core" + std::to_string(i),
            [&](ckpt::Archiver &ar) { warm.core(i).ckpt(ar); });
        add("l1." + std::to_string(i),
            [&](ckpt::Archiver &ar) { warm.hierarchy(i).ckpt(ar); });
        add("trace" + std::to_string(i),
            [&](ckpt::Archiver &ar) { ws.ptrs[i]->ckpt(ar); });
    }
    add("l2side", [&](ckpt::Archiver &ar) { warm.l2side().ckpt(ar); });
    add("mem", [&](ckpt::Archiver &ar) { warm.memory().ckpt(ar); });
    add("prefetcher",
        [&](ckpt::Archiver &ar) { warm.prefetcher().ckpt(ar); });
    add("cmp", [&](ckpt::Archiver &ar) { ckpt::ckptPcg32(ar, rng); });
    StatusOr<std::string> earlier = w.serialize();
    ASSERT_TRUE(earlier.ok()) << earlier.status().toString();
    // Same sections, another order: the images differ as bytes.
    ASSERT_EQ(earlier.value().size(), current.value().size());
    EXPECT_FALSE(earlier.value() == current.value());

    StatusOr<CmpResults> cold = warm.runMeasure(ws.ptrs, kMeasure);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();

    Simulator sim(cfg, twoCoreEbcp(), 2);
    CoreSources rs(2);
    Status s = sim.restoreCheckpoint(earlier.value(), rs.ptrs);
    ASSERT_TRUE(s.ok()) << s.toString();
    StatusOr<CmpResults> r = sim.runMeasure(rs.ptrs, kMeasure);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    expectBitIdentical(r.value(), cold.value(), "earlier section order");
}

TEST(CkptRoundtrip, FileRoundTripThroughAtomicWrite)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    const std::string path = tempPath("ckpt_file_roundtrip.ckpt");

    SimResults cold;
    {
        Simulator sim(cfg, pf);
        auto src = makeWorkload("tpcw");
        ASSERT_TRUE(sim.runWarm(*src, kWarm).ok());
        ASSERT_TRUE(sim.saveCheckpoint(path, *src).ok());
        StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(r.ok());
        cold = r.take();
    }
    {
        Simulator sim(cfg, pf);
        auto src = makeWorkload("tpcw");
        ASSERT_TRUE(sim.restoreCheckpointFile(path, *src).ok());
        StatusOr<SimResults> r = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(r.ok());
        expectBitIdentical(r.value(), cold, "file roundtrip");
    }
    std::remove(path.c_str());
}

TEST(CkptRoundtrip, ConfigFingerprintMismatchIsCoded)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    const WarmRun warm = warmAndMeasure(cfg, pf, "database");

    // A different table size is a different machine: restoring the
    // checkpoint against it must be rejected up front.
    PrefetcherParams other = pf;
    other.ebcp.tableEntries = pf.ebcp.tableEntries * 2;
    Simulator sim(cfg, other);
    auto src = makeWorkload("database");
    Status s = sim.restoreCheckpoint(warm.blob, *src);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("fingerprint"), std::string::npos)
        << s.message();
}

TEST(CkptRoundtrip, FormatVersionSkewIsCoded)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    WarmRun warm = warmAndMeasure(cfg, pf, "database");
    ASSERT_GT(warm.blob.size(), 28u);

    // Bump the stored format version (offset 8) and re-seal the
    // header CRC (offset 24, over the first 24 bytes) so the version
    // check itself -- not the CRC -- rejects the file.
    warm.blob[8] = static_cast<char>(warm.blob[8] + 1);
    const std::uint32_t fixed = crc32(warm.blob.data(), 24);
    for (int i = 0; i < 4; ++i)
        warm.blob[24 + i] = static_cast<char>(fixed >> (8 * i));

    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    Status s = sim.restoreCheckpoint(warm.blob, *src);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("format version"), std::string::npos)
        << s.message();
}

TEST(CkptRoundtrip, TraceCursorResumesMidStream)
{
    // Drain part of a workload, checkpoint the cursor, and require a
    // restored instance to continue with the identical records.
    auto a = makeWorkload("specjbb");
    TraceRecord rec;
    for (int i = 0; i < 10'000; ++i)
        ASSERT_TRUE(a->next(rec));

    std::string bytes;
    {
        ckpt::Archiver ar = ckpt::Archiver::saver(bytes);
        a->ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
    }
    auto b = makeWorkload("specjbb");
    {
        ckpt::Archiver ar = ckpt::Archiver::loader(bytes.data(),
                                                   bytes.size());
        b->ckpt(ar);
        ASSERT_TRUE(ar.ok()) << ar.status().toString();
        EXPECT_EQ(ar.remaining(), 0u);
    }
    for (int i = 0; i < 5'000; ++i) {
        TraceRecord ra, rb;
        ASSERT_TRUE(a->next(ra));
        ASSERT_TRUE(b->next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
    }
}

// ---------------------------------------------------------------------
// Container format identity and reader view lifetime.
// ---------------------------------------------------------------------

TEST(CkptFormat, FixtureCheckpointMatchesCommittedPristineBytes)
{
    // The configuration fuzz_make_seeds used for the committed
    // corpus: any change to the container or to a section's bytes
    // shows up here as a byte difference.
    Simulator sim(ebcp_fuzz::fuzzConfig(), ebcp_fuzz::fuzzPrefetcher());
    auto src = makeWorkload("database");
    ASSERT_TRUE(sim.runWarm(*src, ebcp_fuzz::kFixtureWarmInsts).ok());
    StatusOr<std::string> blob = sim.serializeCheckpoint(*src);
    ASSERT_TRUE(blob.ok()) << blob.status().toString();

    StatusOr<std::string> pristine = ckpt::readFile(
        std::string(EBCP_FUZZ_CORPUS_DIR) + "/ckpt_restore/pristine.ckpt");
    ASSERT_TRUE(pristine.ok()) << pristine.status().toString();
    ASSERT_EQ(blob.value().size(), pristine.value().size());
    EXPECT_TRUE(blob.value() == pristine.value())
        << "serialized checkpoint differs from the committed "
           "pristine.ckpt";
}

TEST(CkptFormat, FileReaderViewsSurviveMoveAndCopy)
{
    const std::string path = tempPath("ckpt_reader_lifetime.ckpt");
    std::vector<std::uint64_t> big(4096);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i * 0x9e3779b97f4a7c15ULL;
    {
        ckpt::CheckpointWriter w(0x5eed);
        ASSERT_TRUE(w.section("small", [](ckpt::Archiver &ar) {
            std::uint32_t v = 42;
            ar.u32(v);
        }).ok());
        ASSERT_TRUE(w.section("big", [&](ckpt::Archiver &ar) {
            ar.vecU64(big);
        }).ok());
        ASSERT_TRUE(w.section("empty", [](ckpt::Archiver &) {}).ok());
        ASSERT_TRUE(w.writeAtomic(path).ok());
    }

    auto readAll = [&](const ckpt::CheckpointReader &r) {
        std::uint32_t small = 0;
        std::vector<std::uint64_t> got;
        EXPECT_TRUE(r.section("small", [&](ckpt::Archiver &ar) {
            ar.u32(small);
        }).ok());
        EXPECT_TRUE(r.section("big", [&](ckpt::Archiver &ar) {
            ar.vecU64(got);
        }).ok());
        EXPECT_TRUE(r.section("empty", [](ckpt::Archiver &) {}).ok());
        EXPECT_EQ(small, 42u);
        EXPECT_EQ(got, big);
    };

    std::optional<ckpt::CheckpointReader> copy, moved;
    {
        StatusOr<ckpt::CheckpointReader> r =
            ckpt::CheckpointReader::fromFile(path, 0x5eed);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        copy.emplace(r.value());
        moved.emplace(r.take());
    }
    // The file is gone and the original reader destroyed: the copies
    // must still read every section from the bytes they share.
    std::remove(path.c_str());
    readAll(*copy);
    copy.reset();
    readAll(*moved);
    ckpt::CheckpointReader reassigned = std::move(*moved);
    moved.reset();
    readAll(reassigned);
}

TEST(CkptFormat, WriterIsSpentAfterSerialize)
{
    ckpt::CheckpointWriter w(0);
    ASSERT_TRUE(w.section("s", [](ckpt::Archiver &ar) {
        std::uint8_t v = 1;
        ar.u8(v);
    }).ok());
    StatusOr<std::string> first = w.serialize();
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(ckpt::CheckpointReader::fromBuffer(first.value(), 0).ok());
    EXPECT_FALSE(w.serialize().ok());
    EXPECT_FALSE(w.section("t", [](ckpt::Archiver &) {}).ok());
}

// ---------------------------------------------------------------------
// Corrupted-checkpoint corpus.
// ---------------------------------------------------------------------

TEST(CkptCorpus, EveryFaultKindYieldsCodedStatus)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    const WarmRun warm = warmAndMeasure(cfg, pf, "database");
    ASSERT_FALSE(warm.blob.empty());

    for (CkptFaultKind kind : kCkptFaultKinds) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            SCOPED_TRACE(std::string(ckptFaultKindName(kind)) +
                         " seed " + std::to_string(seed));
            std::string damaged = warm.blob;
            injectCkptFault(damaged, kind, seed);
            ASSERT_NE(damaged, warm.blob)
                << "fault injection was not material";

            Simulator sim(cfg, pf);
            auto src = makeWorkload("database");
            Status s = sim.restoreCheckpoint(damaged, *src);
            ASSERT_FALSE(s.ok());
            EXPECT_TRUE(s.code() == StatusCode::Corruption ||
                        s.code() == StatusCode::InvalidArgument)
                << s.toString();
        }
    }
}

TEST(CkptCorpus, FileFaultInjectionRoundTrip)
{
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    const std::string path = tempPath("ckpt_corpus_file.ckpt");

    Simulator sim(cfg, pf);
    auto src = makeWorkload("specjas");
    ASSERT_TRUE(sim.runWarm(*src, kWarm).ok());
    ASSERT_TRUE(sim.saveCheckpoint(path, *src).ok());

    ASSERT_TRUE(
        injectCkptFaultFile(path, CkptFaultKind::CrcFlip, 3).ok());

    Simulator fresh(cfg, pf);
    auto src2 = makeWorkload("specjas");
    Status s = fresh.restoreCheckpointFile(path, *src2);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.code() == StatusCode::Corruption ||
                s.code() == StatusCode::InvalidArgument)
        << s.toString();
    std::remove(path.c_str());
}

TEST(CkptCorpus, DamagedBufferNeverPanicsAcrossWideSeedRange)
{
    // Broader fuzz: many seeds per kind against a small checkpoint.
    // The assertion is simply "coded status, no crash".
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "null";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    ASSERT_TRUE(sim.runWarm(*src, 10'000).ok());
    StatusOr<std::string> blob = sim.serializeCheckpoint(*src);
    ASSERT_TRUE(blob.ok());

    for (CkptFaultKind kind : kCkptFaultKinds) {
        for (std::uint64_t seed = 1; seed <= 25; ++seed) {
            std::string damaged = blob.value();
            injectCkptFault(damaged, kind, seed);
            Simulator victim(cfg, pf);
            auto vsrc = makeWorkload("database");
            Status s = victim.restoreCheckpoint(damaged, *vsrc);
            EXPECT_FALSE(s.ok())
                << ckptFaultKindName(kind) << " seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------
// Sweep journal.
// ---------------------------------------------------------------------

TEST(CkptJournal, RecordLineRoundTripIsBitExact)
{
    JournalRecord rec;
    rec.key = 0xfeedfacecafef00dULL;
    rec.code = StatusCode::Stalled;
    rec.message = "watchdog tripped";
    rec.attempts = 3;
    rec.warmForked = true;
    rec.coldFallback = false;
    rec.results.insts = 120'000;
    rec.results.cpi = 5.75594999;
    rec.results.coverage = 0.125;

    const std::string line = SweepJournal::formatLine(rec);
    JournalRecord back;
    ASSERT_TRUE(SweepJournal::parseLine(line, back));
    EXPECT_EQ(back.key, rec.key);
    EXPECT_EQ(back.code, rec.code);
    EXPECT_EQ(back.message, rec.message);
    EXPECT_EQ(back.attempts, rec.attempts);
    EXPECT_EQ(back.warmForked, rec.warmForked);
    EXPECT_EQ(back.coldFallback, rec.coldFallback);
    EXPECT_EQ(back.results.insts, rec.results.insts);
    EXPECT_EQ(back.results.cpi, rec.results.cpi);
    EXPECT_EQ(back.results.coverage, rec.results.coverage);
}

TEST(CkptJournal, DamagedLinesAreRejected)
{
    JournalRecord rec;
    rec.key = 42;
    rec.results.insts = 7;
    const std::string line = SweepJournal::formatLine(rec);
    JournalRecord out;

    // Torn at every prefix length: never accepted, never a crash.
    for (std::size_t n = 0; n < line.size(); ++n)
        EXPECT_FALSE(
            SweepJournal::parseLine(line.substr(0, n), out))
            << "accepted a torn prefix of " << n << " bytes";

    // A flipped blob nibble fails the CRC.
    std::string tampered = line;
    const std::size_t blob_at = tampered.find("\"blob\":\"") + 8;
    tampered[blob_at] = tampered[blob_at] == '0' ? '1' : '0';
    EXPECT_FALSE(SweepJournal::parseLine(tampered, out));

    EXPECT_FALSE(SweepJournal::parseLine("not json at all", out));
    EXPECT_FALSE(SweepJournal::parseLine("", out));
}

TEST(CkptJournal, LoadSkipsTornLinesAndKeepsValidOnes)
{
    const std::string path = tempPath("ckpt_journal_torn.jsonl");
    std::remove(path.c_str());

    JournalRecord a, b;
    a.key = 1;
    a.results.insts = 100;
    b.key = 2;
    b.results.insts = 200;

    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::string la = SweepJournal::formatLine(a) + "\n";
        const std::string garbage = "{\"v\":1,\"key\":\"zz\"}\n";
        const std::string lb = SweepJournal::formatLine(b);
        const std::string torn = lb.substr(0, lb.size() / 2);
        std::fwrite(la.data(), 1, la.size(), f);
        std::fwrite(garbage.data(), 1, garbage.size(), f);
        std::fwrite(torn.data(), 1, torn.size(), f); // no newline: torn
        std::fclose(f);
    }

    SweepJournal j(path);
    ASSERT_TRUE(j.load().ok());
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(j.skippedLines(), 2u);
    JournalRecord out;
    EXPECT_TRUE(j.lookup(1, out));
    EXPECT_EQ(out.results.insts, 100u);
    EXPECT_FALSE(j.lookup(2, out));

    // A fresh (missing) journal is OK and empty, not an error.
    std::remove(path.c_str());
    SweepJournal fresh(path);
    EXPECT_TRUE(fresh.load().ok());
    EXPECT_EQ(fresh.size(), 0u);
}

// ---------------------------------------------------------------------
// Retry backoff.
// ---------------------------------------------------------------------

TEST(CkptRetry, BackoffIsDeterministicBoundedAndJittered)
{
    RetryPolicy p;
    p.baseDelayMs = 50;
    p.maxDelayMs = 2'000;
    p.seed = 7;

    for (std::uint64_t key : {1ULL, 0xabcdefULL, ~0ULL}) {
        for (unsigned attempt = 1; attempt <= 8; ++attempt) {
            const std::uint64_t d = retryBackoffMs(p, key, attempt);
            // Pure function: same inputs, same delay.
            EXPECT_EQ(d, retryBackoffMs(p, key, attempt));
            const std::uint64_t cap = std::min<std::uint64_t>(
                p.baseDelayMs << (attempt - 1), p.maxDelayMs);
            EXPECT_GE(d, cap / 2) << "key " << key << " attempt "
                                  << attempt;
            EXPECT_LE(d, cap) << "key " << key << " attempt "
                              << attempt;
        }
    }

    // Jitter decorrelates runs: not every run backs off identically.
    bool differs = false;
    for (std::uint64_t key = 0; key < 16 && !differs; ++key)
        differs = retryBackoffMs(p, key, 3) != retryBackoffMs(p, 99, 3);
    EXPECT_TRUE(differs);

    // Zero-delay policies never sleep.
    RetryPolicy none;
    none.baseDelayMs = 0;
    EXPECT_EQ(retryBackoffMs(none, 1, 1), 0u);
}

TEST(CkptRetry, RetryableCodesExcludeBadInput)
{
    EXPECT_FALSE(statusRetryable(Status()));
    EXPECT_FALSE(statusRetryable(invalidArgError("bad flag")));
    EXPECT_FALSE(statusRetryable(notFoundError("no such workload")));
    EXPECT_TRUE(statusRetryable(ioError("disk")));
    EXPECT_TRUE(statusRetryable(corruptionError("crc")));
    EXPECT_TRUE(statusRetryable(stalledError("watchdog")));
    EXPECT_TRUE(statusRetryable(invariantError("audit")));
}

// ---------------------------------------------------------------------
// Descriptor fingerprints.
// ---------------------------------------------------------------------

TEST(CkptFingerprint, TracksResultShapingFieldsOnly)
{
    RunDesc d;
    d.workload = "database";
    d.pf.name = "ebcp";

    RunDesc same = d;
    same.label = "display-only"; // labels must not split the key
    EXPECT_EQ(descFingerprint(d), descFingerprint(same));

    RunDesc other = d;
    other.scale.measure *= 2;
    EXPECT_NE(descFingerprint(d), descFingerprint(other));
    // ...but the warm state is shared when only measure differs.
    EXPECT_EQ(warmFingerprint(d), warmFingerprint(other));

    RunDesc warm_differs = d;
    warm_differs.scale.warm *= 2;
    EXPECT_NE(warmFingerprint(d), warmFingerprint(warm_differs));

    RunDesc cfg_differs = d;
    cfg_differs.pf.ebcp.prefetchDegree += 1;
    EXPECT_NE(warmFingerprint(d), warmFingerprint(cfg_differs));
    EXPECT_NE(descFingerprint(d), descFingerprint(cfg_differs));
}
