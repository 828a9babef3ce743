/**
 * @file
 * Bit-exact SimResults regression against pre-overhaul goldens, plus
 * steady-state allocation checks on the miss path.
 *
 * The hot-path overhaul (FlatMap migrations, record ring, pooled
 * buffers, batched trace pull, ring cursors) is pure mechanism: it
 * must not change a single simulated number. The goldens below were
 * captured from the tree BEFORE any of those changes, printed with
 * %a, and are embedded as C++ hex-float literals -- so every
 * comparison is exact to the last mantissa bit, not a tolerance test.
 * A mismatch means an optimization changed simulator semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "sim/cmp_system.hh"
#include "sim/simulator.hh"
#include "trace/synthetic_workload.hh"
#include "trace/workloads.hh"

using namespace ebcp;

namespace
{

constexpr std::uint64_t kWarm = 200'000;
constexpr std::uint64_t kMeasure = 400'000;

struct Golden
{
    const char *workload;
    const char *pf;
    std::uint64_t insts, cycles, epochs;
    double cpi, epochsPer1k, l2InstMissPer1k, l2LoadMissPer1k;
    std::uint64_t useful, issued, dropped;
    double coverage, accuracy, readBusUtil, writeBusUtil;
};

// Captured at warm=200k / measure=400k from the pre-overhaul tree.
constexpr Golden kGoldens[] = {
    {"database", "null", 400000, 2340804, 3542,
     0x1.768754f3775b8p+2, 0x1.1b5c28f5c28f6p+3, 0x1.219999999999ap+1,
     0x1.4f1eb851eb852p+3, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.648b690fceb7dp-5, 0x0p+0},
    {"database", "ebcp", 400000, 2340307, 3541,
     0x1.7672f9873ffacp+2, 0x1.1b47ae147ae15p+3, 0x1.20f5c28f5c28fp+1,
     0x1.4f0a3d70a3d71p+3, 3, 5, 0,
     0x1.34c4992d87fd9p-11, 0x1.3333333333333p-1,
     0x1.aa59217b592dfp-4, 0x1.f05b27d20509cp-5},
    {"tpcw", "null", 400000, 1562440, 1882,
     0x1.f3fb15b573eabp+1, 0x1.2d1eb851eb852p+2, 0x1.4cccccccccccdp+0,
     0x1.2ee147ae147aep+2, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.fa0fed0521b4ep-6, 0x0p+0},
    {"tpcw", "ebcp", 400000, 1562440, 1882,
     0x1.f3fb15b573eabp+1, 0x1.2d1eb851eb852p+2, 0x1.4cccccccccccdp+0,
     0x1.2ee147ae147aep+2, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.43dd796c577b1p-4, 0x1.8ab2fc561e1bcp-5},
    {"specjbb", "null", 400000, 1910665, 2814,
     0x1.31b4d6a161e4fp+2, 0x1.c23d70a3d70a4p+2, 0x1.31eb851eb851fp-1,
     0x1.5p+3, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.7ca53614b882bp-5, 0x0p+0},
    {"specjbb", "ebcp", 400000, 1909717, 2813,
     0x1.318e0221426fep+2, 0x1.c2147ae147ae1p+2, 0x1.31eb851eb851fp-1,
     0x1.4fd70a3d70a3ep+3, 2, 2, 0,
     0x1.d8701c9ac9bb6p-12, 0x1p+0,
     0x1.afcb952e0df53p-4, 0x1.e303786fa393ep-5},
    {"specjas", "null", 400000, 1983784, 2815,
     0x1.3d67caea747d8p+2, 0x1.c266666666667p+2, 0x1.eb851eb851eb8p+0,
     0x1.e1eb851eb851fp+2, 0, 0, 0,
     0x0p+0, 0x0p+0, 0x1.383056f785f0dp-5, 0x0p+0},
    {"specjas", "ebcp", 400000, 1983786, 2815,
     0x1.3d67dfe32a066p+2, 0x1.c266666666667p+2, 0x1.eb851eb851eb8p+0,
     0x1.e1c28f5c28f5cp+2, 1, 1, 0,
     0x1.1566abc011567p-12, 0x1p+0,
     0x1.849577253f42ep-4, 0x1.d124f520ff0fbp-5},
};

/** A 4-core run on database: per-core insts and cycles, then the
 * whole-system epochs, CPI, coverage, accuracy and timeliness. */
struct CmpGolden
{
    const char *pf;
    std::uint64_t insts[4], cycles[4];
    std::uint64_t epochs;
    double cpi, coverage, accuracy, timeliness;
};

constexpr unsigned kCmpCores = 4;

// Captured at warm=200k / measure=400k per core from the tree that
// still had a separate CMP driver, before the two drivers merged.
constexpr CmpGolden kCmpGoldens[] = {
    {"null",
     {400000, 400000, 400000, 400000},
     {4126267, 4126261, 4121759, 4126053},
     6547, 0x1.4a01bda5119cep+3, 0x0p+0, 0x0p+0, 0x0p+0},
    {"ebcp",
     {400000, 400000, 400000, 400000},
     {4069328, 4068754, 4064252, 4068546},
     6446, 0x1.456ae7d566cf4p+3, 0x1.54b5a5b14ec5ep-6,
     0x1.1a8ab3cca0f69p-1, 0x1.dac37dac37dacp-2},
    {"solihin-6-1",
     {400000, 400000, 400000, 400000},
     {4034327, 4033259, 4028757, 4033051},
     6387, 0x1.42967f4dbdf8fp+3, 0x1.73aee34d101dbp-5,
     0x1.d0de1a78bc879p-2, 0x1.999999999999ap-3},
};

PrefetcherParams
cmpPrefetcher(const CmpGolden &g)
{
    PrefetcherParams pf;
    pf.name = g.pf;
    pf.ebcp.numCoreStates = kCmpCores;
    return pf;
}

/** One workload instance per core, seeded as runCmp() seeds them. */
struct CmpSources
{
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> ptrs;

    CmpSources()
    {
        for (unsigned i = 0; i < kCmpCores; ++i) {
            owned.push_back(makeWorkload("database", 1000 + i));
            ptrs.push_back(owned.back().get());
        }
    }
};

void
expectCmpGolden(const CmpResults &r, const CmpGolden &g)
{
    ASSERT_EQ(r.perCore.size(), kCmpCores);
    for (unsigned i = 0; i < kCmpCores; ++i) {
        EXPECT_EQ(r.perCore[i].insts, g.insts[i]) << "core " << i;
        EXPECT_EQ(r.perCore[i].cycles, g.cycles[i]) << "core " << i;
    }
    const SimResults all = foldCmpResults(r);
    EXPECT_EQ(all.epochs, g.epochs);
    // EXPECT_EQ on doubles is exact comparison -- deliberate.
    EXPECT_EQ(all.cpi, g.cpi);
    EXPECT_EQ(all.coverage, g.coverage);
    EXPECT_EQ(all.accuracy, g.accuracy);
    EXPECT_EQ(all.timeliness, g.timeliness);
}

} // namespace

TEST(GoldenResults, BitExactAcrossAllWorkloadsAndPrefetchers)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.pf);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = g.pf;
        auto src = makeWorkload(g.workload);
        const SimResults r = runOnce(cfg, pf, *src, kWarm, kMeasure);

        EXPECT_EQ(r.insts, g.insts);
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.epochs, g.epochs);
        EXPECT_EQ(r.usefulPrefetches, g.useful);
        EXPECT_EQ(r.issuedPrefetches, g.issued);
        EXPECT_EQ(r.droppedPrefetches, g.dropped);
        // EXPECT_EQ on doubles is exact comparison -- deliberate.
        EXPECT_EQ(r.cpi, g.cpi);
        EXPECT_EQ(r.epochsPer1k, g.epochsPer1k);
        EXPECT_EQ(r.l2InstMissPer1k, g.l2InstMissPer1k);
        EXPECT_EQ(r.l2LoadMissPer1k, g.l2LoadMissPer1k);
        EXPECT_EQ(r.coverage, g.coverage);
        EXPECT_EQ(r.accuracy, g.accuracy);
        EXPECT_EQ(r.readBusUtil, g.readBusUtil);
        EXPECT_EQ(r.writeBusUtil, g.writeBusUtil);
    }
}

TEST(GoldenResults, RestoredRunsReproduceGoldensExactly)
{
    // The crash-safety claim, pinned to the same pre-overhaul
    // numbers: warm a simulator, serialize it, restore the checkpoint
    // into a FRESH simulator, and the measurement must reproduce
    // every golden to the last mantissa bit. A mismatch means
    // serialization missed (or perturbed) simulator state.
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(std::string(g.workload) + "/" + g.pf);
        SimConfig cfg;
        PrefetcherParams pf;
        pf.name = g.pf;

        std::string blob;
        {
            Simulator sim(cfg, pf);
            auto src = makeWorkload(g.workload);
            ASSERT_TRUE(sim.runWarm(*src, kWarm).ok());
            StatusOr<std::string> b = sim.serializeCheckpoint(*src);
            ASSERT_TRUE(b.ok()) << b.status().toString();
            blob = b.take();
        }

        Simulator sim(cfg, pf);
        auto src = makeWorkload(g.workload);
        ASSERT_TRUE(sim.restoreCheckpoint(blob, *src).ok());
        StatusOr<SimResults> rr = sim.runMeasure(*src, kMeasure);
        ASSERT_TRUE(rr.ok()) << rr.status().toString();
        const SimResults &r = rr.value();

        EXPECT_EQ(r.insts, g.insts);
        EXPECT_EQ(r.cycles, g.cycles);
        EXPECT_EQ(r.epochs, g.epochs);
        EXPECT_EQ(r.usefulPrefetches, g.useful);
        EXPECT_EQ(r.issuedPrefetches, g.issued);
        EXPECT_EQ(r.droppedPrefetches, g.dropped);
        EXPECT_EQ(r.cpi, g.cpi);
        EXPECT_EQ(r.epochsPer1k, g.epochsPer1k);
        EXPECT_EQ(r.l2InstMissPer1k, g.l2InstMissPer1k);
        EXPECT_EQ(r.l2LoadMissPer1k, g.l2LoadMissPer1k);
        EXPECT_EQ(r.coverage, g.coverage);
        EXPECT_EQ(r.accuracy, g.accuracy);
        EXPECT_EQ(r.readBusUtil, g.readBusUtil);
        EXPECT_EQ(r.writeBusUtil, g.writeBusUtil);
    }
}

TEST(GoldenResults, CmpBitExactAcrossPrefetchers)
{
    for (const CmpGolden &g : kCmpGoldens) {
        SCOPED_TRACE(g.pf);
        const CmpResults r = runCmp(SimConfig{}, cmpPrefetcher(g),
                                    "database", kCmpCores, kWarm, kMeasure);
        expectCmpGolden(r, g);
    }
}

TEST(GoldenResults, CmpRestoredRunsReproduceGoldensExactly)
{
    for (const CmpGolden &g : kCmpGoldens) {
        SCOPED_TRACE(g.pf);
        std::string blob;
        {
            CmpSystem sys(SimConfig{}, cmpPrefetcher(g), kCmpCores);
            CmpSources src;
            ASSERT_TRUE(sys.runWarm(src.ptrs, kWarm).ok());
            StatusOr<std::string> b = sys.serializeCheckpoint(src.ptrs);
            ASSERT_TRUE(b.ok()) << b.status().toString();
            blob = b.take();
        }

        CmpSystem sys(SimConfig{}, cmpPrefetcher(g), kCmpCores);
        CmpSources src;
        ASSERT_TRUE(sys.restoreCheckpoint(blob, src.ptrs).ok());
        StatusOr<CmpResults> r = sys.runMeasure(src.ptrs, kMeasure);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        expectCmpGolden(r.value(), g);
    }
}

TEST(GoldenResults, OneCoreCmpEqualsSimulator)
{
    // One core through the CMP entry point is the plain simulator on
    // the same (seed-1000) source.
    for (const char *name : {"null", "ebcp"}) {
        SCOPED_TRACE(name);
        PrefetcherParams pf;
        pf.name = name;
        const CmpResults cmp =
            runCmp(SimConfig{}, pf, "database", 1, kWarm, kMeasure);
        auto src = makeWorkload("database", 1000);
        const SimResults one = runOnce(SimConfig{}, pf, *src, kWarm, kMeasure);
        ASSERT_EQ(cmp.perCore.size(), 1u);
        EXPECT_EQ(cmp.perCore[0].cycles, one.cycles);
        EXPECT_EQ(cmp.perCore[0].cycles, 2041972u);
        EXPECT_EQ(foldCmpResults(cmp).cpi, one.cpi);
    }
}

TEST(SteadyState, MissPathStructuresStopAllocating)
{
    // Warm a full system, then run twice as many further instructions
    // and require the warmed hot structures to serve them without a
    // single new allocation: the record ring must not grow and the
    // MSHR map (reserved at construction) must never have rehashed.
    // The correlation table is excluded deliberately -- it keeps
    // admitting new keys by design until it reaches its configured
    // entry count.
    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = "ebcp";
    Simulator sim(cfg, pf);
    auto src = makeWorkload("database");
    sim.run(*src, 100'000, 100'000);

    const RingStats ring0 = src->ringStats();
    const FlatMapStats mshr0 = sim.l2side().mshrs().mapStats();
    EXPECT_EQ(mshr0.rehashes, 0u);
    // The workload pre-reserves the ring from its own footprint bound
    // at construction (one counted reserve, zero growths), so even
    // the warm-up phase never reallocated.
    EXPECT_EQ(ring0.grows, 0u);

    sim.core().run(*src, 400'000);

    const RingStats ring1 = src->ringStats();
    const FlatMapStats mshr1 = sim.l2side().mshrs().mapStats();
    EXPECT_EQ(ring1.grows, 0u);
    EXPECT_EQ(mshr1.rehashes, 0u);
    // ...while the structures were genuinely exercised.
    EXPECT_GT(ring1.pushes, ring0.pushes);
    EXPECT_GT(mshr1.finds, mshr0.finds);
}

TEST(SteadyState, BatchedPullMatchesSingleRecordPull)
{
    // The core pulls records through nextBatch(); the two pull styles
    // must yield the identical stream.
    auto a = makeWorkload("tpcw");
    auto b = makeWorkload("tpcw");
    TraceRecord ra;
    TraceRecord batch[64];
    for (int round = 0; round < 2000; ++round) {
        const std::size_t got = b->nextBatch(batch, 64);
        ASSERT_EQ(got, 64u);
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_TRUE(a->next(ra));
            EXPECT_EQ(ra.pc, batch[i].pc);
            EXPECT_EQ(ra.addr, batch[i].addr);
            EXPECT_EQ(static_cast<int>(ra.op),
                      static_cast<int>(batch[i].op));
            EXPECT_EQ(ra.dstReg, batch[i].dstReg);
            EXPECT_EQ(ra.srcReg0, batch[i].srcReg0);
            EXPECT_EQ(ra.srcReg1, batch[i].srcReg1);
        }
    }
}

namespace
{

/** FNV-1a over every field of the first @p n records of @p src,
 * pulled through the zero-copy span path the core uses, in spans
 * capped at an odd size so ring wraps and serializer injections land
 * at varying offsets. */
std::uint64_t
recordStreamHash(TraceSource &src, std::uint64_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    std::uint64_t left = n;
    while (left > 0) {
        const TraceRecord *span = nullptr;
        const std::size_t got =
            src.peekSpan(&span, std::min<std::uint64_t>(left, 997));
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            const TraceRecord &r = span[i];
            mix(r.pc);
            mix(r.addr);
            mix(static_cast<std::uint64_t>(r.op));
            mix(r.dstReg);
            mix(r.srcReg0);
            mix(r.srcReg1);
            mix(r.taken);
            mix(r.target);
        }
        src.consumeSpan(got);
        left -= got;
    }
    return h;
}

} // namespace

TEST(GoldenResults, GeneratorRecordStreamsBitExact)
{
    // The first 200K records of each workload at seed 1, hashed field
    // by field. Captured before the generator's emitters were
    // restructured: any change to what the generator emits, in any
    // field of any record, changes the hash.
    struct StreamGolden
    {
        const char *workload;
        std::uint64_t hash;
    };
    constexpr StreamGolden kStreams[] = {
        {"database", 0xdcd2cdeebaf30c42ULL},
        {"tpcw", 0x19040d6fba6d99acULL},
        {"specjbb", 0x1f2e0b067441322fULL},
        {"specjas", 0x78b044cfd64b8d62ULL},
    };
    for (const StreamGolden &g : kStreams) {
        SCOPED_TRACE(g.workload);
        auto src = makeWorkload(g.workload, 1);
        EXPECT_EQ(recordStreamHash(*src, 200'000), g.hash);
        EXPECT_EQ(src->ringStats().grows, 0u);
    }
}

TEST(GoldenResults, GeneratorSerializerInjectionBitExact)
{
    // The default period puts a serializer every 50K records, so the
    // streams above see only a few. Dense periods inject one inside
    // most filler runs (1: after every record). Captured, like the
    // hashes above, from the generator before its filler emitter was
    // batched.
    struct PeriodGolden
    {
        unsigned every;
        std::uint64_t hash;
    };
    constexpr PeriodGolden kPeriods[] = {
        {1, 0x4c703e11789ba360ULL},
        {7, 0xd498942c4bbfc485ULL},
        {64, 0x246e203c0636108fULL},
    };
    for (const PeriodGolden &g : kPeriods) {
        SCOPED_TRACE(g.every);
        WorkloadConfig cfg = workloadByName("tpcw", 1);
        cfg.serializeEvery = g.every;
        SyntheticWorkload src(cfg);
        EXPECT_EQ(recordStreamHash(src, 200'000), g.hash);
    }
}
