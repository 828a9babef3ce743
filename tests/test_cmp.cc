/**
 * @file
 * Tests for the CMP extension: multi-core wiring, per-core EBCP
 * state, shared-L2 visibility and determinism.
 */

#include <gtest/gtest.h>

#include "sim/cmp_system.hh"
#include "trace/workloads.hh"

using namespace ebcp;

TEST(CmpTest, SingleCoreMatchesStructure)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "null";
    CmpResults r = runCmp(cfg, p, "database", 1, 100000, 200000);
    ASSERT_EQ(r.perCore.size(), 1u);
    EXPECT_EQ(r.perCore[0].insts, 200000u);
    EXPECT_NEAR(r.cpi, r.perCore[0].cpi, 1e-9);
}

TEST(CmpTest, AllCoresRunTheirInstructions)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "null";
    CmpResults r = runCmp(cfg, p, "tpcw", 4, 50000, 100000);
    ASSERT_EQ(r.perCore.size(), 4u);
    for (const auto &c : r.perCore)
        EXPECT_EQ(c.insts, 100000u);
}

TEST(CmpTest, SharedL2ContentionRaisesCpi)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "null";
    CmpResults one = runCmp(cfg, p, "database", 1, 100000, 200000);
    CmpResults four = runCmp(cfg, p, "database", 4, 100000, 200000);
    // Four independent working sets thrash the shared 2MB L2.
    EXPECT_GT(four.cpi, one.cpi);
}

TEST(CmpTest, Deterministic)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.numCoreStates = 2;
    CmpResults a = runCmp(cfg, p, "specjbb", 2, 50000, 100000);
    CmpResults b = runCmp(cfg, p, "specjbb", 2, 50000, 100000);
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(a.perCore[i].cycles, b.perCore[i].cycles);
    EXPECT_EQ(a.epochs, b.epochs);
}

TEST(CmpTest, CoresUseDifferentSeeds)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "null";
    CmpResults r = runCmp(cfg, p, "database", 2, 100000, 200000);
    // Independent instances almost surely differ in cycle counts.
    EXPECT_NE(r.perCore[0].cycles, r.perCore[1].cycles);
}

TEST(CmpTest, PerCoreEbcpStateLearnsUnderInterleaving)
{
    SimConfig cfg;
    PrefetcherParams none;
    none.name = "null";
    CmpResults base = runCmp(cfg, none, "database", 2, 800000, 1600000);

    PrefetcherParams per_core;
    per_core.name = "ebcp";
    per_core.ebcp.numCoreStates = 2;
    CmpResults pc = runCmp(cfg, per_core, "database", 2, 800000,
                           1600000);

    PrefetcherParams shared;
    shared.name = "ebcp";
    shared.ebcp.numCoreStates = 1;
    CmpResults sh = runCmp(cfg, shared, "database", 2, 800000, 1600000);

    // Per-core state must beat a single shared epoch stream, and both
    // must beat no prefetching.
    EXPECT_GT(pc.coverage, sh.coverage);
    EXPECT_LT(pc.cpi, base.cpi);
}

TEST(CmpTest, CoreIdsReachThePrefetcher)
{
    // With per-core states, each core's epoch stream is tracked
    // separately; exercise via the public EMAB accessor.
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.numCoreStates = 2;
    CmpSystem sys(cfg, p, 2);
    auto s0 = makeWorkload("database", 7);
    auto s1 = makeWorkload("database", 8);
    std::vector<TraceSource *> srcs{s0.get(), s1.get()};
    sys.run(srcs, 100000, 100000);
    auto *e = dynamic_cast<EpochBasedPrefetcher *>(&sys.prefetcher());
    ASSERT_NE(e, nullptr);
    EXPECT_GT(e->emab(0).size(), 0u);
    EXPECT_GT(e->emab(1).size(), 0u);
}

TEST(CmpTest, OutOfRangeCoreIdClamps)
{
    // A prefetcher configured with fewer states than cores must not
    // crash: extra cores share the last state.
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.numCoreStates = 1;
    CmpResults r = runCmp(cfg, p, "tpcw", 4, 50000, 100000);
    EXPECT_EQ(r.perCore.size(), 4u);
}

TEST(CmpTest, CoverageAccuracySane)
{
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "solihin-6-1";
    CmpResults r = runCmp(cfg, p, "database", 2, 200000, 400000);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_GE(r.accuracy, 0.0);
    EXPECT_LE(r.accuracy, 1.0);
}

TEST(CmpTest, ResultsCarryEveryField)
{
    // The whole-system results of a CMP run fill every SimResults
    // field with the single-core formulas, and the measurement window
    // restarts every core's L1 statistics.
    constexpr unsigned kCores = 4;
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    p.ebcp.numCoreStates = kCores;
    CmpSystem sys(cfg, p, kCores);
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> srcs;
    for (unsigned i = 0; i < kCores; ++i) {
        owned.push_back(makeWorkload("database", 1000 + i));
        srcs.push_back(owned.back().get());
    }
    ASSERT_TRUE(sys.runWarm(srcs, 200000).ok());

    auto l1dHits = [&](unsigned i) {
        const Scalar *s = sys.hierarchy(i).l1d().stats().findScalar("hits");
        return s ? s->value() : ~std::uint64_t(0);
    };
    for (unsigned i = 0; i < kCores; ++i)
        EXPECT_GT(l1dHits(i), 0u) << "core " << i;
    ASSERT_TRUE(sys.runMeasure(srcs, 0).ok());
    for (unsigned i = 0; i < kCores; ++i)
        EXPECT_EQ(l1dHits(i), 0u) << "core " << i;

    const Tick read0 = sys.memory().readChannel().busyTicks();
    const Tick write0 = sys.memory().writeChannel().busyTicks();
    StatusOr<CmpResults> res = sys.runMeasure(srcs, 400000);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    const SimResults r = foldCmpResults(res.value());

    L2Subsystem &l2 = sys.l2side();
    EXPECT_GT(r.issuedPrefetches, 0u);
    EXPECT_GT(r.usefulPrefetches, 0u);
    EXPECT_EQ(r.issuedPrefetches, l2.issuedPrefetches());
    EXPECT_EQ(r.usefulPrefetches, l2.usefulPrefetches());
    EXPECT_EQ(r.droppedPrefetches, l2.droppedPrefetches());

    ASSERT_EQ(r.insts, kCores * 400000u);
    const double per1k = 1000.0 / static_cast<double>(r.insts);
    EXPECT_GT(r.l2InstMissPer1k, 0.0);
    EXPECT_GT(r.l2LoadMissPer1k, 0.0);
    EXPECT_EQ(r.l2InstMissPer1k, l2.offChipInst() * per1k);
    EXPECT_EQ(r.l2LoadMissPer1k, l2.offChipLoad() * per1k);

    // Bus utilisation is busy time over the slowest core's cycles.
    std::uint64_t cycles = 0;
    for (const SimResults &c : res.value().perCore)
        cycles = std::max(cycles, c.cycles);
    ASSERT_EQ(r.cycles, cycles);
    EXPECT_GT(r.readBusUtil, 0.0);
    EXPECT_GT(r.writeBusUtil, 0.0);
    EXPECT_EQ(r.readBusUtil,
              static_cast<double>(sys.memory().readChannel().busyTicks() -
                                  read0) /
                  static_cast<double>(cycles));
    EXPECT_EQ(r.writeBusUtil,
              static_cast<double>(
                  sys.memory().writeChannel().busyTicks() - write0) /
                  static_cast<double>(cycles));
}

TEST(CmpTest, IntervalSamplerKeepsTheScheduleBitExact)
{
    // With several cores the sampler fires between rounds, so a
    // sampled run interleaves exactly as an unsampled one.
    auto runWith = [](bool sample, std::vector<std::uint64_t> *boundaries) {
        SimConfig cfg;
        PrefetcherParams p;
        p.name = "ebcp";
        p.ebcp.numCoreStates = 2;
        CmpSystem sys(cfg, p, 2);
        IntervalSampler sampler(sys.l2side().stats(), 30000);
        if (sample)
            sys.setSampler(&sampler);
        auto s0 = makeWorkload("database", 1000);
        auto s1 = makeWorkload("database", 1001);
        std::vector<TraceSource *> srcs{s0.get(), s1.get()};
        CmpResults r = sys.run(srcs, 50000, 100000);
        for (const auto &snap : sampler.snapshots())
            boundaries->push_back(snap.insts);
        return r;
    };
    std::vector<std::uint64_t> none, sampled;
    const CmpResults a = runWith(false, &none);
    const CmpResults b = runWith(true, &sampled);
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(a.perCore[i].cycles, b.perCore[i].cycles);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_TRUE(none.empty());

    // Boundaries 30k, 60k and 90k per core, then the window's end.
    ASSERT_EQ(sampled.size(), 4u);
    for (std::size_t k = 0; k + 1 < sampled.size(); ++k) {
        EXPECT_GE(sampled[k], 2 * 30000 * (k + 1));
        EXPECT_LT(sampled[k], sampled[k + 1]);
    }
    EXPECT_EQ(sampled.back(), 2 * 100000u);
}
