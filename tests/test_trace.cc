/**
 * @file
 * Tests for the synthetic workload generator: determinism, record
 * validity, address-map structure and distribution shape.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/address_map.hh"
#include "trace/workloads.hh"
#include "trace/zipf.hh"

using namespace ebcp;

TEST(ZipfTest, SamplesWithinRange)
{
    ZipfSampler z(100, 0.8);
    Pcg32 rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(z.sample(rng), 100u);
}

TEST(ZipfTest, SkewFavoursSmallKeys)
{
    ZipfSampler z(1000, 1.0);
    Pcg32 rng(2);
    std::uint64_t head = 0;
    for (int i = 0; i < 10000; ++i)
        if (z.sample(rng) < 10)
            ++head;
    // With skew 1.0 the top 1% of keys draws far more than 1%.
    EXPECT_GT(head, 1000u);
}

TEST(ZipfTest, ZeroSkewIsUniform)
{
    ZipfSampler z(10, 0.0);
    Pcg32 rng(3);
    std::map<std::uint32_t, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[z.sample(rng)];
    for (auto &kv : counts)
        EXPECT_NEAR(kv.second, 2000, 300);
}

TEST(AddressMapTest, ChainNodesDeterministic)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    EXPECT_EQ(m.chainNode(5, 2), m.chainNode(5, 2));
    EXPECT_NE(m.chainNode(5, 2), m.chainNode(5, 3));
    EXPECT_NE(m.chainNode(5, 2), m.chainNode(6, 2));
}

TEST(AddressMapTest, ChainNodesLineAligned)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    for (std::uint32_t c = 0; c < 50; ++c)
        EXPECT_EQ(m.chainNode(c, 0) % 64, 0u);
}

TEST(AddressMapTest, BtreeRootIsShared)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    EXPECT_EQ(m.btreeNode(0, 1), m.btreeNode(0, 999));
}

TEST(AddressMapTest, BtreeLeavesDiffer)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    std::set<Addr> leaves;
    for (std::uint32_t k = 0; k < 100; ++k)
        leaves.insert(m.btreeNode(cfg.btreeLevels, k));
    EXPECT_GT(leaves.size(), 95u);
}

TEST(AddressMapTest, UpperLevelsNarrowerThanLeaves)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    std::set<Addr> l1, leaves;
    for (std::uint32_t k = 0; k < 2000; ++k) {
        l1.insert(m.btreeNode(1, k));
        leaves.insert(m.btreeNode(cfg.btreeLevels, k));
    }
    EXPECT_LT(l1.size(), leaves.size() / 4);
}

TEST(AddressMapTest, RecordPages2KAligned)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    for (std::uint32_t k = 0; k < 50; ++k)
        EXPECT_EQ(m.recordPage(k) % 2048, 0u);
}

TEST(AddressMapTest, FunctionsDoNotOverlap)
{
    WorkloadConfig cfg;
    AddressMap m(cfg);
    EXPECT_EQ(m.functionBase(1) - m.functionBase(0), cfg.funcBytes);
    EXPECT_GE(m.functionBase(0),
              m.dispatcherBase() + m.dispatcherBytes());
}

TEST(WorkloadTest, DeterministicAcrossInstances)
{
    auto a = makeWorkload("database");
    auto b = makeWorkload("database");
    TraceRecord ra, rb;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a->next(ra));
        ASSERT_TRUE(b->next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
        ASSERT_EQ(ra.taken, rb.taken);
    }
}

TEST(WorkloadTest, ResetRestartsStream)
{
    auto w = makeWorkload("tpcw");
    std::vector<Addr> first;
    TraceRecord r;
    for (int i = 0; i < 1000; ++i) {
        w->next(r);
        first.push_back(r.pc);
    }
    w->reset();
    for (int i = 0; i < 1000; ++i) {
        w->next(r);
        ASSERT_EQ(r.pc, first[static_cast<std::size_t>(i)]);
    }
}

TEST(WorkloadTest, DifferentSeedsDiffer)
{
    auto a = makeWorkload("database", 1);
    auto b = makeWorkload("database", 99);
    TraceRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a->next(ra);
        b->next(rb);
        if (ra.pc == rb.pc && ra.addr == rb.addr)
            ++same;
    }
    EXPECT_LT(same, 900);
}

TEST(WorkloadTest, RecordsAreWellFormed)
{
    for (const auto &name : workloadNames()) {
        auto w = makeWorkload(name);
        TraceRecord r;
        for (int i = 0; i < 20000; ++i) {
            ASSERT_TRUE(w->next(r));
            ASSERT_EQ(r.pc % 4, 0u) << name;
            if (r.op == OpClass::Load || r.op == OpClass::Store) {
                ASSERT_NE(r.addr, 0u) << name;
            }
            if (r.dstReg != NoReg) {
                ASSERT_LT(r.dstReg, NumArchRegs) << name;
            }
            if (r.srcReg0 != NoReg) {
                ASSERT_LT(r.srcReg0, NumArchRegs) << name;
            }
        }
    }
}

TEST(WorkloadTest, ContainsAllInstructionClasses)
{
    auto w = makeWorkload("database");
    TraceRecord r;
    std::set<int> seen;
    for (int i = 0; i < 200000; ++i) {
        w->next(r);
        seen.insert(static_cast<int>(r.op));
    }
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::IntAlu)));
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::Load)));
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::Store)));
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::Branch)));
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::Call)));
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::Return)));
    EXPECT_TRUE(seen.count(static_cast<int>(OpClass::Serialize)));
}

TEST(WorkloadTest, CallsAndReturnsBalance)
{
    auto w = makeWorkload("specjbb");
    TraceRecord r;
    long depth = 0;
    long max_depth = 0;
    for (int i = 0; i < 100000; ++i) {
        w->next(r);
        if (r.op == OpClass::Call)
            ++depth;
        if (r.op == OpClass::Return)
            --depth;
        max_depth = std::max(max_depth, depth);
    }
    EXPECT_GE(depth, -1);
    EXPECT_LE(max_depth, 2); // ops are flat call/return pairs
}

TEST(WorkloadTest, KnownNamesResolve)
{
    for (const auto &n : workloadNames())
        EXPECT_EQ(workloadByName(n).name, n);
    EXPECT_EQ(workloadNames().size(), 4u);
}

TEST(WorkloadTest, DataAddressesAreIrregular)
{
    // Chained data must not be stride-predictable: consecutive load
    // deltas should rarely repeat.
    auto w = makeWorkload("database");
    TraceRecord r;
    std::vector<Addr> loads;
    while (loads.size() < 5000) {
        w->next(r);
        if (r.op == OpClass::Load)
            loads.push_back(r.addr);
    }
    std::map<std::int64_t, int> deltas;
    for (std::size_t i = 1; i < loads.size(); ++i)
        ++deltas[static_cast<std::int64_t>(loads[i]) -
                 static_cast<std::int64_t>(loads[i - 1])];
    // The most common delta (64, from scans) must not dominate.
    int max_count = 0;
    for (auto &kv : deltas)
        max_count = std::max(max_count, kv.second);
    EXPECT_LT(max_count, 3000);
}

TEST(WorkloadTest, RecurringKeysReplayAddresses)
{
    // The property correlation prefetching depends on: the same
    // (chain, hop) identity always maps to the same address, so key
    // recurrence replays miss addresses.
    WorkloadConfig cfg = databaseConfig();
    AddressMap m(cfg);
    for (std::uint32_t k = 0; k < 32; ++k)
        for (std::uint32_t h = 0; h < 4; ++h)
            EXPECT_EQ(m.chainNode(k, h), m.chainNode(k, h));
}

TEST(WorkloadTest, SerializersFollowTheirPeriodInsideFillerRuns)
{
    // Every serializeEvery-th record is followed by a serializer at
    // that record's PC + 4 -- including inside the bulk-appended
    // filler runs -- and the next instruction shares its PC.
    WorkloadConfig cfg = workloadByName("specjbb", 1);
    cfg.serializeEvery = 5;
    SyntheticWorkload w(cfg);
    TraceRecord prev, r, serialized;
    ASSERT_TRUE(w.next(prev));
    unsigned since = 1;
    bool pending = false;
    std::uint64_t serializers = 0;
    for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(w.next(r));
        if (r.op == OpClass::Serialize) {
            ASSERT_EQ(since, cfg.serializeEvery) << i;
            EXPECT_EQ(r.pc, prev.pc + 4) << i;
            since = 0;
            pending = true;
            serialized = prev;
            ++serializers;
        } else {
            // Filler runs straight through a serializer.
            if (pending && serialized.op == OpClass::IntAlu &&
                r.op == OpClass::IntAlu) {
                EXPECT_EQ(r.pc, serialized.pc + 4) << i;
            }
            pending = false;
            ASSERT_LT(since, cfg.serializeEvery) << i;
            ++since;
        }
        prev = r;
    }
    EXPECT_GT(serializers, 100000u / 6 - 10);
    EXPECT_EQ(w.ringStats().grows, 0u);
}
