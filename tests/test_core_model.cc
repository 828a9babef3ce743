/**
 * @file
 * Timing-model tests: the core must exhibit the pipeline behaviours
 * the epoch model depends on (bounded overlap, dependence
 * serialization, window-termination conditions).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ckpt/archiver.hh"
#include "cpu/core_model.hh"
#include "cpu/mem_iface.hh"
#include "trace/synthetic_workload.hh"
#include "trace/workloads.hh"
#include "util/bitfield.hh"

using namespace ebcp;

namespace
{

/** Memory stub: configurable per-line miss latency, instant fetch. */
class StubMem : public MemSystem
{
  public:
    std::set<Addr> missLines;
    Tick missLatency = 500;
    Tick hitLatency = 3;
    bool instMiss = false;
    std::set<Addr> instMissLines;

    MemOutcome
    fetchInst(Addr pc, Tick when) override
    {
        const Addr line = pc & ~Addr{63};
        if (instMissLines.count(line))
            return {when + missLatency, true};
        return {when, false};
    }

    MemOutcome
    load(Addr addr, Addr, Tick when) override
    {
        const Addr line = addr & ~Addr{63};
        if (missLines.count(line))
            return {when + missLatency, true};
        return {when + hitLatency, false};
    }

    Tick store(Addr, Tick when) override { return when + 1; }
    unsigned lineBytes() const override { return 64; }
};

TraceRecord
alu(Addr pc, std::uint8_t dst = NoReg, std::uint8_t src = NoReg)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::IntAlu;
    r.dstReg = dst;
    r.srcReg0 = src;
    return r;
}

TraceRecord
load(Addr pc, Addr addr, std::uint8_t dst, std::uint8_t src = NoReg)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::Load;
    r.addr = addr;
    r.dstReg = dst;
    r.srcReg0 = src;
    return r;
}

} // namespace

TEST(CoreModel, RetireIsMonotonic)
{
    StubMem mem;
    CoreModel core({}, mem);
    Tick last = 0;
    for (int i = 0; i < 200; ++i) {
        InstTiming t = core.process(alu(0x1000 + i * 4));
        EXPECT_GE(t.retire, last);
        EXPECT_GE(t.retire, t.complete);
        EXPECT_GE(t.complete, t.issue);
        EXPECT_GE(t.issue, t.dispatch);
        EXPECT_GE(t.dispatch, t.fetch);
        last = t.retire;
    }
}

TEST(CoreModel, IndependentAlusReachAluWidth)
{
    StubMem mem;
    CoreConfig cfg;
    CoreModel core(cfg, mem);
    core.beginMeasurement();
    for (int i = 0; i < 4000; ++i)
        core.process(alu(0x1000 + (i % 8) * 4));
    // Two ALUs: best case CPI 0.5; allow modest overhead.
    EXPECT_LT(core.cpi(), 0.7);
    EXPECT_GE(core.cpi(), 0.5);
}

TEST(CoreModel, DependentChainRunsAtIpcOne)
{
    StubMem mem;
    CoreModel core({}, mem);
    core.beginMeasurement();
    for (int i = 0; i < 4000; ++i)
        core.process(alu(0x1000 + (i % 8) * 4, 5, 5)); // r5 <- r5
    EXPECT_NEAR(core.cpi(), 1.0, 0.1);
}

TEST(CoreModel, IndependentMissesOverlap)
{
    StubMem mem;
    mem.missLines = {0x10000, 0x20000};
    CoreModel core({}, mem);
    InstTiming a = core.process(load(0x1000, 0x10000, 1));
    InstTiming b = core.process(load(0x1004, 0x20000, 2));
    // Both issue before either completes: full overlap.
    EXPECT_LT(b.issue, a.complete);
    EXPECT_LT(b.complete - a.complete, 10u);
}

TEST(CoreModel, DependentMissesSerialize)
{
    StubMem mem;
    mem.missLines = {0x10000, 0x20000};
    CoreModel core({}, mem);
    InstTiming a = core.process(load(0x1000, 0x10000, 1));
    InstTiming b = core.process(load(0x1004, 0x20000, 2, 1));
    EXPECT_GE(b.issue, a.complete);
    EXPECT_GE(b.complete, a.complete + mem.missLatency);
}

TEST(CoreModel, RobBoundsMissOverlap)
{
    StubMem mem;
    mem.missLines = {0x10000, 0x20000};
    CoreConfig cfg;
    CoreModel core(cfg, mem);
    InstTiming first = core.process(load(0x1000, 0x10000, 1));
    // Fill the ROB with more independent ALU work than it can hold.
    for (unsigned i = 0; i < cfg.robEntries + 8; ++i)
        core.process(alu(0x2000 + i * 4));
    InstTiming second = core.process(load(0x3000, 0x20000, 2));
    // The second miss is beyond the window: it cannot overlap the
    // first (its dispatch waits for the first to retire).
    EXPECT_GE(second.issue, first.complete);
}

TEST(CoreModel, OffChipInstructionMissStallsFetch)
{
    StubMem mem;
    mem.instMissLines = {0x2000};
    CoreModel core({}, mem);
    core.process(alu(0x1000));
    InstTiming t = core.process(alu(0x2000)); // new line, off-chip
    EXPECT_GE(t.fetch, mem.missLatency);
}

TEST(CoreModel, MispredictedBranchRedirectsFetch)
{
    StubMem mem;
    CoreConfig cfg;
    CoreModel core(cfg, mem);
    // Branch whose outcome the fresh predictor gets wrong (counters
    // initialize weakly-not-taken, so a taken branch mispredicts).
    TraceRecord br;
    br.pc = 0x1000;
    br.op = OpClass::Branch;
    br.taken = true;
    br.target = 0x1010;
    InstTiming b = core.process(br);
    InstTiming next = core.process(alu(0x1010));
    EXPECT_GE(next.fetch, b.complete + cfg.mispredictPenalty);
}

TEST(CoreModel, BranchDependentOnMissTerminatesWindow)
{
    StubMem mem;
    mem.missLines = {0x10000};
    CoreModel core({}, mem);
    InstTiming ld = core.process(load(0x1000, 0x10000, 1));
    TraceRecord br;
    br.pc = 0x1004;
    br.op = OpClass::Branch;
    br.taken = true;  // mispredicted on a fresh predictor
    br.target = 0x2000;
    br.srcReg0 = 1;   // depends on the off-chip load
    core.process(br);
    InstTiming after = core.process(alu(0x2000));
    // Fetch resumed only after the load + branch resolved.
    EXPECT_GT(after.fetch, ld.complete);
}

TEST(CoreModel, SerializerDrainsWindow)
{
    StubMem mem;
    mem.missLines = {0x10000};
    CoreModel core({}, mem);
    InstTiming ld = core.process(load(0x1000, 0x10000, 1));
    TraceRecord s;
    s.pc = 0x1004;
    s.op = OpClass::Serialize;
    InstTiming ser = core.process(s);
    EXPECT_GE(ser.dispatch, ld.retire);
    InstTiming next = core.process(alu(0x1008));
    EXPECT_GE(next.dispatch, ser.retire);
}

TEST(CoreModel, StoreBufferFullStallsStores)
{
    StubMem mem;
    CoreConfig cfg;
    cfg.storeBufferEntries = 2;
    // Make stores drain very slowly via a custom stub.
    class SlowStoreMem : public StubMem
    {
      public:
        Tick
        store(Addr, Tick when) override
        {
            return when + 1000;
        }
    } slow;
    CoreModel core(cfg, slow);
    TraceRecord st;
    st.op = OpClass::Store;
    st.addr = 0x5000;
    st.pc = 0x1000;
    InstTiming t1 = core.process(st);
    core.process(st);
    InstTiming t3 = core.process(st); // buffer full: waits for drain
    EXPECT_GE(t3.dispatch, t1.retire + 999);
}

TEST(CoreModel, MeasurementWindowDeltas)
{
    StubMem mem;
    CoreModel core({}, mem);
    for (int i = 0; i < 100; ++i)
        core.process(alu(0x1000 + (i % 4) * 4));
    core.beginMeasurement();
    EXPECT_EQ(core.measuredInsts(), 0u);
    for (int i = 0; i < 50; ++i)
        core.process(alu(0x1000 + (i % 4) * 4));
    EXPECT_EQ(core.measuredInsts(), 50u);
    EXPECT_GT(core.measuredCycles(), 0u);
}

TEST(CoreModel, RunConsumesFromSource)
{
    StubMem mem;
    CoreModel core({}, mem);

    class CountingSource : public TraceSource
    {
      public:
        int produced = 0;
        bool
        next(TraceRecord &rec) override
        {
            rec = TraceRecord{};
            rec.op = OpClass::IntAlu;
            rec.pc = 0x1000;
            ++produced;
            return true;
        }
        void reset() override { produced = 0; }
    } src;

    core.run(src, 321);
    EXPECT_EQ(src.produced, 321);
    EXPECT_EQ(core.instCount(), 321u);
}

TEST(CoreModel, FpOpsUseFpPipelines)
{
    StubMem mem;
    CoreModel core({}, mem);
    TraceRecord f;
    f.pc = 0x1000;
    f.op = OpClass::FpMul;
    f.dstReg = 3;
    InstTiming t = core.process(f);
    EXPECT_EQ(t.complete - t.issue, opLatency(OpClass::FpMul));
}

namespace
{

/** Memory stub with misses keyed on a hash of the line, so a
 * realistic record stream sees off-chip loads and fetches. */
class HashMissMem : public MemSystem
{
  public:
    MemOutcome
    fetchInst(Addr pc, Tick when) override
    {
        if (mix64(pc >> 6) % 16 == 0)
            return {when + 300, true};
        return {when, false};
    }

    MemOutcome
    load(Addr addr, Addr, Tick when) override
    {
        if (mix64(addr >> 6) % 4 == 0)
            return {when + 400, true};
        return {when + 3, false};
    }

    Tick store(Addr, Tick when) override { return when + 1; }
    unsigned lineBytes() const override { return 64; }
};

/** Replays a fixed record vector through the plain next() path. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(const std::vector<TraceRecord> &recs)
        : recs_(recs)
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ == recs_.size())
            return false;
        rec = recs_[pos_++];
        return true;
    }
    void reset() override { pos_ = 0; }

  private:
    const std::vector<TraceRecord> &recs_;
    std::size_t pos_ = 0;
};

std::string
coreImage(CoreModel &core)
{
    std::string out;
    ckpt::Archiver ar = ckpt::Archiver::saver(out);
    core.ckpt(ar);
    return out;
}

} // namespace

TEST(CoreModel, RunChunkingMatchesProcessByteForByte)
{
    // run() times each decoded span through process(), the core's
    // one step function, so any chunking must leave the identical
    // checkpoint image (every timing field, ring and stat) behind.
    constexpr std::size_t kRecords = 30'000;
    WorkloadConfig wcfg = workloadByName("database", 1);
    wcfg.serializeEvery = 997; // several serializers, not one per 50K
    std::vector<TraceRecord> recs(kRecords);
    {
        SyntheticWorkload w(wcfg);
        ASSERT_EQ(w.nextBatch(recs.data(), kRecords), kRecords);
    }

    HashMissMem ref_mem;
    CoreModel ref({}, ref_mem);
    ref.setWatchdog(1'000'000);
    for (const TraceRecord &r : recs)
        ref.process(r);
    const std::string want = coreImage(ref);
    ASSERT_GT(ref.stats().findScalar("offchip_loads")->value(), 0u);
    ASSERT_GT(ref.stats().findScalar("offchip_fetches")->value(), 0u);
    ASSERT_GT(ref.stats().findScalar("serializers")->value(), 0u);

    // 1 and 7 never fill a decode chunk; 1500 crosses the 1024-record
    // decode chunks at shifting offsets.
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                              std::size_t{1500}}) {
        SCOPED_TRACE(chunk);
        HashMissMem mem;
        CoreModel core({}, mem);
        core.setWatchdog(1'000'000);
        VectorSource src(recs);
        for (std::size_t done = 0; done < kRecords; done += chunk)
            core.run(src, std::min(chunk, kRecords - done));
        EXPECT_FALSE(core.watchdogTripped());
        EXPECT_EQ(core.instCount(), kRecords);
        EXPECT_TRUE(coreImage(core) == want);
    }

    // The generator's zero-copy span path: spans end at transaction
    // and ring-wrap boundaries, which 4099 crosses.
    HashMissMem mem;
    CoreModel core({}, mem);
    core.setWatchdog(1'000'000);
    SyntheticWorkload w(wcfg);
    for (std::size_t done = 0; done < kRecords; done += 4099)
        core.run(w, std::min<std::size_t>(4099, kRecords - done));
    EXPECT_TRUE(coreImage(core) == want);
}
