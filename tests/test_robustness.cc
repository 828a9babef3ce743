/**
 * @file
 * End-to-end robustness tests: deterministic fault injection and the
 * forward-progress watchdog.
 *
 * The contract under test is the one DESIGN.md states: damaged input
 * degrades results (Status, counters) but never crashes or hangs the
 * simulator, and a given fault seed reproduces the exact same run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/cmp_system.hh"
#include "sim/simulator.hh"
#include "trace/fault_injection.hh"
#include "trace/workloads.hh"
#include "util/fault.hh"

using namespace ebcp;

namespace
{

constexpr std::uint64_t kWarm = 20'000;
constexpr std::uint64_t kMeasure = 60'000;

struct FaultRun
{
    SimResults results;
    std::uint64_t bitflips = 0;
    std::uint64_t shortReads = 0;
    std::uint64_t dropped = 0;
};

FaultRun
runWithTraceFaults(std::uint64_t fault_seed)
{
    FaultPlan plan;
    plan.traceBitflip = true;
    plan.traceShortRead = true;
    plan.seed = fault_seed;
    plan.rate = 2e-3;

    SimConfig cfg;
    cfg.faults = plan;
    PrefetcherParams pf;
    pf.name = "ebcp";
    pf.ebcp.faults = plan;

    StatusOr<std::unique_ptr<SyntheticWorkload>> src =
        tryMakeWorkload("database", 42);
    EXPECT_TRUE(src.ok());
    FaultInjectingTraceSource faulty(*src.value(), plan);

    Simulator sim(cfg, pf);
    StatusOr<SimResults> res = sim.tryRun(faulty, kWarm, kMeasure);
    EXPECT_TRUE(res.ok()) << res.status().toString();

    FaultRun out;
    out.results = res.take();
    out.bitflips = faulty.bitflipsInjected();
    out.shortReads = faulty.shortReadsInjected();
    out.dropped = faulty.recordsDropped();
    return out;
}

void
expectIdentical(const SimResults &a, const SimResults &b)
{
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.epochsPer1k, b.epochsPer1k);
    EXPECT_EQ(a.l2InstMissPer1k, b.l2InstMissPer1k);
    EXPECT_EQ(a.l2LoadMissPer1k, b.l2LoadMissPer1k);
    EXPECT_EQ(a.usefulPrefetches, b.usefulPrefetches);
    EXPECT_EQ(a.issuedPrefetches, b.issuedPrefetches);
    EXPECT_EQ(a.droppedPrefetches, b.droppedPrefetches);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.readBusUtil, b.readBusUtil);
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil);
}

} // namespace

TEST(FaultInjection, SameSeedIsBitIdentical)
{
    FaultRun a = runWithTraceFaults(7);
    FaultRun b = runWithTraceFaults(7);
    expectIdentical(a.results, b.results);
    EXPECT_EQ(a.bitflips, b.bitflips);
    EXPECT_EQ(a.shortReads, b.shortReads);
    EXPECT_EQ(a.dropped, b.dropped);
    // The faults actually fired (this test must not pass vacuously).
    EXPECT_GT(a.bitflips, 0u);
    EXPECT_GT(a.shortReads, 0u);
}

TEST(FaultInjection, EachCoreDrawsItsOwnTraceFaultStream)
{
    // Core i's injector uses the plan's seed + i: over identical
    // inner streams, core 0 reproduces the plan's own faults record
    // for record (so one-core runs are unchanged) and core 1 flips
    // different bits.
    FaultPlan plan;
    plan.traceBitflip = true;
    plan.seed = 7;
    plan.rate = 1e-2;
    auto drain = [](const FaultPlan &p, std::uint64_t &flips) {
        auto inner = makeWorkload("database", 42);
        FaultInjectingTraceSource src(*inner, p);
        std::vector<TraceRecord> out(20'000);
        for (TraceRecord &r : out)
            EXPECT_TRUE(src.next(r));
        flips = src.bitflipsInjected();
        return out;
    };
    auto same = [](const TraceRecord &a, const TraceRecord &b) {
        return a.pc == b.pc && a.addr == b.addr && a.op == b.op &&
               a.dstReg == b.dstReg && a.srcReg0 == b.srcReg0 &&
               a.srcReg1 == b.srcReg1 && a.taken == b.taken &&
               a.target == b.target;
    };
    std::uint64_t flips_plan = 0, flips0 = 0, flips1 = 0;
    const std::vector<TraceRecord> base = drain(plan, flips_plan);
    const std::vector<TraceRecord> core0 = drain(plan.forCore(0), flips0);
    const std::vector<TraceRecord> core1 = drain(plan.forCore(1), flips1);
    ASSERT_GT(flips_plan, 0u);
    EXPECT_EQ(flips0, flips_plan);
    EXPECT_GT(flips1, 0u);
    std::size_t diff0 = 0, diff1 = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        diff0 += !same(base[i], core0[i]);
        diff1 += !same(base[i], core1[i]);
    }
    EXPECT_EQ(diff0, 0u);
    EXPECT_GT(diff1, 0u);
}

TEST(FaultInjection, RunCompletesDespiteFaults)
{
    FaultRun a = runWithTraceFaults(3);
    EXPECT_EQ(a.results.insts, kMeasure);
    EXPECT_GT(a.results.cycles, 0u);
}

TEST(FaultInjection, TableFaultsDegradeNotCrash)
{
    FaultPlan plan;
    plan.tableDrop = true;
    plan.tableDelay = true;
    plan.seed = 11;
    plan.rate = 0.2; // aggressive: every 5th table read faulted

    SimConfig cfg;
    cfg.faults = plan;
    PrefetcherParams pf;
    pf.name = "ebcp";
    pf.ebcp.faults = plan;

    StatusOr<std::unique_ptr<SyntheticWorkload>> src =
        tryMakeWorkload("database", 42);
    ASSERT_TRUE(src.ok());

    Simulator sim(cfg, pf);
    StatusOr<SimResults> res = sim.tryRun(*src.value(), kWarm, kMeasure);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_EQ(res.value().insts, kMeasure);
}

TEST(Watchdog, TripsOnDemandStallWithDiagnostic)
{
    FaultPlan plan;
    plan.demandStall = true;
    plan.stallAfter = 2'000;

    SimConfig cfg;
    cfg.faults = plan;
    cfg.watchdogTicks = 10'000'000;
    PrefetcherParams pf;
    pf.name = "ebcp";

    StatusOr<std::unique_ptr<SyntheticWorkload>> src =
        tryMakeWorkload("database", 42);
    ASSERT_TRUE(src.ok());

    Simulator sim(cfg, pf);
    StatusOr<SimResults> res = sim.tryRun(*src.value(), kWarm, kMeasure);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::Stalled);

    // The message is the full diagnostic dump: watchdog verdict, ROB,
    // MSHRs, channels, EMAB.
    const std::string &msg = res.status().message();
    EXPECT_NE(msg.find("watchdog tripped"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rob:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in flight"), std::string::npos) << msg;
    EXPECT_NE(msg.find("read channel:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("emab:"), std::string::npos) << msg;
}

TEST(Watchdog, DisabledWatchdogLetsTheStallPass)
{
    // The same injected stall without a watchdog: the one-pass model
    // absorbs the huge latency jump and still completes -- showing the
    // watchdog is pure detection, not part of the timing model.
    FaultPlan plan;
    plan.demandStall = true;
    plan.stallAfter = 2'000;

    SimConfig cfg;
    cfg.faults = plan;
    cfg.watchdogTicks = 0;
    PrefetcherParams pf;
    pf.name = "ebcp";

    StatusOr<std::unique_ptr<SyntheticWorkload>> src =
        tryMakeWorkload("database", 42);
    ASSERT_TRUE(src.ok());

    Simulator sim(cfg, pf);
    StatusOr<SimResults> res = sim.tryRun(*src.value(), kWarm, kMeasure);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_EQ(res.value().insts, kMeasure);
}

TEST(Watchdog, CleanRunNeverTrips)
{
    SimConfig cfg;
    cfg.watchdogTicks = 10'000'000;
    PrefetcherParams pf;
    pf.name = "ebcp";

    StatusOr<std::unique_ptr<SyntheticWorkload>> src =
        tryMakeWorkload("database", 42);
    ASSERT_TRUE(src.ok());

    Simulator sim(cfg, pf);
    StatusOr<SimResults> res = sim.tryRun(*src.value(), kWarm, kMeasure);
    ASSERT_TRUE(res.ok()) << res.status().toString();
    EXPECT_EQ(res.value().insts, kMeasure);
}

TEST(Watchdog, TripsInCmpModeNamingTheCore)
{
    FaultPlan plan;
    plan.demandStall = true;
    plan.stallAfter = 2'000;

    SimConfig cfg;
    cfg.faults = plan;
    cfg.watchdogTicks = 10'000'000;
    PrefetcherParams pf;
    pf.name = "ebcp";
    pf.ebcp.numCoreStates = 2;

    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> sources;
    for (unsigned i = 0; i < 2; ++i) {
        StatusOr<std::unique_ptr<SyntheticWorkload>> w =
            tryMakeWorkload("database", 1000 + i);
        ASSERT_TRUE(w.ok());
        owned.push_back(w.take());
        sources.push_back(owned.back().get());
    }

    CmpSystem sys(cfg, pf, 2);
    StatusOr<CmpResults> res = sys.tryRun(sources, kWarm, kMeasure);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::Stalled);
    const std::string &msg = res.status().message();
    EXPECT_NE(msg.find("core"), std::string::npos) << msg;
    EXPECT_NE(msg.find("watchdog tripped"), std::string::npos) << msg;
}
