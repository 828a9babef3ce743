/**
 * @file
 * Tests for the parallel sweep engine: bit-identical results across
 * job counts, fault isolation, descriptor-derived seeding, option
 * parsing, and sweep accounting.
 *
 * The SweepDeterminism suite is also registered as a dedicated ctest
 * entry (sweep_determinism_jobs4) so a -DEBCP_SANITIZE=thread build
 * exercises the runner's concurrency under the thread sanitizer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "harness/journal.hh"
#include "harness/options.hh"
#include "harness/sweep.hh"
#include "trace/workloads.hh"

using namespace ebcp;
using namespace ebcp::harness;

namespace
{

constexpr std::uint64_t kWarm = 60'000;
constexpr std::uint64_t kMeasure = 120'000;

RunDesc
makeDesc(const std::string &workload, const std::string &pf,
         std::uint64_t seed = 0)
{
    RunDesc d;
    d.workload = workload;
    d.pf.name = pf;
    d.pf.ebcp.prefetchDegree = 4;
    d.pf.ebcp.tableEntries = 1ULL << 14;
    d.scale.warm = kWarm;
    d.scale.measure = kMeasure;
    d.seed = seed;
    return d;
}

/** A mixed (workload x prefetcher) grid of >= 8 runs. */
std::vector<RunDesc>
mixedGrid()
{
    std::vector<RunDesc> descs;
    for (const auto &w : workloadNames()) { // 4 workloads x 2 schemes
        descs.push_back(makeDesc(w, "null"));
        descs.push_back(makeDesc(w, "ebcp"));
    }
    descs.push_back(makeDesc("database", "stream"));
    descs.push_back(makeDesc("specjbb", "nextline"));
    return descs;
}

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
    EXPECT_EQ(a.coverage, b.coverage) << what;
    EXPECT_EQ(a.accuracy, b.accuracy) << what;
    EXPECT_EQ(a.readBusUtil, b.readBusUtil) << what;
    EXPECT_EQ(a.writeBusUtil, b.writeBusUtil) << what;
}

unsigned
parallelJobs()
{
    // The TSan ctest entry pins EBCP_BENCH_JOBS=4; default to 4
    // workers regardless so contention is exercised even on small
    // machines.
    if (const char *env = std::getenv("EBCP_BENCH_JOBS"))
        return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    return 4;
}

} // namespace

TEST(SweepDeterminism, BitIdenticalAcrossJobCounts)
{
    const std::vector<RunDesc> descs = mixedGrid();
    ASSERT_GE(descs.size(), 8u);

    SweepRunner serial(1);
    SweepRunner parallel(parallelJobs());
    const std::vector<RunResult> a = serial.run(descs);
    const std::vector<RunResult> b = parallel.run(descs);

    ASSERT_EQ(a.size(), descs.size());
    ASSERT_EQ(b.size(), descs.size());
    for (std::size_t i = 0; i < descs.size(); ++i) {
        ASSERT_TRUE(a[i].ok()) << a[i].status.toString();
        ASSERT_TRUE(b[i].ok()) << b[i].status.toString();
        expectBitIdentical(a[i].results, b[i].results,
                           runLabel(descs[i]));
    }
}

TEST(SweepDeterminism, SeedFollowsDescriptorNotSubmissionOrder)
{
    // The same descriptor, submitted at different positions within
    // different sweeps, must produce identical results.
    const RunDesc probe = makeDesc("tpcw", "ebcp", 77);

    std::vector<RunDesc> first{probe, makeDesc("database", "null"),
                               makeDesc("specjas", "stream")};
    std::vector<RunDesc> second{makeDesc("specjbb", "ebcp"),
                                makeDesc("database", "ebcp"), probe};

    SweepRunner pool(parallelJobs());
    const RunResult a = pool.run(first)[0];
    const RunResult b = pool.run(second)[2];
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    expectBitIdentical(a.results, b.results, "probe");
}

TEST(SweepRunnerTest, FaultedRunDoesNotPoisonNeighbors)
{
    std::vector<RunDesc> descs{makeDesc("database", "ebcp"),
                               makeDesc("database", "ebcp"),
                               makeDesc("specjbb", "null")};
    // Arm a demand-stall fault plus the watchdog on the middle run:
    // it must come back Stalled while its neighbors are untouched.
    descs[1].label = "stalling-run";
    descs[1].cfg.faults.demandStall = true;
    descs[1].cfg.faults.stallAfter = 2'000;
    descs[1].cfg.watchdogTicks = 10'000'000;

    SweepRunner pool(parallelJobs());
    const std::vector<RunResult> rs = pool.run(descs);

    ASSERT_TRUE(rs[0].ok()) << rs[0].status.toString();
    ASSERT_FALSE(rs[1].ok());
    EXPECT_EQ(rs[1].status.code(), StatusCode::Stalled);
    ASSERT_TRUE(rs[2].ok()) << rs[2].status.toString();

    // Neighbors must equal the same descriptors run alone.
    SweepRunner solo(1);
    const RunResult alone0 = solo.run({descs[0]})[0];
    const RunResult alone2 = solo.run({descs[2]})[0];
    expectBitIdentical(rs[0].results, alone0.results, "left neighbor");
    expectBitIdentical(rs[2].results, alone2.results, "right neighbor");

    const SweepStats &st = pool.stats();
    EXPECT_EQ(st.launched, 3u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failed, 1u);
}

TEST(SweepRunnerTest, BadDescriptorYieldsPerRunStatus)
{
    std::vector<RunDesc> descs{makeDesc("database", "null"),
                               makeDesc("no-such-workload", "null"),
                               makeDesc("database", "no-such-pf")};
    SweepRunner pool(2);
    const std::vector<RunResult> rs = pool.run(descs);
    EXPECT_TRUE(rs[0].ok());
    ASSERT_FALSE(rs[1].ok());
    EXPECT_EQ(rs[1].status.code(), StatusCode::NotFound);
    ASSERT_FALSE(rs[2].ok());
    EXPECT_EQ(rs[2].status.code(), StatusCode::NotFound);
}

TEST(SweepRunnerTest, StatsAccounting)
{
    std::vector<RunDesc> descs{makeDesc("database", "null"),
                               makeDesc("tpcw", "null")};
    SweepRunner pool(2);
    const std::vector<RunResult> rs = pool.run(descs);
    ASSERT_TRUE(rs[0].ok());
    ASSERT_TRUE(rs[1].ok());

    const SweepStats &st = pool.stats();
    EXPECT_EQ(st.launched, 2u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.jobs, 2u);
    EXPECT_GT(st.wallSeconds, 0.0);
    EXPECT_EQ(st.measuredInsts, 2 * kMeasure);
    EXPECT_GT(st.instsPerSec(), 0.0);
}

TEST(SweepRunnerTest, RunSeedIsDescriptorDerived)
{
    EXPECT_EQ(runSeed(makeDesc("database", "null")), 1u);
    EXPECT_EQ(runSeed(makeDesc("tpcw", "null")), 2u);
    EXPECT_EQ(runSeed(makeDesc("specjbb", "ebcp")), 3u);
    EXPECT_EQ(runSeed(makeDesc("specjas", "ebcp")), 4u);
    EXPECT_EQ(runSeed(makeDesc("database", "null", 99)), 99u);
    // The prefetcher must not perturb the workload stream: the
    // paper's methodology compares configurations on the same trace.
    EXPECT_EQ(runSeed(makeDesc("database", "null")),
              runSeed(makeDesc("database", "ebcp")));
}

TEST(SweepDeterminism, JournalResumeMergesBitIdentical)
{
    // Simulate a killed sweep: run the first half with a journal,
    // then run the full grid against the same journal. The first half
    // must be replayed (not re-executed) and the merged results must
    // be bit-identical to an uninterrupted journal-less sweep.
    const std::vector<RunDesc> descs = mixedGrid();
    const std::size_t half = descs.size() / 2;
    const std::vector<RunDesc> first(descs.begin(),
                                     descs.begin() + half);

    // Per-process path: sweep_determinism_jobs4 runs this test too,
    // possibly beside its own ctest entry.
    const std::string path = ::testing::TempDir() + "/" +
                             std::to_string(::getpid()) +
                             "_sweep_resume.jsonl";
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;

    SweepRunner baseline(1);
    const std::vector<RunResult> want = baseline.run(descs);

    SweepRunner interrupted(2, opts);
    const std::vector<RunResult> partial = interrupted.run(first);
    for (const RunResult &r : partial)
        ASSERT_TRUE(r.ok()) << r.status.toString();
    EXPECT_EQ(interrupted.stats().resumed, 0u);

    SweepRunner resumed(parallelJobs(), opts);
    const std::vector<RunResult> merged = resumed.run(descs);
    ASSERT_EQ(merged.size(), descs.size());
    EXPECT_EQ(resumed.stats().resumed, half);
    EXPECT_EQ(resumed.stats().journalSkipped, 0u);
    for (std::size_t i = 0; i < descs.size(); ++i) {
        ASSERT_TRUE(merged[i].ok()) << merged[i].status.toString();
        EXPECT_EQ(merged[i].fromJournal, i < half) << i;
        expectBitIdentical(merged[i].results, want[i].results,
                           runLabel(descs[i]));
    }

    // A third pass resumes everything: zero execution, same results.
    SweepRunner replay(parallelJobs(), opts);
    const std::vector<RunResult> again = replay.run(descs);
    EXPECT_EQ(replay.stats().resumed, descs.size());
    for (std::size_t i = 0; i < descs.size(); ++i)
        expectBitIdentical(again[i].results, want[i].results,
                           runLabel(descs[i]));
    std::remove(path.c_str());
}

TEST(SweepDeterminism, WarmForkBitIdenticalToCold)
{
    // Pairs of runs differing only in the measurement window share a
    // warm fingerprint: with warmReuse each pair builds one warm
    // checkpoint and forks both measurements from it, and the results
    // must be bit-identical to fully cold runs.
    std::vector<RunDesc> descs;
    for (const char *w : {"database", "tpcw"}) {
        for (const char *pf : {"null", "ebcp"}) {
            RunDesc d = makeDesc(w, pf);
            descs.push_back(d);
            d.scale.measure = 2 * kMeasure;
            descs.push_back(d);
        }
    }

    SweepRunner cold(parallelJobs());
    const std::vector<RunResult> a = cold.run(descs);

    SweepOptions opts;
    opts.warmReuse = true;
    SweepRunner warm(parallelJobs(), opts);
    const std::vector<RunResult> b = warm.run(descs);

    for (std::size_t i = 0; i < descs.size(); ++i) {
        ASSERT_TRUE(a[i].ok()) << a[i].status.toString();
        ASSERT_TRUE(b[i].ok()) << b[i].status.toString();
        EXPECT_TRUE(b[i].warmForked) << i;
        EXPECT_FALSE(b[i].coldFallback) << i;
        expectBitIdentical(a[i].results, b[i].results,
                           runLabel(descs[i]));
    }

    const SweepStats &st = warm.stats();
    EXPECT_EQ(st.warmBuilds, 4u); // one per (workload, pf) pair
    EXPECT_EQ(st.warmForks, descs.size());
    EXPECT_EQ(st.coldFallbacks, 0u);
}

TEST(SweepDeterminism, CmpWarmForkBitIdenticalToCold)
{
    // Multi-core descriptors fork from warm checkpoints too: two
    // measurement windows per 2-core warm point, bit-identical to
    // fully cold runs.
    std::vector<RunDesc> descs;
    for (const char *pf : {"null", "ebcp"}) {
        RunDesc d = makeDesc("database", pf);
        d.cores = 2;
        d.pf.ebcp.numCoreStates = 2;
        descs.push_back(d);
        d.scale.measure = 2 * kMeasure;
        descs.push_back(d);
    }

    SweepRunner cold(parallelJobs());
    const std::vector<RunResult> a = cold.run(descs);

    SweepOptions opts;
    opts.warmReuse = true;
    SweepRunner warm(parallelJobs(), opts);
    const std::vector<RunResult> b = warm.run(descs);

    for (std::size_t i = 0; i < descs.size(); ++i) {
        ASSERT_TRUE(a[i].ok()) << a[i].status.toString();
        ASSERT_TRUE(b[i].ok()) << b[i].status.toString();
        EXPECT_TRUE(b[i].warmForked) << i;
        EXPECT_FALSE(b[i].coldFallback) << i;
        expectBitIdentical(a[i].results, b[i].results,
                           runLabel(descs[i]));
    }
    EXPECT_EQ(warm.stats().warmBuilds, 2u);
    EXPECT_EQ(warm.stats().warmForks, descs.size());
    EXPECT_EQ(warm.stats().coldFallbacks, 0u);
}

TEST(SweepRunnerTest, CmpDescriptorAppliesItsFaultPlan)
{
    // A multi-core descriptor's trace fault plan reaches every core's
    // source, so it changes the results.
    RunDesc clean = makeDesc("database", "ebcp");
    clean.cores = 2;
    RunDesc faulted = clean;
    faulted.cfg.faults.traceBitflip = true;
    faulted.cfg.faults.rate = 1e-2;

    const RunResult a = executeRun(clean);
    const RunResult b = executeRun(faulted);
    ASSERT_TRUE(a.ok()) << a.status.toString();
    ASSERT_TRUE(b.ok()) << b.status.toString();
    EXPECT_EQ(a.results.insts, b.results.insts);
    EXPECT_NE(a.results.cycles, b.results.cycles);
}

TEST(SweepRunnerTest, WarmImageLivesUntilItsLastForkFinishes)
{
    // Each warm image is freed once the last descriptor forking from
    // it has finished. Spreading the sharers apart at jobs=1 makes a
    // premature free visible as a second warm build of the same
    // point, and a forked result that differs from a cold run.
    std::vector<RunDesc> descs;
    for (int k = 1; k <= 3; ++k) {
        for (const char *w : {"database", "tpcw"}) {
            RunDesc d = makeDesc(w, "ebcp");
            d.scale.measure = k * kMeasure / 2;
            descs.push_back(d);
        }
    }

    SweepRunner cold(1);
    const std::vector<RunResult> want = cold.run(descs);

    SweepOptions opts;
    opts.warmReuse = true;
    SweepRunner warm(1, opts);
    const std::vector<RunResult> got = warm.run(descs);
    for (std::size_t i = 0; i < descs.size(); ++i) {
        ASSERT_TRUE(got[i].ok()) << got[i].status.toString();
        EXPECT_TRUE(got[i].warmForked) << i;
        expectBitIdentical(got[i].results, want[i].results,
                           runLabel(descs[i]));
    }
    EXPECT_EQ(warm.stats().warmBuilds, 2u);
    EXPECT_EQ(warm.stats().warmForks, descs.size());
}

TEST(SweepRunnerTest, RetryAccountingIsDeterministic)
{
    // A persistently stalling run consumes maxAttempts attempts with
    // the exact backoff schedule retryBackoffMs() predicts; a bad
    // descriptor (NotFound) is deterministic and never retried.
    RunDesc stall = makeDesc("database", "ebcp");
    stall.cfg.faults.demandStall = true;
    stall.cfg.faults.stallAfter = 2'000;
    stall.cfg.watchdogTicks = 1'000'000;

    std::vector<RunDesc> descs{stall,
                               makeDesc("no-such-workload", "null")};

    SweepOptions opts;
    opts.retry.maxAttempts = 3;
    opts.retry.sleep = false; // account the delays, skip the naps
    opts.retry.seed = 11;

    SweepRunner pool(2, opts);
    const std::vector<RunResult> rs = pool.run(descs);

    ASSERT_FALSE(rs[0].ok());
    EXPECT_EQ(rs[0].status.code(), StatusCode::Stalled);
    EXPECT_EQ(rs[0].attempts, 3u);

    ASSERT_FALSE(rs[1].ok());
    EXPECT_EQ(rs[1].status.code(), StatusCode::NotFound);
    EXPECT_EQ(rs[1].attempts, 1u);

    const std::uint64_t key = descFingerprint(stall);
    const std::uint64_t want_backoff =
        retryBackoffMs(opts.retry, key, 1) +
        retryBackoffMs(opts.retry, key, 2);
    const SweepStats &st = pool.stats();
    EXPECT_EQ(st.retries, 2u);
    EXPECT_EQ(st.backoffMsTotal, want_backoff);
    EXPECT_EQ(st.failed, 2u);
}

TEST(SweepRunnerTest, CorruptWarmCheckpointFollowsPolicy)
{
    std::vector<RunDesc> descs;
    {
        RunDesc d = makeDesc("database", "ebcp");
        descs.push_back(d);
        d.scale.measure = 2 * kMeasure;
        descs.push_back(d);
    }

    SweepRunner cold(1);
    const std::vector<RunResult> want = cold.run(descs);

    // Strict: a damaged warm checkpoint fails each forked run with
    // the coded Status; the sweep itself survives.
    {
        SweepOptions opts;
        opts.warmReuse = true;
        opts.ckptPolicy = ckpt::CkptPolicy::Strict;
        SweepRunner pool(2, opts);
        pool.corruptWarmCacheForTest(CkptFaultKind::CrcFlip, 7);
        const std::vector<RunResult> rs = pool.run(descs);
        for (const RunResult &r : rs) {
            ASSERT_FALSE(r.ok());
            EXPECT_TRUE(r.status.code() == StatusCode::Corruption ||
                        r.status.code() == StatusCode::InvalidArgument)
                << r.status.toString();
        }
    }

    // Rebuild: the damage is logged, the runs fall back to cold
    // warm-up, and the results are still bit-identical.
    {
        SweepOptions opts;
        opts.warmReuse = true;
        opts.ckptPolicy = ckpt::CkptPolicy::Rebuild;
        SweepRunner pool(2, opts);
        pool.corruptWarmCacheForTest(CkptFaultKind::HeaderBitflip, 9);
        const std::vector<RunResult> rs = pool.run(descs);
        for (std::size_t i = 0; i < rs.size(); ++i) {
            ASSERT_TRUE(rs[i].ok()) << rs[i].status.toString();
            EXPECT_TRUE(rs[i].coldFallback) << i;
            EXPECT_FALSE(rs[i].warmForked) << i;
            expectBitIdentical(rs[i].results, want[i].results,
                               runLabel(descs[i]));
        }
        EXPECT_EQ(pool.stats().coldFallbacks, 2u);
        EXPECT_EQ(pool.stats().warmForks, 0u);
    }
}

TEST(SweepRunnerTest, WallClockTimeoutTripsStalledStatus)
{
    // A run whose measurement window cannot finish inside the budget
    // must fail Stalled with the wall-clock diagnostic instead of
    // holding the sweep hostage.
    RunDesc d = makeDesc("database", "null");
    d.scale.warm = 10'000;
    d.scale.measure = 2'000'000'000; // far beyond the budget

    SweepOptions opts;
    opts.runTimeoutSeconds = 0.05;
    SweepRunner pool(1, opts);
    const std::vector<RunResult> rs = pool.run({d});
    ASSERT_FALSE(rs[0].ok());
    EXPECT_EQ(rs[0].status.code(), StatusCode::Stalled);
    EXPECT_NE(rs[0].status.message().find("wall-clock"),
              std::string::npos)
        << rs[0].status.message();
}

TEST(RunnerOptions, ScaleEnvParsing)
{
    ConfigStore cs;
    StatusOr<RunScale> s = tryResolveScale(cs, nullptr);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value().warm, RunScale{}.warm);
    EXPECT_EQ(s.value().measure, RunScale{}.measure);

    s = tryResolveScale(cs, "0.5");
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value().warm, RunScale{}.warm / 2);
    EXPECT_EQ(s.value().measure, RunScale{}.measure / 2);

    for (const char *bad : {"garbage", "", "-1", "0", "0.0", "nan",
                            "inf", "1.5x"}) {
        s = tryResolveScale(cs, bad);
        EXPECT_FALSE(s.ok()) << "accepted EBCP_BENCH_SCALE='" << bad
                             << "'";
        if (!s.ok()) {
            EXPECT_EQ(s.status().code(), StatusCode::InvalidArgument);
        }
    }
}

TEST(RunnerOptions, ScaleCliOverrides)
{
    ConfigStore cs;
    cs.set("warm", "1000");
    cs.set("measure", "2000");
    StatusOr<RunScale> s = tryResolveScale(cs, "4");
    ASSERT_TRUE(s.ok());
    // Absolute CLI overrides win over the env multiplier.
    EXPECT_EQ(s.value().warm, 1000u);
    EXPECT_EQ(s.value().measure, 2000u);

    cs.set("measure", "0");
    s = tryResolveScale(cs, nullptr);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::InvalidArgument);

    cs.set("measure", "not-a-number");
    s = tryResolveScale(cs, nullptr);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::InvalidArgument);
}

TEST(RunnerOptions, JobsParsing)
{
    ConfigStore cs;
    StatusOr<unsigned> j = tryResolveJobs(cs, nullptr);
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j.value(), defaultJobs());

    j = tryResolveJobs(cs, "4");
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j.value(), 4u);

    for (const char *bad : {"0", "-2", "four", ""}) {
        j = tryResolveJobs(cs, bad);
        EXPECT_FALSE(j.ok()) << "accepted EBCP_BENCH_JOBS='" << bad
                             << "'";
    }

    // The CLI key overrides the environment.
    cs.set("jobs", "2");
    j = tryResolveJobs(cs, "8");
    ASSERT_TRUE(j.ok());
    EXPECT_EQ(j.value(), 2u);

    cs.set("jobs", "0");
    EXPECT_FALSE(tryResolveJobs(cs, nullptr).ok());
    cs.set("jobs", "9999");
    EXPECT_FALSE(tryResolveJobs(cs, nullptr).ok());
}
