/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot components of the
 * simulator: useful when optimizing the simulator itself, and as a
 * regression guard on simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/correlation_table.hh"
#include "cpu/core_model.hh"
#include "prefetch/ghb.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/crc32.hh"
#include "util/random.hh"

using namespace ebcp;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.name = "bm";
    cfg.sizeBytes = 2 * MiB;
    cfg.ways = 4;
    Cache cache(cfg);
    Pcg32 rng(1);
    for (auto _ : state) {
        Addr a = (rng.next() & 0xffffff) << 6;
        if (!cache.access(a, false))
            cache.fill(a);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CorrTableUpdate(benchmark::State &state)
{
    // Sized like BM_CorrTableLookup (and Figure 9's 2^16-entry
    // table), so the two are directly comparable.
    CorrTableConfig cfg;
    cfg.entries = 1ULL << 16;
    cfg.addrsPerEntry = 8;
    CorrelationTable table(cfg);
    Pcg32 rng(2);
    std::vector<Addr> payload(4);
    for (auto _ : state) {
        Addr key = (rng.next() & 0xffff) << 6;
        for (auto &p : payload)
            p = (rng.next() & 0xffff) << 6;
        table.update(key, payload);
    }
}
BENCHMARK(BM_CorrTableUpdate);

void
BM_CorrTableLookup(benchmark::State &state)
{
    CorrTableConfig cfg;
    cfg.entries = 1ULL << 16;
    cfg.addrsPerEntry = 8;
    CorrelationTable table(cfg);
    Pcg32 rng(3);
    for (int i = 0; i < 10000; ++i)
        table.update((rng.next() & 0xffff) << 6,
                     {0x1000, 0x2000, 0x3000});
    std::vector<Addr> out;
    Pcg32 probe(4);
    for (auto _ : state) {
        table.lookup((probe.next() & 0xffff) << 6, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_CorrTableLookup);

void
BM_GhbObserve(benchmark::State &state)
{
    GhbPrefetcher ghb(GhbConfig::large());
    class NullEngine : public PrefetchEngine
    {
        void
        issuePrefetch(Addr, Tick, std::uint64_t, bool, unsigned) override
        {}
        MemAccessResult
        tableRead(Tick t) override
        {
            return {t, t + 500, false};
        }
        MemAccessResult
        tableWrite(Tick t) override
        {
            return {t, t + 1, false};
        }
        Tick memoryLatency() const override { return 500; }
    } eng;
    ghb.setEngine(&eng);
    Pcg32 rng(5);
    L2AccessInfo info;
    info.offChip = true;
    for (auto _ : state) {
        info.pc = 0x400 + (rng.next() & 0xff) * 4;
        info.lineAddr = (rng.next() & 0xffffff) << 6;
        ghb.observeAccess(info);
    }
}
BENCHMARK(BM_GhbObserve);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto w = makeWorkload("database");
    TraceRecord rec;
    for (auto _ : state) {
        w->next(rec);
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_SimulatedInstruction(benchmark::State &state)
{
    // End-to-end simulation throughput (instructions per second).
    SimConfig cfg;
    PrefetcherParams p;
    p.name = "ebcp";
    Simulator sim(cfg, p);
    auto w = makeWorkload("database");
    TraceRecord rec;
    for (auto _ : state) {
        w->next(rec);
        sim.core().process(rec);
    }
}
BENCHMARK(BM_SimulatedInstruction);

void
BM_Crc32(benchmark::State &state)
{
    std::vector<unsigned char> buf(1 << 20);
    Pcg32 rng(6);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

/** A database simulator warmed as one Figure 9 sweep point (EBCP at
 * degree 6 with a 2^16-entry table, 300K warm instructions) under
 * @p scheme. */
struct WarmPoint
{
    SimConfig cfg;
    PrefetcherParams pf;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<SyntheticWorkload> src;

    explicit WarmPoint(const char *scheme)
    {
        pf.name = scheme;
        pf.ebcp.prefetchDegree = 6;
        pf.ebcp.tableEntries = 1ULL << 16;
        sim = std::make_unique<Simulator>(cfg, pf);
        src = makeWorkload("database");
        if (!sim->runWarm(*src, 300'000).ok())
            std::abort();
    }
};

void
BM_CkptSerialize(benchmark::State &state, const char *scheme)
{
    WarmPoint w(scheme);
    std::size_t bytes = 0;
    for (auto _ : state) {
        StatusOr<std::string> blob = w.sim->serializeCheckpoint(*w.src);
        if (!blob.ok()) {
            state.SkipWithError(blob.status().toString().c_str());
            break;
        }
        benchmark::DoNotOptimize(blob.value().data());
        benchmark::ClobberMemory();
        bytes = blob.value().size();
    }
    state.counters["image_bytes"] = static_cast<double>(bytes);
}
BENCHMARK_CAPTURE(BM_CkptSerialize, ebcp, "ebcp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CkptSerialize, ghb_large, "ghb-large")
    ->Unit(benchmark::kMillisecond);

void
BM_CkptRestore(benchmark::State &state, const char *scheme)
{
    WarmPoint w(scheme);
    StatusOr<std::string> blob = w.sim->serializeCheckpoint(*w.src);
    if (!blob.ok()) {
        state.SkipWithError(blob.status().toString().c_str());
        return;
    }
    Simulator fork(w.cfg, w.pf);
    auto src = makeWorkload("database");
    for (auto _ : state) {
        Status s = fork.restoreCheckpoint(blob.value(), *src);
        benchmark::ClobberMemory();
        if (!s.ok()) {
            state.SkipWithError(s.toString().c_str());
            break;
        }
    }
    state.counters["image_bytes"] =
        static_cast<double>(blob.value().size());
}
BENCHMARK_CAPTURE(BM_CkptRestore, ebcp, "ebcp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CkptRestore, ghb_large, "ghb-large")
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
