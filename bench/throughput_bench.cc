/**
 * @file
 * Single-run simulator-throughput harness with hardware perf counters.
 *
 * Unlike the paper benches (which report *simulated* metrics), this
 * bench measures the simulator itself: simulated instructions per
 * wall-clock second for each Table 1 workload under the null and EBCP
 * prefetchers, alongside the hot-structure counters the hot-path
 * overhaul introduced (FlatMap probe statistics for the MSHR file,
 * correlation table and Solihin table; RecordRing churn for the trace
 * generator) and host cycles/instructions via perf_event_open when the
 * kernel allows it.
 *
 * Runs are strictly serial -- one Simulator at a time on one thread --
 * so the insts/sec numbers are comparable across commits and machines
 * without scheduler noise from the parallel sweep engine.
 *
 * Keys: warm=N measure=N (windows; EBCP_BENCH_SCALE honoured),
 *       pf=null,ebcp      (comma-separated prefetcher list),
 *       reps=N            (best-of-N per configuration; wall-clock
 *                          throughput is a max-estimator metric --
 *                          the fastest rep is the least-interfered
 *                          one, and simulated results are identical
 *                          across reps by construction),
 *       min_ips=N         (fail if any run is slower than N simulated
 *                          insts/sec; 0 disables -- the perf-smoke
 *                          ctest floor),
 *       max_ckpt_overhead=F (also re-run the grid with the checkpoint
 *                          wall deadline armed and fail if the
 *                          aggregate thread-CPU-time overhead vs the
 *                          baseline exceeds the fraction F; 0
 *                          disables),
 *       max_profiler_overhead=F (pair profiler-off/profiler-on runs
 *                          the same way, over the grid plus one
 *                          4-core database/null point, and fail if
 *                          the self-profiler costs more than the
 *                          fraction F; 0 disables),
 *       json=PATH         (machine-readable report; default
 *                          BENCH_throughput.json, json= to disable),
 *       stats_json=PATH   (per-run SimResults in the shared
 *                          "ebcp-stats-v1" schema; disabled by
 *                          default).
 *
 * Both JSON artifacts are re-read and re-parsed (stats_json is also
 * schema-validated) before exit; a bench that emits malformed JSON
 * fails, so ctest's well-formedness check is the bench's own exit
 * status.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/ebcp.hh"
#include "prefetch/solihin.hh"
#include "harness/stats_json.hh"
#include "stats/table.hh"
#include "util/json.hh"
#include "util/perf_counters.hh"
#include "util/profiler.hh"
#include "util/str.hh"

using namespace ebcp;
using namespace ebcp::bench;

namespace
{

/** Everything measured about one (workload, prefetcher) run. */
struct RunReport
{
    std::string workload;
    std::string pf;
    std::uint64_t insts = 0; //!< simulated instructions (warm + measure)
    double seconds = 0.0;
    double instsPerSec = 0.0;
    SimResults results;
    PerfSample host;

    FlatMapStats mshr;
    FlatMapStats corr;
    bool hasCorr = false;
    FlatMapStats solihin;
    bool hasSolihin = false;
    RingStats ring;
    std::uint64_t usefulPrefetches = 0;
};

/** One run of @p workload; @p cores > 1 runs the multi-core Simulator with
 * one instance per core (seeds 1000 + i, as runCmp does). */
RunReport
measureRun(const std::string &workload, const std::string &pf_name,
           const RunScale &scale, bool arm_deadline = false,
           unsigned cores = 1)
{
    RunReport rep;
    rep.workload = workload;
    rep.pf = pf_name;
    rep.insts = cores * (scale.warm + scale.measure);

    SimConfig cfg;
    PrefetcherParams pf;
    pf.name = pf_name;
    Simulator sim(cfg, pf, cores);
    std::vector<std::unique_ptr<SyntheticWorkload>> srcs;
    std::vector<TraceSource *> ptrs;
    for (unsigned i = 0; i < cores; ++i) {
        srcs.push_back(cores == 1 ? makeWorkload(workload)
                                  : makeWorkload(workload, 1000 + i));
        ptrs.push_back(srcs.back().get());
    }

    // The armed-but-never-tripped wall deadline is the only
    // checkpoint machinery that touches the simulation hot loop; a
    // run with it armed measures the subsystem's steady-state cost
    // when no checkpoint is ever taken.
    if (arm_deadline)
        for (unsigned i = 0; i < cores; ++i)
            sim.core(i).setWallDeadline(std::chrono::steady_clock::now() +
                                        std::chrono::hours(1));

    PerfCounters counters;
    counters.start();
    const auto t0 = std::chrono::steady_clock::now();
    rep.results = sim.run(ptrs, scale.warm, scale.measure);
    const auto t1 = std::chrono::steady_clock::now();
    counters.stop();

    rep.seconds = std::chrono::duration<double>(t1 - t0).count();
    rep.instsPerSec =
        rep.seconds > 0.0 ? static_cast<double>(rep.insts) / rep.seconds
                          : 0.0;
    rep.host = counters.sample();

    rep.mshr = sim.l2side().mshrs().mapStats();
    rep.ring = srcs.front()->ringStats();
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(&sim.prefetcher())) {
        rep.corr = e->table().mapStats();
        rep.hasCorr = true;
    }
    if (auto *s = dynamic_cast<SolihinPrefetcher *>(&sim.prefetcher())) {
        rep.solihin = s->mapStats();
        rep.hasSolihin = true;
    }
    // Registered-once counters read back through the one-time
    // name lookup (hot paths bump the member objects directly).
    if (const Scalar *useful =
            sim.l2side().stats().findScalar("useful_prefetches"))
        rep.usefulPrefetches = useful->value();
    return rep;
}

// --- JSON emission -------------------------------------------------

void
jsonMapStats(std::ostream &os, const FlatMapStats &m)
{
    os << "{\"finds\": " << m.finds << ", \"hits\": " << m.hits
       << ", \"inserts\": " << m.inserts << ", \"erases\": " << m.erases
       << ", \"backshifts\": " << m.backshifts
       << ", \"rehashes\": " << m.rehashes << ", \"probes_per_find\": "
       << fmtDouble(m.probesPerFind(), 4) << ", \"groups_per_find\": "
       << fmtDouble(m.groupsPerFind(), 4) << "}";
}

void
jsonRun(std::ostream &os, const RunReport &r)
{
    os << "    {\"workload\": \"" << r.workload << "\", \"prefetcher\": \""
       << r.pf << "\",\n"
       << "     \"insts\": " << r.insts << ", \"seconds\": "
       << fmtDouble(r.seconds, 4) << ", \"insts_per_sec\": "
       << fmtDouble(r.instsPerSec, 0) << ",\n"
       << "     \"cpi\": " << fmtDouble(r.results.cpi, 6) << ",\n"
       << "     \"host\": {\"available\": "
       << (r.host.available ? "true" : "false")
       << ", \"estimated\": " << (r.host.estimated ? "true" : "false")
       << ", \"cycles\": " << r.host.cycles << ", \"instructions\": "
       << r.host.instructions << ", \"ipc\": "
       << fmtDouble(r.host.ipc(), 3) << ", \"cache_misses\": "
       << r.host.cacheMisses << ", \"branch_misses\": "
       << r.host.branchMisses << ",\n"
       << "              \"cpu_seconds\": "
       << fmtDouble(r.host.cpuSeconds, 4) << ", \"reason\": "
       << (r.host.reason.empty()
               ? std::string("null")
               : "\"" + jsonEscape(r.host.reason) + "\"")
       << ", \"nominal_hz\": " << fmtDouble(r.host.nominalHz, 0)
       << ", \"nominal_source\": \""
       << jsonEscape(r.host.nominalSource) << "\"},\n"
       << "     \"mshr\": ";
    jsonMapStats(os, r.mshr);
    os << ",\n     \"corr_table\": ";
    if (r.hasCorr)
        jsonMapStats(os, r.corr);
    else
        os << "null";
    os << ",\n     \"solihin_table\": ";
    if (r.hasSolihin)
        jsonMapStats(os, r.solihin);
    else
        os << "null";
    os << ",\n     \"record_ring\": {\"pushes\": " << r.ring.pushes
       << ", \"pops\": " << r.ring.pops << ", \"grows\": "
       << r.ring.grows << "},\n"
       << "     \"useful_prefetches\": " << r.usefulPrefetches << "}";
}

/** The ebcp-stats-v1 "host_counters" object: how the host cycle
 * numbers were obtained, or why they could not be. */
std::string
hostCountersJson(const PerfSample &h)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("available", h.available);
    w.kv("estimated", h.estimated);
    w.kv("reason", h.reason);
    w.kv("nominal_source", h.nominalSource);
    w.kv("nominal_hz", h.nominalHz);
    w.endObject();
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    ConfigStore cs = ConfigStore::fromArgs(argc, argv);
    Status known = cs.checkKnownKeys({"warm", "measure", "jobs", "pf",
                                      "reps", "min_ips",
                                      "max_ckpt_overhead",
                                      "max_profiler_overhead", "json",
                                      "stats_json"});
    if (!known.ok()) {
        std::cerr << "error: " << known.toString() << "\n";
        return 2;
    }
    const RunScale scale = resolveScale(argc, argv);
    const double min_ips = cs.getDouble("min_ips", 0.0);
    const double max_ckpt_overhead =
        cs.getDouble("max_ckpt_overhead", 0.0);
    const double max_profiler_overhead =
        cs.getDouble("max_profiler_overhead", 0.0);
    const std::string json_path =
        cs.getString("json", "BENCH_throughput.json");
    const std::string stats_json_path = cs.getString("stats_json", "");
    const std::vector<std::string> pfs =
        split(cs.getString("pf", "null,ebcp"), ',');
    const std::uint64_t reps = std::max<std::uint64_t>(
        cs.getU64("reps", 1), 1);

    banner("Simulator throughput: simulated insts/sec, per-structure "
           "probe statistics,\nand host perf counters",
           "infrastructure (no paper figure)", scale);

    // When the overhead budget is armed, base and deadline-armed reps
    // are interleaved back-to-back per configuration, and the
    // estimator is the median over reps of the paired armed/base
    // thread-CPU-time ratio. Back-to-back pairing cancels slow drift
    // (frequency, competing load), CPU time is immune to time slicing
    // outright, and the median discards the reps where a burst of
    // interference landed in one half of a pair -- a min or a mean
    // would let a single such rep swing a sub-percent gate.
    std::vector<RunReport> reports;
    double armed_sum = 0.0;
    double base_cpu_sum = 0.0;
    double prof_armed_sum = 0.0;
    double prof_base_sum = 0.0;
    const auto median = [](std::vector<double> v) {
        if (v.empty())
            return 1.0;
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    };
    // Same paired back-to-back discipline as the checkpoint gate,
    // with the profiler runtime switch as the armed/base axis: one
    // off/on pair, its ratio appended to @p ratios and the off run's
    // CPU time folded into the minimum @p base_best.
    const auto profilerPair = [&scale](const std::string &w,
                                       const std::string &pf,
                                       unsigned cores,
                                       std::vector<double> &ratios,
                                       double &base_best) {
        prof::setEnabled(false);
        prof::resetThisThread();
        const RunReport off = measureRun(w, pf, scale, false, cores);
        prof::setEnabled(true);
        prof::resetThisThread();
        const RunReport on = measureRun(w, pf, scale, false, cores);
        const double cpu_off =
            off.host.cpuSeconds > 0.0 ? off.host.cpuSeconds : off.seconds;
        const double cpu_on =
            on.host.cpuSeconds > 0.0 ? on.host.cpuSeconds : on.seconds;
        if (ratios.empty() || cpu_off < base_best)
            base_best = cpu_off;
        ratios.push_back(cpu_off > 0.0 ? cpu_on / cpu_off : 1.0);
    };
    for (const auto &w : workloadNames())
        for (const auto &pf : pfs) {
            RunReport best;
            std::vector<double> ratios;
            std::vector<double> prof_ratios;
            double base_cpu_best = 0.0;
            double prof_base_best = 0.0;
            for (std::uint64_t rep = 0; rep < reps; ++rep) {
                RunReport r = measureRun(w, pf, scale);
                const double base_cpu = r.host.cpuSeconds > 0.0
                                            ? r.host.cpuSeconds
                                            : r.seconds;
                if (rep == 0 || base_cpu < base_cpu_best)
                    base_cpu_best = base_cpu;
                if (rep == 0 || r.instsPerSec > best.instsPerSec)
                    best = std::move(r);
                if (max_ckpt_overhead > 0.0) {
                    const RunReport a = measureRun(w, pf, scale, true);
                    const double cpu = a.host.cpuSeconds > 0.0
                                           ? a.host.cpuSeconds
                                           : a.seconds;
                    ratios.push_back(base_cpu > 0.0 ? cpu / base_cpu
                                                    : 1.0);
                }
                if (max_profiler_overhead > 0.0)
                    profilerPair(w, pf, 1, prof_ratios, prof_base_best);
            }
            armed_sum += base_cpu_best * median(ratios);
            base_cpu_sum += base_cpu_best;
            prof_armed_sum += prof_base_best * median(prof_ratios);
            prof_base_sum += prof_base_best;
            std::cout << "  " << w << "/" << pf << ": "
                      << fmtDouble(best.instsPerSec / 1e6, 2)
                      << "M insts/s (" << fmtDouble(best.seconds, 2)
                      << "s"
                      << (reps > 1
                              ? ", best of " + std::to_string(reps)
                              : std::string())
                      << ")\n";
            reports.push_back(std::move(best));
        }

    // The grid runs one core, which Simulator runs in one call per
    // phase. A 4-core phase is thousands of ~100-instruction quanta,
    // so a profiler cost paid per call into a core only shows here.
    double prof_cmp_overhead = 0.0;
    if (max_profiler_overhead > 0.0) {
        std::vector<double> ratios;
        double base_best = 0.0;
        for (std::uint64_t rep = 0; rep < reps; ++rep)
            profilerPair("database", "null", 4, ratios, base_best);
        prof_cmp_overhead = median(ratios) - 1.0;
        prof_armed_sum += base_best * median(ratios);
        prof_base_sum += base_best;
    }

    AsciiTable t("Throughput and hot-structure statistics");
    t.setHeader({"run", "Minsts/s", "host IPC", "mshr p/f",
                 "corr p/f", "ring grows"});
    double worst_ips = reports.empty() ? 0.0 : reports[0].instsPerSec;
    for (const RunReport &r : reports) {
        worst_ips = std::min(worst_ips, r.instsPerSec);
        t.addRow({r.workload + "/" + r.pf,
                  fmtDouble(r.instsPerSec / 1e6, 2),
                  r.host.available ? fmtDouble(r.host.ipc(), 2) : "n/a",
                  fmtDouble(r.mshr.probesPerFind(), 3),
                  r.hasCorr ? fmtDouble(r.corr.probesPerFind(), 3)
                            : "n/a",
                  std::to_string(r.ring.grows)});
    }
    t.print(std::cout);
    if (!reports.empty() && !reports.front().host.available) {
        const PerfSample &h = reports.front().host;
        std::cout << "(host perf counters unavailable: "
                  << (h.reason.empty() ? "no reason recorded"
                                       : h.reason)
                  << "; insts/sec is wall-clock based and "
                     "unaffected)\n";
        if (h.estimated)
            std::cout << "(host cycles are CPU-time estimates at "
                      << fmtDouble(h.nominalHz / 1e9, 2)
                      << " GHz nominal, frequency from "
                      << h.nominalSource
                      << "; host instructions/IPC stay unreported)\n";
        else
            std::cout << "(no nominal frequency source: "
                      << h.nominalSource
                      << "; host cycles stay unreported)\n";
    }

    // Unused-checkpoint overhead: aggregate best-of-reps *CPU* time of
    // the deadline-armed interleaved runs against the baseline.
    // Aggregating over every run before dividing keeps the ratio
    // stable against per-run timer jitter, and thread CPU time (not
    // wall) keeps a time-shared host from flapping a sub-percent gate
    // with scheduler noise.
    double ckpt_overhead = 0.0;
    bool measured_overhead = false;
    if (max_ckpt_overhead > 0.0) {
        const double base_sum = base_cpu_sum;
        ckpt_overhead =
            base_sum > 0.0 ? (armed_sum - base_sum) / base_sum : 0.0;
        measured_overhead = true;
        std::cout << "checkpoint-machinery overhead (deadline armed, "
                     "never taken): "
                  << fmtDouble(ckpt_overhead * 100.0, 2) << "% ("
                  << fmtDouble(base_sum, 3) << "s -> "
                  << fmtDouble(armed_sum, 3) << "s)\n";
    }

    double prof_overhead = 0.0;
    bool measured_prof_overhead = false;
    if (max_profiler_overhead > 0.0) {
        prof_overhead = prof_base_sum > 0.0
                            ? (prof_armed_sum - prof_base_sum) /
                                  prof_base_sum
                            : 0.0;
        measured_prof_overhead = true;
        std::cout << "self-profiler overhead (enabled vs disabled): "
                  << fmtDouble(prof_overhead * 100.0, 2) << "% ("
                  << fmtDouble(prof_base_sum, 3) << "s -> "
                  << fmtDouble(prof_armed_sum, 3) << "s; 4-core "
                  << "database/null point alone "
                  << fmtDouble(prof_cmp_overhead * 100.0, 2) << "%)\n";
    }

    if (!json_path.empty()) {
        std::ostringstream os;
        os << "{\n  \"bench\": \"throughput\",\n"
           << "  \"warm\": " << scale.warm << ",\n"
           << "  \"measure\": " << scale.measure << ",\n"
           << "  \"min_insts_per_sec\": " << fmtDouble(min_ips, 0)
           << ",\n  \"ckpt_overhead\": "
           << (measured_overhead ? fmtDouble(ckpt_overhead, 4)
                                 : std::string("null"))
           << ",\n  \"max_ckpt_overhead\": "
           << fmtDouble(max_ckpt_overhead, 4)
           << ",\n  \"profiler_overhead\": "
           << (measured_prof_overhead ? fmtDouble(prof_overhead, 4)
                                      : std::string("null"))
           << ",\n  \"profiler_overhead_cmp4\": "
           << (measured_prof_overhead ? fmtDouble(prof_cmp_overhead, 4)
                                      : std::string("null"))
           << ",\n  \"max_profiler_overhead\": "
           << fmtDouble(max_profiler_overhead, 4)
           << ",\n  \"runs\": [\n";
        for (std::size_t i = 0; i < reports.size(); ++i) {
            jsonRun(os, reports[i]);
            os << (i + 1 < reports.size() ? ",\n" : "\n");
        }
        os << "  ]\n}\n";

        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "error: cannot write " << json_path << "\n";
            return 2;
        }
        out << os.str();
        out.close();

        // Re-read and re-parse: the report must be consumable by a
        // real JSON parser, not just look like JSON.
        StatusOr<JsonValue> parsed = parseJsonFile(json_path);
        if (!parsed.ok()) {
            std::cerr << "error: emitted " << json_path
                      << " is not well-formed JSON: "
                      << parsed.status().toString() << "\n";
            return 1;
        }
        std::cout << "wrote " << json_path << " ("
                  << os.str().size() << " bytes, validated)\n";
    }

    if (!stats_json_path.empty()) {
        std::ostringstream ss;
        JsonWriter w(ss);
        beginStatsJson(w, "throughput_bench");
        for (const RunReport &r : reports) {
            w.beginObject();
            w.kv("label", r.workload + "/" + r.pf);
            w.key("results");
            writeSimResultsJson(w, r.results);
            w.endObject();
        }
        endStatsJson(w, {}, {}, prof::profileJsonString(),
                     reports.empty()
                         ? std::string()
                         : hostCountersJson(reports.front().host));

        std::ofstream out(stats_json_path);
        if (!out) {
            std::cerr << "error: cannot write " << stats_json_path
                      << "\n";
            return 2;
        }
        out << ss.str();
        out.close();

        if (Status s = validateStatsJsonFile(stats_json_path); !s.ok()) {
            std::cerr << "error: emitted " << stats_json_path
                      << " failed schema validation: " << s.toString()
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << stats_json_path << " (schema "
                  << StatsJsonSchema << ", validated)\n";
    }

    if (measured_overhead && ckpt_overhead > max_ckpt_overhead) {
        std::cerr << "FAIL: checkpoint machinery costs "
                  << fmtDouble(ckpt_overhead * 100.0, 2)
                  << "% when unused, above the "
                  << fmtDouble(max_ckpt_overhead * 100.0, 2)
                  << "% budget\n";
        return 1;
    }
    if (measured_prof_overhead &&
        prof_overhead > max_profiler_overhead) {
        std::cerr << "FAIL: self-profiler costs "
                  << fmtDouble(prof_overhead * 100.0, 2)
                  << "% when enabled, above the "
                  << fmtDouble(max_profiler_overhead * 100.0, 2)
                  << "% budget\n";
        return 1;
    }
    if (min_ips > 0.0 && worst_ips < min_ips) {
        std::cerr << "FAIL: slowest run " << fmtDouble(worst_ips / 1e6, 2)
                  << "M insts/s is below the min_ips floor of "
                  << fmtDouble(min_ips / 1e6, 2) << "M insts/s\n";
        return 1;
    }
    if (min_ips > 0.0)
        std::cout << "min_ips floor " << fmtDouble(min_ips / 1e6, 2)
                  << "M insts/s: passed (slowest run "
                  << fmtDouble(worst_ips / 1e6, 2) << "M)\n";
    return 0;
}
