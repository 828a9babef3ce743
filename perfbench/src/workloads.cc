#include "workloads.hh"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "core/ebcp.hh"
#include "harness/sweep.hh"
#include "layers.hh"
#include "sim/api.hh"
#include "trace/workloads.hh"
#include "util/random.hh"

namespace perfbench
{

using namespace ebcp;
using harness::RunDesc;
using harness::RunResult;
using harness::SweepOptions;
using harness::SweepRunner;

void
Report::fail(const std::string &why)
{
    ++failed;
    correct = false;
    lines.push_back("FAILED: " + why);
}

std::vector<std::string>
workloadNames()
{
    return {"jbb-ebcp", "cmp4-db-null", "fig9-sweep"};
}

namespace
{

/** Window sizes. Short enough that one repetition takes well under a
 * second, long enough that the caches are warm before measuring. */
constexpr std::uint64_t kJbbWarm = 1'000'000;
constexpr std::uint64_t kJbbMeasure = 4'000'000;
constexpr unsigned kCmpCores = 4;
constexpr std::uint64_t kCmpWarm = 250'000;   // per core
constexpr std::uint64_t kCmpMeasure = 1'000'000; // per core
constexpr std::uint64_t kSweepWarm = 300'000;
/** The two staggered measurement windows forked from each warm point. */
constexpr std::uint64_t kSweepMeasure[2] = {300'000, 600'000};

/** Input instances per run: single-run workloads, and sweeps. */
constexpr unsigned kInstances = 16;
constexpr unsigned kSweepInstances = 2;
/** Instances whose peak RSS is measured, one child process each. */
constexpr unsigned kRssInstances = 8;
/** Construct + restore rounds of the sweep's probe points per sweep. */
constexpr unsigned kSetupRounds = 5;

/** Traced-mode sums check: the layers' self times, less the calibrated
 * cost of their spans, must add up to the untraced drivers' thread CPU
 * time for the same systems within this share of it. The figure is the
 * median over a run's repetitions; one repetition's traced and
 * untraced passes run at different moments, and on a shared host
 * their ratio alone swings by up to +-30%. */
constexpr double kLayerSumTolerance = 0.15;

/** Figure 9's non-baseline schemes, as bench/fig9_comparison runs them. */
const std::vector<std::string> kFig9Schemes{
    "stream",      "ghb-small", "ghb-large", "tcp-small",  "tcp-large",
    "sms",         "solihin-3-2", "solihin-6-1", "dcpt",   "amc",
    "composite",   "ebcp-minus", "ebcp"};

/** The paper's EBCP improvement per workload (Figure 9, %). */
double
paperImprovementPct(const std::string &workload)
{
    static const std::map<std::string, double> pct{
        {"database", 20.0}, {"tpcw", 12.0}, {"specjbb", 28.0},
        {"specjas", 24.0}};
    return pct.at(workload);
}

/** Figure 9's configuration of @p scheme (degree 6, 2^16 tables). */
PrefetcherParams
fig9Params(const std::string &scheme)
{
    PrefetcherParams p;
    p.name = scheme;
    p.ebcp.prefetchDegree = 6;
    p.ebcp.tableEntries = 1ULL << 16;
    p.solihin.tableEntries = 1ULL << 16;
    p.dcpt.degree = 6;
    p.amc.degree = 6;
    return p;
}

/**
 * The simulator-side seed of input instance @p j of a run with --seed
 * @p s. Seeds shape each synthetic program, not just its data, so one
 * instance's CPI and host speed differ from another's by ~10%; a run
 * averages several instances to keep its figures comparable across
 * seeds. CMP core i adds i, so instance seeds are spaced apart.
 */
std::uint64_t
instanceSeed(std::uint64_t s, unsigned j)
{
    return 1 + (s * 64 + j) * 16;
}

/** Sweep workers: one CPU is left to the benchmark's own thread, and
 * at most three, so a run never has more threads than CPUs. */
unsigned
sweepJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
    return static_cast<unsigned>(std::clamp(cpus - 1, 1, 3));
}

/** Where a traced run writes its Chrome trace: next to the binary. */
std::string
chromeTracePath(const Options &opt)
{
    std::error_code ec;
    const std::filesystem::path exe =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    const std::string name = "trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    return ec ? name : (exe.parent_path() / name).string();
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Bitwise equality of every SimResults field. */
bool
sameResults(const SimResults &a, const SimResults &b)
{
    return a.insts == b.insts && a.cycles == b.cycles &&
           a.epochs == b.epochs && a.cpi == b.cpi &&
           a.epochsPer1k == b.epochsPer1k &&
           a.l2InstMissPer1k == b.l2InstMissPer1k &&
           a.l2LoadMissPer1k == b.l2LoadMissPer1k &&
           a.usefulPrefetches == b.usefulPrefetches &&
           a.issuedPrefetches == b.issuedPrefetches &&
           a.droppedPrefetches == b.droppedPrefetches &&
           a.timelyPrefetches == b.timelyPrefetches &&
           a.latePrefetches == b.latePrefetches &&
           a.earlyEvictedPrefetches == b.earlyEvictedPrefetches &&
           a.coverage == b.coverage && a.accuracy == b.accuracy &&
           a.timeliness == b.timeliness &&
           a.readBusUtil == b.readBusUtil &&
           a.writeBusUtil == b.writeBusUtil;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

/** One simulated system: workload, prefetcher, cores and windows. */
struct Unit
{
    std::string workload;
    PrefetcherParams pf;
    unsigned cores = 1;
    std::uint64_t warm = 0;
    std::uint64_t measure = 0; //!< per core
    std::uint64_t seed = 1;

    std::string
    label() const
    {
        return workload + "/" + pf.name + (cores > 1 ? "/cmp" : "") + "@" +
               std::to_string(measure);
    }
};

/** The real driver (Simulator, or CmpSystem for several cores) with
 * its own workload instances. */
class RealSystem
{
  public:
    explicit RealSystem(const Unit &u)
    {
        for (unsigned i = 0; i < u.cores; ++i) {
            owned_.push_back(makeWorkload(u.workload, u.seed + i));
            srcs_.push_back(owned_.back().get());
        }
        if (u.cores == 1)
            sim_ = std::make_unique<Simulator>(SimConfig{}, u.pf);
        else
            cmp_ = std::make_unique<CmpSystem>(SimConfig{}, u.pf, u.cores);
    }

    Status
    warm(std::uint64_t n)
    {
        return sim_ ? sim_->runWarm(*srcs_[0], n) : cmp_->runWarm(srcs_, n);
    }

    StatusOr<SimResults>
    measure(std::uint64_t n)
    {
        if (sim_)
            return sim_->runMeasure(*srcs_[0], n);
        StatusOr<CmpResults> r = cmp_->runMeasure(srcs_, n);
        if (!r.ok())
            return r.status();
        return foldCmpResults(r.value());
    }

    StatusOr<std::string>
    serialize()
    {
        return sim_ ? sim_->serializeCheckpoint(*srcs_[0])
                    : cmp_->serializeCheckpoint(srcs_);
    }

    Status
    restore(const std::string &blob)
    {
        return sim_ ? sim_->restoreCheckpoint(blob, *srcs_[0])
                    : cmp_->restoreCheckpoint(blob, srcs_);
    }

    Digest digest() { return sim_ ? digestOf(*sim_) : digestOf(*cmp_); }

  private:
    std::vector<std::unique_ptr<SyntheticWorkload>> owned_;
    std::vector<TraceSource *> srcs_;
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<CmpSystem> cmp_;
};

/** One untraced repetition of a unit, timed. */
struct Rep
{
    Status status;
    double setupCpu = 0.0;   //!< construction + warm-up, thread CPU s
    double measureCpu = 0.0; //!< measurement window, thread CPU s
    double wall = 0.0;       //!< the whole repetition, wall s
    SimResults results;
    Digest digest;
};

Rep
timedRep(const Unit &u)
{
    Rep r;
    const double w0 = wallSeconds();
    const double c0 = threadCpuSeconds();
    RealSystem sys(u);
    r.status = sys.warm(u.warm);
    const double c1 = threadCpuSeconds();
    if (!r.status.ok())
        return r;
    StatusOr<SimResults> res = sys.measure(u.measure);
    const double c2 = threadCpuSeconds();
    r.wall = wallSeconds() - w0;
    r.setupCpu = c1 - c0;
    r.measureCpu = c2 - c1;
    if (!res.ok()) {
        r.status = res.status();
        return r;
    }
    r.results = res.take();
    r.digest = sys.digest();
    return r;
}

/**
 * Peak RSS of a fresh process that runs @p body once: a child forked
 * while this process is single-threaded and before it has simulated
 * anything, so it holds the program's baseline plus what @p body
 * builds. Memory that an earlier repetition left in the allocator
 * cannot leak into the figure.
 */
std::optional<double>
childPeakRssMiB(const std::function<bool()> &body)
{
    int fd[2];
    if (pipe(fd) != 0)
        return std::nullopt;
    const pid_t pid = fork();
    if (pid == 0) {
        close(fd[0]);
        const double v = body() ? peakRssMiB() : -1.0;
        const bool ok = write(fd[1], &v, sizeof v) == sizeof v;
        _exit(ok ? 0 : 1);
    }
    close(fd[1]);
    double v = -1.0;
    const bool got = pid > 0 && read(fd[0], &v, sizeof v) == sizeof v;
    close(fd[0]);
    int status = 0;
    const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!got || !exited || v < 0.0)
        return std::nullopt;
    return v;
}

/** Simulated results of @p u run once, untimed. */
std::optional<SimResults>
runOnce(const Unit &u, Report &rep)
{
    ++rep.attempted;
    const Rep r = timedRep(u);
    if (!r.status.ok()) {
        rep.fail(u.label() + ": " + r.status.toString());
        return std::nullopt;
    }
    return r.results;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Host-time samples of one input instance's repetitions. */
struct HostSamples
{
    std::vector<double> rates;  //!< M simulated insts per CPU second
    std::vector<double> setups; //!< set-up CPU seconds
    std::vector<double> walls;  //!< wall seconds of the repetition
};

/**
 * A host figure from per-instance samples @p per: the level quantile
 * @p q of the host's speed reaches, at the average instance. Each
 * sample is divided by its instance's median, which leaves the host's
 * variation alone; quantile @p q of those pooled ratios, times the mean
 * of the instance medians, is the figure. Pooling takes the quantile
 * over every repetition of the run rather than over one instance's few.
 */
double
pooledQuantile(const std::vector<std::vector<double>> &per, double q)
{
    std::vector<double> pooled, medians;
    for (const std::vector<double> &v : per) {
        if (v.empty())
            continue;
        const double m = median(v);
        medians.push_back(m);
        for (double x : v)
            pooled.push_back(ratio(x, m));
    }
    return mean(medians) * quantile(pooled, q);
}

/**
 * Host metrics of a run. On a shared 4-vCPU KVM guest the simulator's
 * speed is bimodal: most of the time it runs at a contended level, and
 * in bursts of seconds, whose share changes from minute to minute, up
 * to ~1.7x faster. A median or mean of a 25 s run moves with that
 * share, so each host time is the 90th percentile of the run's
 * repetitions and each rate the 10th (see pooledQuantile): the
 * contended level, which the host sustains in every run. Instances
 * count equally, so the figure does not depend on which instances ran
 * an extra time.
 */
void
addHostMetrics(Report &rep, const std::vector<HostSamples> &inst,
               double peak_rss_mib)
{
    std::vector<std::vector<double>> rates, setups, walls;
    for (const HostSamples &h : inst) {
        rates.push_back(h.rates);
        setups.push_back(h.setups);
        walls.push_back(h.walls);
    }
    rep.add("minsts_per_cpu_s", pooledQuantile(rates, 0.10));
    rep.add("setup_s", pooledQuantile(setups, 0.90));
    rep.add("sweep_wall_s", pooledQuantile(walls, 0.90));
    rep.add("peak_rss_mb", peak_rss_mib);
}

void
addOkRatio(Report &rep)
{
    const double fail =
        ratio(static_cast<double>(rep.failed),
              static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1)));
    std::ostringstream os;
    os << "run_fail_ratio = " << fail << " fraction (" << rep.failed << " of "
       << rep.attempted << " runs)";
    rep.note(os.str());
    rep.add("run_ok_ratio", 1.0 - fail);
}

// --- untraced: the single-run workloads ---------------------------------

/** The measured system of a single-run workload on input @p seed. */
Unit
systemUnit(const std::string &workload, std::uint64_t seed)
{
    if (workload == "jbb-ebcp")
        return {"specjbb", fig9Params("ebcp"), 1, kJbbWarm, kJbbMeasure, seed};
    return {"database", fig9Params("null"), kCmpCores, kCmpWarm, kCmpMeasure,
            seed};
}

/**
 * Repeat the instances of @p units round-robin until the time budget
 * is spent and every instance has run twice; each repetition builds,
 * warms and measures a fresh driver and must reach the instance's
 * first digest again. @p pair_units give, per instance, the
 * single-core workload whose EBCP improvement is set against the
 * paper's.
 */
void
measureSystem(const Options &opt, const std::vector<Unit> &units,
              const std::vector<Unit> &pair_units, Report &rep)
{
    const std::string &paper_workload = pair_units.front().workload;

    // Memory: one repetition per process, for the first instances,
    // before this process has simulated anything.
    std::vector<double> rss;
    for (std::size_t j = 0; j < std::min<std::size_t>(kRssInstances,
                                                       units.size());
         ++j) {
        ++rep.attempted;
        const Unit &u = units[j];
        if (std::optional<double> v =
                childPeakRssMiB([&u] { return timedRep(u).status.ok(); }))
            rss.push_back(*v);
        else
            rep.fail(units[j].label() + ": peak-RSS child failed");
    }

    std::vector<HostSamples> host(units.size());
    std::size_t reps = 0;
    std::vector<std::optional<Rep>> first(units.size());
    const double deadline = wallSeconds() + opt.seconds;
    for (std::size_t r = 0;
         wallSeconds() < deadline || r < 2 * units.size(); ++r) {
        const std::size_t j = r % units.size();
        Rep rp = timedRep(units[j]);
        ++rep.attempted;
        if (!rp.status.ok()) {
            rep.fail(units[j].label() + ": " + rp.status.toString());
            continue;
        }
        if (!first[j])
            first[j] = rp;
        else if (!(rp.digest == first[j]->digest) ||
                 !sameResults(rp.results, first[j]->results))
            rep.fail(units[j].label() + ": repetition not bit-identical");
        ++reps;
        host[j].rates.push_back(static_cast<double>(rp.results.insts) /
                                rp.measureCpu / 1e6);
        host[j].setups.push_back(rp.setupCpu);
        host[j].walls.push_back(rp.wall);
    }

    // Accuracy figure, outside the timed loop. When the measured
    // system is the pair's EBCP side, its first repetition serves.
    std::vector<double> imps;
    for (std::size_t j = 0; j < pair_units.size(); ++j) {
        Unit u = pair_units[j];
        u.pf = fig9Params("null");
        std::optional<SimResults> base = runOnce(u, rep);
        u.pf = fig9Params("ebcp");
        const bool measured = units[j].cores == 1 && units[j].pf.name == "ebcp";
        std::optional<SimResults> pf =
            measured && first[j]
                ? std::optional<SimResults>(first[j]->results)
                : runOnce(u, rep);
        if (base && pf)
            imps.push_back(improvementPct(*base, *pf));
    }
    const double imp = mean(imps);

    std::vector<double> cpis;
    std::ostringstream digests;
    for (std::size_t j = 0; j < units.size(); ++j) {
        if (!first[j])
            continue;
        cpis.push_back(first[j]->results.cpi);
        digests << (j ? " " : "") << hex(first[j]->digest.hash());
    }
    std::ostringstream os;
    os << units.front().label() << ": " << units.size() << " input instances, "
       << reps << " repetitions; ebcp improvement on " << paper_workload
       << " " << imp << "% (paper " << paperImprovementPct(paper_workload)
       << "%)\ndigests " << digests.str();
    rep.note(os.str());
    addHostMetrics(rep, host, median(rss));
    rep.add("sim_cpi", geomean(cpis));
    rep.add("paper_gap_pp", std::fabs(imp - paperImprovementPct(paper_workload)));
    addOkRatio(rep);
}

// --- the Figure 9 sweep --------------------------------------------------

struct Grid
{
    std::vector<RunDesc> descs;
    /** (workload, scheme, window index) -> descriptor index. */
    std::map<std::tuple<std::string, std::string, int>, std::size_t> at;
};

Grid
fig9Grid(std::uint64_t seed)
{
    Grid g;
    std::vector<std::string> schemes{"null"};
    schemes.insert(schemes.end(), kFig9Schemes.begin(), kFig9Schemes.end());
    for (const std::string &w : ebcp::workloadNames())
        for (const std::string &s : schemes)
            for (int k = 0; k < 2; ++k) {
                RunDesc d;
                d.workload = w;
                d.pf = fig9Params(s);
                d.scale.warm = kSweepWarm;
                d.scale.measure = kSweepMeasure[k];
                d.seed = seed;
                g.at[{w, s, k}] = g.descs.size();
                g.descs.push_back(std::move(d));
            }
    return g;
}

/** The sweep's EBCP points at the longer window, one per workload:
 * run cold by the benchmark to check the sweep's warm forks and to
 * time construction + restore. */
std::vector<Unit>
fig9Probes(std::uint64_t seed)
{
    std::vector<Unit> units;
    for (const std::string &w : ebcp::workloadNames())
        units.push_back({w, fig9Params("ebcp"), 1, kSweepWarm,
                         kSweepMeasure[1], seed});
    return units;
}

/** A probe point run cold, with its warm checkpoint kept. */
struct ColdPoint
{
    std::string blob;
    SimResults results;
};

std::optional<ColdPoint>
coldPoint(const Unit &u, Report &rep)
{
    ++rep.attempted;
    RealSystem sys(u);
    Status s = sys.warm(u.warm);
    StatusOr<std::string> blob =
        s.ok() ? sys.serialize() : StatusOr<std::string>(s);
    if (!blob.ok()) {
        rep.fail(u.label() + " cold: " + blob.status().toString());
        return std::nullopt;
    }
    StatusOr<SimResults> r = sys.measure(u.measure);
    if (!r.ok()) {
        rep.fail(u.label() + " cold: " + r.status().toString());
        return std::nullopt;
    }
    return ColdPoint{blob.take(), r.take()};
}

/** One input instance of the sweep: its grid, probe points and their
 * cold runs, and the first sweep's results. */
struct SweepInstance
{
    Grid grid;
    std::vector<Unit> probes;
    std::vector<std::optional<ColdPoint>> cold;
    std::vector<RunResult> first;
};

SweepInstance
sweepInstance(std::uint64_t seed, Report &rep)
{
    SweepInstance in{fig9Grid(seed), fig9Probes(seed), {}, {}};
    for (const Unit &u : in.probes)
        in.cold.push_back(coldPoint(u, rep));
    return in;
}

/** Check one sweep's results: every run OK and forked, the cold probe
 * points equal, and bit-identical to the instance's first sweep. */
void
checkSweep(const SweepInstance &in, const std::vector<RunResult> &results,
           Report &rep)
{
    const Grid &g = in.grid;
    rep.attempted += results.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const std::string label = harness::runLabel(g.descs[i]);
        if (!r.ok())
            rep.fail(label + ": " + r.status.toString());
        else if (!r.warmForked || r.coldFallback)
            rep.fail(label + ": not forked from its warm checkpoint");
        else if (!in.first.empty() &&
                 !sameResults(r.results, in.first[i].results))
            rep.fail(label + ": repeated sweep not bit-identical");
    }
    for (std::size_t k = 0; k < in.probes.size(); ++k) {
        const std::size_t i = g.at.at({in.probes[k].workload, "ebcp", 1});
        if (in.cold[k] && results[i].ok() &&
            !sameResults(results[i].results, in.cold[k]->results))
            rep.fail(in.probes[k].label() +
                     ": warm fork differs from cold run");
    }
}

SweepOptions
sweepOptions()
{
    SweepOptions so;
    so.warmReuse = true;
    so.heartbeatSeconds = 0.0;
    return so;
}

void
measureSweep(const Options &opt, Report &rep)
{
    // Memory: one sweep in a fresh process (see childPeakRssMiB).
    ++rep.attempted;
    const Grid g0 = fig9Grid(instanceSeed(opt.seed, 0));
    const std::optional<double> rss = childPeakRssMiB([&] {
        std::vector<RunResult> results =
            SweepRunner(sweepJobs(), sweepOptions()).run(g0.descs);
        return std::all_of(results.begin(), results.end(),
                           [](const RunResult &r) { return r.ok(); });
    });
    if (!rss)
        rep.fail("fig9-sweep: peak-RSS child failed");

    std::vector<SweepInstance> inst;
    for (unsigned j = 0; j < kSweepInstances; ++j)
        inst.push_back(sweepInstance(instanceSeed(opt.seed, j), rep));

    std::vector<HostSamples> host(inst.size());
    std::size_t sweeps_run = 0;
    const double deadline = wallSeconds() + opt.seconds;
    for (std::size_t r = 0; wallSeconds() < deadline || r <= inst.size();
         ++r) {
        const std::size_t j = r % inst.size();
        SweepInstance &in = inst[j];
        SweepRunner runner(sweepJobs(), sweepOptions());
        const double w0 = wallSeconds();
        const double p0 = processCpuSeconds();
        std::vector<RunResult> results = runner.run(in.grid.descs);
        const double cpu = processCpuSeconds() - p0;
        ++sweeps_run;
        host[j].walls.push_back(wallSeconds() - w0);
        host[j].rates.push_back(
            static_cast<double>(runner.stats().measuredInsts) / cpu / 1e6);
        checkSweep(in, results, rep);
        if (in.first.empty())
            in.first = std::move(results);

        // Set-up of the forked points: construction + checkpoint
        // restore, a few rounds per sweep for a steadier figure.
        for (unsigned round = 0; round < kSetupRounds; ++round) {
            double setup = 0.0;
            for (std::size_t k = 0; k < in.probes.size(); ++k) {
                if (!in.cold[k])
                    continue;
                ++rep.attempted;
                const double c0 = threadCpuSeconds();
                RealSystem sys(in.probes[k]);
                Status s = sys.restore(in.cold[k]->blob);
                setup += threadCpuSeconds() - c0;
                if (!s.ok())
                    rep.fail(in.probes[k].label() +
                             " restore: " + s.toString());
            }
            host[j].setups.push_back(setup);
        }
    }

    // Simulated figures from the longer window of each first sweep.
    std::vector<double> cpis;
    double gap_sum = 0.0;
    std::ostringstream os;
    for (const std::string &w : ebcp::workloadNames()) {
        std::vector<double> imps;
        for (const SweepInstance &in : inst) {
            const RunResult &base = in.first[in.grid.at.at({w, "null", 1})];
            const RunResult &pf = in.first[in.grid.at.at({w, "ebcp", 1})];
            imps.push_back(improvementPct(base.results, pf.results));
        }
        gap_sum += std::fabs(mean(imps) - paperImprovementPct(w));
        os << " " << w << " " << mean(imps) << "%";
    }
    std::ostringstream digests;
    for (const SweepInstance &in : inst) {
        Digest all;
        for (std::size_t i = 0; i < in.first.size(); ++i) {
            const SimResults &r = in.first[i].results;
            for (std::uint64_t v : {r.insts, r.cycles, r.epochs,
                                    r.usefulPrefetches, r.issuedPrefetches})
                all.words.push_back(v);
            if (in.grid.descs[i].scale.measure == kSweepMeasure[1])
                cpis.push_back(r.cpi);
        }
        digests << " " << hex(all.hash());
    }
    rep.note("fig9-sweep: " + std::to_string(inst.size()) +
             " input instances, " + std::to_string(sweeps_run) + " sweeps of " +
             std::to_string(inst.front().grid.descs.size()) + " runs on " +
             std::to_string(sweepJobs()) + " workers; ebcp improvement" +
             os.str() + " (paper 20/12/28/24%)\ndigests" + digests.str());
    addHostMetrics(rep, host, rss.value_or(0.0));
    rep.add("sim_cpi", geomean(cpis));
    rep.add("paper_gap_pp", gap_sum / 4.0);
    addOkRatio(rep);
}

// --- traced mode -----------------------------------------------------------

/** Per-repetition layer metrics; the report takes each one's median. */
using LayerSample = std::map<std::string, double>;

/** Counts read from a traced system after its run. */
void
addSystemCounts(TracedSystem &ts, const Unit &u, LayerSample &m)
{
    L2Subsystem &l2 = ts.l2side();
    m["cache.l2_misses"] += static_cast<double>(l2.offChipInst() +
                                                l2.offChipLoad());
    m["cpu.measured_insts"] += static_cast<double>(u.measure * u.cores);
    m["cache.mshr_finds"] += static_cast<double>(l2.mshrs().mapStats().finds);
    m["cache.mshr_probes"] +=
        static_cast<double>(l2.mshrs().mapStats().findProbes);
    m["prefetch.issued"] += static_cast<double>(l2.issuedPrefetches());
    m["prefetch.useful"] += static_cast<double>(l2.usefulPrefetches());
    m["prefetch.dropped"] += static_cast<double>(l2.droppedPrefetches());
    m["prefetch.timely"] += static_cast<double>(l2.ledger().timelyHits());
    m["prefetch.late"] += static_cast<double>(l2.ledger().lateHits());
    m["mem.read_busy"] += ts.readBusyTicks();
    m["mem.write_busy"] += ts.writeBusyTicks();
    m["mem.cycles"] += static_cast<double>(ts.measuredCycles());
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(&ts.prefetcher())) {
        const FlatMapStats &s = e->table().mapStats();
        m["core.corr_finds"] += static_cast<double>(s.finds);
        m["core.corr_hits"] += static_cast<double>(s.hits);
        m["core.corr_inserts"] += static_cast<double>(s.inserts);
        m["core.corr_find_probes"] += static_cast<double>(s.findProbes);
        m["core.corr_rehashes"] += static_cast<double>(s.rehashes);
    }
}

/**
 * One traced pass over @p u: the untraced reference run (with its
 * warm state checkpointed and restored into a fork), then the same
 * system through the decorated graph. Every run must reach the same
 * digest.
 */
void
tracedUnit(const Unit &u, Tracer &t, LayerSample &m, Report &rep)
{
    // Untraced reference, cold.
    rep.attempted += 3;
    const double c0 = threadCpuSeconds();
    RealSystem ref(u);
    Status s = ref.warm(u.warm);
    const double c1 = threadCpuSeconds();
    std::string blob;
    if (s.ok()) {
        const std::uint64_t t0 = nowNs();
        {
            Scope sc(t, Layer::Ckpt, "ckpt.serialize");
            StatusOr<std::string> b = ref.serialize();
            if (b.ok())
                blob = b.take();
            else
                s = b.status();
        }
        m["ckpt.serialize_ns"] += static_cast<double>(nowNs() - t0);
    }
    const double c2 = threadCpuSeconds();
    StatusOr<SimResults> r =
        s.ok() ? ref.measure(u.measure) : StatusOr<SimResults>(s);
    const double c3 = threadCpuSeconds();
    if (!r.ok()) {
        rep.fail(u.label() + " untraced: " + r.status().toString());
        return;
    }
    const Digest want = ref.digest();
    m["ckpt.bytes"] += static_cast<double>(blob.size());
    m["untraced.cpu_s"] += (c1 - c0) + (c3 - c2);

    // A fork of the warm state must match the cold run.
    {
        RealSystem fork(u);
        const std::uint64_t t0 = nowNs();
        Status rs;
        {
            Scope sc(t, Layer::Ckpt, "ckpt.restore");
            rs = fork.restore(blob);
        }
        m["ckpt.restore_ns"] += static_cast<double>(nowNs() - t0);
        m["ckpt.forks"] += 1;
        StatusOr<SimResults> fr =
            rs.ok() ? fork.measure(u.measure) : StatusOr<SimResults>(rs);
        if (!fr.ok())
            rep.fail(u.label() + " fork: " + fr.status().toString());
        else if (!(fork.digest() == want) ||
                 !sameResults(fr.value(), r.value()))
            rep.fail(u.label() + ": warm fork differs from cold run");
    }

    // The same system, traced.
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<std::unique_ptr<TimedSource>> timed;
    std::vector<TraceSource *> srcs;
    std::unique_ptr<TracedSystem> ts;
    const std::array<LayerTotals, kLayers> before = t.snapshot();
    const double d0 = threadCpuSeconds();
    {
        Scope sc(t, Layer::Sim, "sim.run");
        for (unsigned i = 0; i < u.cores; ++i) {
            owned.push_back(makeWorkload(u.workload, u.seed + i));
            timed.push_back(std::make_unique<TimedSource>(*owned.back(), t));
            srcs.push_back(timed.back().get());
        }
        ts = std::make_unique<TracedSystem>(SimConfig{}, u.pf, u.cores, t);
        ts->run(srcs, u.warm, u.measure);
    }
    const double d1 = threadCpuSeconds();
    m["sim.run_cpu_s"] += d1 - d0;
    for (std::size_t i = 0; i < kLayers; ++i) {
        const LayerTotals &now = t.totals(static_cast<Layer>(i));
        m["layers.self_sum_s"] +=
            static_cast<double>(now.selfNs - before[i].selfNs) / 1e9;
        m["layers.spans"] += static_cast<double>(now.calls - before[i].calls);
        m["layers.child_spans"] +=
            static_cast<double>(now.childSpans - before[i].childSpans);
    }
    m["cpu.insts"] += static_cast<double>(ts->simulatedInsts());
    for (const auto &ti : timed)
        m["trace.records"] += static_cast<double>(ti->records());
    if (ts->stalled())
        rep.fail(u.label() + " traced: watchdog stall");
    else if (!(ts->digest() == want))
        rep.fail(u.label() + ": traced results differ from untraced");
    addSystemCounts(*ts, u, m);
}

/** Time CorrelationTable update and lookup at the Figure 9 size, by
 * calling the table directly. */
void
probeCorrelationTable(std::uint64_t seed, LayerSample &m)
{
    std::unique_ptr<Prefetcher> pf = createPrefetcher(fig9Params("ebcp"));
    const CorrTableConfig cfg =
        dynamic_cast<EpochBasedPrefetcher &>(*pf).table().config();
    CorrelationTable table(cfg);
    constexpr std::size_t kOps = 400'000;
    // Keys span 4x the entries, so lookups see hits and misses, and
    // updates both refresh and reallocate entries.
    const std::uint64_t span = cfg.entries * 4;
    Pcg32 rng(seed, 0x7ab1e);
    auto key = [&] { return (rng.next() % span) << 6; };
    std::vector<Addr> addrs(cfg.addrsPerEntry);
    std::vector<Addr> keys(kOps);
    for (Addr &k : keys)
        k = key();

    std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < kOps; ++i) {
        for (std::size_t j = 0; j < addrs.size(); ++j)
            addrs[j] = keys[(i + j + 1) % kOps];
        table.update(keys[i], addrs);
    }
    const std::uint64_t t1 = nowNs();
    std::vector<Addr> out;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < kOps; ++i)
        hits += table.lookup(key(), out);
    const std::uint64_t t2 = nowNs();
    m["core.probe_update_ns"] = static_cast<double>(t1 - t0) / kOps;
    m["core.probe_lookup_ns"] = static_cast<double>(t2 - t1) / kOps;
    m["core.probe_lookup_hits"] = static_cast<double>(hits);
}

/** Keeps the drained records observable to the optimiser. */
volatile std::uint64_t g_sink = 0;

/** Drain each workload's trace generator through the span interface
 * the core uses, and time it per record. */
void
probeTraceDrain(const std::vector<Unit> &units, LayerSample &m)
{
    constexpr std::uint64_t kRecords = 2'000'000;
    std::uint64_t ns = 0, n = 0;
    for (const Unit &u : units) {
        std::unique_ptr<SyntheticWorkload> w = makeWorkload(u.workload, u.seed);
        const std::uint64_t t0 = nowNs();
        std::uint64_t got = 0, sink = 0;
        while (got < kRecords) {
            const TraceRecord *span = nullptr;
            const std::size_t k = w->peekSpan(&span, 256);
            if (k == 0)
                break;
            sink += span[k - 1].pc;
            w->consumeSpan(k);
            got += k;
        }
        ns += nowNs() - t0;
        n += got;
        g_sink = sink;
    }
    m["trace.probe_ns_per_record"] = ratio(static_cast<double>(ns),
                                           static_cast<double>(n));
}

/** A memory system that does nothing, to calibrate a decorator on. */
class NullMem : public MemSystem
{
  public:
    MemOutcome fetchInst(Addr, Tick when) override { return {when, false}; }
    MemOutcome load(Addr, Addr, Tick when) override { return {when, false}; }
    Tick store(Addr, Tick when) override { return when; }
    unsigned lineBytes() const override { return 64; }
};

/**
 * Calibrates what tracing adds to one seam call: a decorated call
 * minus the same call undecorated, each made through a base pointer
 * the compiler cannot see through, and nested below the always-kept
 * depth. In m, "tracing.ns_per_span" is that whole cost as the caller
 * sees it (the span and the decorator's forwarding call), and
 * "tracing.span_inner_ns" the part inside the span's own clock reads.
 */
void
calibrateSpan(LayerSample &m)
{
    constexpr std::size_t kCalls = 1'000'000;
    Tracer c;
    Scope outer(c, Layer::Sim, "calibrate");
    Scope inner(c, Layer::Sim, "calibrate");
    NullMem plain;
    TimedMem timed(plain, c);
    auto time = [](MemSystem *p) {
        MemSystem *volatile port = p;
        Tick sum = 0;
        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < kCalls; ++i)
            sum += port->store(i, i);
        g_sink = sum;
        return static_cast<double>(nowNs() - t0) / kCalls;
    };
    const double bare = time(&plain);
    m["tracing.ns_per_span"] = time(&timed) - bare;
    m["tracing.span_inner_ns"] =
        static_cast<double>(c.totals(Layer::Cache).selfNs) / kCalls;
}

/**
 * Derived per-layer metrics of one traced repetition. A layer's self
 * time is reported less what tracing cost it: the inner part of each
 * of its own spans and the rest of each span opened directly below
 * it. The ns figures so estimate what the layer costs untraced; one
 * that does next to nothing (the null prefetcher) comes out near 0,
 * and can come out a little below it.
 */
LayerSample
layerMetrics(const Tracer &t, const std::array<LayerTotals, kLayers> &before,
             LayerSample m)
{
    auto calls = [&](Layer l) {
        const std::size_t i = static_cast<std::size_t>(l);
        return static_cast<double>(t.totals(l).calls - before[i].calls);
    };
    const double span_ns = m["tracing.ns_per_span"];
    const double inner_ns = m["tracing.span_inner_ns"];
    auto self = [&](Layer l) {
        const std::size_t i = static_cast<std::size_t>(l);
        const LayerTotals &now = t.totals(l);
        return static_cast<double>(now.selfNs - before[i].selfNs) -
               calls(l) * inner_ns -
               static_cast<double>(now.childSpans - before[i].childSpans) *
                   (span_ns - inner_ns);
    };
    const double insts = m["cpu.insts"];
    LayerSample out;
    out["trace.records"] = m["trace.records"];
    out["trace.ns_per_record"] = ratio(self(Layer::Trace), m["trace.records"]);
    out["trace.probe_ns_per_record"] = m["trace.probe_ns_per_record"];
    out["cpu.insts"] = insts;
    out["cpu.self_ns_per_inst"] = ratio(self(Layer::Cpu), insts);
    out["cache.accesses"] = calls(Layer::Cache);
    out["cache.self_ns_per_access"] =
        ratio(self(Layer::Cache), calls(Layer::Cache));
    out["cache.l2_misses_per_1k"] =
        ratio(m["cache.l2_misses"] * 1000.0, m["cpu.measured_insts"]);
    out["cache.mshr_probes_per_find"] =
        ratio(m["cache.mshr_probes"], m["cache.mshr_finds"]);
    out["prefetch.observes"] = calls(Layer::Prefetch);
    out["prefetch.self_ns_per_observe"] =
        ratio(self(Layer::Prefetch), calls(Layer::Prefetch));
    out["prefetch.issued"] = m["prefetch.issued"];
    out["prefetch.useful"] = m["prefetch.useful"];
    out["prefetch.dropped"] = m["prefetch.dropped"];
    out["prefetch.accuracy"] = ratio(m["prefetch.useful"], m["prefetch.issued"]);
    out["prefetch.coverage"] =
        ratio(m["prefetch.useful"], m["prefetch.useful"] + m["cache.l2_misses"]);
    out["prefetch.timeliness"] =
        ratio(m["prefetch.timely"], m["prefetch.timely"] + m["prefetch.late"]);
    out["core.corr_finds"] = m["core.corr_finds"];
    out["core.corr_hit_ratio"] = ratio(m["core.corr_hits"], m["core.corr_finds"]);
    out["core.corr_inserts"] = m["core.corr_inserts"];
    out["core.corr_probes_per_find"] =
        ratio(m["core.corr_find_probes"], m["core.corr_finds"]);
    out["core.corr_rehashes"] = m["core.corr_rehashes"];
    out["core.probe_lookup_ns"] = m["core.probe_lookup_ns"];
    out["core.probe_update_ns"] = m["core.probe_update_ns"];
    out["mem.engine_calls"] = calls(Layer::Mem);
    out["mem.ns_per_engine_call"] = ratio(self(Layer::Mem), calls(Layer::Mem));
    out["mem.read_bus_util"] = ratio(m["mem.read_busy"], m["mem.cycles"]);
    out["mem.write_bus_util"] = ratio(m["mem.write_busy"], m["mem.cycles"]);
    const double forks = m["ckpt.forks"];
    out["ckpt.serialize_ms"] = ratio(m["ckpt.serialize_ns"], forks) / 1e6;
    out["ckpt.restore_ms"] = ratio(m["ckpt.restore_ns"], forks) / 1e6;
    out["ckpt.bytes"] = ratio(m["ckpt.bytes"], forks);
    out["ckpt.forks"] = forks + m["harness.forks"];
    out["ckpt.cold_fallbacks"] = m["harness.cold_fallbacks"];
    out["harness.runs"] = m["harness.runs"];
    out["harness.retries"] = m["harness.retries"];
    out["harness.worker_busy_ratio"] = m["harness.busy_ratio"];
    out["sim.run_cpu_s"] = m["sim.run_cpu_s"];
    out["sim.self_ns_per_inst"] = ratio(self(Layer::Sim), insts);
    out["tracing.untraced_minsts_per_cpu_s"] =
        ratio(insts, m["untraced.cpu_s"]) / 1e6;
    out["tracing.traced_minsts_per_cpu_s"] =
        ratio(insts, m["sim.run_cpu_s"]) / 1e6;
    out["tracing.overhead_ratio"] =
        ratio(m["sim.run_cpu_s"], m["untraced.cpu_s"]);
    out["tracing.ns_per_span"] = span_ns;
    // The program's own cost as the layers account for it, against the
    // same systems run untraced through the real drivers.
    const double own_s =
        m["layers.self_sum_s"] - (m["layers.spans"] * inner_ns +
                                  m["layers.child_spans"] * (span_ns - inner_ns)) /
                                     1e9;
    out["layers.sum_residual"] =
        ratio(own_s - m["untraced.cpu_s"], m["untraced.cpu_s"]);
    return out;
}

void
measureTraced(const Options &opt, Report &rep)
{
    // One input instance: per-layer figures carry no bound, and one
    // instance keeps the traced systems identical across repetitions.
    const std::uint64_t seed = instanceSeed(opt.seed, 0);
    const std::vector<Unit> units = opt.workload == "fig9-sweep"
                                        ? fig9Probes(seed)
                                        : std::vector<Unit>{systemUnit(
                                              opt.workload, seed)};
    std::optional<SweepInstance> sweep;
    if (opt.workload == "fig9-sweep")
        sweep = sweepInstance(seed, rep);

    Tracer t;
    std::map<std::string, std::vector<double>> samples;
    std::uint32_t run_id = 0;
    const double deadline = wallSeconds() + opt.seconds;
    do {
        const std::array<LayerTotals, kLayers> before = t.snapshot();
        LayerSample m;
        for (const Unit &u : units) {
            t.setRun(run_id++);
            tracedUnit(u, t, m, rep);
        }
        if (sweep) {
            SweepRunner runner(sweepJobs(), sweepOptions());
            t.setRun(run_id++);
            const double w0 = wallSeconds();
            const double p0 = processCpuSeconds();
            std::vector<RunResult> results;
            {
                Scope sc(t, Layer::Harness, "harness.SweepRunner::run");
                results = runner.run(sweep->grid.descs);
            }
            const double busy = processCpuSeconds() - p0;
            const double wall = wallSeconds() - w0;
            checkSweep(*sweep, results, rep);
            if (sweep->first.empty())
                sweep->first = std::move(results);
            const harness::SweepStats &st = runner.stats();
            m["harness.runs"] = static_cast<double>(st.launched);
            m["harness.retries"] = static_cast<double>(st.retries);
            m["harness.busy_ratio"] =
                ratio(busy, static_cast<double>(st.jobs) * wall);
            m["harness.forks"] = static_cast<double>(st.warmForks);
            m["harness.cold_fallbacks"] = static_cast<double>(st.coldFallbacks);
        }
        probeCorrelationTable(seed, m);
        probeTraceDrain(units, m);
        calibrateSpan(m);
        for (const auto &[name, v] : layerMetrics(t, before, m))
            samples[name].push_back(v);
    } while (wallSeconds() < deadline);

    // The residual is signed per repetition; the metric is the size of
    // its median.
    const std::vector<double> &res = samples["layers.sum_residual"];
    const double residual = median(res);
    const std::size_t reps = res.size();
    for (const auto &[name, v] : samples)
        rep.add(name, &v == &res ? std::fabs(residual) : median(v));

    std::ostringstream os;
    os << opt.workload << " traced: " << reps
       << " repetitions; layer self times less span cost vs untraced "
          "driver thread CPU: residual "
       << residual * 100.0 << "% (range "
       << *std::min_element(res.begin(), res.end()) * 100.0 << ".."
       << *std::max_element(res.begin(), res.end()) * 100.0
       << "%, tolerance " << kLayerSumTolerance * 100.0
       << "%); tracing overhead x"
       << median(samples["tracing.overhead_ratio"]);
    rep.note(os.str());
    if (std::fabs(residual) > kLayerSumTolerance) {
        rep.correct = false;
        rep.note("FAILED: layer self times do not add up to the driver's "
                 "CPU time");
    }
    const std::string chrome = chromeTracePath(opt);
    if (t.writeChromeTrace(chrome))
        rep.note("chrome trace: " + chrome + " (" +
                 std::to_string(t.spans().size()) + " spans)");
    else
        rep.fail("cannot write " + chrome);
}

} // namespace

Report
runWorkload(const Options &opt)
{
    Report rep;
    if (opt.trace) {
        measureTraced(opt, rep);
    } else if (opt.workload == "fig9-sweep") {
        measureSweep(opt, rep);
    } else {
        std::vector<Unit> units, pairs;
        for (unsigned j = 0; j < kInstances; ++j) {
            units.push_back(systemUnit(opt.workload, instanceSeed(opt.seed, j)));
            // The accuracy pair: the same benchmark single-core, at the
            // measured system's per-core windows.
            Unit p = units.back();
            p.cores = 1;
            pairs.push_back(p);
        }
        measureSystem(opt, units, pairs, rep);
    }
    return rep;
}

} // namespace perfbench
