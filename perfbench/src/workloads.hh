/**
 * @file
 * The benchmark's workloads and how each is measured.
 *
 * jbb-ebcp      single-core specjbb, EBCP at the Figure 9 point
 *               (degree 6, 2^16-entry table); the prefetch, EBCP table
 *               and table-traffic layers do most of their work here.
 * cmp4-db-null  4-core CmpSystem on database (one seed per core),
 *               shared L2 and channel, no prefetcher: trace, core,
 *               cache and demand channel only, through the CMP driver.
 * fig9-sweep    the Figure 9 grid (4 workloads x 13 schemes plus the
 *               4 baselines) at short windows through SweepRunner
 *               with warm reuse, each point measured at two staggered
 *               windows forked from one warm checkpoint.
 *
 * Untraced mode repeats the workload's input instances until the time
 * budget is spent. It divides each repetition's host figures by its
 * instance's median, takes the 10th percentile of the pooled rates and
 * the 90th of the pooled times, and scales them back by the mean of
 * the instance medians (see addHostMetrics in workloads.cc).
 * Traced mode runs the same systems through the decorated graph of
 * layers.hh and reports each layer's work and self time.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One reported metric; its unit is declared in BENCHMARK.json. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** Everything one benchmark process reports. */
struct Report
{
    std::uint64_t attempted = 0; //!< runs attempted
    std::uint64_t failed = 0;    //!< runs failed or inconsistent
    bool correct = true;         //!< every check passed
    std::vector<Metric> metrics;
    std::vector<std::string> lines; //!< human-readable detail

    void add(std::string name, double value)
    {
        metrics.push_back({std::move(name), value});
    }
    /** Count one failed run and say why. */
    void fail(const std::string &why);
    void note(const std::string &line) { lines.push_back(line); }
};

/** The command line; main() requires every field. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

/** Names accepted by --workload. */
std::vector<std::string> workloadNames();

/** Run @p opt.workload in the mode @p opt selects. */
Report runWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
