/**
 * @file
 * A fully-specified simulation run for the parallel sweep engine.
 *
 * A RunDesc carries everything needed to execute one (workload x
 * configuration) point of a paper sweep: the named workload, the
 * system configuration, the prefetcher parameters, the measurement
 * windows and the workload seed. Execution is a pure function of the
 * descriptor -- never of submission order or of which worker thread
 * picks it up -- which is what makes sweeps bit-reproducible at any
 * job count.
 */

#ifndef EBCP_HARNESS_RUN_DESC_HH
#define EBCP_HARNESS_RUN_DESC_HH

#include <cstdint>
#include <string>

#include "sim/api.hh"

namespace ebcp::harness
{

/** Measurement window sizes for one run. */
struct RunScale
{
    std::uint64_t warm = 4'000'000;
    std::uint64_t measure = 8'000'000;
};

/** One simulation run, fully specified. */
struct RunDesc
{
    /** Display label for reports; defaults to workload/prefetcher. */
    std::string label;

    /** Named workload ("database", "tpcw", "specjbb", "specjas"). */
    std::string workload;

    SimConfig cfg;
    PrefetcherParams pf;
    RunScale scale;

    /**
     * Workload seed. 0 selects the workload's calibrated default, so
     * every configuration sharing a workload replays the identical
     * trace (the paper's same-trace comparison methodology). CMP runs
     * derive per-core seeds from this value.
     */
    std::uint64_t seed = 0;

    /** Core count; the cores share the L2, each running its own
     * workload instance. */
    unsigned cores = 1;
};

/**
 * The effective workload seed of @p d: the descriptor's explicit seed,
 * or a stable per-workload default. A pure function of the descriptor,
 * independent of submission order.
 */
std::uint64_t runSeed(const RunDesc &d);

/** @return d.label, or "workload/prefetcher" when no label is set. */
std::string runLabel(const RunDesc &d);

} // namespace ebcp::harness

#endif // EBCP_HARNESS_RUN_DESC_HH
