/**
 * @file
 * Chip multiprocessor simulation (the paper's Section 6 future work).
 *
 * N cores, each with private L1s and its own trace source, share one
 * banked L2, one prefetch buffer, one prefetcher control and one
 * memory system -- Figure 2's arrangement. Cores are interleaved in
 * fixed instruction quanta, which approximates concurrent execution
 * closely enough for the behaviours of interest:
 *
 *  - the shared prefetcher control still sees each core's L1 miss
 *    requests *with the core id* (it sits in front of the crossbar),
 *    so an epoch-based prefetcher can keep per-core EMABs;
 *  - anything observing only the stream of requests that reach main
 *    memory (a memory-side scheme like Solihin's) sees the cores'
 *    miss streams interleaved, which destroys its correlation -- the
 *    paper's Section 3.3.1 argument.
 */

#ifndef EBCP_SIM_CMP_SYSTEM_HH
#define EBCP_SIM_CMP_SYSTEM_HH

#include <memory>
#include <vector>

#include "cpu/core_model.hh"
#include "mem/main_memory.hh"
#include "sim/hierarchy.hh"
#include "sim/l2_subsystem.hh"
#include "sim/prefetcher_factory.hh"
#include "sim/results.hh"
#include "sim/sim_config.hh"
#include "util/random.hh"
#include "util/status.hh"

namespace ebcp
{

/** Results of a CMP run: per-core plus aggregate. */
struct CmpResults
{
    std::vector<SimResults> perCore;
    double aggregateCpi = 0.0; //!< insts-weighted mean CPI
    double coverage = 0.0;
    double accuracy = 0.0;
    double timeliness = 0.0; //!< timely fraction of used prefetches
    std::uint64_t epochs = 0;

    // Shared-buffer prefetch lifecycle totals (PrefetchLedger).
    std::uint64_t timelyPrefetches = 0;
    std::uint64_t latePrefetches = 0;
    std::uint64_t earlyEvictedPrefetches = 0;
};

/** A CMP with a shared L2 and prefetcher. */
class CmpSystem
{
  public:
    /**
     * @param cores number of cores
     * @param quantum instructions each core runs per scheduling turn;
     *        small quanta (the default) interleave the cores' misses
     *        at near-single-miss granularity, as concurrent execution
     *        does
     */
    CmpSystem(const SimConfig &cfg, const PrefetcherParams &pf,
              unsigned cores, std::uint64_t quantum = 100);

    /** As above, but adopt @p prefetcher, already built from @p pf
     * (see the matching Simulator constructor). */
    CmpSystem(const SimConfig &cfg, const PrefetcherParams &pf,
              std::unique_ptr<Prefetcher> prefetcher, unsigned cores,
              std::uint64_t quantum = 100);

    /**
     * Run all cores, interleaved, for @p warm then @p measure
     * instructions per core.
     *
     * Fails with StatusCode::Stalled (message carrying the offending
     * core's progress diagnostic) if the configured forward-progress
     * watchdog trips on any core.
     *
     * @param sources one trace source per core
     */
    StatusOr<CmpResults> tryRun(std::vector<TraceSource *> &sources,
                                std::uint64_t warm,
                                std::uint64_t measure);

    /** As tryRun(), but a watchdog trip is fatal. */
    CmpResults run(std::vector<TraceSource *> &sources,
                   std::uint64_t warm, std::uint64_t measure);

    /**
     * Run only the warm-up phase (tryRun() is runWarm() +
     * runMeasure()); lets callers checkpoint or restore the warm
     * state between the two.
     */
    Status runWarm(std::vector<TraceSource *> &sources,
                   std::uint64_t warm);

    /** Reset measurement statistics, run the measurement phase, and
     * aggregate the results. */
    StatusOr<CmpResults> runMeasure(std::vector<TraceSource *> &sources,
                                    std::uint64_t measure);

    /** Identity hash of (SimConfig, prefetcher params, core count). */
    std::uint64_t configFingerprint() const;

    /** Serialize the complete mutable state: every core, every L1
     * port, the shared L2 side, memory, the prefetcher, the
     * interleaving RNG, and each source's cursor. */
    StatusOr<std::string>
    serializeCheckpoint(std::vector<TraceSource *> &sources);

    /** serializeCheckpoint() + atomic write. */
    Status saveCheckpoint(const std::string &path,
                          std::vector<TraceSource *> &sources);

    /** Restore from a serialized buffer; coded Status on corruption,
     * version skew or configuration mismatch. */
    Status restoreCheckpoint(const std::string &buffer,
                             std::vector<TraceSource *> &sources);

    /** Read @p path and restore from it. */
    Status restoreCheckpointFile(const std::string &path,
                                 std::vector<TraceSource *> &sources);

    /** Attach lifecycle tracing (observation only, shared L2 side). */
    void attachTraceLog(TraceLog &log) { l2side_->attachTraceLog(log); }

    /** Trace-read policy name carried into watchdog diagnostics. */
    void setTracePolicyName(std::string name)
    {
        tracePolicyName_ = std::move(name);
    }

    /**
     * Configure invariant auditing across all cores and the shared
     * L2 side; semantics as Simulator::configureAudit. Each core's
     * retire hook and the shared epoch hook drive one Auditor.
     */
    Status configureAudit(const AuditOptions &opts);

    /** The attached auditor, or nullptr when auditing is off. */
    Auditor *auditor() { return auditor_.get(); }

    /** Audit summary as rendered JSON ("" when auditing is off). */
    std::string
    auditSummaryJson() const
    {
        return auditor_ ? auditor_->summaryJson() : std::string();
    }

    /** JSON form of the last watchdog diagnostic ("" if none). */
    const std::string &lastDiagnosticJson() const
    {
        return lastDiagnosticJson_;
    }

    unsigned cores() const { return cores_; }
    CoreModel &core(unsigned i) { return *coreModels_[i]; }
    L2Subsystem &l2side() { return *l2side_; }
    Prefetcher &prefetcher() { return *prefetcher_; }

  private:
    Status runPhase(std::vector<TraceSource *> &sources,
                    std::uint64_t insts_per_core);

    SimConfig cfg_;
    PrefetcherParams pf_;
    unsigned cores_;
    std::uint64_t quantum_;
    std::string tracePolicyName_;
    std::string lastDiagnosticJson_;
    Pcg32 rng_{0xc3b0};
    std::unique_ptr<Auditor> auditor_;
    MainMemory mem_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<L2Subsystem> l2side_;
    std::vector<std::unique_ptr<Hierarchy>> ports_;
    std::vector<std::unique_ptr<CoreModel>> coreModels_;
};

/**
 * Convenience: run a CMP where every core executes an independent
 * instance (different seed) of the named workload.
 */
CmpResults runCmp(const SimConfig &cfg, const PrefetcherParams &pf,
                  const std::string &workload, unsigned cores,
                  std::uint64_t warm, std::uint64_t measure);

/**
 * Fold a CMP aggregate into the single-run SimResults shape the sweep
 * tables and the stats.json schema consume; per-core breakdowns stay
 * a CmpResults concern.
 */
SimResults foldCmpResults(const CmpResults &cmp);

} // namespace ebcp

#endif // EBCP_SIM_CMP_SYSTEM_HH
