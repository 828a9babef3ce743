/**
 * @file
 * The simulation driver: N >= 1 cores, each with private L1s and its
 * own trace source, in front of one shared L2, prefetch buffer,
 * prefetcher control and memory system -- Figure 2's arrangement. It
 * runs the warm-up and measurement windows and reports SimResults.
 *
 * With several cores, the cores are interleaved in small jittered
 * instruction quanta, which approximates concurrent execution closely
 * enough for the behaviours of interest (the paper's Section 6 future
 * work):
 *
 *  - the shared prefetcher control still sees each core's L1 miss
 *    requests *with the core id* (it sits in front of the crossbar),
 *    so an epoch-based prefetcher can keep per-core EMABs;
 *  - anything observing only the stream of requests that reach main
 *    memory (a memory-side scheme like Solihin's) sees the cores'
 *    miss streams interleaved, which destroys its correlation -- the
 *    paper's Section 3.3.1 argument.
 */

#ifndef EBCP_SIM_SIMULATOR_HH
#define EBCP_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "mem/main_memory.hh"
#include "sim/hierarchy.hh"
#include "sim/l2_subsystem.hh"
#include "sim/prefetcher_factory.hh"
#include "sim/results.hh"
#include "sim/sim_config.hh"
#include "stats/interval.hh"
#include "util/event_trace.hh"
#include "util/random.hh"
#include "util/status.hh"

namespace ebcp
{

/**
 * Results of a run: the whole-system SimResults (insts summed over
 * the cores, cycles of the slowest core, CPI weighted by instructions)
 * plus each core's own insts, cycles and CPI.
 */
struct CmpResults : SimResults
{
    std::vector<SimResults> perCore;
};

/** A complete simulated system of one or more cores. */
class Simulator
{
  public:
    Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
              unsigned cores = 1);

    /** As above, but adopt @p prefetcher, already built from @p pf
     * (e.g. by tryCreatePrefetcher(), so a caller can turn a bad name
     * into a coded error without building the engine twice). */
    Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
              std::unique_ptr<Prefetcher> prefetcher, unsigned cores = 1);

    /**
     * Warm caches and predictors for @p warm_insts instructions per
     * core, then measure for @p measure_insts per core.
     *
     * @param sources one trace source per core
     *
     * Fails with StatusCode::Stalled -- the message carrying a full
     * progress diagnostic (ROB/MSHR/channel/EMAB state) -- if the
     * configured forward-progress watchdog trips on any core.
     */
    StatusOr<CmpResults> tryRun(const std::vector<TraceSource *> &sources,
                                std::uint64_t warm_insts,
                                std::uint64_t measure_insts);

    /** As tryRun(), but a watchdog trip is fatal. */
    CmpResults run(const std::vector<TraceSource *> &sources,
                   std::uint64_t warm_insts, std::uint64_t measure_insts);

    /**
     * Run only the warm-up window. tryRun() is exactly
     * runWarm() + runMeasure(); the split exists so a caller can
     * checkpoint the warm state (or restore one) between the two.
     */
    Status runWarm(const std::vector<TraceSource *> &sources,
                   std::uint64_t warm_insts);

    /**
     * Reset measurement statistics and run the measurement window.
     * Warm state must already be in place, either from runWarm() or
     * from restoreCheckpoint().
     */
    StatusOr<CmpResults> runMeasure(const std::vector<TraceSource *> &sources,
                                    std::uint64_t measure_insts);

    // Single-core conveniences: the calls above with one source.
    StatusOr<SimResults> tryRun(TraceSource &src, std::uint64_t warm_insts,
                                std::uint64_t measure_insts);
    SimResults run(TraceSource &src, std::uint64_t warm_insts,
                   std::uint64_t measure_insts);
    Status
    runWarm(TraceSource &src, std::uint64_t warm_insts)
    {
        return runWarm({&src}, warm_insts);
    }
    StatusOr<SimResults> runMeasure(TraceSource &src,
                                    std::uint64_t measure_insts);

    /** Collect results for the instructions since the measurement
     * window began. */
    CmpResults collect();

    /**
     * Identity hash of this simulator's configuration (SimConfig,
     * prefetcher parameters, core count); embedded in every checkpoint
     * and verified on restore.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Serialize the complete mutable state -- every core, every L1
     * port, the shared L2 side, memory, the prefetcher, the
     * interleaving RNG and each source's read cursor -- into the
     * versioned checkpoint container.
     */
    StatusOr<std::string>
    serializeCheckpoint(const std::vector<TraceSource *> &sources);

    /** serializeCheckpoint() + atomic write (temp + fsync + rename). */
    Status saveCheckpoint(const std::string &path,
                          const std::vector<TraceSource *> &sources);

    /**
     * Restore state from a serialized checkpoint buffer. Fails with a
     * coded Status (never UB) on corruption, version skew, or a
     * fingerprint from a different configuration; the simulator is
     * left unspecified-but-destructible on failure, so callers either
     * propagate the error or rebuild from scratch.
     */
    Status restoreCheckpoint(const std::string &buffer,
                             const std::vector<TraceSource *> &sources);

    /** Read @p path and restore from it. */
    Status restoreCheckpointFile(const std::string &path,
                                 const std::vector<TraceSource *> &sources);

    // Single-core conveniences for the checkpoint calls.
    StatusOr<std::string>
    serializeCheckpoint(TraceSource &src)
    {
        return serializeCheckpoint({&src});
    }
    Status
    saveCheckpoint(const std::string &path, TraceSource &src)
    {
        return saveCheckpoint(path, {&src});
    }
    Status
    restoreCheckpoint(const std::string &buffer, TraceSource &src)
    {
        return restoreCheckpoint(buffer, {&src});
    }
    Status
    restoreCheckpointFile(const std::string &path, TraceSource &src)
    {
        return restoreCheckpointFile(path, {&src});
    }

    /**
     * Attach lifecycle event tracing (must outlive the simulator).
     * Observation only: SimResults are bit-identical with or without
     * a log attached. With both a log and a sampler attached, the
     * measurement loop additionally records occupancy counter tracks
     * (MSHRs, prefetch buffer, correlation-table fill, per-source
     * ledger accuracy, channel backlog) at each sampler boundary.
     */
    void
    attachTraceLog(TraceLog &log)
    {
        traceLog_ = &log;
        l2side_->attachTraceLog(log);
    }

    /**
     * Attach an interval sampler (nullptr detaches). With one core,
     * the measurement window runs in interval-sized chunks and the
     * sampler snapshots at each exact boundary plus the final
     * (possibly partial) one; chunked driving is bit-exact vs one
     * run() call, as the core re-derives its loop state from members.
     * With several cores the interleaving schedule is unchanged and
     * the sampler snapshots at the end of the first round in which
     * every core has passed the boundary.
     */
    void setSampler(IntervalSampler *sampler) { sampler_ = sampler; }

    /** Trace-read policy name carried into watchdog diagnostics. */
    void setTracePolicyName(std::string name)
    {
        tracePolicyName_ = std::move(name);
    }

    /**
     * Configure invariant auditing. Cadence Off detaches any auditor.
     * Registers every stateful component plus the cross-component
     * checks (table-traffic conservation, table-read latency bound,
     * epoch-id monotonicity) and wires every core's retire hook and
     * the shared epoch hook to one Auditor.
     *
     * Audits read state only, so results are bit-identical with
     * auditing on or off. In a -DEBCP_AUDIT=OFF build any cadence
     * other than Off is an InvalidArgument error: a build without
     * hook sites must not pretend it audited.
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

    /**
     * JSON form of the last watchdog diagnostic ("" if no stall
     * happened). Drivers embed this in stats.json.
     */
    const std::string &lastDiagnosticJson() const
    {
        return lastDiagnosticJson_;
    }

    /** Dump every statistic group as one JSON object value. */
    void dumpStatsJson(JsonWriter &w);

    /** Dump every statistic group (examples / debugging). */
    void dumpStats(std::ostream &os);

    unsigned cores() const { return static_cast<unsigned>(cores_.size()); }
    CoreModel &core(unsigned i = 0) { return *cores_[i]; }
    Hierarchy &hierarchy(unsigned i = 0) { return *ports_[i]; }
    L2Subsystem &l2side() { return *l2side_; }
    MainMemory &memory() { return mem_; }
    Prefetcher &prefetcher() { return *prefetcher_; }

  private:
    /** Run every core for @p insts_per_core instructions; see
     * setSampler() for how @p sampler is driven. */
    Status runPhase(const std::vector<TraceSource *> &sources,
                    std::uint64_t insts_per_core,
                    IntervalSampler *sampler);

    using SectionFill = std::function<void(ckpt::Archiver &)>;

    /** Offer every checkpoint section, in write order, to @p visit;
     * stops at the first failure. */
    Status ckptSections(
        const std::vector<TraceSource *> &sources,
        const std::function<Status(const std::string &,
                                   const SectionFill &)> &visit);

    /** The latest retire tick over all cores. */
    Tick now() const;

    /** Build the Stalled status + JSON diagnostic for a trip on
     * core @p i, @p wall_seconds into the phase. */
    Status stallStatus(unsigned i, double wall_seconds);

    /** Record one sample of every counter track into traceLog_. */
    void sampleCounterTracks();

    /** Instructions each core runs per turn, on average, when several
     * cores interleave. Small quanta interleave the cores' misses at
     * near-single-miss granularity, as concurrent execution does. */
    static constexpr std::uint32_t kQuantum = 100;

    SimConfig cfg_;
    PrefetcherParams pf_;
    MainMemory mem_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<L2Subsystem> l2side_;
    std::vector<std::unique_ptr<Hierarchy>> ports_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    Pcg32 rng_{0xc3b0}; //!< interleaving schedule (several cores only)

    IntervalSampler *sampler_ = nullptr;
    TraceLog *traceLog_ = nullptr;
    std::unique_ptr<Auditor> auditor_;
    std::string tracePolicyName_;
    std::string lastDiagnosticJson_;

    Tick readBusyMark_ = 0;
    Tick writeBusyMark_ = 0;
};

/**
 * Convenience: run @p src on configuration @p cfg with prefetcher
 * @p pf and return the measured results.
 */
SimResults runOnce(const SimConfig &cfg, const PrefetcherParams &pf,
                   TraceSource &src, std::uint64_t warm_insts,
                   std::uint64_t measure_insts);

/**
 * Convenience: run @p cores cores, each executing an independent
 * instance of the named workload (seeds 1000, 1001, ...).
 */
CmpResults runCmp(const SimConfig &cfg, const PrefetcherParams &pf,
                  const std::string &workload, unsigned cores,
                  std::uint64_t warm, std::uint64_t measure);

/** The whole-system SimResults of @p cmp, without the per-core
 * breakdown (the shape the sweep tables and stats.json consume). */
inline SimResults
foldCmpResults(const CmpResults &cmp)
{
    return cmp;
}

} // namespace ebcp

#endif // EBCP_SIM_SIMULATOR_HH
