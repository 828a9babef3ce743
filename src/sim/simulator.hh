/**
 * @file
 * Top-level simulator: wires core, hierarchy, memory and prefetcher,
 * runs the warm-up and measurement windows, and reports SimResults.
 */

#ifndef EBCP_SIM_SIMULATOR_HH
#define EBCP_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "cpu/core_model.hh"
#include "mem/main_memory.hh"
#include "sim/hierarchy.hh"
#include "sim/l2_subsystem.hh"
#include "sim/prefetcher_factory.hh"
#include "sim/results.hh"
#include "sim/sim_config.hh"
#include "stats/interval.hh"
#include "util/event_trace.hh"
#include "util/status.hh"

namespace ebcp
{

/** A complete simulated system. */
class Simulator
{
  public:
    Simulator(const SimConfig &cfg, const PrefetcherParams &pf);

    /** As above, but adopt @p prefetcher, already built from @p pf
     * (e.g. by tryCreatePrefetcher(), so a caller can turn a bad name
     * into a coded error without building the engine twice). */
    Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
              std::unique_ptr<Prefetcher> prefetcher);

    /**
     * Warm caches and predictors for @p warm_insts instructions, then
     * measure for @p measure_insts.
     *
     * Fails with StatusCode::Stalled -- the message carrying a full
     * progress diagnostic (ROB/MSHR/channel/EMAB state) -- if the
     * configured forward-progress watchdog trips in either window.
     */
    StatusOr<SimResults> tryRun(TraceSource &src,
                                std::uint64_t warm_insts,
                                std::uint64_t measure_insts);

    /** As tryRun(), but a watchdog trip is fatal. */
    SimResults run(TraceSource &src, std::uint64_t warm_insts,
                   std::uint64_t measure_insts);

    /**
     * Run only the warm-up window. tryRun() is exactly
     * runWarm() + runMeasure(); the split exists so a caller can
     * checkpoint the warm state (or restore one) between the two.
     */
    Status runWarm(TraceSource &src, std::uint64_t warm_insts);

    /**
     * Reset measurement statistics and run the measurement window.
     * Warm state must already be in place, either from runWarm() or
     * from restoreCheckpoint().
     */
    StatusOr<SimResults> runMeasure(TraceSource &src,
                                    std::uint64_t measure_insts);

    /** Collect results for the instructions since beginMeasurement(). */
    SimResults collect();

    /**
     * Identity hash of this simulator's configuration (SimConfig +
     * prefetcher parameters); embedded in every checkpoint and
     * verified on restore.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Serialize the complete mutable state -- every component plus
     * @p src's read cursor -- into the versioned checkpoint container.
     */
    StatusOr<std::string> serializeCheckpoint(TraceSource &src);

    /** serializeCheckpoint() + atomic write (temp + fsync + rename). */
    Status saveCheckpoint(const std::string &path, TraceSource &src);

    /**
     * Restore state from a serialized checkpoint buffer. Fails with a
     * coded Status (never UB) on corruption, version skew, or a
     * fingerprint from a different configuration; the simulator is
     * left unspecified-but-destructible on failure, so callers either
     * propagate the error or rebuild from scratch.
     */
    Status restoreCheckpoint(const std::string &buffer, TraceSource &src);

    /** Read @p path and restore from it. */
    Status restoreCheckpointFile(const std::string &path,
                                 TraceSource &src);

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
     * Attach an interval sampler (nullptr detaches). With a sampler,
     * the measurement window runs in interval-sized chunks and the
     * sampler snapshots at each exact boundary plus the final
     * (possibly partial) one. Chunked driving is bit-exact vs one
     * run() call: the core re-derives its loop state from members.
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
     * epoch-id monotonicity) and wires the retire/epoch hooks.
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

    CoreModel &core() { return *core_; }
    Hierarchy &hierarchy() { return *hier_; }
    L2Subsystem &l2side() { return *l2side_; }
    MainMemory &memory() { return mem_; }
    Prefetcher &prefetcher() { return *prefetcher_; }

    /** Dump every statistic group (examples / debugging). */
    void dumpStats(std::ostream &os);

  private:
    /** Build the Stalled status + JSON diagnostic for a trip. */
    Status stallStatus();

    /** Record one sample of every counter track into traceLog_. */
    void sampleCounterTracks();

    SimConfig cfg_;
    PrefetcherParams pf_;
    MainMemory mem_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<L2Subsystem> l2side_;
    std::unique_ptr<Hierarchy> hier_;
    std::unique_ptr<CoreModel> core_;

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

} // namespace ebcp

#endif // EBCP_SIM_SIMULATOR_HH
