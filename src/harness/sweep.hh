/**
 * @file
 * Parallel sweep engine: a fixed-size thread pool that executes a
 * list of RunDescs and returns per-run results in submission order.
 *
 * Guarantees (see tests/test_runner.cc):
 *
 *  - determinism: each run's SimResults are a pure function of its
 *    descriptor, so a sweep is bit-identical at jobs=1 and jobs=N;
 *  - isolation: each run builds its own Simulator and trace
 *    sources; a faulted run (watchdog stall, bad descriptor) yields a
 *    non-OK per-run Status without aborting or perturbing the rest of
 *    the sweep;
 *  - ordering: results[i] always corresponds to descs[i], regardless
 *    of which worker finished first.
 *
 * Durability (SweepOptions, see DESIGN.md and README "Checkpoint &
 * resume"):
 *
 *  - warm-state reuse: descriptors sharing a warm fingerprint (same
 *    workload/seed/core count/config/prefetcher/warm window), at any
 *    core count, build one warm checkpoint and fork every measurement
 *    from it; forked results are bit-identical to cold runs
 *    (golden-pinned);
 *  - journal: finished runs append one CRC'd JSON line keyed by the
 *    descriptor fingerprint, so a killed sweep resumes with only the
 *    unfinished descriptors and the merged results are bit-identical;
 *  - retry: failed runs retry up to RetryPolicy::maxAttempts with
 *    deterministic exponential backoff + jitter;
 *  - timeout: a per-run wall-clock budget trips the forward-progress
 *    watchdog path, so a wedged run fails with the usual Stalled
 *    diagnostic instead of hanging the sweep;
 *  - degradation: a corrupt or version-skewed warm checkpoint follows
 *    CkptPolicy -- Strict fails the run with the coded Status,
 *    Rebuild logs a structured warning and falls back to a cold
 *    warm-up; the sweep itself never aborts.
 *
 * Every paper bench (Figures 4-9, Table 1, extensions) funnels its
 * (workload x config) grid through this engine; see bench_common.hh
 * for the bench-side convenience wrapper.
 */

#ifndef EBCP_HARNESS_SWEEP_HH
#define EBCP_HARNESS_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "harness/run_desc.hh"
#include "sim/api.hh"
#include "trace/fault_injection.hh"
#include "util/status.hh"

namespace ebcp::harness
{

/** Outcome of one run: a Status plus, when OK, the results. */
struct RunResult
{
    Status status;
    SimResults results; //!< valid only when status.ok()

    unsigned attempts = 1;   //!< execution attempts consumed
    bool fromJournal = false; //!< replayed from the sweep journal
    bool warmForked = false;  //!< measured from a warm checkpoint
    bool coldFallback = false; //!< warm restore failed; ran cold

    bool ok() const { return status.ok(); }
};

/** Bounded deterministic retry of failed runs. */
struct RetryPolicy
{
    /** Total attempts per run (1 = no retry). */
    unsigned maxAttempts = 1;

    /** Backoff before attempt n+1: baseDelayMs * 2^(n-1), capped at
     * maxDelayMs, then jittered down to half deterministically. */
    std::uint64_t baseDelayMs = 50;
    std::uint64_t maxDelayMs = 2'000;

    /** Jitter seed; fixed seed => bit-identical backoff schedule. */
    std::uint64_t seed = 1;

    /** When false the delay is accounted but not slept (tests). */
    bool sleep = true;
};

/**
 * The backoff before retrying @p run_key's attempt @p attempt + 1:
 * exponential in the attempt number, capped, with deterministic
 * per-run jitter in [delay/2, delay]. A pure function of its
 * arguments, so a fixed policy seed fixes the whole schedule.
 */
std::uint64_t retryBackoffMs(const RetryPolicy &policy,
                             std::uint64_t run_key, unsigned attempt);

/**
 * @return true when retrying @p s could plausibly succeed. Bad input
 * (InvalidArgument, NotFound) is deterministic and never retried;
 * everything else (IoError, Corruption, Stalled, audit trips) is.
 */
bool statusRetryable(const Status &s);

/** Durability knobs for SweepRunner; the default is the historical
 * behaviour (no journal, no reuse, no retry, no timeout). */
struct SweepOptions
{
    /** Build one warm checkpoint per warm fingerprint and fork the
     * measurement of every matching run from it. */
    bool warmReuse = false;

    /** What a corrupt/skewed warm checkpoint does to the run. */
    ckpt::CkptPolicy ckptPolicy = ckpt::CkptPolicy::Rebuild;

    RetryPolicy retry;

    /** Per-run wall-clock budget in seconds; 0 disables. Trips the
     * watchdog path, so the run fails Stalled with a diagnostic. */
    double runTimeoutSeconds = 0.0;

    /** JSON-lines journal path; empty disables. With a journal, runs
     * already recorded are replayed instead of re-executed. */
    std::string journalPath;

    /** JSON-lines telemetry stream path; empty disables. See
     * harness/telemetry.hh for the record contract (deterministic
     * submission-order records plus live progress records). */
    std::string telemetryPath;

    /** Prometheus text-exposition snapshot path; empty disables. The
     * file is atomically rewritten on each heartbeat and once more,
     * with ebcp_sweep_done=1, at completion. */
    std::string metricsPath;

    /** Heartbeat cadence in seconds for live telemetry records and
     * metrics snapshots; <= 0 disables the heartbeat thread. */
    double heartbeatSeconds = 1.0;
};

/**
 * Identity hash of everything that shapes @p d's results: workload,
 * seed, core count, both window sizes, the full SimConfig and the
 * full prefetcher parameter set. The journal key. The display label
 * is deliberately excluded.
 */
std::uint64_t descFingerprint(const RunDesc &d);

/** As descFingerprint() but without the measurement window: two runs
 * sharing it reach the identical warm state, so one checkpoint
 * serves both. */
std::uint64_t warmFingerprint(const RunDesc &d);

/** Aggregate accounting of one sweep execution. */
struct SweepStats
{
    std::size_t launched = 0;  //!< descriptors submitted
    std::size_t completed = 0; //!< runs that returned OK
    std::size_t failed = 0;    //!< runs that returned a non-OK Status
    unsigned jobs = 1;         //!< worker threads used
    double wallSeconds = 0.0;

    /** Instructions measured across successful runs (warm excluded). */
    std::uint64_t measuredInsts = 0;

    std::size_t resumed = 0;       //!< runs replayed from the journal
    std::size_t retries = 0;       //!< extra attempts performed
    std::size_t warmBuilds = 0;    //!< warm checkpoints built
    std::size_t warmForks = 0;     //!< runs forked from a warm ckpt
    std::size_t coldFallbacks = 0; //!< warm restores degraded to cold
    std::uint64_t backoffMsTotal = 0; //!< backoff accounted (all runs)
    std::size_t journalSkipped = 0;   //!< damaged journal lines

    /** Aggregate simulation throughput over the sweep's wall clock. */
    double instsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(measuredInsts) / wallSeconds
                   : 0.0;
    }
};

/**
 * Execute one descriptor in isolation. Bad workload / prefetcher
 * names, watchdog stalls and uncaught exceptions come back as the
 * Status; the simulation itself runs exactly as the serial
 * runOnce()/runCmp() paths would.
 */
RunResult executeRun(const RunDesc &d);

/** The default worker count: hardware concurrency, at least 1. */
unsigned defaultJobs();

/** Fixed-size thread-pool executor for run descriptors. */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 selects defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0, SweepOptions opts = {});

    /**
     * Execute every descriptor and return results in submission
     * order. Never throws and never aborts on a failed run; inspect
     * each RunResult::status. Also refreshes stats().
     */
    std::vector<RunResult> run(const std::vector<RunDesc> &descs);

    /** Accounting for the most recent run(). */
    const SweepStats &stats() const { return stats_; }

    unsigned jobs() const { return jobs_; }
    const SweepOptions &options() const { return opts_; }

    /**
     * Test hook: damage every warm checkpoint right after it is
     * built, so forked runs exercise the CkptPolicy degradation path
     * (Strict => coded per-run failure, Rebuild => cold fallback).
     */
    void
    corruptWarmCacheForTest(CkptFaultKind kind, std::uint64_t seed)
    {
        corruptWarm_ = true;
        corruptKind_ = kind;
        corruptSeed_ = seed;
    }

  private:
    unsigned jobs_;
    SweepOptions opts_;
    SweepStats stats_;

    bool corruptWarm_ = false;
    CkptFaultKind corruptKind_ = CkptFaultKind::CrcFlip;
    std::uint64_t corruptSeed_ = 1;
};

} // namespace ebcp::harness

#endif // EBCP_HARNESS_SWEEP_HH
