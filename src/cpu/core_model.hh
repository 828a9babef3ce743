/**
 * @file
 * One-pass out-of-order core timing model.
 *
 * Each dynamic instruction is assigned fetch / dispatch / issue /
 * complete / retire ticks in a single pass over the trace. The model
 * captures exactly the mechanisms the epoch MLP model (Section 2.1)
 * depends on:
 *
 *  - off-chip misses overlap only within the instruction window
 *    (ROB / issue-queue / store-buffer capacity constraints),
 *  - register dependences serialize dependent misses (pointer chasing
 *    yields one miss per epoch; independent scans yield several),
 *  - the paper's window-termination conditions all emerge naturally:
 *    ROB/IQ full, serializing instructions, mispredicted branches that
 *    depend on an off-chip miss, and off-chip instruction misses.
 *
 * The style of model (interval / one-pass) trades cycle-exactness for
 * speed; relative prefetcher behaviour -- which misses overlap, how
 * many epochs execution splits into -- is preserved.
 */

#ifndef EBCP_CPU_CORE_MODEL_HH
#define EBCP_CPU_CORE_MODEL_HH

#include <array>
#include <chrono>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_config.hh"
#include "cpu/mem_iface.hh"
#include "cpu/trace.hh"
#include "cpu/width_limiter.hh"
#include "stats/group.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

class AuditContext;
class Auditor;

/** Timing assigned to one instruction (exposed for tests). */
struct InstTiming
{
    Tick fetch = 0;
    Tick dispatch = 0;
    Tick issue = 0;
    Tick complete = 0;
    Tick retire = 0;
    bool offChip = false;
};

/** The out-of-order core. */
class CoreModel
{
  public:
    CoreModel(const CoreConfig &cfg, MemSystem &mem);

    /** Process one instruction; @return its timing. */
    InstTiming process(const TraceRecord &rec);

    /** Run @p count instructions from @p src. With a wall deadline
     * armed, execution proceeds in ~8k-instruction chunks with a
     * clock check between chunks; otherwise it is a single
     * uninterrupted pass with zero deadline cost. */
    void run(TraceSource &src, std::uint64_t count);

    /**
     * Mark the end of warm-up: subsequent CPI queries report only the
     * instructions processed after this call.
     */
    void beginMeasurement();

    /** Instructions processed since beginMeasurement(). */
    std::uint64_t measuredInsts() const { return insts_ - instMark_; }

    /** Cycles elapsed since beginMeasurement(). */
    Tick
    measuredCycles() const
    {
        return lastRetire_ > tickMark_ ? lastRetire_ - tickMark_ : 0;
    }

    /** Overall CPI of the measurement window. */
    double
    cpi() const
    {
        return measuredInsts()
                   ? static_cast<double>(measuredCycles()) / measuredInsts()
                   : 0.0;
    }

    Tick now() const { return lastRetire_; }
    std::uint64_t instCount() const { return insts_; }

    /**
     * Arm the forward-progress watchdog: run() stops (and
     * watchdogTripped() turns true) once consecutive retirements are
     * more than @p max_retire_gap ticks apart. In this one-pass model
     * every instruction retires eventually, so a liveness bug in the
     * timing machinery (leaked MSHR, wedged channel) manifests as an
     * unbounded tick jump between retirements -- exactly what this
     * detects. 0 disables.
     */
    void setWatchdog(Tick max_retire_gap)
    {
        watchdogLimit_ = max_retire_gap;
    }

    bool watchdogTripped() const { return watchdogTripped_; }

    /** The retire gap that tripped the watchdog. */
    Tick watchdogGap() const { return watchdogGap_; }

    /**
     * Arm an absolute wall-clock deadline. Once it passes, run()
     * stops through the watchdog-trip path (watchdogTripped() turns
     * true with a zero gap and wallDeadlineTripped() set), so the
     * caller gets the same Stalled status + diagnostic a liveness
     * failure would produce. The check runs once every few thousand
     * instructions, so an unarmed deadline costs nothing and an armed
     * one costs one clock read per ~8k instructions. Run-scoped like
     * watchdog arming: not part of checkpointed state.
     */
    void
    setWallDeadline(std::chrono::steady_clock::time_point deadline)
    {
        wallDeadline_ = deadline;
        wallDeadlineArmed_ = true;
    }

    void clearWallDeadline() { wallDeadlineArmed_ = false; }

    /** True when the last trip came from the wall deadline, not a
     * retire gap. */
    bool wallDeadlineTripped() const { return wallDeadlineTripped_; }

    /** ROB entries retiring after tick @p t (watchdog diagnostics:
     * pass the last healthy retire tick to see what was in flight
     * across the stall). */
    unsigned robOccupancyAfter(Tick t) const;

    BranchPredictor &branchPredictor() { return bp_; }
    StatGroup &stats() { return stats_; }

    /**
     * Attach the invariant auditor. When set, run() fires the
     * retire-cadence hook after each instruction and screens each
     * trace record with recordAuditError(). Audit-disabled builds
     * compile both out; a null pointer is always legal.
     */
    void setAuditor(Auditor *aud) { auditor_ = aud; }

    /** Records flagged by recordAuditError() (auditor attached). */
    std::uint64_t malformedRecords() const { return malformedRecords_; }

    /**
     * Re-derive window invariants from the retirement state: the ROB
     * ring is age-ordered up to its newest entry (== the last retire,
     * which nothing in flight may outlive), the ring cursors agree
     * with the dispatch sequence numbers, and no screened trace record
     * was malformed.
     */
    void audit(AuditContext &ctx) const;

    /** Test-only: break ROB age order so audit() trips. */
    void corruptForTest();

    /** Serialize or restore all mutable timing state (checkpointing).
     * Watchdog arming and the attached auditor are run-scoped, not
     * state, and are left alone. */
    void ckpt(ckpt::Archiver &ar);

  private:
    /** Wrap a ring cursor (cheaper than % on a runtime size). */
    static std::size_t
    bump(std::size_t i, std::size_t size)
    {
        return ++i == size ? 0 : i;
    }

    CoreConfig cfg_;
    MemSystem &mem_;
    Addr lineBytes_; //!< cached mem_.lineBytes() (virtual call)
    BranchPredictor bp_;

    // Per-architectural-register ready times.
    std::array<Tick, NumArchRegs> regReady_{};

    // Window resources, as rings of the tick at which entry (i - size)
    // frees. The *Idx_ cursors track seq % size without the per-
    // instruction division.
    std::vector<Tick> robRetire_;
    std::vector<Tick> iqIssue_;
    std::vector<Tick> sbDrain_;
    std::vector<Tick> lbComplete_;
    std::size_t robIdx_ = 0;
    std::size_t iqIdx_ = 0;
    std::size_t sbIdx_ = 0;
    std::size_t lbIdx_ = 0;
    std::uint64_t seq_ = 0;      //!< dispatched instruction count
    std::uint64_t storeSeq_ = 0; //!< dispatched store count
    std::uint64_t loadSeq_ = 0;  //!< dispatched load count

    WidthLimiter fetchLim_;
    WidthLimiter dispatchLim_;
    WidthLimiter retireLim_;
    WidthLimiter aluLim_;
    WidthLimiter lsuLim_;
    WidthLimiter brLim_;
    WidthLimiter fpAddLim_;
    WidthLimiter fpMulLim_;

    // Fetch state.
    Addr fetchLine_ = InvalidAddr;
    Tick fetchLineReady_ = 0;
    Tick fetchResume_ = 0; //!< earliest fetch after redirects/stalls

    Tick lastRetire_ = 0;
    Tick serializeBarrier_ = 0; //!< dispatch floor after a serializer

    std::uint64_t insts_ = 0;
    std::uint64_t instMark_ = 0;
    Tick tickMark_ = 0;

    Tick watchdogLimit_ = 0; //!< max retire-to-retire gap; 0 = off
    Tick watchdogGap_ = 0;
    bool watchdogTripped_ = false;

    /** The deadline-free retirement loop behind run(). */
    void runBounded(TraceSource &src, std::uint64_t count);

    std::chrono::steady_clock::time_point wallDeadline_{};
    bool wallDeadlineArmed_ = false;
    bool wallDeadlineTripped_ = false;

    Auditor *auditor_ = nullptr;
    std::uint64_t malformedRecords_ = 0;

    StatGroup stats_;
    Scalar loads_{"loads", "load instructions"};
    Scalar stores_{"stores", "store instructions"};
    Scalar branches_{"branches", "control instructions"};
    Scalar offChipLoads_{"offchip_loads", "loads serviced off chip"};
    Scalar offChipFetches_{"offchip_fetches",
                           "instruction lines fetched off chip"};
    Scalar serializers_{"serializers", "serializing instructions"};
};

} // namespace ebcp

#endif // EBCP_CPU_CORE_MODEL_HH
