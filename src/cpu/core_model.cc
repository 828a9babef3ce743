#include "cpu/core_model.hh"

#include <algorithm>
#include <chrono>

#include "ckpt/containers.hh"
#include "cpu/decode_ahead.hh"
#include "util/bitfield.hh"
#include "verify/audit.hh"

namespace ebcp
{

CoreModel::CoreModel(const CoreConfig &cfg, MemSystem &mem)
    : cfg_(cfg), mem_(mem), lineBytes_(mem.lineBytes()),
      bp_(cfg.branchPred),
      robRetire_(cfg.robEntries, 0),
      iqIssue_(cfg.issueQueueEntries, 0),
      sbDrain_(cfg.storeBufferEntries, 0),
      lbComplete_(cfg.loadBufferEntries, 0),
      fetchLim_(cfg.fetchWidth),
      dispatchLim_(cfg.decodeWidth),
      retireLim_(cfg.retireWidth),
      aluLim_(cfg.numAlus),
      lsuLim_(cfg.numLoadStoreUnits),
      brLim_(cfg.numBranchUnits),
      fpAddLim_(cfg.numFpAddUnits),
      fpMulLim_(cfg.numFpMulUnits),
      stats_("core")
{
    stats_.add(loads_);
    stats_.add(stores_);
    stats_.add(branches_);
    stats_.add(offChipLoads_);
    stats_.add(offChipFetches_);
    stats_.add(serializers_);
    stats_.addChild(bp_.stats());
}

InstTiming
CoreModel::process(const TraceRecord &rec)
{
    InstTiming t;

    // ------------------------------------------------------------------
    // Fetch: a new cache line is requested from the memory system; an
    // off-chip instruction miss stalls fetch entirely (window
    // termination condition).
    // ------------------------------------------------------------------
    const Addr line = alignDown(rec.pc, lineBytes_);
    if (line != fetchLine_) {
        MemOutcome o = mem_.fetchInst(rec.pc, std::max(fetchResume_,
                                                       fetchLineReady_));
        fetchLine_ = line;
        fetchLineReady_ = o.complete;
        if (o.offChip)
            ++offChipFetches_;
    }
    t.fetch = fetchLim_.next(std::max(fetchResume_, fetchLineReady_));

    // ------------------------------------------------------------------
    // Dispatch: bounded by ROB, issue queue, load/store buffers and a
    // pending serialization barrier.
    // ------------------------------------------------------------------
    Tick d = std::max(t.fetch, serializeBarrier_);
    d = std::max(d, robRetire_[robIdx_]);
    d = std::max(d, iqIssue_[iqIdx_]);
    if (rec.op == OpClass::Store)
        d = std::max(d, sbDrain_[sbIdx_]);
    if (rec.op == OpClass::Load)
        d = std::max(d, lbComplete_[lbIdx_]);
    if (rec.op == OpClass::Serialize) {
        // Serializers wait for the whole window to drain.
        d = std::max(d, lastRetire_);
        ++serializers_;
    }
    t.dispatch = dispatchLim_.next(d);

    // ------------------------------------------------------------------
    // Issue + execute.
    // ------------------------------------------------------------------
    // The < NumArchRegs bound subsumes the != NoReg check and also
    // shields the array from out-of-range register ids in records
    // from untrusted sources (corrupt traces, fault injection).
    Tick ready = t.dispatch;
    if (rec.srcReg0 < NumArchRegs)
        ready = std::max(ready, regReady_[rec.srcReg0]);
    if (rec.srcReg1 < NumArchRegs)
        ready = std::max(ready, regReady_[rec.srcReg1]);

    switch (rec.op) {
      case OpClass::Load: {
        t.issue = lsuLim_.next(ready);
        MemOutcome o = mem_.load(rec.addr, rec.pc, t.issue);
        t.complete = o.complete;
        t.offChip = o.offChip;
        ++loads_;
        if (o.offChip)
            ++offChipLoads_;
        lbComplete_[lbIdx_] = t.complete;
        lbIdx_ = bump(lbIdx_, lbComplete_.size());
        ++loadSeq_;
        break;
      }
      case OpClass::Store:
        // Address generation only; the store drains post-retire under
        // weak consistency.
        t.issue = lsuLim_.next(ready);
        t.complete = t.issue + 1;
        ++stores_;
        break;
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return: {
        t.issue = brLim_.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        ++branches_;
        const bool correct =
            bp_.predict(rec.pc, rec.op, rec.taken, rec.target);
        if (!correct) {
            // Fetch restarts after the branch resolves; a branch fed
            // by an off-chip load thus terminates the window.
            fetchResume_ = std::max(fetchResume_,
                                    t.complete + cfg_.mispredictPenalty);
        }
        break;
      }
      case OpClass::FpAdd:
        t.issue = fpAddLim_.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        break;
      case OpClass::FpMul:
        t.issue = fpMulLim_.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        break;
      case OpClass::IntAlu:
        t.issue = aluLim_.next(ready);
        t.complete = t.issue + opLatency(rec.op);
        break;
      case OpClass::Serialize:
      case OpClass::Nop:
        t.issue = ready;
        t.complete = t.issue + 1;
        break;
    }

    if (rec.dstReg < NumArchRegs)
        regReady_[rec.dstReg] = t.complete;

    // ------------------------------------------------------------------
    // Retire: in order, bounded by retire width.
    // ------------------------------------------------------------------
    t.retire = retireLim_.next(std::max(t.complete, lastRetire_));
    lastRetire_ = t.retire;

    robRetire_[robIdx_] = t.retire;
    iqIssue_[iqIdx_] = t.issue;
    robIdx_ = bump(robIdx_, robRetire_.size());
    iqIdx_ = bump(iqIdx_, iqIssue_.size());
    ++seq_;

    if (rec.op == OpClass::Store) {
        sbDrain_[sbIdx_] = mem_.store(rec.addr, t.retire);
        sbIdx_ = bump(sbIdx_, sbDrain_.size());
        ++storeSeq_;
    }
    if (rec.op == OpClass::Serialize)
        serializeBarrier_ = t.retire;

    ++insts_;
    return t;
}

void
CoreModel::run(TraceSource &src, std::uint64_t count)
{
    if (!wallDeadlineArmed_) {
        runBounded(src, count);
        return;
    }
    // Chunked execution keeps the deadline entirely off the hot
    // retirement loop: one clock read per chunk, and a run with no
    // deadline armed takes the plain path above at zero cost (the
    // perf-smoke bench enforces <2% with the deadline armed).
    constexpr std::uint64_t kDeadlineChunk = 8192;
    std::uint64_t remaining = count;
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min(kDeadlineChunk, remaining);
        const std::uint64_t before = insts_;
        runBounded(src, chunk);
        const std::uint64_t done = insts_ - before;
        remaining -= std::min(done, remaining);
        if (watchdogTripped_ || done < chunk)
            return; // tripped, or the source ran dry
        if (std::chrono::steady_clock::now() >= wallDeadline_) {
            watchdogTripped_ = true;
            wallDeadlineTripped_ = true;
            watchdogGap_ = 0;
            return;
        }
    }
}

void
CoreModel::runBounded(TraceSource &src, std::uint64_t count)
{
    // Records arrive through the decode-ahead pipe: trace decode runs
    // ahead of the retirement loop (a producer thread on multi-core
    // hosts, an inline chunk refill otherwise) and the loop reads the
    // chunk memory directly -- no per-record copy. The pipe never
    // over-pulls: over its lifetime it requests exactly `count`
    // records, so the source is left positioned as if records had
    // been pulled one at a time (except after a watchdog trip, where
    // the run is abandoned).
    DecodeAhead pipe(src, count);
    Tick prev_retire = lastRetire_;
    std::uint64_t remaining = count;
    while (remaining > 0) {
        const TraceRecord *batch = nullptr;
        const std::size_t got = pipe.acquire(
            &batch, static_cast<std::size_t>(std::min<std::uint64_t>(
                        remaining, ~std::size_t{0})));
        for (std::size_t i = 0; i < got; ++i) {
#if EBCP_AUDIT_ENABLED
            // Screen the raw record before it shapes any timing: a
            // malformed one is evidence of corruption upstream of the
            // core, surfaced by audit() rather than a crash here.
            if (auditor_ && recordAuditError(batch[i]))
                ++malformedRecords_;
#endif
            const InstTiming t = process(batch[i]);
            if (watchdogLimit_ &&
                t.retire > prev_retire + watchdogLimit_) {
                watchdogTripped_ = true;
                watchdogGap_ = t.retire - prev_retire;
                return;
            }
            prev_retire = t.retire;
            EBCP_AUDIT_RETIRE(auditor_, t.retire);
#if EBCP_AUDIT_ENABLED
            // Under the abort policy a failed pass ends the run here;
            // Simulator turns the auditor's state into a Status.
            if (auditor_ && auditor_->abortRequested())
                return;
#endif
        }
        pipe.consume(got);
        remaining -= got;
        if (got == 0)
            return; // the source ran dry
    }
}

unsigned
CoreModel::robOccupancyAfter(Tick t) const
{
    const std::uint64_t valid =
        std::min<std::uint64_t>(seq_, cfg_.robEntries);
    unsigned busy = 0;
    for (std::uint64_t i = 0; i < valid; ++i)
        if (robRetire_[i] > t)
            ++busy;
    return busy;
}

void
CoreModel::audit(AuditContext &ctx) const
{
    // The ROB ring holds the retire ticks of the last |ROB| dispatched
    // instructions; retirement is in order, so walking it oldest to
    // newest must never go backwards, and the newest entry is the last
    // retirement -- which nothing still tracked may outlive.
    const std::size_t size = robRetire_.size();
    const std::uint64_t valid = std::min<std::uint64_t>(seq_, size);
    if (valid > 0) {
        const std::size_t oldest = seq_ >= size ? robIdx_ : 0;
        bool ordered = true;
        Tick prev = 0;
        for (std::uint64_t k = 0; k < valid; ++k) {
            const Tick r = robRetire_[(oldest + k) % size];
            if (r < prev) {
                ordered = false;
                break;
            }
            prev = r;
        }
        ctx.check(ordered, "rob_age_ordered",
                  "ROB retire times decrease oldest to newest");
        const Tick newest = robRetire_[(oldest + valid - 1) % size];
        ctx.check(newest == lastRetire_, "rob_newest_is_last_retire",
                  "newest ROB entry retires at ", newest,
                  " but the last retirement was ", lastRetire_);
        ctx.check(robOccupancyAfter(lastRetire_) == 0,
                  "no_inst_outlives_last_retire",
                  robOccupancyAfter(lastRetire_),
                  " ROB entries retire after the last retirement");
    }

    // Ring cursors are sequence counters folded by the ring size; a
    // divergence means an entry was skipped or double-counted.
    ctx.check(robIdx_ == seq_ % robRetire_.size(), "rob_cursor_consistent",
              "ROB cursor ", robIdx_, " vs seq ", seq_);
    ctx.check(iqIdx_ == seq_ % iqIssue_.size(), "iq_cursor_consistent",
              "IQ cursor ", iqIdx_, " vs seq ", seq_);
    ctx.check(sbIdx_ == storeSeq_ % sbDrain_.size(), "sb_cursor_consistent",
              "store-buffer cursor ", sbIdx_, " vs store seq ", storeSeq_);
    ctx.check(lbIdx_ == loadSeq_ % lbComplete_.size(), "lb_cursor_consistent",
              "load-buffer cursor ", lbIdx_, " vs load seq ", loadSeq_);
    ctx.check(seq_ == insts_, "dispatch_matches_inst_count",
              seq_, " dispatches vs ", insts_, " instructions");
    ctx.check(storeSeq_ + loadSeq_ <= seq_, "mem_ops_within_dispatches",
              storeSeq_ + loadSeq_, " memory ops vs ", seq_, " dispatches");

    ctx.check(malformedRecords_ == 0, "trace_records_well_formed",
              malformedRecords_, " malformed trace records screened");
}

void
CoreModel::corruptForTest()
{
    if (seq_ == 0) {
        // Fabricate a lone instruction whose retirement is in the
        // future relative to lastRetire_.
        robRetire_[0] = lastRetire_ + 1000;
        iqIssue_[0] = lastRetire_ + 1000;
        seq_ = 1;
        insts_ = 1;
        robIdx_ = bump(robIdx_, robRetire_.size());
        iqIdx_ = bump(iqIdx_, iqIssue_.size());
    } else {
        // Push the newest live entry far past the last retirement:
        // breaks the newest==lastRetire_ tie and leaves an entry that
        // outlives every near-term retirement. The newest slot is the
        // last to be overwritten by subsequent dispatches, so the
        // damage also survives long enough for a cadenced mid-run
        // audit to observe it (the oldest slot, being the insertion
        // cursor, would be erased by the very next instruction).
        const std::size_t size = robRetire_.size();
        const std::size_t newest = (robIdx_ + size - 1) % size;
        robRetire_[newest] = lastRetire_ + 10'000'000;
    }
}

void
CoreModel::beginMeasurement()
{
    instMark_ = insts_;
    tickMark_ = lastRetire_;
    stats_.resetAll();
}


void
CoreModel::ckpt(ckpt::Archiver &ar)
{
    for (Tick &t : regReady_)
        ar.u64(t);
    ar.fixedVecU64(robRetire_, "ROB ring");
    ar.fixedVecU64(iqIssue_, "issue queue ring");
    ar.fixedVecU64(sbDrain_, "store buffer ring");
    ar.fixedVecU64(lbComplete_, "load buffer ring");
    ar.cursor(robIdx_, robRetire_.size(), "ROB");
    ar.cursor(iqIdx_, iqIssue_.size(), "issue queue");
    ar.cursor(sbIdx_, sbDrain_.size(), "store buffer");
    ar.cursor(lbIdx_, lbComplete_.size(), "load buffer");
    ar.u64(seq_);
    ar.u64(storeSeq_);
    ar.u64(loadSeq_);
    for (WidthLimiter *lim :
         {&fetchLim_, &dispatchLim_, &retireLim_, &aluLim_, &lsuLim_,
          &brLim_, &fpAddLim_, &fpMulLim_}) {
        Tick cur = lim->cur();
        unsigned used = lim->used();
        ar.u64(cur);
        ar.uns(used);
        if (!ar.saving() && ar.ok())
            lim->setState(cur, used);
    }
    ar.u64(fetchLine_);
    ar.u64(fetchLineReady_);
    ar.u64(fetchResume_);
    ar.u64(lastRetire_);
    ar.u64(serializeBarrier_);
    ar.u64(insts_);
    ar.u64(instMark_);
    ar.u64(tickMark_);
    ar.u64(malformedRecords_);
    bp_.ckpt(ar);
    stats_.ckpt(ar);
}

} // namespace ebcp
