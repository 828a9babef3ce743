#include "sim/simulator.hh"

#include <ostream>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "sim/ckpt_io.hh"
#include "sim/watchdog.hh"
#include "util/logging.hh"
#include "util/profiler.hh"

namespace ebcp
{

Simulator::Simulator(const SimConfig &cfg, const PrefetcherParams &pf)
    : Simulator(cfg, pf, createPrefetcher(pf))
{}

Simulator::Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
                     std::unique_ptr<Prefetcher> prefetcher)
    : cfg_(cfg), pf_(pf), mem_(cfg.mem), prefetcher_(std::move(prefetcher))
{
    l2side_ = std::make_unique<L2Subsystem>(cfg_, mem_, *prefetcher_);
    hier_ = std::make_unique<Hierarchy>(cfg_, *l2side_, 0);
    core_ = std::make_unique<CoreModel>(cfg_.core, *hier_);

    // The EBCP's table entries can span multiple transfer units at
    // high degree; charge its table traffic accordingly.
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        l2side_->setTableTransferBytes(
            e->table().config().entryTransferBytes());
}

Status
Simulator::stallStatus()
{
    WatchdogContext ctx;
    ctx.tracePolicy = tracePolicyName_;
    std::ostringstream json;
    JsonWriter w(json);
    progressDiagnosticJson(w, "", *core_, *l2side_, mem_, *prefetcher_,
                           ctx);
    lastDiagnosticJson_ = json.str();
    return stalledError(progressDiagnostic("", *core_, *l2side_, mem_,
                                           *prefetcher_, ctx));
}

Status
Simulator::configureAudit(const AuditOptions &opts)
{
    if (!opts.enabled()) {
        core_->setAuditor(nullptr);
        l2side_->setAuditor(nullptr);
        auditor_.reset();
        return Status();
    }
#if !EBCP_AUDIT_ENABLED
    return invalidArgError(
        "auditing requested (cadence is not \"off\") but this build "
        "was configured with -DEBCP_AUDIT=OFF and has no hook sites");
#else
    auditor_ = std::make_unique<Auditor>(opts);
    AuditRegistry &reg = auditor_->registry();
    reg.add("core", [this](AuditContext &c) { core_->audit(c); });
    reg.add("l2", [this](AuditContext &c) { l2side_->l2().audit(c); });
    reg.add("l2.prefetch_buffer", [this](AuditContext &c) {
        l2side_->prefetchBuffer().audit(c);
    });
    reg.add("l2.mshrs",
            [this](AuditContext &c) { l2side_->mshrs().audit(c); });
    reg.add("l2.cross", [this](AuditContext &c) { l2side_->audit(c); });
    // The demand tracker's internal span invariants, plus cross-pass
    // monotonicity of the epoch ids it hands out.
    reg.add("epochs", [this, last = EpochId(0)](AuditContext &c) mutable {
        EpochTracker &t = l2side_->epochTracker();
        t.audit(c);
        c.check(t.currentEpoch() >= last, "epoch_ids_monotonic",
                "epoch id went from ", last, " back to ",
                t.currentEpoch());
        last = t.currentEpoch();
    });
    reg.add("memory", [this](AuditContext &c) { mem_.audit(c); });
    reg.add("prefetcher",
            [this](AuditContext &c) { prefetcher_->audit(c); });
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get())) {
        // Conservation and latency bounds between the control and the
        // memory system live in neither component.
        reg.add("ebcp.table_traffic", [this, e](AuditContext &c) {
            if (!e->config().onChipTable)
                c.check(e->tableReadAttemptsLifetime() ==
                            l2side_->tableReadsServedLifetime(),
                        "table_read_conservation",
                        e->tableReadAttemptsLifetime(),
                        " table reads attempted by the control but ",
                        l2side_->tableReadsServedLifetime(),
                        " reached the memory system");
            c.check(e->maxTableReadTicks() <=
                        mem_.maxLowPriorityReadLatency(),
                    "table_read_latency_bounded",
                    "a served table read took ", e->maxTableReadTicks(),
                    " ticks, above the served-read bound of ",
                    mem_.maxLowPriorityReadLatency());
        });
    }
    core_->setAuditor(auditor_.get());
    l2side_->setAuditor(auditor_.get());
    return Status();
#endif
}

StatusOr<SimResults>
Simulator::tryRun(TraceSource &src, std::uint64_t warm_insts,
                  std::uint64_t measure_insts)
{
    if (Status s = runWarm(src, warm_insts); !s.ok())
        return s;
    return runMeasure(src, measure_insts);
}

Status
Simulator::runWarm(TraceSource &src, std::uint64_t warm_insts)
{
    core_->setWatchdog(cfg_.watchdogTicks);

    core_->run(src, warm_insts);
    if (core_->watchdogTripped())
        return stallStatus();
    if (auditor_ && auditor_->abortRequested())
        return auditor_->toStatus();
    return Status();
}

StatusOr<SimResults>
Simulator::runMeasure(TraceSource &src, std::uint64_t measure_insts)
{
    core_->setWatchdog(cfg_.watchdogTicks);

    core_->beginMeasurement();
    hier_->beginMeasurement();
    l2side_->beginMeasurement();
    mem_.stats().resetAll();
    readBusyMark_ = mem_.readChannel().busyTicks();
    writeBusyMark_ = mem_.writeChannel().busyTicks();

    if (!sampler_) {
        core_->run(src, measure_insts);
        if (core_->watchdogTripped())
            return stallStatus();
        if (auditor_ && auditor_->abortRequested())
            return auditor_->toStatus();
    } else {
        // Drive the window in interval-sized chunks so the sampler
        // sees exact boundaries. Bit-exact vs one run() call: the
        // core's loop state lives entirely in its members.
        const std::uint64_t interval = sampler_->interval();
        std::uint64_t done = 0;
        while (done < measure_insts) {
            const std::uint64_t chunk = std::min(
                interval - done % interval, measure_insts - done);
            core_->run(src, chunk);
            if (core_->watchdogTripped())
                return stallStatus();
            if (auditor_ && auditor_->abortRequested())
                return auditor_->toStatus();
            const std::uint64_t got = core_->measuredInsts();
            if (got == done)
                break; // trace exhausted
            done = got;
            sampler_->sample(done);
            if (traceLog_)
                sampleCounterTracks();
        }
    }
    // One final pass so every configured run ends with at least one
    // full audit, whatever the cadence saw during the window.
    if (auditor_) {
        auditor_->runNow(core_->now());
        if (auditor_->abortRequested())
            return auditor_->toStatus();
    }
    return collect();
}

SimResults
Simulator::run(TraceSource &src, std::uint64_t warm_insts,
               std::uint64_t measure_insts)
{
    StatusOr<SimResults> r = tryRun(src, warm_insts, measure_insts);
    fatal_if(!r.ok(), r.status().toString());
    return r.take();
}

void
Simulator::sampleCounterTracks()
{
    const Tick now = core_->now();
    traceLog_->counterSample(
        "mshr_occupancy", now,
        static_cast<double>(l2side_->mshrs().occupancy()));
    traceLog_->counterSample(
        "pf_buffer_occupancy", now,
        static_cast<double>(l2side_->prefetchBuffer().validCount()));
    traceLog_->counterSample(
        "channel_backlog_ticks", now,
        static_cast<double>(mem_.readChannel().backlogTicks(now)));
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        traceLog_->counterSample(
            "corr_table_fill", now,
            static_cast<double>(e->table().populatedEntries()));
    const PrefetchLedger &ledger = l2side_->ledger();
    for (unsigned s = 0; s < PrefetchLedger::kMaxSources; ++s) {
        const PrefetchLedger::SourceCounters &sc = ledger.source(s);
        if (sc.issued == 0)
            continue;
        traceLog_->counterSample(
            "pf_accuracy_src" + std::to_string(s), now,
            static_cast<double>(sc.used()) /
                static_cast<double>(sc.issued));
    }
}

SimResults
Simulator::collect()
{
    SimResults r;
    r.insts = core_->measuredInsts();
    r.cycles = core_->measuredCycles();
    r.cpi = core_->cpi();

    r.epochs = l2side_->epochTracker().epochs();
    const double per1k =
        r.insts ? 1000.0 / static_cast<double>(r.insts) : 0.0;
    r.epochsPer1k = r.epochs * per1k;
    r.l2InstMissPer1k = l2side_->offChipInst() * per1k;
    r.l2LoadMissPer1k = l2side_->offChipLoad() * per1k;

    r.usefulPrefetches = l2side_->usefulPrefetches();
    r.issuedPrefetches = l2side_->issuedPrefetches();
    r.droppedPrefetches = l2side_->droppedPrefetches();

    const PrefetchLedger &ledger = l2side_->ledger();
    r.timelyPrefetches = ledger.timelyHits();
    r.latePrefetches = ledger.lateHits();
    r.earlyEvictedPrefetches = ledger.evictedUnused();
    r.timeliness = ledger.timeliness();

    const std::uint64_t misses =
        l2side_->offChipInst() + l2side_->offChipLoad();
    const std::uint64_t baseline_misses = misses + r.usefulPrefetches;
    r.coverage = baseline_misses
                     ? static_cast<double>(r.usefulPrefetches) /
                           static_cast<double>(baseline_misses)
                     : 0.0;
    r.accuracy = r.issuedPrefetches
                     ? static_cast<double>(r.usefulPrefetches) /
                           static_cast<double>(r.issuedPrefetches)
                     : 0.0;

    if (r.cycles) {
        r.readBusUtil =
            static_cast<double>(mem_.readChannel().busyTicks() -
                                readBusyMark_) /
            static_cast<double>(r.cycles);
        r.writeBusUtil =
            static_cast<double>(mem_.writeChannel().busyTicks() -
                                writeBusyMark_) /
            static_cast<double>(r.cycles);
    }
    return r;
}

std::uint64_t
Simulator::configFingerprint() const
{
    return ebcp::configFingerprint(cfg_, pf_, 1);
}

StatusOr<std::string>
Simulator::serializeCheckpoint(TraceSource &src)
{
    EBCP_PROFILE_SCOPE(Ckpt);
    ckpt::CheckpointWriter w(configFingerprint());
    Status s;
    auto add = [&](const char *name, auto &&fill) {
        if (s.ok())
            s = w.section(name, fill);
    };
    add("core", [this](ckpt::Archiver &ar) { core_->ckpt(ar); });
    add("l1", [this](ckpt::Archiver &ar) { hier_->ckpt(ar); });
    add("l2side", [this](ckpt::Archiver &ar) { l2side_->ckpt(ar); });
    add("mem", [this](ckpt::Archiver &ar) { mem_.ckpt(ar); });
    add("prefetcher",
        [this](ckpt::Archiver &ar) { prefetcher_->ckpt(ar); });
    add("trace", [&src](ckpt::Archiver &ar) { src.ckpt(ar); });
    add("simulator", [this](ckpt::Archiver &ar) {
        ar.u64(readBusyMark_);
        ar.u64(writeBusyMark_);
    });
    if (!s.ok())
        return s;
    return w.serialize();
}

Status
Simulator::saveCheckpoint(const std::string &path, TraceSource &src)
{
    StatusOr<std::string> blob = serializeCheckpoint(src);
    if (!blob.ok())
        return blob.status();
    return ckpt::atomicWriteFile(path, blob.value());
}

Status
Simulator::restoreCheckpoint(const std::string &buffer, TraceSource &src)
{
    EBCP_PROFILE_SCOPE(Ckpt);
    StatusOr<ckpt::CheckpointReader> reader =
        ckpt::CheckpointReader::fromBuffer(buffer, configFingerprint());
    if (!reader.ok())
        return reader.status();
    const ckpt::CheckpointReader &r = reader.value();
    Status s;
    auto load = [&](const char *name, auto &&fn) {
        if (s.ok())
            s = r.section(name, fn);
    };
    load("core", [this](ckpt::Archiver &ar) { core_->ckpt(ar); });
    load("l1", [this](ckpt::Archiver &ar) { hier_->ckpt(ar); });
    load("l2side", [this](ckpt::Archiver &ar) { l2side_->ckpt(ar); });
    load("mem", [this](ckpt::Archiver &ar) { mem_.ckpt(ar); });
    load("prefetcher",
         [this](ckpt::Archiver &ar) { prefetcher_->ckpt(ar); });
    load("trace", [&src](ckpt::Archiver &ar) { src.ckpt(ar); });
    load("simulator", [this](ckpt::Archiver &ar) {
        ar.u64(readBusyMark_);
        ar.u64(writeBusyMark_);
    });
    return s;
}

Status
Simulator::restoreCheckpointFile(const std::string &path, TraceSource &src)
{
    StatusOr<std::string> data = ckpt::readFile(path);
    if (!data.ok())
        return data.status();
    return restoreCheckpoint(data.value(), src)
        .withContext(logFormat("restoring checkpoint '", path, "'"));
}

void
Simulator::dumpStats(std::ostream &os)
{
    EBCP_PROFILE_SCOPE(Stats);
    core_->stats().dump(os);
    hier_->stats().dump(os);
    l2side_->stats().dump(os);
    mem_.stats().dump(os);
}

void
Simulator::dumpStatsJson(JsonWriter &w)
{
    EBCP_PROFILE_SCOPE(Stats);
    w.beginObject();
    for (StatGroup *g : {&core_->stats(), &hier_->stats(),
                         &l2side_->stats(), &mem_.stats()}) {
        w.key(g->name());
        g->dumpJson(w);
    }
    w.endObject();
}

SimResults
runOnce(const SimConfig &cfg, const PrefetcherParams &pf, TraceSource &src,
        std::uint64_t warm_insts, std::uint64_t measure_insts)
{
    Simulator sim(cfg, pf);
    return sim.run(src, warm_insts, measure_insts);
}

} // namespace ebcp
