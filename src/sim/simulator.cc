#include "sim/simulator.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <ostream>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "ckpt/containers.hh"
#include "sim/ckpt_io.hh"
#include "sim/watchdog.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/profiler.hh"

namespace ebcp
{

namespace
{

/**
 * Name of core @p i's @p part ("core", "l1", "trace") in checkpoint
 * sections, statistics, audit entries and watchdog labels: the bare
 * part in a one-core system, "core<i>" / "l1.<i>" / "trace<i>" among
 * @p cores > 1.
 */
std::string
partName(const std::string &part, unsigned i, unsigned cores)
{
    if (cores == 1)
        return part;
    // A separator keeps "l1" + 0 from reading as "l10".
    const bool digit = std::isdigit(static_cast<unsigned char>(part.back()));
    return part + (digit ? "." : "") + std::to_string(i);
}

} // namespace

Simulator::Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
                     unsigned cores)
    : Simulator(cfg, pf, createPrefetcher(pf), cores)
{}

Simulator::Simulator(const SimConfig &cfg, const PrefetcherParams &pf,
                     std::unique_ptr<Prefetcher> prefetcher, unsigned cores)
    : cfg_(cfg), pf_(pf), mem_(cfg.mem), prefetcher_(std::move(prefetcher))
{
    fatal_if(cores == 0, "the simulator needs at least one core");
    l2side_ = std::make_unique<L2Subsystem>(cfg_, mem_, *prefetcher_);
    for (unsigned i = 0; i < cores; ++i) {
        ports_.push_back(std::make_unique<Hierarchy>(cfg_, *l2side_, i));
        cores_.push_back(std::make_unique<CoreModel>(cfg_.core, *ports_[i]));
        cores_.back()->stats().setName(partName("core", i, cores));
    }

    // The EBCP's table entries can span multiple transfer units at
    // high degree; charge its table traffic accordingly.
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        l2side_->setTableTransferBytes(
            e->table().config().entryTransferBytes());
}

Tick
Simulator::now() const
{
    Tick t = 0;
    for (const auto &c : cores_)
        t = std::max(t, c->now());
    return t;
}

Status
Simulator::stallStatus(unsigned i, double wall_seconds)
{
    const std::string label = cores() > 1 ? partName("core", i, cores()) : "";
    WatchdogContext ctx;
    ctx.tracePolicy = tracePolicyName_;
    ctx.wallSeconds = wall_seconds;
    std::ostringstream json;
    JsonWriter w(json);
    progressDiagnosticJson(w, label, *cores_[i], *l2side_, mem_,
                           *prefetcher_, ctx);
    lastDiagnosticJson_ = json.str();
    return stalledError(progressDiagnostic(label, *cores_[i], *l2side_,
                                           mem_, *prefetcher_, ctx));
}

Status
Simulator::configureAudit(const AuditOptions &opts)
{
    if (!opts.enabled()) {
        for (auto &c : cores_)
            c->setAuditor(nullptr);
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
    for (unsigned i = 0; i < cores(); ++i)
        reg.add(partName("core", i, cores()),
                [this, i](AuditContext &c) { cores_[i]->audit(c); });
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
    for (auto &c : cores_)
        c->setAuditor(auditor_.get());
    l2side_->setAuditor(auditor_.get());
    return Status();
#endif
}

Status
Simulator::runPhase(const std::vector<TraceSource *> &sources,
                    std::uint64_t insts_per_core, IntervalSampler *sampler)
{
    fatal_if(sources.size() != cores_.size(),
             "the simulator needs one trace source per core, got ",
             sources.size(), " for ", cores_.size());
    for (auto &c : cores_)
        c->setWatchdog(cfg_.watchdogTicks);
    // One profiler scope and one clock read per phase, never per
    // run() call: at N > 1 a phase is thousands of short quanta, and
    // the scope's thread-CPU clock read is a syscall.
    EBCP_PROFILE_SCOPE(CoreLoop);
    const auto phase_start = std::chrono::steady_clock::now();

    // One core runs the whole window in one run() call, or in chunks
    // that end on the sampler's boundaries. Several cores take turns
    // in small *randomized* quanta: each core has its own timeline,
    // and the shared structures (L2, buses, prefetcher) see the cores'
    // requests approximately interleaved. The jitter matters: a fixed
    // rotation would interleave the miss streams at deterministic
    // distances, which a distance-keyed predictor could exploit --
    // real concurrent cores interleave stochastically.
    const unsigned n = cores();
    const std::uint64_t interval = sampler ? sampler->interval() : 0;
    std::uint64_t next_sample = interval;
    std::uint64_t sampled = 0;
    std::vector<std::uint64_t> done(n, 0);
    unsigned running = insts_per_core ? n : 0;
    while (running > 0) {
        for (unsigned i = 0; i < n; ++i) {
            std::uint64_t chunk = insts_per_core - done[i];
            if (n > 1)
                chunk = std::min<std::uint64_t>(
                    kQuantum / 2 + rng_.below(kQuantum), chunk);
            else if (sampler)
                chunk = std::min(interval - done[i] % interval, chunk);
            if (chunk == 0)
                continue;
            CoreModel &core = *cores_[i];
            const std::uint64_t before = core.instCount();
            core.run(*sources[i], chunk);
            if (core.watchdogTripped())
                return stallStatus(
                    i, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - phase_start)
                           .count());
            // A source that ran dry ends its core's window.
            done[i] = core.instCount() - before < chunk ? insts_per_core
                                                        : done[i] + chunk;
            if (done[i] == insts_per_core)
                --running;
            if (auditor_ && auditor_->abortRequested())
                return auditor_->toStatus();
        }
        if (!sampler)
            continue;
        const std::uint64_t least = *std::min_element(done.begin(), done.end());
        if (running > 0 && least < next_sample)
            continue;
        next_sample = (least / interval + 1) * interval;
        std::uint64_t measured = 0;
        for (const auto &c : cores_)
            measured += c->measuredInsts();
        if (measured == sampled)
            continue;
        sampled = measured;
        // A child scope, so interval sampling is not counted as the
        // cores' own time.
        EBCP_PROFILE_SCOPE(Stats);
        sampler->sample(measured);
        if (traceLog_)
            sampleCounterTracks();
    }
    return Status();
}

StatusOr<CmpResults>
Simulator::tryRun(const std::vector<TraceSource *> &sources,
                  std::uint64_t warm_insts, std::uint64_t measure_insts)
{
    if (Status s = runWarm(sources, warm_insts); !s.ok())
        return s;
    return runMeasure(sources, measure_insts);
}

CmpResults
Simulator::run(const std::vector<TraceSource *> &sources,
               std::uint64_t warm_insts, std::uint64_t measure_insts)
{
    StatusOr<CmpResults> r = tryRun(sources, warm_insts, measure_insts);
    fatal_if(!r.ok(), r.status().toString());
    return r.take();
}

Status
Simulator::runWarm(const std::vector<TraceSource *> &sources,
                   std::uint64_t warm_insts)
{
    return runPhase(sources, warm_insts, nullptr);
}

StatusOr<CmpResults>
Simulator::runMeasure(const std::vector<TraceSource *> &sources,
                      std::uint64_t measure_insts)
{
    for (unsigned i = 0; i < cores(); ++i) {
        cores_[i]->beginMeasurement();
        ports_[i]->beginMeasurement();
    }
    l2side_->beginMeasurement();
    mem_.stats().resetAll();
    readBusyMark_ = mem_.readChannel().busyTicks();
    writeBusyMark_ = mem_.writeChannel().busyTicks();

    if (Status s = runPhase(sources, measure_insts, sampler_); !s.ok())
        return s;
    // One final pass so every configured run ends with at least one
    // full audit, whatever the cadence saw during the window.
    if (auditor_) {
        auditor_->runNow(now());
        if (auditor_->abortRequested())
            return auditor_->toStatus();
    }
    return collect();
}

StatusOr<SimResults>
Simulator::tryRun(TraceSource &src, std::uint64_t warm_insts,
                  std::uint64_t measure_insts)
{
    if (Status s = runWarm(src, warm_insts); !s.ok())
        return s;
    return runMeasure(src, measure_insts);
}

SimResults
Simulator::run(TraceSource &src, std::uint64_t warm_insts,
               std::uint64_t measure_insts)
{
    return run({&src}, warm_insts, measure_insts);
}

StatusOr<SimResults>
Simulator::runMeasure(TraceSource &src, std::uint64_t measure_insts)
{
    StatusOr<CmpResults> r = runMeasure({&src}, measure_insts);
    if (!r.ok())
        return r.status();
    return SimResults(r.value());
}

void
Simulator::sampleCounterTracks()
{
    const Tick t = now();
    traceLog_->counterSample(
        "mshr_occupancy", t,
        static_cast<double>(l2side_->mshrs().occupancy()));
    traceLog_->counterSample(
        "pf_buffer_occupancy", t,
        static_cast<double>(l2side_->prefetchBuffer().validCount()));
    traceLog_->counterSample(
        "channel_backlog_ticks", t,
        static_cast<double>(mem_.readChannel().backlogTicks(t)));
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        traceLog_->counterSample(
            "corr_table_fill", t,
            static_cast<double>(e->table().populatedEntries()));
    const PrefetchLedger &ledger = l2side_->ledger();
    for (unsigned s = 0; s < PrefetchLedger::kMaxSources; ++s) {
        const PrefetchLedger::SourceCounters &sc = ledger.source(s);
        if (sc.issued == 0)
            continue;
        traceLog_->counterSample(
            "pf_accuracy_src" + std::to_string(s), t,
            static_cast<double>(sc.used()) /
                static_cast<double>(sc.issued));
    }
}

CmpResults
Simulator::collect()
{
    CmpResults r;
    double cycle_sum = 0.0;
    for (const auto &c : cores_) {
        SimResults core;
        core.insts = c->measuredInsts();
        core.cycles = c->measuredCycles();
        core.cpi = c->cpi();
        r.perCore.push_back(core);
        r.insts += core.insts;
        r.cycles = std::max(r.cycles, core.cycles);
        cycle_sum += static_cast<double>(core.cycles);
    }
    r.cpi = r.insts ? cycle_sum / static_cast<double>(r.insts) : 0.0;

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
    return ebcp::configFingerprint(cfg_, pf_, cores());
}

Status
Simulator::ckptSections(
    const std::vector<TraceSource *> &sources,
    const std::function<Status(const std::string &, const SectionFill &)>
        &visit)
{
    fatal_if(sources.size() != cores_.size(),
             "the simulator needs one trace source per core, got ",
             sources.size(), " for ", cores_.size());
    Status s;
    auto each = [&](const std::string &name, const SectionFill &fill) {
        if (s.ok())
            s = visit(name, fill);
    };
    for (unsigned i = 0; i < cores(); ++i) {
        each(partName("core", i, cores()),
             [this, i](ckpt::Archiver &ar) { cores_[i]->ckpt(ar); });
        each(partName("l1", i, cores()),
             [this, i](ckpt::Archiver &ar) { ports_[i]->ckpt(ar); });
    }
    each("l2side", [this](ckpt::Archiver &ar) { l2side_->ckpt(ar); });
    each("mem", [this](ckpt::Archiver &ar) { mem_.ckpt(ar); });
    each("prefetcher",
         [this](ckpt::Archiver &ar) { prefetcher_->ckpt(ar); });
    for (unsigned i = 0; i < cores(); ++i)
        each(partName("trace", i, cores()),
             [&sources, i](ckpt::Archiver &ar) { sources[i]->ckpt(ar); });
    // Images keep the sections they have always had: one core adds
    // the bus marks of its measurement window, several cores the
    // interleaving RNG. The marks only matter to an image taken inside
    // a measurement window; runMeasure() resets them.
    if (cores() == 1)
        each("simulator", [this](ckpt::Archiver &ar) {
            ar.u64(readBusyMark_);
            ar.u64(writeBusyMark_);
        });
    else
        each("cmp", [this](ckpt::Archiver &ar) { ckpt::ckptPcg32(ar, rng_); });
    return s;
}

StatusOr<std::string>
Simulator::serializeCheckpoint(const std::vector<TraceSource *> &sources)
{
    EBCP_PROFILE_SCOPE(Ckpt);
    ckpt::CheckpointWriter w(configFingerprint());
    Status s = ckptSections(
        sources, [&w](const std::string &name, const SectionFill &fill) {
            return w.section(name, fill);
        });
    if (!s.ok())
        return s;
    return w.serialize();
}

Status
Simulator::saveCheckpoint(const std::string &path,
                          const std::vector<TraceSource *> &sources)
{
    StatusOr<std::string> blob = serializeCheckpoint(sources);
    if (!blob.ok())
        return blob.status();
    return ckpt::atomicWriteFile(path, blob.value());
}

Status
Simulator::restoreCheckpoint(const std::string &buffer,
                             const std::vector<TraceSource *> &sources)
{
    EBCP_PROFILE_SCOPE(Ckpt);
    StatusOr<ckpt::CheckpointReader> reader =
        ckpt::CheckpointReader::fromBuffer(buffer, configFingerprint());
    if (!reader.ok())
        return reader.status();
    const ckpt::CheckpointReader &r = reader.value();
    return ckptSections(
        sources, [&r](const std::string &name, const SectionFill &load) {
            return r.section(name, load);
        });
}

Status
Simulator::restoreCheckpointFile(const std::string &path,
                                 const std::vector<TraceSource *> &sources)
{
    StatusOr<std::string> data = ckpt::readFile(path);
    if (!data.ok())
        return data.status();
    return restoreCheckpoint(data.value(), sources)
        .withContext(logFormat("restoring checkpoint '", path, "'"));
}

void
Simulator::dumpStats(std::ostream &os)
{
    EBCP_PROFILE_SCOPE(Stats);
    for (auto &c : cores_)
        c->stats().dump(os);
    for (auto &p : ports_)
        p->stats().dump(os);
    l2side_->stats().dump(os);
    mem_.stats().dump(os);
}

void
Simulator::dumpStatsJson(JsonWriter &w)
{
    EBCP_PROFILE_SCOPE(Stats);
    w.beginObject();
    auto group = [&w](StatGroup &g) {
        w.key(g.name());
        g.dumpJson(w);
    };
    for (auto &c : cores_)
        group(c->stats());
    for (auto &p : ports_)
        group(p->stats());
    group(l2side_->stats());
    group(mem_.stats());
    w.endObject();
}

SimResults
runOnce(const SimConfig &cfg, const PrefetcherParams &pf, TraceSource &src,
        std::uint64_t warm_insts, std::uint64_t measure_insts)
{
    Simulator sim(cfg, pf);
    return sim.run(src, warm_insts, measure_insts);
}

CmpResults
runCmp(const SimConfig &cfg, const PrefetcherParams &pf,
       const std::string &workload, unsigned cores, std::uint64_t warm,
       std::uint64_t measure)
{
    Simulator sim(cfg, pf, cores);
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> sources;
    for (unsigned i = 0; i < cores; ++i) {
        owned.push_back(makeWorkload(workload, 1000 + i));
        sources.push_back(owned.back().get());
    }
    return sim.run(sources, warm, measure);
}

} // namespace ebcp
