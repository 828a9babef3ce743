#include "sim/cmp_system.hh"

#include <algorithm>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "ckpt/containers.hh"
#include "sim/ckpt_io.hh"
#include "sim/watchdog.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"

namespace ebcp
{

CmpSystem::CmpSystem(const SimConfig &cfg, const PrefetcherParams &pf,
                     unsigned cores, std::uint64_t quantum)
    : CmpSystem(cfg, pf, createPrefetcher(pf), cores, quantum)
{}

CmpSystem::CmpSystem(const SimConfig &cfg, const PrefetcherParams &pf,
                     std::unique_ptr<Prefetcher> prefetcher,
                     unsigned cores, std::uint64_t quantum)
    : cfg_(cfg), pf_(pf), cores_(cores), quantum_(quantum), mem_(cfg.mem),
      prefetcher_(std::move(prefetcher))
{
    fatal_if(cores == 0, "CMP needs at least one core");
    fatal_if(quantum == 0, "CMP quantum must be positive");

    l2side_ = std::make_unique<L2Subsystem>(cfg_, mem_, *prefetcher_);
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(prefetcher_.get()))
        l2side_->setTableTransferBytes(
            e->table().config().entryTransferBytes());

    for (unsigned i = 0; i < cores_; ++i) {
        ports_.push_back(std::make_unique<Hierarchy>(cfg_, *l2side_, i));
        coreModels_.push_back(
            std::make_unique<CoreModel>(cfg_.core, *ports_[i]));
        coreModels_.back()->setWatchdog(cfg_.watchdogTicks);
    }
}

Status
CmpSystem::configureAudit(const AuditOptions &opts)
{
    if (!opts.enabled()) {
        for (auto &c : coreModels_)
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
    for (unsigned i = 0; i < cores_; ++i)
        reg.add(logFormat("core", i), [this, i](AuditContext &c) {
            coreModels_[i]->audit(c);
        });
    reg.add("l2", [this](AuditContext &c) { l2side_->l2().audit(c); });
    reg.add("l2.prefetch_buffer", [this](AuditContext &c) {
        l2side_->prefetchBuffer().audit(c);
    });
    reg.add("l2.mshrs",
            [this](AuditContext &c) { l2side_->mshrs().audit(c); });
    reg.add("l2.cross", [this](AuditContext &c) { l2side_->audit(c); });
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
    for (auto &c : coreModels_)
        c->setAuditor(auditor_.get());
    l2side_->setAuditor(auditor_.get());
    return Status();
#endif
}

Status
CmpSystem::runPhase(std::vector<TraceSource *> &sources,
                    std::uint64_t insts_per_core)
{
    // Round-robin in small *randomized* quanta. Each core has its own
    // timeline; the shared structures (L2, buses, prefetcher) see the
    // cores' requests approximately interleaved. The jittered quantum
    // matters: a fixed rotation would interleave the miss streams at
    // deterministic distances, which a distance-keyed predictor could
    // exploit -- real concurrent cores interleave stochastically.
    std::uint64_t remaining = insts_per_core * cores_;
    std::vector<std::uint64_t> done(cores_, 0);
    while (remaining > 0) {
        for (unsigned i = 0; i < cores_; ++i) {
            const std::uint64_t turn =
                quantum_ / 2 +
                rng_.below(static_cast<std::uint32_t>(quantum_));
            const std::uint64_t chunk =
                std::min(turn, insts_per_core - done[i]);
            if (chunk == 0)
                continue;
            coreModels_[i]->run(*sources[i], chunk);
            if (coreModels_[i]->watchdogTripped()) {
                WatchdogContext ctx;
                ctx.tracePolicy = tracePolicyName_;
                std::ostringstream json;
                JsonWriter w(json);
                progressDiagnosticJson(w, logFormat("core", i),
                                       *coreModels_[i], *l2side_, mem_,
                                       *prefetcher_, ctx);
                lastDiagnosticJson_ = json.str();
                return stalledError(progressDiagnostic(
                    logFormat("core", i), *coreModels_[i], *l2side_,
                    mem_, *prefetcher_, ctx));
            }
            done[i] += chunk;
            remaining -= chunk;
            if (auditor_ && auditor_->abortRequested())
                return auditor_->toStatus();
        }
    }
    return Status();
}

StatusOr<CmpResults>
CmpSystem::tryRun(std::vector<TraceSource *> &sources,
                  std::uint64_t warm, std::uint64_t measure)
{
    if (Status s = runWarm(sources, warm); !s.ok())
        return s;
    return runMeasure(sources, measure);
}

Status
CmpSystem::runWarm(std::vector<TraceSource *> &sources,
                   std::uint64_t warm)
{
    fatal_if(sources.size() != cores_,
             "CMP needs one trace source per core");
    return runPhase(sources, warm);
}

StatusOr<CmpResults>
CmpSystem::runMeasure(std::vector<TraceSource *> &sources,
                      std::uint64_t measure)
{
    fatal_if(sources.size() != cores_,
             "CMP needs one trace source per core");

    for (auto &c : coreModels_)
        c->beginMeasurement();
    l2side_->beginMeasurement();
    mem_.stats().resetAll();

    if (Status s = runPhase(sources, measure); !s.ok())
        return s;

    // One final pass so every configured run ends audited even if the
    // cadence never fired during the window.
    if (auditor_) {
        Tick now = 0;
        for (auto &c : coreModels_)
            now = std::max(now, c->now());
        auditor_->runNow(now);
        if (auditor_->abortRequested())
            return auditor_->toStatus();
    }

    CmpResults res;
    std::uint64_t total_insts = 0;
    double cycle_sum = 0.0;
    for (unsigned i = 0; i < cores_; ++i) {
        SimResults r;
        r.insts = coreModels_[i]->measuredInsts();
        r.cycles = coreModels_[i]->measuredCycles();
        r.cpi = coreModels_[i]->cpi();
        res.perCore.push_back(r);
        total_insts += r.insts;
        cycle_sum += static_cast<double>(r.cycles);
    }
    res.aggregateCpi =
        total_insts ? cycle_sum / static_cast<double>(total_insts) : 0.0;

    const std::uint64_t misses =
        l2side_->offChipInst() + l2side_->offChipLoad();
    const std::uint64_t useful = l2side_->usefulPrefetches();
    res.coverage = (misses + useful)
                       ? static_cast<double>(useful) /
                             static_cast<double>(misses + useful)
                       : 0.0;
    res.accuracy = l2side_->issuedPrefetches()
                       ? static_cast<double>(useful) /
                             static_cast<double>(
                                 l2side_->issuedPrefetches())
                       : 0.0;
    res.epochs = l2side_->epochTracker().epochs();

    const PrefetchLedger &ledger = l2side_->ledger();
    res.timelyPrefetches = ledger.timelyHits();
    res.latePrefetches = ledger.lateHits();
    res.earlyEvictedPrefetches = ledger.evictedUnused();
    res.timeliness = ledger.timeliness();
    return res;
}

CmpResults
CmpSystem::run(std::vector<TraceSource *> &sources, std::uint64_t warm,
               std::uint64_t measure)
{
    StatusOr<CmpResults> r = tryRun(sources, warm, measure);
    fatal_if(!r.ok(), r.status().toString());
    return r.take();
}

std::uint64_t
CmpSystem::configFingerprint() const
{
    return ebcp::configFingerprint(cfg_, pf_, cores_);
}

StatusOr<std::string>
CmpSystem::serializeCheckpoint(std::vector<TraceSource *> &sources)
{
    fatal_if(sources.size() != cores_,
             "CMP needs one trace source per core");
    ckpt::CheckpointWriter w(configFingerprint());
    Status s;
    auto add = [&](const std::string &name, auto &&fill) {
        if (s.ok())
            s = w.section(name, fill);
    };
    for (unsigned i = 0; i < cores_; ++i) {
        add(logFormat("core", i), [this, i](ckpt::Archiver &ar) {
            coreModels_[i]->ckpt(ar);
        });
        add(logFormat("l1.", i), [this, i](ckpt::Archiver &ar) {
            ports_[i]->ckpt(ar);
        });
        add(logFormat("trace", i),
            [&sources, i](ckpt::Archiver &ar) { sources[i]->ckpt(ar); });
    }
    add("l2side", [this](ckpt::Archiver &ar) { l2side_->ckpt(ar); });
    add("mem", [this](ckpt::Archiver &ar) { mem_.ckpt(ar); });
    add("prefetcher",
        [this](ckpt::Archiver &ar) { prefetcher_->ckpt(ar); });
    add("cmp", [this](ckpt::Archiver &ar) {
        ckpt::ckptPcg32(ar, rng_);
    });
    if (!s.ok())
        return s;
    return w.serialize();
}

Status
CmpSystem::saveCheckpoint(const std::string &path,
                          std::vector<TraceSource *> &sources)
{
    StatusOr<std::string> blob = serializeCheckpoint(sources);
    if (!blob.ok())
        return blob.status();
    return ckpt::atomicWriteFile(path, blob.value());
}

Status
CmpSystem::restoreCheckpoint(const std::string &buffer,
                             std::vector<TraceSource *> &sources)
{
    fatal_if(sources.size() != cores_,
             "CMP needs one trace source per core");
    StatusOr<ckpt::CheckpointReader> reader =
        ckpt::CheckpointReader::fromBuffer(buffer, configFingerprint());
    if (!reader.ok())
        return reader.status();
    const ckpt::CheckpointReader &r = reader.value();
    Status s;
    auto load = [&](const std::string &name, auto &&fn) {
        if (s.ok())
            s = r.section(name, fn);
    };
    for (unsigned i = 0; i < cores_; ++i) {
        load(logFormat("core", i), [this, i](ckpt::Archiver &ar) {
            coreModels_[i]->ckpt(ar);
        });
        load(logFormat("l1.", i), [this, i](ckpt::Archiver &ar) {
            ports_[i]->ckpt(ar);
        });
        load(logFormat("trace", i),
             [&sources, i](ckpt::Archiver &ar) { sources[i]->ckpt(ar); });
    }
    load("l2side", [this](ckpt::Archiver &ar) { l2side_->ckpt(ar); });
    load("mem", [this](ckpt::Archiver &ar) { mem_.ckpt(ar); });
    load("prefetcher",
         [this](ckpt::Archiver &ar) { prefetcher_->ckpt(ar); });
    load("cmp", [this](ckpt::Archiver &ar) {
        ckpt::ckptPcg32(ar, rng_);
    });
    return s;
}

Status
CmpSystem::restoreCheckpointFile(const std::string &path,
                                 std::vector<TraceSource *> &sources)
{
    StatusOr<std::string> data = ckpt::readFile(path);
    if (!data.ok())
        return data.status();
    return restoreCheckpoint(data.value(), sources)
        .withContext(logFormat("restoring checkpoint '", path, "'"));
}

CmpResults
runCmp(const SimConfig &cfg, const PrefetcherParams &pf,
       const std::string &workload, unsigned cores, std::uint64_t warm,
       std::uint64_t measure)
{
    CmpSystem sys(cfg, pf, cores);
    std::vector<std::unique_ptr<SyntheticWorkload>> owned;
    std::vector<TraceSource *> sources;
    for (unsigned i = 0; i < cores; ++i) {
        owned.push_back(makeWorkload(workload, 1000 + i));
        sources.push_back(owned.back().get());
    }
    return sys.run(sources, warm, measure);
}

SimResults
foldCmpResults(const CmpResults &cmp)
{
    SimResults res;
    res.cpi = cmp.aggregateCpi;
    res.coverage = cmp.coverage;
    res.accuracy = cmp.accuracy;
    res.timeliness = cmp.timeliness;
    res.epochs = cmp.epochs;
    res.timelyPrefetches = cmp.timelyPrefetches;
    res.latePrefetches = cmp.latePrefetches;
    res.earlyEvictedPrefetches = cmp.earlyEvictedPrefetches;
    for (const SimResults &core : cmp.perCore) {
        res.insts += core.insts;
        res.cycles = std::max(res.cycles, core.cycles);
        res.usefulPrefetches += core.usefulPrefetches;
        res.issuedPrefetches += core.issuedPrefetches;
        res.droppedPrefetches += core.droppedPrefetches;
    }
    if (res.insts)
        res.epochsPer1k =
            cmp.epochs * 1000.0 / static_cast<double>(res.insts);
    return res;
}

} // namespace ebcp
