#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>

#include "core/ebcp.hh"

namespace perfbench
{

using namespace ebcp;

const char *
layerName(Layer l)
{
    static const char *const names[kLayers] = {
        "sim", "cpu", "trace", "cache", "prefetch", "mem", "ckpt", "harness"};
    return names[static_cast<std::size_t>(l)];
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Complete ("X") events in microseconds; the parent index and
        // run id ride in args so the span tree survives the export.
        os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << layerName(s.layer)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
           << ",\"ts\":" << static_cast<double>(s.start - t0) / 1e3
           << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"run\":" << s.run << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

bool
TimedSource::next(TraceRecord &rec)
{
    Scope s(t_, Layer::Trace, "trace.next");
    const bool ok = inner_.next(rec);
    records_ += ok;
    return ok;
}

std::size_t
TimedSource::nextBatch(TraceRecord *out, std::size_t max)
{
    Scope s(t_, Layer::Trace, "trace.nextBatch");
    const std::size_t n = inner_.nextBatch(out, max);
    records_ += n;
    return n;
}

std::size_t
TimedSource::peekSpan(const TraceRecord **out, std::size_t max)
{
    Scope s(t_, Layer::Trace, "trace.peekSpan");
    return inner_.peekSpan(out, max);
}

void
TimedSource::consumeSpan(std::size_t n)
{
    Scope s(t_, Layer::Trace, "trace.consumeSpan");
    inner_.consumeSpan(n);
    records_ += n;
}

MemOutcome
TimedMem::fetchInst(Addr pc, Tick when)
{
    Scope s(t_, Layer::Cache, "cache.fetchInst");
    return inner_.fetchInst(pc, when);
}

MemOutcome
TimedMem::load(Addr addr, Addr pc, Tick when)
{
    Scope s(t_, Layer::Cache, "cache.load");
    return inner_.load(addr, pc, when);
}

Tick
TimedMem::store(Addr addr, Tick when)
{
    Scope s(t_, Layer::Cache, "cache.store");
    return inner_.store(addr, when);
}

void
TimedPrefetcher::observeAccess(const L2AccessInfo &info)
{
    Scope s(t_, Layer::Prefetch, "prefetch.observeAccess");
    inner_.observeAccess(info);
}

void
TimedPrefetcher::observePrefetchHit(Addr line_addr,
                                    std::uint64_t corr_index, Tick when)
{
    Scope s(t_, Layer::Prefetch, "prefetch.observePrefetchHit");
    inner_.observePrefetchHit(line_addr, corr_index, when);
}

void
TimedEngine::issuePrefetch(Addr line_addr, Tick when,
                           std::uint64_t corr_index, bool has_corr,
                           unsigned source)
{
    Scope s(t_, Layer::Mem, "mem.issuePrefetch");
    inner_.issuePrefetch(line_addr, when, corr_index, has_corr, source);
}

MemAccessResult
TimedEngine::tableRead(Tick when)
{
    Scope s(t_, Layer::Mem, "mem.tableRead");
    return inner_.tableRead(when);
}

MemAccessResult
TimedEngine::tableWrite(Tick when)
{
    Scope s(t_, Layer::Mem, "mem.tableWrite");
    return inner_.tableWrite(when);
}

std::uint64_t
Digest::hash() const
{
    // FNV-1a over the words.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (std::uint64_t w : words)
        mix(w);
    return h;
}

Digest
digestOf(const std::vector<CoreModel *> &cores, L2Subsystem &l2,
         MainMemory *mem)
{
    Digest d;
    for (CoreModel *c : cores) {
        d.words.push_back(c->instCount());
        d.words.push_back(c->measuredInsts());
        d.words.push_back(c->measuredCycles());
    }
    const PrefetchLedger &ledger = l2.ledger();
    for (std::uint64_t v :
         {l2.offChipInst(), l2.offChipLoad(), l2.usefulPrefetches(),
          l2.issuedPrefetches(), l2.droppedPrefetches(),
          l2.epochTracker().epochs(), ledger.timelyHits(),
          ledger.lateHits(), ledger.evictedUnused(),
          l2.tableReadsServedLifetime(), l2.tableWritesServedLifetime()})
        d.words.push_back(v);
    if (mem) {
        d.words.push_back(mem->readChannel().busyTicks());
        d.words.push_back(mem->writeChannel().busyTicks());
    }
    return d;
}

Digest
digestOf(Simulator &sim)
{
    return digestOf({&sim.core()}, sim.l2side(), &sim.memory());
}

Digest
digestOf(CmpSystem &sys)
{
    std::vector<CoreModel *> cores;
    for (unsigned i = 0; i < sys.cores(); ++i)
        cores.push_back(&sys.core(i));
    return digestOf(cores, sys.l2side(), nullptr);
}

TracedSystem::TracedSystem(const SimConfig &cfg, const PrefetcherParams &pf,
                           unsigned cores, Tracer &t)
    : cfg_(cfg), t_(t), mem_(cfg_.mem), inner_(createPrefetcher(pf)),
      // CmpSystem's interleaving RNG seed and default quantum.
      rng_(0xc3b0), quantum_(100)
{
    Scope s(t_, Layer::Sim, "sim.construct");
    timedPf_ = std::make_unique<TimedPrefetcher>(*inner_, t_);
    l2side_ = std::make_unique<L2Subsystem>(cfg_, mem_, *timedPf_);
    engine_ = std::make_unique<TimedEngine>(*l2side_, t_);
    inner_->setEngine(engine_.get());
    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(inner_.get()))
        l2side_->setTableTransferBytes(
            e->table().config().entryTransferBytes());
    for (unsigned i = 0; i < cores; ++i) {
        ports_.push_back(std::make_unique<Hierarchy>(cfg_, *l2side_, i));
        timedPorts_.push_back(std::make_unique<TimedMem>(*ports_[i], t_));
        cores_.push_back(
            std::make_unique<CoreModel>(cfg_.core, *timedPorts_[i]));
        cores_.back()->setWatchdog(cfg_.watchdogTicks);
    }
}

void
TracedSystem::phase(std::vector<TraceSource *> &sources, std::uint64_t n)
{
    if (cores_.size() == 1) {
        Scope s(t_, Layer::Cpu, "cpu.run");
        cores_[0]->run(*sources[0], n);
        return;
    }
    // CmpSystem::runPhase's schedule: per turn, each core runs a
    // jittered quantum drawn from the shared RNG.
    const std::size_t k = cores_.size();
    std::uint64_t remaining = n * k;
    std::vector<std::uint64_t> done(k, 0);
    while (remaining > 0) {
        for (std::size_t i = 0; i < k; ++i) {
            const std::uint64_t turn =
                quantum_ / 2 +
                rng_.below(static_cast<std::uint32_t>(quantum_));
            const std::uint64_t chunk = std::min(turn, n - done[i]);
            if (chunk == 0)
                continue;
            {
                Scope s(t_, Layer::Cpu, "cpu.run");
                cores_[i]->run(*sources[i], chunk);
            }
            if (cores_[i]->watchdogTripped())
                return;
            done[i] += chunk;
            remaining -= chunk;
        }
    }
}

void
TracedSystem::run(std::vector<TraceSource *> &sources, std::uint64_t warm,
                  std::uint64_t measure)
{
    {
        Scope s(t_, Layer::Sim, "sim.warm");
        phase(sources, warm);
    }
    Scope s(t_, Layer::Sim, "sim.measure");
    for (auto &c : cores_)
        c->beginMeasurement();
    if (cores_.size() == 1)
        ports_[0]->beginMeasurement();
    l2side_->beginMeasurement();
    mem_.stats().resetAll();
    readMark_ = mem_.readChannel().busyTicks();
    writeMark_ = mem_.writeChannel().busyTicks();
    phase(sources, measure);
}

Digest
TracedSystem::digest()
{
    std::vector<CoreModel *> cores;
    for (auto &c : cores_)
        cores.push_back(c.get());
    return digestOf(cores, *l2side_, cores_.size() == 1 ? &mem_ : nullptr);
}

std::uint64_t
TracedSystem::simulatedInsts() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c->instCount();
    return n;
}

std::uint64_t
TracedSystem::measuredCycles() const
{
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n = std::max<std::uint64_t>(n, c->measuredCycles());
    return n;
}

bool
TracedSystem::stalled() const
{
    return std::any_of(cores_.begin(), cores_.end(),
                       [](const auto &c) { return c->watchdogTripped(); });
}

} // namespace perfbench
