/**
 * @file
 * Observation-only tracing of the simulator's layers from outside the
 * program.
 *
 * Every decorator here sits on a seam the simulator already exposes
 * (TraceSource, MemSystem, Prefetcher, PrefetchEngine) and forwards
 * each call unchanged, so a decorated system produces bit-identical
 * results. Around each forwarded call it opens a span on the Tracer.
 *
 * The Tracer keeps exclusive ("self") time per layer: a span's
 * duration minus the part of it its child spans cover. Tracing costs
 * each span some time inside its own clock reads and some in its
 * parent's self time; the per-layer totals count both (calls and
 * child spans), so the cost can be taken back out. Hot seams see
 * millions of calls, so every span is folded into the per-layer
 * totals; the spans kept whole (name, start, end, parent, run id) for
 * the Chrome trace file are every span up to kKeptDepth levels deep
 * (runs, phases, checkpoint and sweep calls) plus the first
 * kMaxKeptFine deeper ones.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "mem/main_memory.hh"
#include "prefetch/prefetcher.hh"
#include "sim/api.hh"
#include "sim/hierarchy.hh"
#include "sim/l2_subsystem.hh"

namespace perfbench
{

/** The simulator's src/ modules, as the benchmark names its layers. */
enum class Layer : std::uint8_t
{
    Sim,      //!< the driver: warm/measure phases, CMP interleave
    Cpu,      //!< CoreModel::run minus what it calls below
    Trace,    //!< TraceSource pulls (record generation and decode)
    Cache,    //!< MemSystem calls: L1/L2, MSHRs, demand channel
    Prefetch, //!< Prefetcher observe calls (prefetch + core/EBCP)
    Mem,      //!< PrefetchEngine calls: prefetch issue, table traffic
    Ckpt,     //!< checkpoint serialize / restore
    Harness,  //!< SweepRunner::run
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

const char *layerName(Layer l);

/** Monotonic host clock in ns (steady_clock; vDSO-backed on Linux). */
std::uint64_t nowNs();

/** CPU time of the calling thread, in seconds. */
double threadCpuSeconds();

/** CPU time of the whole process (every thread), in seconds. */
double processCpuSeconds();

/** One kept span, in Chrome trace terms. */
struct Span
{
    const char *name = "";
    Layer layer = Layer::Sim;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int32_t parent = -1; //!< index into the kept spans, or -1
    std::uint32_t run = 0;
};

/** Per-layer totals folded from every span. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t selfNs = 0;
    std::uint64_t childSpans = 0; //!< spans opened directly below
};

/** Single-threaded span recorder. */
class Tracer
{
  public:
    static constexpr std::size_t kMaxDepth = 32;
    static constexpr std::size_t kKeptDepth = 2;
    static constexpr std::size_t kMaxKeptFine = 50'000;

    void
    begin(Layer layer, const char *name)
    {
        Frame &f = stack_[depth_++];
        f.layer = layer;
        f.child = 0;
        f.childSpans = 0;
        f.kept = -1;
        if (depth_ <= kKeptDepth || fineKept_ < kMaxKeptFine) {
            fineKept_ += depth_ > kKeptDepth;
            f.kept = static_cast<std::int32_t>(spans_.size());
            Span s;
            s.name = name;
            s.layer = layer;
            s.parent = depth_ > 1 ? stack_[depth_ - 2].kept : -1;
            s.run = run_;
            spans_.push_back(s);
        }
        f.start = nowNs();
        if (f.kept >= 0)
            spans_[static_cast<std::size_t>(f.kept)].start = f.start;
    }

    void
    end()
    {
        const std::uint64_t t = nowNs();
        const Frame &f = stack_[--depth_];
        const std::uint64_t d = t - f.start;
        LayerTotals &lt = totals_[static_cast<std::size_t>(f.layer)];
        ++lt.calls;
        lt.selfNs += d - std::min(d, f.child);
        lt.childSpans += f.childSpans;
        if (depth_ > 0) {
            stack_[depth_ - 1].child += d;
            ++stack_[depth_ - 1].childSpans;
        }
        if (f.kept >= 0)
            spans_[static_cast<std::size_t>(f.kept)].end = t;
    }

    /** Tag spans opened from now on with run id @p id. */
    void setRun(std::uint32_t id) { run_ = id; }

    const LayerTotals &
    totals(Layer l) const
    {
        return totals_[static_cast<std::size_t>(l)];
    }

    /** Copy of every layer's totals, to difference around a section. */
    std::array<LayerTotals, kLayers> snapshot() const { return totals_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the kept spans as Chrome trace JSON (Perfetto loads it). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Frame
    {
        Layer layer = Layer::Sim;
        std::uint64_t start = 0;
        std::uint64_t child = 0;
        std::uint64_t childSpans = 0;
        std::int32_t kept = -1;
    };

    std::array<Frame, kMaxDepth> stack_{};
    std::size_t depth_ = 0;
    std::array<LayerTotals, kLayers> totals_{};
    std::vector<Span> spans_;
    std::size_t fineKept_ = 0;
    std::uint32_t run_ = 0;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, Layer l, const char *name) : t_(t) { t_.begin(l, name); }
    ~Scope() { t_.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
};

/** TraceSource decorator: the trace layer. */
class TimedSource : public ebcp::TraceSource
{
  public:
    TimedSource(ebcp::TraceSource &inner, Tracer &t) : inner_(inner), t_(t)
    {}

    bool next(ebcp::TraceRecord &rec) override;
    std::size_t nextBatch(ebcp::TraceRecord *out, std::size_t max) override;
    bool spanSource() const override { return inner_.spanSource(); }
    std::size_t peekSpan(const ebcp::TraceRecord **out,
                         std::size_t max) override;
    void consumeSpan(std::size_t n) override;
    void reset() override { inner_.reset(); }
    void ckpt(ebcp::ckpt::Archiver &ar) override { inner_.ckpt(ar); }

    /** Records handed to the consumer. */
    std::uint64_t records() const { return records_; }

  private:
    ebcp::TraceSource &inner_;
    Tracer &t_;
    std::uint64_t records_ = 0;
};

/** MemSystem decorator between CoreModel and Hierarchy: the cache layer. */
class TimedMem : public ebcp::MemSystem
{
  public:
    TimedMem(ebcp::MemSystem &inner, Tracer &t) : inner_(inner), t_(t) {}

    ebcp::MemOutcome fetchInst(ebcp::Addr pc, ebcp::Tick when) override;
    ebcp::MemOutcome load(ebcp::Addr addr, ebcp::Addr pc,
                          ebcp::Tick when) override;
    ebcp::Tick store(ebcp::Addr addr, ebcp::Tick when) override;
    unsigned lineBytes() const override { return inner_.lineBytes(); }

  private:
    ebcp::MemSystem &inner_;
    Tracer &t_;
};

/** Prefetcher decorator: the prefetch layer (EBCP table/EMAB inside). */
class TimedPrefetcher : public ebcp::Prefetcher
{
  public:
    TimedPrefetcher(ebcp::Prefetcher &inner, Tracer &t)
        : Prefetcher(inner.name()), inner_(inner), t_(t)
    {}

    void observeAccess(const ebcp::L2AccessInfo &info) override;
    void observePrefetchHit(ebcp::Addr line_addr,
                            std::uint64_t corr_index,
                            ebcp::Tick when) override;
    void attachLedger(const ebcp::PrefetchLedger &ledger) override
    {
        inner_.attachLedger(ledger);
    }
    void beginMeasurement() override { inner_.beginMeasurement(); }
    void attachTraceLog(ebcp::TraceLog &log) override
    {
        inner_.attachTraceLog(log);
    }
    void audit(ebcp::AuditContext &ctx) const override { inner_.audit(ctx); }
    void ckpt(ebcp::ckpt::Archiver &ar) override { inner_.ckpt(ar); }

  private:
    ebcp::Prefetcher &inner_;
    Tracer &t_;
};

/** PrefetchEngine decorator, wired with Prefetcher::setEngine: the mem
 * layer (prefetch issue and correlation-table traffic). */
class TimedEngine : public ebcp::PrefetchEngine
{
  public:
    TimedEngine(ebcp::PrefetchEngine &inner, Tracer &t) : inner_(inner), t_(t)
    {}

    void issuePrefetch(ebcp::Addr line_addr, ebcp::Tick when,
                       std::uint64_t corr_index, bool has_corr,
                       unsigned source) override;
    ebcp::MemAccessResult tableRead(ebcp::Tick when) override;
    ebcp::MemAccessResult tableWrite(ebcp::Tick when) override;
    ebcp::Tick memoryLatency() const override
    {
        return inner_.memoryLatency();
    }

  private:
    ebcp::PrefetchEngine &inner_;
    Tracer &t_;
};

/**
 * Simulated outcome of a run, read from the components every driver
 * shares (cores, L2 side, memory). Two runs of the same work must
 * give equal digests; hash() is what the benchmark prints.
 */
struct Digest
{
    std::vector<std::uint64_t> words;

    std::uint64_t hash() const;
    bool operator==(const Digest &o) const { return words == o.words; }
};

/** @param mem may be null (CmpSystem does not expose its memory). */
Digest digestOf(const std::vector<ebcp::CoreModel *> &cores,
                ebcp::L2Subsystem &l2, ebcp::MainMemory *mem);

Digest digestOf(ebcp::Simulator &sim);
Digest digestOf(ebcp::CmpSystem &sys);

/**
 * The Simulator / CmpSystem component graph, assembled from the
 * simulator's public components with a decorator on every seam, and
 * driven the way the two drivers drive it: one CoreModel::run per
 * phase for a single core, randomized round-robin quanta for a CMP.
 * The driving loop is a copy of the drivers' (with CmpSystem's RNG
 * seed and default quantum), held to them by the digest check.
 */
class TracedSystem
{
  public:
    TracedSystem(const ebcp::SimConfig &cfg, const ebcp::PrefetcherParams &pf,
                 unsigned cores, Tracer &t);

    /** Warm @p warm then measure @p measure instructions per core. */
    void run(std::vector<ebcp::TraceSource *> &sources, std::uint64_t warm,
             std::uint64_t measure);

    Digest digest();
    ebcp::L2Subsystem &l2side() { return *l2side_; }
    ebcp::Prefetcher &prefetcher() { return *inner_; }
    std::uint64_t simulatedInsts() const;
    bool stalled() const;
    /** Longest core's measured cycles, and the channels' busy ticks
     * over the measured window. */
    std::uint64_t measuredCycles() const;
    double readBusyTicks() { return busySince(mem_.readChannel(), readMark_); }
    double writeBusyTicks()
    {
        return busySince(mem_.writeChannel(), writeMark_);
    }

  private:
    void phase(std::vector<ebcp::TraceSource *> &sources, std::uint64_t n);
    static double
    busySince(const ebcp::Channel &c, ebcp::Tick mark)
    {
        return static_cast<double>(c.busyTicks() - mark);
    }

    ebcp::SimConfig cfg_;
    Tracer &t_;
    ebcp::MainMemory mem_;
    std::unique_ptr<ebcp::Prefetcher> inner_;
    std::unique_ptr<TimedPrefetcher> timedPf_;
    std::unique_ptr<ebcp::L2Subsystem> l2side_;
    std::unique_ptr<TimedEngine> engine_;
    std::vector<std::unique_ptr<ebcp::Hierarchy>> ports_;
    std::vector<std::unique_ptr<TimedMem>> timedPorts_;
    std::vector<std::unique_ptr<ebcp::CoreModel>> cores_;
    ebcp::Pcg32 rng_;
    std::uint64_t quantum_;
    ebcp::Tick readMark_ = 0;
    ebcp::Tick writeMark_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
