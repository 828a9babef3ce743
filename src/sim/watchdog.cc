#include "sim/watchdog.hh"

#include <sstream>

#include "core/ebcp.hh"

namespace ebcp
{

namespace
{

/** The facts both renderings share, gathered once. */
struct Snapshot
{
    Tick trippedAt;
    Tick gap;
    Tick healthy;
    std::uint64_t insts;
    double wallSeconds;
    unsigned robInFlight;
};

Snapshot
gather(CoreModel &core, const WatchdogContext &ctx)
{
    Snapshot s{};
    s.trippedAt = core.now();
    s.gap = core.watchdogGap();
    s.healthy = s.trippedAt > s.gap ? s.trippedAt - s.gap : 0;
    s.insts = core.instCount();
    s.wallSeconds = ctx.wallSeconds;
    s.robInFlight = core.robOccupancyAfter(s.healthy);
    return s;
}

} // namespace

std::string
progressDiagnostic(const std::string &label, CoreModel &core,
                   L2Subsystem &l2side, MainMemory &mem,
                   Prefetcher &prefetcher, const WatchdogContext &ctx)
{
    std::ostringstream os;
    const Snapshot s = gather(core, ctx);

    os << "forward-progress watchdog tripped";
    if (!label.empty())
        os << " on " << label;
    os << ": " << s.gap << " ticks between retirements (last healthy "
       << "retire @" << s.healthy << ", stalled retire @" << s.trippedAt
       << ", " << s.insts << " insts processed)\n";

    os << "wall clock: " << s.wallSeconds
       << " s into the stalled phase\n";
    if (!ctx.tracePolicy.empty())
        os << "trace policy: " << ctx.tracePolicy << "\n";

    os << "rob: " << s.robInFlight
       << " entries were in flight across the stall\n";

    l2side.mshrs().dump(os);

    os << "read channel: " << mem.readChannel().busyTicks()
       << " busy ticks; write channel: "
       << mem.writeChannel().busyTicks() << " busy ticks\n";

    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(&prefetcher)) {
        const Emab &emab = e->emab();
        os << "emab: " << emab.size() << " epochs recorded\n";
        for (std::size_t i = 0; i < emab.size(); ++i) {
            const EmabEntry &ent = emab.entry(i);
            os << "  epoch " << ent.epoch << " key 0x" << std::hex
               << ent.keyAddr << std::dec << ", " << ent.missAddrs.size()
               << " misses\n";
        }
    }
    return os.str();
}

void
progressDiagnosticJson(JsonWriter &w, const std::string &label,
                       CoreModel &core, L2Subsystem &l2side,
                       MainMemory &mem, Prefetcher &prefetcher,
                       const WatchdogContext &ctx)
{
    const Snapshot s = gather(core, ctx);

    w.beginObject();
    w.kv("kind", "watchdog_stall");
    if (!label.empty())
        w.kv("core", label);
    w.kv("retire_gap_ticks", s.gap);
    w.kv("last_healthy_retire", s.healthy);
    w.kv("stalled_retire", s.trippedAt);
    w.kv("insts_processed", s.insts);
    w.kv("wall_seconds", s.wallSeconds);
    if (!ctx.tracePolicy.empty())
        w.kv("trace_policy", ctx.tracePolicy);
    w.kv("rob_in_flight", static_cast<std::uint64_t>(s.robInFlight));

    w.key("mshrs").beginObject();
    w.kv("occupancy",
         static_cast<std::uint64_t>(l2side.mshrs().occupancy()));
    w.kv("capacity", l2side.mshrs().capacity());
    w.endObject();

    w.key("channels").beginObject();
    w.kv("read_busy_ticks", mem.readChannel().busyTicks());
    w.kv("write_busy_ticks", mem.writeChannel().busyTicks());
    w.endObject();

    if (auto *e = dynamic_cast<EpochBasedPrefetcher *>(&prefetcher)) {
        const Emab &emab = e->emab();
        w.key("emab").beginArray();
        for (std::size_t i = 0; i < emab.size(); ++i) {
            const EmabEntry &ent = emab.entry(i);
            w.beginObject();
            w.kv("epoch", ent.epoch);
            w.kv("key", ent.keyAddr);
            w.kv("misses",
                 static_cast<std::uint64_t>(ent.missAddrs.size()));
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

} // namespace ebcp
