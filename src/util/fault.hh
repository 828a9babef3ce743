/**
 * @file
 * Deterministic fault-injection plan.
 *
 * One FaultPlan, parsed from a comma-separated `faults=` list and a
 * `fault_seed=`, is threaded to every component that can inject a
 * fault. Each consumer derives its own PCG stream from the seed and a
 * distinct stream id, so runs with the same seed are bit-identical
 * regardless of which components are present, and the injected fault
 * sequence of one component never shifts another's.
 *
 * Fault kinds:
 *  - trace-bitflip   flip one random bit of a trace record in flight
 *  - trace-truncate  the trace source ends early (as a truncated file)
 *  - trace-shortread drop a small run of records (a short read)
 *  - table-drop      an EBCP correlation-table read never returns
 *  - table-delay     an EBCP correlation-table read returns late
 *  - demand-stall    one demand access wedges (leaked-MSHR model):
 *                    exercises the forward-progress watchdog
 */

#ifndef EBCP_UTIL_FAULT_HH
#define EBCP_UTIL_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"
#include "util/types.hh"

namespace ebcp
{

/** Which faults are armed, and the shared determinism parameters. */
struct FaultPlan
{
    bool traceBitflip = false;
    bool traceTruncate = false;
    bool traceShortRead = false;
    bool tableDrop = false;
    bool tableDelay = false;
    bool demandStall = false;

    /** Seed all injectors derive their streams from. */
    std::uint64_t seed = 1;

    /** Per-opportunity probability of each armed probabilistic fault. */
    double rate = 1e-4;

    /** Records delivered before a trace-truncate fault fires. */
    std::uint64_t truncateAfter = 1'000'000;

    /** Demand accesses served before a demand-stall fault fires. */
    std::uint64_t stallAfter = 100'000;

    /** Extra latency of a table-delay fault, in ticks. */
    Tick tableDelayTicks = 2'000;

    /** How far in the future a demand-stall fault pushes completion
     * (far beyond any sane watchdog limit). */
    static constexpr Tick StallTicks = 1'000'000'000'000ULL;

    /** @return true if any fault kind is armed. */
    bool any() const
    {
        return traceBitflip || traceTruncate || traceShortRead ||
               tableDrop || tableDelay || demandStall;
    }

    /** The plan core @p i's trace injector draws from: this plan
     * with seed + i, so the cores of a multi-core run see
     * independent fault streams and core 0 sees this plan's. */
    FaultPlan
    forCore(unsigned i) const
    {
        FaultPlan p = *this;
        p.seed = seed + i;
        return p;
    }

    /** All fault-kind names accepted by parse(). */
    static std::vector<std::string> kindNames();

    /**
     * Parse a comma-separated fault list ("trace-bitflip,table-drop");
     * an empty list yields a plan with no fault armed. Unknown names
     * are rejected with a nearest-name suggestion.
     */
    static StatusOr<FaultPlan> parse(const std::string &list,
                                     std::uint64_t seed);
};

/** Stream ids keeping consumers' PCG sequences disjoint. */
enum class FaultStream : std::uint64_t
{
    TraceSource = 0x5eed0001,
    Table = 0x5eed0002,
    Demand = 0x5eed0003,
    Checkpoint = 0x5eed0004,
};

} // namespace ebcp

#endif // EBCP_UTIL_FAULT_HH
