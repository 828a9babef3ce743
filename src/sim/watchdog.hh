/**
 * @file
 * Forward-progress watchdog diagnostics.
 *
 * When a CoreModel's retire-gap watchdog trips, the interesting
 * question is *what was in flight across the stall*: which window
 * entries had not retired, which MSHRs held unreturned misses, how
 * busy the memory channels were, and what the prefetcher's epoch
 * state looked like. progressDiagnostic() gathers all of that -- plus
 * run context the caller supplies (wall-clock time from the start of
 * the stalled phase, the active trace-read policy) -- into a human-readable
 * dump, and progressDiagnosticJson() emits the same facts as one JSON
 * object so drivers can embed the diagnostic in stats.json instead of
 * scraping text. The text form remains the ostream fallback carried
 * by the Stalled status message.
 */

#ifndef EBCP_SIM_WATCHDOG_HH
#define EBCP_SIM_WATCHDOG_HH

#include <string>

#include "cpu/core_model.hh"
#include "mem/main_memory.hh"
#include "prefetch/prefetcher.hh"
#include "sim/l2_subsystem.hh"
#include "util/json.hh"

namespace ebcp
{

/** Run context the simulator layers cannot see on their own. */
struct WatchdogContext
{
    /** Active trace-read policy name ("" if the driver has none). */
    std::string tracePolicy;

    /** Wall-clock seconds from the start of the Simulator phase to the
     * trip. */
    double wallSeconds = 0.0;
};

/**
 * Build the diagnostic dump for a tripped watchdog on @p core.
 * @p label names the core in multi-core dumps ("core0"); pass "" for
 * single-core systems.
 */
std::string progressDiagnostic(const std::string &label, CoreModel &core,
                               L2Subsystem &l2side, MainMemory &mem,
                               Prefetcher &prefetcher,
                               const WatchdogContext &ctx = {});

/** The same diagnostic as one JSON object value on @p w. */
void progressDiagnosticJson(JsonWriter &w, const std::string &label,
                            CoreModel &core, L2Subsystem &l2side,
                            MainMemory &mem, Prefetcher &prefetcher,
                            const WatchdogContext &ctx = {});

} // namespace ebcp

#endif // EBCP_SIM_WATCHDOG_HH
