/**
 * @file
 * The public facade of the simulation core (`libsim`).
 *
 * Everything above the core -- the sweep/telemetry harness
 * (`src/harness`), the paper benches, the example CLIs, and the fuzz
 * drivers -- embeds the simulator through this one header. It
 * aggregates the stable surface:
 *
 *   - SimConfig / PrefetcherParams   configuration
 *   - Simulator                      the one driver, for N >= 1 cores
 *                                    (CmpSystem: its old multi-core
 *                                    name, a constructor only)
 *   - SimResults                     the bit-exact result record
 *   - configFingerprint()            checkpoint identity hashing
 *
 * The point is a *narrow, auditable* boundary: scripts/layering_lint.py
 * (driven by the checked-in layering.rules) rejects any include of a
 * `sim/` internal header from outside the core, so the only way the
 * harness can grow a dependency on core internals is to widen this
 * facade in a reviewed change. Tests are exempt -- they white-box the
 * internals on purpose.
 *
 * Lower layers (util/, stats/, trace/ workload generators, ckpt/) are
 * part of libsim's public surface as well and are included directly;
 * the facade covers only the sim/ glue layer, whose internals
 * (hierarchy wiring, L2 subsystem, watchdog plumbing) churn the most.
 */

#ifndef EBCP_SIM_API_HH
#define EBCP_SIM_API_HH

#include "sim/ckpt_io.hh"
#include "sim/cmp_system.hh"
#include "sim/prefetcher_factory.hh"
#include "sim/results.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

#endif // EBCP_SIM_API_HH
